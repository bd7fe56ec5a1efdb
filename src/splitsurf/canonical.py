"""Transformation of isothermal generating data to canonical parameters.

The reparametrization z(w) solves (z')^2 = 1/(f(z) g'(z)).  Holomorphic data
decouples in null coordinates, so this is two independent real ODEs
p'(s) = +-1/sqrt(Phi_plus(p)) and q'(t) = +-1/sqrt(Phi_minus(q)), integrated
with an embedded Runge-Kutta 4(5) pair and cubic Hermite dense output.
Verification utilities check the canonical coefficient shapes and the PDE
(ln sqrt(-+K))_uu - (ln sqrt(-+K))_vv = 2 sqrt(-+K) that the curvature of a
minimal timelike surface satisfies in canonical parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NoSquareRoot, SplitComplex, ZeroDivisor, from_null, splitc
from .algebra import sqrt as sc_sqrt
from . import holofn
from .holofn import PLUS, MINUS, Const, HoloExpr, Z
from .weierstrass import GeneratingData, SurfacePatch, _eval_grid
from .geometry import forms_grid

__all__ = [
    "BranchError",
    "StepFailure",
    "InconclusiveOverlap",
    "CanonicalGauge",
    "CanonicalizationResult",
    "SampledField",
    "CoefficientReport",
    "FieldMatch",
    "canonicalize",
    "canonical_curvature_field",
    "verify_canonical_coefficients",
    "canonical_pde_residual",
    "apply_gauge",
    "compare_curvature_fields",
]

_CONE_EPS = 1e-13


class BranchError(ArithmeticError):
    """f * g' left the cone where the square-root branch stays admissible."""


class StepFailure(RuntimeError):
    """The adaptive ODE solver could not meet its tolerance."""


class InconclusiveOverlap(RuntimeError):
    """Too few common nodes after gauge alignment to compare fields."""


# ---------------------------------------------------------------------------
# embedded Runge-Kutta 4(5), Dormand-Prince, with cubic Hermite dense output
# ---------------------------------------------------------------------------

# stage times are not needed: the reparametrization ODEs are autonomous
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])
_DP_B4 = np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40]
)

_MAX_STEPS = 200_000


def _rk45(rhs, t0, t1, y0, rtol, atol, max_step):
    """Integrate y' = rhs(y) from t0 to t1; returns knot arrays (ts, ys, fs)."""
    if t1 == t0:
        f0 = rhs(y0)
        return np.array([t0]), np.array([y0]), np.array([f0])
    direction = 1.0 if t1 > t0 else -1.0
    span = abs(t1 - t0)
    h = direction * min(max_step, span / 16.0)
    t, y = t0, y0
    f = rhs(y)
    ts, ys, fs = [t], [y], [f]
    for _ in range(_MAX_STEPS):
        if (t1 - t) * direction <= 0.0:
            return np.array(ts), np.array(ys), np.array(fs)
        final = abs(h) >= abs(t1 - t)
        if final:
            h = t1 - t
        ks = [f]
        for i in range(1, 6):
            yi = y + h * float(np.dot(_DP_A[i], ks[: len(_DP_A[i])]))
            ks.append(rhs(yi))
        y5 = y + h * float(np.dot(_DP_B5, ks))
        f5 = rhs(y5)
        ks.append(f5)
        y4 = y + h * float(np.dot(_DP_B4, ks))
        scale = atol + rtol * max(abs(y), abs(y5))
        err = abs(y5 - y4) / scale
        if err <= 1.0:
            t = t1 if final else t + h
            y = y5
            f = f5
            ts.append(t)
            ys.append(y)
            fs.append(f)
            if final:
                return np.array(ts), np.array(ys), np.array(fs)
        factor = 0.9 * (err ** -0.2) if err > 0.0 else 5.0
        h *= min(5.0, max(0.2, factor))
        if abs(h) > max_step:
            h = direction * max_step
        if abs(h) < 1e-14 * max(1.0, span):
            raise StepFailure("step size underflow at t=%g" % t)
    raise StepFailure("no convergence in %d steps" % _MAX_STEPS)


class _DenseODE:
    """Piecewise cubic Hermite interpolant through accepted RK steps."""

    def __init__(self, ts, ys, fs):
        order = np.argsort(ts)
        self.ts = np.asarray(ts)[order]
        self.ys = np.asarray(ys)[order]
        self.fs = np.asarray(fs)[order]

    def _locate(self, t):
        t = np.asarray(t, float)
        lo, hi = self.ts[0], self.ts[-1]
        pad = 1e-9 * max(1.0, abs(hi - lo))
        if np.any(t < lo - pad) or np.any(t > hi + pad):
            raise ValueError("sample outside the integrated range")
        t = np.clip(t, lo, hi)
        idx = np.clip(np.searchsorted(self.ts, t, side="right") - 1, 0, len(self.ts) - 2)
        return t, idx

    def sample(self, t):
        t, i = self._locate(t)
        t0, t1 = self.ts[i], self.ts[i + 1]
        h = t1 - t0
        h = np.where(h == 0.0, 1.0, h)
        th = (t - t0) / h
        h00 = 2 * th**3 - 3 * th**2 + 1
        h10 = th**3 - 2 * th**2 + th
        h01 = -2 * th**3 + 3 * th**2
        h11 = th**3 - th**2
        return h00 * self.ys[i] + h * (h10 * self.fs[i] + h11 * self.fs[i + 1]) + h01 * self.ys[i + 1]

    def deriv(self, t):
        t, i = self._locate(t)
        t0, t1 = self.ts[i], self.ts[i + 1]
        h = t1 - t0
        h = np.where(h == 0.0, 1.0, h)
        th = (t - t0) / h
        d00 = (6 * th**2 - 6 * th) / h
        d10 = 3 * th**2 - 4 * th + 1
        d01 = (-6 * th**2 + 6 * th) / h
        d11 = 3 * th**2 - 2 * th
        return d00 * self.ys[i] + d10 * self.fs[i] + d01 * self.ys[i + 1] + d11 * self.fs[i + 1]


def _solve_component(phi: HoloExpr, side, x0, span_lo, span_hi, sign, rtol, atol, max_step):
    def rhs(x):
        val = phi.eval_null(x, side)
        if not np.isfinite(val) or val <= _CONE_EPS:
            raise BranchError(
                "f*g' left the sqrt-admissible cone (component value %g at %g)"
                % (val, x)
            )
        return sign / np.sqrt(val)

    t0 = x0[0]
    knots = []
    for target in (span_lo, span_hi):
        ts, ys, fs = _rk45(rhs, t0, target, x0[1], rtol, atol, max_step)
        knots.append((ts, ys, fs))
    ts = np.concatenate([knots[0][0], knots[1][0]])
    ys = np.concatenate([knots[0][1], knots[1][1]])
    fs = np.concatenate([knots[0][2], knots[1][2]])
    return _DenseODE(ts, ys, fs)


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


class CanonicalizationResult:
    """Sampled reparametrization z(w) and the transported generating function.

    g_tilde_expr is symbolic exactly when z(w) is affine (constant f*g');
    otherwise the transported function is available as samples only.
    """

    def __init__(self, us, vs, w0, z0, sign, z_values, z_prime, g_tilde_values,
                 g_tilde_expr, residual, affine, z_at, z_prime_at):
        self.us = us
        self.vs = vs
        self.w0 = w0
        self.z0 = z0
        self.sign_choice = sign
        self.z_values = z_values
        self.z_prime = z_prime
        self.g_tilde_values = g_tilde_values
        self.g_tilde_expr = g_tilde_expr
        self.residual = residual
        self.affine = affine
        self._z_at = z_at
        self._z_prime_at = z_prime_at

    @property
    def max_residual(self) -> float:
        return float(np.nanmax(self.residual))

    def z_at(self, w) -> SplitComplex:
        return self._z_at(SplitComplex._coerce(w))

    def z_prime_at(self, w) -> SplitComplex:
        return self._z_prime_at(SplitComplex._coerce(w))


def _probe_constant(phi: HoloExpr, z0: SplitComplex, radius: float):
    """Numeric constancy probe around z0; None unless all samples agree."""
    offsets = [0.0, radius, -radius, radius / 3.0, -radius / 2.0]
    vals = []
    for dp in offsets:
        for dq in offsets:
            try:
                vals.append(phi.eval(from_null(z0.p + dp, z0.q + dq)))
            except (ZeroDivisor, NoSquareRoot):
                return None
    ref = vals[0]
    scale = max(1.0, float(ref.mag))
    for v in vals[1:]:
        if float((v - ref).mag) > 1e-12 * scale:
            return None
    return ref


def canonicalize(
    f: HoloExpr,
    g: HoloExpr,
    w0=None,
    z0=None,
    domain: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0),
    grid: tuple[int, int] = (33, 33),
    sign: int = +1,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    max_step: float | None = None,
) -> CanonicalizationResult:
    """Solve (z')^2 = 1/(f(z) g'(z)) with z(w0) = z0 over a w-rectangle.

    The sampled map z(w) and g~(w) = g(z(w)) are returned on the requested
    grid; w0 may lie outside the rectangle (integration extends to reach it).
    sign selects the branch z' = sign / sqrt(f g'); both choices differ by a
    canonical-parameter gauge.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    w0 = SplitComplex._coerce(w0 if w0 is not None else splitc(0.0))
    z0 = SplitComplex._coerce(z0 if z0 is not None else w0)
    u0, u1, v0, v1 = map(float, domain)
    n, m = grid
    us = np.linspace(u0, u1, n)
    vs = np.linspace(v0, v1, m)
    U, V = np.meshgrid(us, vs, indexing="ij")
    wgrid = SplitComplex(U, V)

    phi = f * g.derivative()
    gamma = holofn.constant_value(phi)
    probed = False
    if gamma is None:
        try:
            p0 = phi.eval(z0)
            reach = max(abs(u1 - u0) + abs(v1 - v0), float((w0 - splitc(u0, v0)).mag))
            if p0.p > _CONE_EPS and p0.q > _CONE_EPS:
                radius = reach / float(np.sqrt(min(p0.p, p0.q)))
                gamma = _probe_constant(phi, z0, radius)
                probed = gamma is not None
        except (ZeroDivisor, NoSquareRoot):
            gamma = None

    if gamma is not None:
        try:
            return _canonicalize_affine(f, g, phi, gamma, w0, z0, sign, us, vs, wgrid)
        except BranchError:
            if not probed:
                raise
            # the numeric constancy probe was fooled; solve the ODEs instead

    # two decoupled real ODE solves, one per null coordinate
    S = U + V
    T = U - V
    if max_step is None:
        # cap the step so the Hermite-interpolant derivative (cubic, O(h^3))
        # keeps the reparametrization residual below ~1e-9
        span = max(S.max() - S.min(), T.max() - T.min(), 1e-6)
        max_step = span / 512.0
    try:
        phi.eval(z0)
    except (ZeroDivisor, NoSquareRoot) as exc:
        raise BranchError("f*g' not invertible at z0: %s" % exc) from exc
    dense_p = _solve_component(
        phi, PLUS, (float(w0.p), float(z0.p)),
        min(S.min(), float(w0.p)), max(S.max(), float(w0.p)), sign, rtol, atol, max_step,
    )
    dense_q = _solve_component(
        phi, MINUS, (float(w0.q), float(z0.q)),
        min(T.min(), float(w0.q)), max(T.max(), float(w0.q)), sign, rtol, atol, max_step,
    )

    zvals = from_null(dense_p.sample(S), dense_q.sample(T))
    zprime = from_null(dense_p.deriv(S), dense_q.deriv(T))
    res = ((zprime * zprime) * phi.eval(zvals) - 1.0).mag

    def z_at(w):
        return from_null(dense_p.sample(w.p), dense_q.sample(w.q))

    def z_prime_at(w):
        return from_null(dense_p.deriv(w.p), dense_q.deriv(w.q))

    return CanonicalizationResult(
        us, vs, w0, z0, sign, zvals, zprime, g.eval(zvals),
        None, res, False, z_at, z_prime_at,
    )


def _canonicalize_affine(f, g, phi, gamma, w0, z0, sign, us, vs, wgrid):
    if not (gamma.p > _CONE_EPS and gamma.q > _CONE_EPS):
        raise BranchError(
            "constant f*g' = %s is outside the sqrt-admissible cone" % gamma
        )
    r = sc_sqrt(splitc(1.0) / gamma)
    if sign < 0:
        r = -r
    shift = z0 - r * w0
    z_expr = Const(shift) + Const(r) * Z
    g_tilde_expr = g.subs(z_expr)
    zvals = shift + r * wgrid
    ones = np.ones(wgrid.shape)
    zprime = SplitComplex(r.re * ones, r.im * ones)
    res = ((zprime * zprime) * phi.eval(zvals) - 1.0).mag
    if np.nanmax(res) > 1e-8:
        raise BranchError("affine solution rejected by the residual check")

    def z_at(w):
        return shift + r * w

    def z_prime_at(w):
        if w.shape == ():
            return r
        return SplitComplex(r.re * np.ones(w.shape), r.im * np.ones(w.shape))

    return CanonicalizationResult(
        us, vs, w0, z0, sign, zvals, zprime, g.eval(zvals), g_tilde_expr, res, True,
        z_at, z_prime_at,
    )


# ---------------------------------------------------------------------------
# sampled scalar fields over (u, v) rectangles
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SampledField:
    us: np.ndarray
    vs: np.ndarray
    values: np.ndarray  # (len(us), len(vs)), NaN marks gated / invalid nodes

    @property
    def h_u(self) -> float:
        return float(self.us[1] - self.us[0]) if len(self.us) > 1 else 0.0

    @property
    def h_v(self) -> float:
        return float(self.vs[1] - self.vs[0]) if len(self.vs) > 1 else 0.0


def canonical_curvature_field(
    data: GeneratingData,
    domain: tuple[float, float, float, float],
    grid: tuple[int, int] = (41, 41),
    w0=None,
    z0=None,
    sign: int = +1,
    gate: float = 0.1,
) -> SampledField:
    """Gauss curvature in canonical parameters, K = -16|g'|^2 / (|f|^2 (1-|g|^2)^4).

    For canonical data the parameters are already canonical (z = w); general
    pairs are canonicalized first.  Nodes within `gate` of the blow-up locus
    1 - |g|^2 = 0 are masked NaN.
    """
    u0, u1, v0, v1 = map(float, domain)
    n, m = grid
    us = np.linspace(u0, u1, n)
    vs = np.linspace(v0, v1, m)
    U, V = np.meshgrid(us, vs, indexing="ij")
    if data.is_canonical:
        zvals = SplitComplex(U, V)
    else:
        w0 = w0 if w0 is not None else data.base_point
        z0 = z0 if z0 is not None else data.base_point
        result = canonicalize(data.f, data.g, w0=w0, z0=z0, domain=domain, grid=grid, sign=sign)
        zvals = result.z_values
    return SampledField(us, vs, _curvature_at(data, zvals, gate))


def _curvature_at(data: GeneratingData, zvals: SplitComplex, gate: float) -> np.ndarray:
    """K = -16|g'|^2 / (|f|^2 (1-|g|^2)^4) per node; NaN where a factor is
    singular or 1 - |g|^2 is within `gate` of zero."""
    gvals, okg = _eval_grid(data.g, zvals)
    gpvals, okp = _eval_grid(data.g.derivative(), zvals)
    if data.f is not None:
        fvals, okf = _eval_grid(data.f, zvals)
        fm2 = fvals.modulus2
        ok = okg & okp & okf
    else:
        fm2 = None
        ok = okg & okp

    gm2 = gvals.modulus2
    gpm2 = gpvals.modulus2
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = 1.0 - gm2
        if fm2 is None:
            # f = 1/g': |f|^2 = 1/|g'|^2
            K = -16.0 * gpm2 * gpm2 / gap**4
            ok = ok & (np.abs(gpm2) > 1e-300)
        else:
            K = -16.0 * gpm2 / (fm2 * gap**4)
            ok = ok & (np.abs(fm2) > 1e-300)
        ok = ok & np.isfinite(K) & (np.abs(gap) > gate)
    return np.where(ok, K, np.nan)


# ---------------------------------------------------------------------------
# canonical-coefficient verification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoefficientReport:
    """Residuals against the canonical coefficient shapes, per node.

    Negative-curvature branch: -E = G = 1/sqrt(-K), F = 0, L = N = -1, M = 0.
    Positive-curvature branch:  E = -G = 1/sqrt(K),  F = 0, L = N = 0, M = 1.
    """

    residuals: dict
    branch: np.ndarray  # -1, +1, or 0 where undefined
    valid: np.ndarray
    max_residual: float
    mean_residual: float

    def summary(self) -> dict:
        out = {
            "max_residual": self.max_residual,
            "mean_residual": self.mean_residual,
            "nodes": int(np.sum(self.valid)),
        }
        for name, arr in self.residuals.items():
            out["max_" + name] = float(np.nanmax(arr)) if np.any(np.isfinite(arr)) else float("nan")
        return out

    def ok(self, tol: float) -> bool:
        return self.max_residual < tol


def verify_canonical_coefficients(
    patch: SurfacePatch, method: str = "auto", gate: np.ndarray | None = None
) -> CoefficientReport:
    """Check a patch against the canonical first/second form shapes."""
    grid = forms_grid(patch, method)
    valid = grid.valid if gate is None else (grid.valid & gate)
    E, F, G, L, M, N, K = grid.E, grid.F, grid.G, grid.L, grid.M, grid.N, grid.K
    with np.errstate(invalid="ignore"):
        neg = valid & (K < 0.0)
        pos = valid & (K > 0.0)
        nan = np.full(E.shape, np.nan)
        res = {
            "E_plus_G": np.where(valid, np.abs(E + G), nan),
            "F": np.where(valid, np.abs(F), nan),
            "L": np.where(neg, np.abs(L + 1.0), np.where(pos, np.abs(L), nan)),
            "M": np.where(neg, np.abs(M), np.where(pos, np.abs(M - 1.0), nan)),
            "N": np.where(neg, np.abs(N + 1.0), np.where(pos, np.abs(N), nan)),
            "E_vs_K": np.where(
                neg,
                np.abs(-E - 1.0 / np.sqrt(np.abs(K))),
                np.where(pos, np.abs(E - 1.0 / np.sqrt(np.abs(K))), nan),
            ),
        }
    branch = np.zeros(E.shape, int)
    branch[neg] = -1
    branch[pos] = +1
    stacked = np.stack(list(res.values()))
    finite = np.isfinite(stacked)
    max_res = float(np.max(stacked[finite])) if np.any(finite) else float("nan")
    mean_res = float(np.mean(stacked[finite])) if np.any(finite) else float("nan")
    return CoefficientReport(res, branch, valid & (branch != 0), max_res, mean_res)


# ---------------------------------------------------------------------------
# the canonical-parameter curvature PDE
# ---------------------------------------------------------------------------


def canonical_pde_residual(
    K,
    sign: str = "auto",
    h: float = 1e-3,
    us: np.ndarray | None = None,
    vs: np.ndarray | None = None,
) -> SampledField:
    """Residual of (ln sqrt(s*K))_uu - (ln sqrt(s*K))_vv - 2 sqrt(s*K), s = -+1.

    K may be a callable K(u, v) (evaluated on us x vs with five-point central
    stencils of spacing h) or a SampledField (three-point differences on its
    own grid).  sign "negative" checks the K < 0 equation, "positive" the
    K > 0 one, "auto" picks per node.
    """
    if callable(K):
        if us is None or vs is None:
            raise ValueError("callable K needs explicit us and vs arrays")
        us = np.asarray(us, float)
        vs = np.asarray(vs, float)
        U, V = np.meshgrid(us, vs, indexing="ij")

        def m_of(kvals):
            return 0.5 * np.log(np.abs(kvals))

        def second(axis_u: bool):
            # fourth-order central stencil (-1, 16, -30, 16, -1) / (12 h^2)
            def at(c):
                return m_of(K(U + c * h, V) if axis_u else K(U, V + c * h))

            return (-at(2) + 16 * at(1) - 30 * at(0) + 16 * at(-1) - at(-2)) / (
                12.0 * h**2
            )

        k0 = np.asarray(K(U, V), float)
        s = _branch_sign(k0, sign)
        with np.errstate(invalid="ignore", divide="ignore"):
            ok = (s * k0) > 0.0
            resid = second(True) - second(False) - 2.0 * np.sqrt(np.where(ok, s * k0, np.nan))
        return SampledField(us, vs, np.where(ok, resid, np.nan))

    field: SampledField = K
    k0 = field.values
    s = _branch_sign(k0, sign)
    hu, hv = field.h_u, field.h_v
    with np.errstate(invalid="ignore", divide="ignore"):
        ok = (s * k0) > 0.0
        m = 0.5 * np.log(np.where(ok, s * k0, np.nan))
        sk = np.where(ok, s * k0, np.nan)
        resid = np.full(k0.shape, np.nan)
        resid[1:-1, 1:-1] = (
            (m[2:, 1:-1] - 2 * m[1:-1, 1:-1] + m[:-2, 1:-1]) / hu**2
            - (m[1:-1, 2:] - 2 * m[1:-1, 1:-1] + m[1:-1, :-2]) / hv**2
            - 2.0 * np.sqrt(sk[1:-1, 1:-1])
        )
    return SampledField(field.us, field.vs, np.where(ok, resid, np.nan))


def _branch_sign(k0, sign):
    if sign == "negative":
        return -1.0
    if sign == "positive":
        return +1.0
    if sign == "auto":
        return np.where(k0 < 0.0, -1.0, 1.0)
    raise ValueError("sign must be negative, positive or auto")


# ---------------------------------------------------------------------------
# gauge freedom of canonical parameters
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CanonicalGauge:
    """u = eps*u_new + A, v = eps*v_new + B with eps = +-1."""

    eps: int = 1
    A: float = 0.0
    B: float = 0.0

    def __post_init__(self):
        if self.eps not in (1, -1):
            raise ValueError("eps must be +1 or -1")

    def then(self, other: "CanonicalGauge") -> "CanonicalGauge":
        """Gauge equal to applying self first, then `other`."""
        return CanonicalGauge(
            self.eps * other.eps,
            self.eps * other.A + self.A,
            self.eps * other.B + self.B,
        )

    def map_to_old(self, u_new, v_new):
        return self.eps * u_new + self.A, self.eps * v_new + self.B


def apply_gauge(gauge: CanonicalGauge, obj):
    """Relabel canonical parameters of a field, patch, or callable.

    The sample values are untouched; only the coordinate labels change, so
    difference-based reports are invariant up to node reindexing.
    """
    if callable(obj) and not isinstance(obj, (SampledField, SurfacePatch)):
        return lambda u, v: obj(*gauge.map_to_old(u, v))
    eps, A, B = gauge.eps, gauge.A, gauge.B
    if isinstance(obj, SampledField):
        us = eps * (obj.us - A)
        vs = eps * (obj.vs - B)
        vals = obj.values
        if eps == -1:
            us, vs, vals = us[::-1], vs[::-1], vals[::-1, ::-1]
        return SampledField(us, vs, vals.copy())
    if isinstance(obj, SurfacePatch):
        us = eps * (obj.us - A)
        vs = eps * (obj.vs - B)
        pts = obj.points
        val = obj.valid
        if eps == -1:
            us, vs = us[::-1], vs[::-1]
            pts, val = pts[::-1, ::-1], val[::-1, ::-1]
        # analytic provenance no longer matches the relabeled parameters
        return SurfacePatch(us, vs, pts.copy(), val.copy(), None)
    raise TypeError("cannot gauge objects of type %s" % type(obj).__name__)


# ---------------------------------------------------------------------------
# curvature-field comparison modulo gauge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldMatch:
    matched: bool
    gauge: CanonicalGauge | None
    discrepancy: float
    overlap: int


def _overlap_slices(n1, n2, d):
    """Index ranges pairing field1[i] with field2[i - d]."""
    start1 = max(0, d)
    end1 = min(n1, n2 + d)
    return slice(start1, end1), slice(start1 - d, end1 - d)


def compare_curvature_fields(
    field1: SampledField,
    field2: SampledField,
    tol: float = 1e-4,
    min_overlap: int = 9,
) -> FieldMatch:
    """Match two canonical curvature fields modulo the parameter gauge.

    The search is exhaustive over eps in {+1, -1} and every lattice
    translation, i.e. a whole number of common grid steps per axis, under
    which the fields overlap on at least axis_floor = max(2, isqrt(min_overlap))
    indices along each axis and share at least min_overlap finite nodes.
    The returned gauge minimises the key (max |K1 - K2| over the shared
    nodes, |A| + |B|, eps = +1 before -1, index shift), so ties go to the
    smallest translation; |A| + |B| counts in grid steps to 6 decimals, so
    rounding in the grid origins cannot decide a tie.

    Masked FFT correlations (Padfield, IEEE TIP 2012) give every translation
    the RMS of K1 - K2 over its shared nodes, less a rounding margin: a lower
    bound on its max discrepancy.  Translations are evaluated exactly in
    increasing bound order until the next bound exceeds the best discrepancy
    found, which returns the exhaustive answer.  Gauges off the lattice are
    not recovered.  Raises InconclusiveOverlap when no translation qualifies.
    """
    h = field1.h_u
    for other in (field1.h_v, field2.h_u, field2.h_v):
        if abs(other - h) > 1e-9 * max(1.0, abs(h)):
            raise ValueError("fields must share one common grid step")
    axis_floor = max(2, int(np.sqrt(min_overlap)))
    vals1 = field1.values
    n1, m1 = vals1.shape
    n2, m2 = field2.values.shape
    shape = (n1 + n2 - 1, m1 + m2 - 1)

    def spectrum(x):
        return np.fft.rfft2(x, shape)

    ok1 = np.isfinite(vals1)
    a = np.where(ok1, vals1, 0.0)
    ok2 = np.isfinite(field2.values)
    b = np.where(ok2, field2.values, 0.0)
    spec_ok1, spec_a2, spec_a = spectrum(ok1.astype(float)), spectrum(a * a), spectrum(a)
    # An FFT correlation of x and y over N entries errs by at most about
    # eps log2(N) |x|_2 |y|_1 per entry, and each term of the sum of squares
    # below has |x|_2 |y|_1 <= N (sum a^2 + sum b^2).  Errors measured on
    # fields spanning five decades stay below 1e-4 of this margin, so no
    # bound exceeds the exact discrepancy.
    size = shape[0] * shape[1]
    margin = 4.0 * np.finfo(float).eps * np.log2(size) * size * (np.sum(a * a) + np.sum(b * b))

    # entry k of a full correlation holds the index shift d = k - (n2 - 1)
    shifts_u = np.arange(shape[0]) - (n2 - 1)
    shifts_v = np.arange(shape[1]) - (m2 - 1)
    span_u = np.minimum(n1, n2 + shifts_u) - np.maximum(0, shifts_u)
    span_v = np.minimum(m1, m2 + shifts_v) - np.maximum(0, shifts_v)
    axis_ok = (span_u >= axis_floor)[:, None] & (span_v >= axis_floor)[None, :]

    oriented = {}
    cands, bounds = [], []  # per eps: (eps, du, dv) arrays and discrepancy bounds
    for eps in (1, -1):
        if eps == 1:
            oriented[eps] = (field2.us, field2.vs, field2.values)
            ok_e, b_e = ok2, b
        else:
            oriented[eps] = (-field2.us[::-1], -field2.vs[::-1], field2.values[::-1, ::-1])
            ok_e, b_e = ok2[::-1, ::-1], b[::-1, ::-1]
        # correlation with the second field is convolution with it reversed
        spec_ok2, spec_b2, spec_b = (spectrum(x[::-1, ::-1]) for x in (ok_e.astype(float), b_e * b_e, b_e))
        count = np.rint(np.fft.irfft2(spec_ok1 * spec_ok2, shape))
        # sum over shared nodes of (K1 - K2)^2 = sum a^2 m2 + sum m1 b^2 - 2 sum a b
        ssd = np.fft.irfft2(spec_a2 * spec_ok2 + spec_ok1 * spec_b2 - 2.0 * spec_a * spec_b, shape)
        ku, kv = np.nonzero(axis_ok & (count >= min_overlap))
        with np.errstate(invalid="ignore"):
            bounds.append(np.sqrt(np.maximum(ssd[ku, kv] - margin, 0.0) / count[ku, kv]))
        cands.append(np.stack([np.full(len(ku), eps), shifts_u[ku], shifts_v[kv]], axis=1))

    cands = np.concatenate(cands)
    if not len(cands):
        raise InconclusiveOverlap(
            "no gauge alignment shares %d valid nodes" % min_overlap
        )
    bounds = np.concatenate(bounds)
    best = None
    # a NaN bound (overflowing squares) never stops the pass, so it stays exact
    for k in np.argsort(bounds, kind="stable"):
        if best is not None and bounds[k] > best[0][0]:
            break
        eps, du, dv = (int(c) for c in cands[k])
        us2, vs2, vals2 = oriented[eps]
        su1, su2 = _overlap_slices(n1, n2, du)
        sv1, sv2 = _overlap_slices(m1, m2, dv)
        x = vals1[su1, sv1]
        y = vals2[su2, sv2]
        both = np.isfinite(x) & np.isfinite(y)
        disc = float(np.max(np.abs(x[both] - y[both])))
        A = float(field1.us[su1.start] - us2[su2.start])
        B = float(field1.vs[sv1.start] - vs2[sv2.start])
        key = (disc, round((abs(A) + abs(B)) / h, 6), 0 if eps == 1 else 1, du, dv)
        if best is None or key < best[0]:
            best = (key, FieldMatch(disc < tol, CanonicalGauge(eps, A, B), disc, int(np.sum(both))))
    return best[1]
