"""Transformation of isothermal generating data to canonical parameters.

The reparametrization z(w) solves (z')^2 = 1/(f(z) g'(z)).  Holomorphic data
decouples in null coordinates, so with Phi = f g' this is two independent
real problems, s(p) = s0 +- int_{p0}^{p} sqrt(Phi_plus) and
t(q) = t0 +- int_{q0}^{q} sqrt(Phi_minus): each null side of z(w) is the
inverse of a quadrature, tabulated with holofn.integrate_sweep and inverted
by bracketed Newton steps.  A constant f g' gives an affine z(w) instead.
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
from .weierstrass import GeneratingData, SurfacePatch, _NullIndex
from .geometry import FormsGrid, forms_grid

__all__ = [
    "BranchError",
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


class InconclusiveOverlap(RuntimeError):
    """Too few common nodes after gauge alignment to compare fields."""


# ---------------------------------------------------------------------------
# canonicalization
# ---------------------------------------------------------------------------


class CanonicalizationResult:
    """Sampled reparametrization z(w) and the transported generating function.

    g_tilde_expr is symbolic exactly when z(w) is affine (f*g' a symbolic
    constant); otherwise the transported function is available as samples
    only.  residual is |(z')^2 f g' - 1| on the affine route and the
    inversion residual |s(z(w)) - w| of the larger null side otherwise; it
    and z are NaN at nodes the quadrature cannot reach.  The inversion
    residual is bounded by construction (see _NEWTON_TOL); the accuracy of
    z is set by integrate_sweep's 1e-10 absolute tolerance on s.
    """

    def __init__(self, us, vs, w0, z0, sign, z_values, z_prime, g_tilde_values,
                 g_tilde_expr, residual, affine, z_at, z_prime_at, index):
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
        self._index = index  # the null sides of z_values, for per-side evaluation

    @property
    def max_residual(self) -> float:
        """Largest residual over the nodes with a value; NaN when there are none."""
        return self._finite_residual(np.max)

    @property
    def mean_residual(self) -> float:
        """Mean residual over the nodes with a value; NaN when there are none."""
        return self._finite_residual(np.mean)

    def _finite_residual(self, stat) -> float:
        finite = self.residual[np.isfinite(self.residual)]
        return float(stat(finite)) if finite.size else float("nan")

    def z_at(self, w) -> SplitComplex:
        return self._z_at(SplitComplex._coerce(w))

    def z_prime_at(self, w) -> SplitComplex:
        return self._z_prime_at(SplitComplex._coerce(w))


# uniform tabulation knots on each side of the base point
_KNOTS = 32
# a target w converges at |w(x) - w| <= _NEWTON_TOL * max(1, |w - w0|, rate(x) |x|):
# rate(x) |x| eps / 2 is the least error a float x can reach
_NEWTON_TOL = 32 * np.finfo(float).eps


def _invert(phi: HoloExpr, z0: SplitComplex, w0: SplitComplex, sign: int, w: SplitComplex):
    """z with w0 + sign * int_{z0}^{z} sqrt(Phi) = w, Phi = f g', per null side.

    Each null side is a real problem from x0, its coordinate of z0, and the
    two run in lockstep: each tabulation pass and each Newton step is one
    integrate_sweep call with a problem per side.  The integral is tabulated
    on _KNOTS uniform knots per side of x0, and a side's span doubles until
    the table covers every target or a gap of it fails.  Each distinct
    target then takes Newton steps with the exact derivative sqrt(Phi),
    bracketed by the table; a step that leaves the bracket or does not halve
    the error bisects instead.  When a bracket shrinks to _NEWTON_TOL
    relative width before its target converges, the last iterate is kept if
    both ends are reachable; if an end lies beyond a failed gap, past a cone
    exit Phi <= _CONE_EPS or a singularity, the target is NaN, as is a
    non-finite target.  Returns the null sides of z, as a _NullIndex whose
    knots are z+ at the distinct targets of w.p and z- at those of w.q, and
    the larger side's |w(x) - w|, shaped like w.
    """
    def rate(x, side):
        val = np.broadcast_to(phi.eval_null(x, side), np.shape(x))
        return np.sqrt(np.where(val > _CONE_EPS, val, np.nan))

    rates = [lambda x, side=side: rate(x, side) for side in (PLUS, MINUS)]

    # the distinct targets of both sides in one array, the PLUS side first
    x0 = np.array([float(z0.p), float(z0.q)])
    (tp, at_p), (tq, at_q) = (np.unique(np.asarray(t, float), return_inverse=True) for t in (w.p, w.q))
    sd = np.repeat([PLUS, MINUS], [len(tp), len(tq)])
    y = sign * (np.concatenate([tp, tq]) - np.array([w0.p, w0.q])[sd])  # integral from x0 each target needs
    open_ = np.isfinite(y)
    y_lo, y_hi = ([red(y[open_ & (sd == s)], initial=0.0) for s in (PLUS, MINUS)] for red in (np.min, np.max))
    span = np.array([[(max(-y_lo[s], y_hi[s]) or 1.0) / rate(x0[s:s + 1], s)[0]] * 2 for s in (PLUS, MINUS)])
    steps = np.arange(-_KNOTS, _KNOTS + 1) / _KNOTS
    while True:
        knots = x0[:, None] + np.where(steps < 0, span[:, :1], span[:, 1:]) * steps
        table, ok = map(np.array, zip(*holofn.integrate_sweep(rates, knots, [_KNOTS, _KNOTS])))
        short = np.stack([ok[:, 0] & (table[:, 0] > y_lo), ok[:, -1] & (table[:, -1] < y_hi)], axis=1)
        if not short.any():
            break
        span[short] *= 2.0

    # bracket knots[k - 1] < x <= knots[k]; an end may lie beyond a failed gap
    k = np.concatenate([np.flatnonzero(ok[s])[0] + np.searchsorted(table[s, ok[s]], y[sd == s])
                        for s in (PLUS, MINUS)])
    k_lo, k_hi = np.maximum(k - 1, 0), np.minimum(k, 2 * _KNOTS)
    lo, hi, lo_ok, hi_ok = knots[sd, k_lo], knots[sd, k_hi], ok[sd, k_lo], ok[sd, k_hi]
    x = np.concatenate([np.interp(y[sd == s], table[s, ok[s]], knots[s, ok[s]]) for s in (PLUS, MINUS)])
    last = np.full(len(y), np.inf)
    out, res = np.full((2, len(y)), np.nan)
    while open_.any():
        i = np.flatnonzero(open_)
        xi, si = x[i], sd[i]
        xs = np.split(xi, [np.count_nonzero(si == PLUS)])
        pts, at = zip(*(np.unique(np.append(xs[s], x0[s]), return_inverse=True) for s in (PLUS, MINUS)))
        runs = holofn.integrate_sweep(rates, pts, [a[-1] for a in at])
        err = np.concatenate([F[a[:-1]] for (F, _), a in zip(runs, at)]) - y[i]
        slope = np.concatenate([rate(xs[s], s) for s in (PLUS, MINUS)])
        good = np.isfinite(err) & np.isfinite(slope)
        # a reachable iterate replaces the end on its side of the root, an
        # unreachable one the end on its side of x0
        up = np.where(good, err > 0.0, xi > x0[si])
        hi[i[up]], hi_ok[i[up]] = xi[up], good[up]
        lo[i[~up]], lo_ok[i[~up]] = xi[~up], good[~up]
        with np.errstate(invalid="ignore", divide="ignore"):
            step = xi - err / slope
            tol = _NEWTON_TOL * np.maximum(np.maximum(1.0, np.abs(y[i])), slope * np.abs(xi))
        newton = (step > lo[i]) & (step < hi[i]) & (np.abs(err) <= 0.5 * last[i])
        last[i] = np.where(good, np.abs(err), np.inf)
        x[i] = np.where(newton, step, 0.5 * (lo[i] + hi[i]))
        shut = hi[i] - lo[i] <= _NEWTON_TOL * np.maximum(1.0, np.abs(xi))
        # both ends reachable makes xi itself one of them, so it is good
        done = (good & (np.abs(err) <= tol)) | (shut & lo_ok[i] & hi_ok[i])
        out[i[done]] = xi[done]
        res[i[done]] = np.abs(err[done])
        open_[i[done | shut]] = False
    p, q = at_p.reshape(np.shape(w.p)), at_q.reshape(np.shape(w.q))
    n = len(tp)
    return _NullIndex((out[:n], out[n:]), (p, q)), np.maximum(res[p], res[n + q])[()]


def canonicalize(
    f: HoloExpr,
    g: HoloExpr,
    w0=None,
    z0=None,
    domain: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0),
    grid: tuple[int, int] = (33, 33),
    sign: int = +1,
) -> CanonicalizationResult:
    """Solve (z')^2 = 1/(f(z) g'(z)) with z(w0) = z0 over a w-rectangle.

    The sampled map z(w) and g~(w) = g(z(w)) are returned on the requested
    grid; w0 may lie outside the rectangle.  sign selects the branch
    z' = sign / sqrt(f g'); both choices differ by a canonical-parameter
    gauge.  A symbolically constant f g' gives the affine map; otherwise
    each null side is the inverse of a quadrature (_invert), and z is
    NaN at the nodes that side cannot reach.  Raises BranchError when
    f g'(z0) is outside the square-root cone, or a constant f g' is.
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
    if gamma is not None:
        return _canonicalize_affine(f, g, phi, gamma, w0, z0, sign, us, vs, wgrid)

    try:
        phi0 = phi.eval(z0)
    except (ZeroDivisor, NoSquareRoot) as exc:
        raise BranchError("f*g' not invertible at z0: %s" % exc) from exc
    if not (phi0.p > _CONE_EPS and phi0.q > _CONE_EPS):
        raise BranchError("f*g'(z0) = %s is outside the sqrt-admissible cone" % phi0)

    def z_of(index):
        return from_null(*(k[a] for k, a in zip(index.knots, index.at)))

    def z_prime_of(index):
        # z' = sign / sqrt(f g'(z)), exact per null side
        return from_null(*(sign / np.sqrt(v) for v in index.sides(phi)))

    index, res = _invert(phi, z0, w0, sign, wgrid)
    return CanonicalizationResult(
        us, vs, w0, z0, sign, z_of(index), z_prime_of(index), from_null(*index.sides(g)),
        None, res, False, lambda w: z_of(_invert(phi, z0, w0, sign, w)[0]),
        lambda w: z_prime_of(_invert(phi, z0, w0, sign, w)[0]), index,
    )


def _canonicalize_affine(f, g, phi, gamma, w0, z0, sign, us, vs, wgrid):
    if not (gamma.p > _CONE_EPS and gamma.q > _CONE_EPS):
        raise BranchError(
            "constant f*g' = %s is outside the sqrt-admissible cone" % gamma
        )
    r = sc_sqrt(splitc(1.0) / gamma)
    r = r if sign > 0 else -r
    shift = z0 - r * w0

    def z_at(w):
        return shift + r * w

    def z_prime_at(w):
        return r if w.shape == () else SplitComplex(np.full(w.shape, r.re), np.full(w.shape, r.im))

    zvals, zprime = z_at(wgrid), z_prime_at(wgrid)
    res = ((zprime * zprime) * phi.eval(zvals) - 1.0).mag
    if np.nanmax(res) > 1e-8:
        raise BranchError("affine solution rejected by the residual check")
    return CanonicalizationResult(
        us, vs, w0, z0, sign, zvals, zprime, g.eval(zvals), g.subs(Const(shift) + Const(r) * Z),
        res, True, z_at, z_prime_at, _NullIndex((zvals.p, zvals.q), (..., ...)),
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
        # z = w: evaluated per node, since sorting the grid costs more than
        # it saves on the 41^2 equivalence fields
        index = _NullIndex((U + V, U - V), (..., ...))
    else:
        w0 = w0 if w0 is not None else data.base_point
        z0 = z0 if z0 is not None else data.base_point
        index = canonicalize(data.f, data.g, w0=w0, z0=z0, domain=domain, grid=grid, sign=sign)._index
    return SampledField(us, vs, _curvature_at(data, index, gate))


def _curvature_at(data: GeneratingData, index: _NullIndex, gate: float) -> np.ndarray:
    """K = -16|g'|^2 / (|f|^2 (1-|g|^2)^4) per node of the null sides of z in
    index, with |h|^2 = h+ h-; NaN where a factor is singular or 1 - |g|^2 is
    within `gate` of zero."""
    sides = [index.sides(e) for e in (data.g, data.g.derivative(), data.f) if e is not None]
    ok = np.logical_and.reduce([np.isfinite(v) for side in sides for v in side])
    with np.errstate(invalid="ignore", divide="ignore"):
        gm2, gpm2, *fm2 = (a * b for a, b in sides)
        gap = 1.0 - gm2
        if not fm2:
            # f = 1/g': |f|^2 = 1/|g'|^2
            K = -16.0 * gpm2 * gpm2 / gap**4
            ok = ok & (np.abs(gpm2) > 1e-300)
        else:
            K = -16.0 * gpm2 / (fm2[0] * gap**4)
            ok = ok & (np.abs(fm2[0]) > 1e-300)
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
    patch: SurfacePatch | FormsGrid, method: str = "auto", gate: np.ndarray | None = None
) -> CoefficientReport:
    """Check a patch against the canonical first/second form shapes.

    patch may also be the FormsGrid already computed from a patch; method
    then goes unused.
    """
    grid = patch if isinstance(patch, FormsGrid) else forms_grid(patch, method)
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

            return (-at(2) + 16 * at(1) - 30 * m0 + 16 * at(-1) - at(-2)) / (
                12.0 * h**2
            )

        k0 = np.asarray(K(U, V), float)
        s = _branch_sign(k0, sign)
        with np.errstate(invalid="ignore", divide="ignore"):
            m0 = m_of(k0)
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
