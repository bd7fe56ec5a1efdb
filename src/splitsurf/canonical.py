"""Transformation of isothermal generating data to canonical parameters.

The reparametrization z(w) solves (z')^2 = 1/(f(z) g'(z)).  Holomorphic data
decouples in null coordinates, so with Phi = f g' this is two independent
real problems, s(p) = s0 +- int_{p0}^{p} sqrt(Phi_plus) and
t(q) = t0 +- int_{q0}^{q} sqrt(Phi_minus): each null side of z(w) is the
inverse of a quadrature, tabulated with holofn.integrate_sweep and inverted
by bracketed Newton steps; a symbolically constant f g' gives the affine
z+- = z0+- + z'+- (s - w0+-) instead.  Both routes yield z's null sides at
the knots of the w grid's null index (_z_sides), from which canonicalize and
canonical_curvature_field evaluate whatever they need once per knot.
Verification utilities check the canonical coefficient shapes and the PDE
that the curvature of a minimal timelike surface satisfies in canonical
parameters, (ln sqrt|K|)_uu - (ln sqrt|K|)_vv = 2 sigma sqrt|K|, whose
branch sigma = sign(g'+ g'-) is taken per node, on either part (K < 0 or
K > 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .algebra import NoSquareRoot, SplitComplex, ZeroDivisor, from_null, splitc
from .algebra import sqrt as sc_sqrt
from . import holofn
from .holofn import PLUS, MINUS, Const, HoloExpr, Z
from .weierstrass import GeneratingData, SurfacePatch, _NullIndex, _axes, _null_index
from .geometry import BlockFold, FormsGrid, forms_grid

__all__ = [
    "BranchError",
    "InconclusiveOverlap",
    "CanonicalGauge",
    "CanonicalizationResult",
    "SampledField",
    "CoefficientReport",
    "coefficient_summary",
    "FieldMatch",
    "canonicalize",
    "canonical_curvature_field",
    "verify_canonical_coefficients",
    "canonical_pde_residual",
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


@dataclass(frozen=True, eq=False)
class CanonicalizationResult:
    """Sampled reparametrization z(w) and the transported generating function.

    g_tilde_expr is symbolic exactly when z(w) is affine (f*g' a symbolic
    constant); otherwise the transported function is available as samples
    only.  _index holds z's null sides at the knots of the w grid's null
    index on both routes.  residual is that of the larger null side: on the
    affine route |(z')^2 f g' - 1|, otherwise the inversion residual
    |s(z(w)) - w|; it and z are NaN at nodes the quadrature cannot reach.
    The inversion residual is bounded by construction (see _NEWTON_TOL); the
    accuracy of z is set by integrate_sweep's 1e-10 absolute tolerance on s.
    """

    us: np.ndarray
    vs: np.ndarray
    w0: SplitComplex
    z0: SplitComplex
    z_values: SplitComplex
    z_prime: SplitComplex
    g_tilde_values: SplitComplex
    g_tilde_expr: HoloExpr | None
    residual: np.ndarray
    affine: bool
    _index: _NullIndex  # z's null sides at the w grid's knots, for per-side evaluation

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


# uniform tabulation knots on each side of the base point
_KNOTS = 32
# a target w converges at |w(x) - w| <= _NEWTON_TOL * max(1, |w - w0|, rate(x) |x|):
# rate(x) |x| eps / 2 is the least error a float x can reach
_NEWTON_TOL = 32 * np.finfo(float).eps


def _invert(phi: HoloExpr, z0: SplitComplex, w0: SplitComplex, sign: int, w: _NullIndex):
    """z with w0 + sign * int_{z0}^{z} sqrt(Phi) = w, Phi = f g', per null side.

    Each null side is a real problem from x0, its coordinate of z0, and the
    two run in lockstep: each tabulation pass and each Newton step is one
    integrate_sweep call with a problem per side.  The integral is tabulated
    on _KNOTS uniform knots per side of x0, and a side's span doubles until
    the table covers every target or a gap of it fails.  Each target, a
    knot of the index w of the w grid's null sides, then takes Newton steps
    with the exact derivative sqrt(Phi), bracketed by the table and started
    from the table's cubic Hermite interpolant with slopes 1/sqrt(Phi), which
    keeps a target on a table knot at that knot; a step that leaves the
    bracket or does not halve the error bisects instead.  When a bracket
    shrinks to _NEWTON_TOL relative width before its target converges, the
    last iterate is kept if both ends are reachable; if an end lies beyond a
    failed gap, past a cone exit Phi <= _CONE_EPS or a singularity, the
    target is NaN, as is a non-finite target.  Returns the null sides of z,
    as a _NullIndex with w's places whose knots are z+ at w's p knots and z-
    at its q knots, and the larger side's |w(x) - w| at every node.
    """
    def rate(x, side):
        val = np.broadcast_to(phi.eval_null(x, side), np.shape(x))
        return np.sqrt(np.where(val > _CONE_EPS, val, np.nan))

    rates = [lambda x, side=side: rate(x, side) for side in (PLUS, MINUS)]

    # the targets of both sides in one array, the PLUS side first
    x0 = np.array([float(z0.p), float(z0.q)])
    tp, tq = w.knots
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
    x = np.concatenate([_hermite(y[sd == s], table[s, ok[s]], knots[s, ok[s]], 1.0 / rate(knots[s, ok[s]], s))
                        for s in (PLUS, MINUS)])
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
    n = len(tp)
    return _NullIndex((out[:n], out[n:]), w.at), np.maximum(res[:n][w.at[0]], res[n:][w.at[1]])


def _hermite(y, Y, X, M):
    """x(y) on the cubic Hermite interpolant of the ascending table (Y, X)
    with slopes dx/dy = M, clamped to the table's ends and to the interval
    around y.  A y on a table knot gets that knot's x exactly; where a slope
    is not finite, the linear interpolant stands in."""
    linear = np.interp(y, Y, X)
    if len(Y) < 2:
        return linear
    b = np.clip(np.searchsorted(Y, y), 1, len(Y) - 1)
    a = b - 1
    d = Y[b] - Y[a]
    with np.errstate(invalid="ignore", divide="ignore"):
        t = np.clip((y - Y[a]) / d, 0.0, 1.0)
        h = t * t * (3.0 - 2.0 * t)
        x = np.clip((1.0 - h) * X[a] + h * X[b] + d * t * (1.0 - t) * ((1.0 - t) * M[a] - t * M[b]), X[a], X[b])
    return np.where(np.isnan(x), linear, x)


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
    gauge.  z's null sides come from _z_sides at the knots of the w grid's
    null index: an affine map when f g' is a symbolic constant, with the
    symbolic g~ = g(z0 - z' w0 + z' w); otherwise the inverse of a
    quadrature per side (_invert), NaN at the nodes that side cannot reach.
    Raises BranchError when f g'(z0) is outside the square-root cone, or an
    affine map fails its residual check.
    """
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    w0 = SplitComplex._coerce(w0 if w0 is not None else splitc(0.0))
    z0 = SplitComplex._coerce(z0 if z0 is not None else w0)
    us, vs = _axes(domain, grid)
    phi = f * g.derivative()
    index, res, r = _z_sides(phi, z0, w0, sign, us, vs)
    z = from_null(*(k[a] for k, a in zip(index.knots, index.at)))
    # z' = sign / sqrt(f g'(z)), exact per null side
    z_prime = from_null(*(sign / np.sqrt(v) for v in index.sides(phi)))
    g_tilde = None if r is None else g.subs(Const(z0 - r * w0) + Const(r) * Z)
    return CanonicalizationResult(
        us, vs, w0, z0, z, z_prime, from_null(*index.sides(g)), g_tilde, res, r is not None, index,
    )


def _z_sides(phi, z0, w0, sign, us, vs):
    """z's null sides on the null index of the grid us x vs with w0 as its
    base point, the residual at every node, and the constant z' of an affine
    map (None otherwise), after checking that Phi = f g' is in the
    square-root cone at z0.

    A symbolically constant Phi gives z+- = z0+- + z'+- (s - w0+-) at each
    knot s, with z' = sign sqrt(1/Phi), and the residual |z'^2 Phi(z) - 1|
    of the larger side, which must not exceed 1e-8.  Any other Phi goes to
    _invert.
    """
    try:
        phi0 = phi.eval(z0)
    except (ZeroDivisor, NoSquareRoot) as exc:
        raise BranchError("f*g' not invertible at z0: %s" % exc) from exc
    if not (phi0.p > _CONE_EPS and phi0.q > _CONE_EPS):
        raise BranchError("f*g'(z0) = %s is outside the sqrt-admissible cone" % phi0)
    w = _null_index(us, vs, w0)
    gamma = holofn.constant_value(phi)
    if gamma is None:
        return (*_invert(phi, z0, w0, sign, w), None)
    r = sc_sqrt(splitc(1.0) / gamma)
    r = r if sign > 0 else -r
    slopes = (r.p, r.q)
    z = _NullIndex(tuple(x0 + c * (k - t0) for k, x0, c, t0 in zip(w.knots, (z0.p, z0.q), slopes, (w0.p, w0.q))),
                   w.at)
    res = np.maximum(*(np.abs(c * c * v - 1.0) for c, v in zip(slopes, z.sides(phi))))
    if np.nanmax(res) > 1e-8:
        raise BranchError("affine solution rejected by the residual check")
    return z, res, r


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
    gate: float = 0.1,
) -> SampledField:
    """Gauss curvature in canonical parameters, K = -16|g'|^2 / (|f|^2 (1-|g|^2)^4).

    For canonical data the parameters are already canonical (z = w), and
    every factor is evaluated once per knot of the grid's null index
    (weierstrass._null_index: on square steps the exact lattice p0 + k h)
    and gathered to the nodes.  For a general pair the factors are evaluated
    once per knot of z's null sides, from the same _z_sides call that
    canonicalize makes, with z(w0) = data.base_point (w0 defaults to the
    base point) on the branch sign +1; neither route builds z, z' or g~ per
    node.  Nodes within `gate` of the blow-up locus 1 - |g|^2 = 0 are masked
    NaN.
    """
    us, vs = _axes(domain, grid)
    gp = data.g.derivative()
    exprs = (data.g, gp, data.f)
    if data.is_canonical:
        return SampledField(us, vs, _curvature_at(exprs, _null_index(us, vs), gate))
    w0 = SplitComplex._coerce(w0 if w0 is not None else data.base_point)
    index = _z_sides(data.f * gp, data.base_point, w0, +1, us, vs)[0]
    return SampledField(us, vs, _curvature_at(exprs, index, gate))


def _curvature_at(exprs, index: _NullIndex, gate: float) -> np.ndarray:
    """K = -16|g'|^2 / (|f|^2 (1-|g|^2)^4) per node of the null sides of z in
    index, with |h|^2 = h+ h-, from exprs = (g, g', f or None); NaN where a
    factor is singular or 1 - |g|^2 is within `gate` of zero."""
    sides = [index.sides(e) for e in exprs if e is not None]
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

    def fold(self, fold: BlockFold) -> BlockFold:
        """Fold this report into fold as one block of grid rows."""
        fold.add("nodes", np.add, self.valid)
        for name, arr in self.residuals.items():
            # np.nanmax of the whole grid: an infinite residual counts
            fold.add("max_" + name, np.fmax, arr)
        # each block's finite residuals: concatenated, they are in node order for np.mean
        fold.setdefault("finite", []).append({name: arr[np.isfinite(arr)] for name, arr in self.residuals.items()})
        return fold

    def summary(self) -> dict:
        return coefficient_summary(self.fold(BlockFold()))


def coefficient_summary(fold: BlockFold) -> dict:
    """CoefficientReport.summary() of the reports of consecutive blocks of
    grid rows folded into fold, the same bits as from one report of the
    whole grid: the largest and the mean residual are taken over every
    finite residual, shape by shape in node order."""
    blocks = fold["finite"]
    # one array, shape by shape and in node order within a shape
    values = np.concatenate([block[name] for name in blocks[0] for block in blocks])
    out = {
        "max_residual": float(np.max(values)) if values.size else float("nan"),
        "mean_residual": float(np.mean(values)) if values.size else float("nan"),
        "nodes": int(fold["nodes"]),
    }
    for name in blocks[0]:
        out["max_" + name] = float(fold["max_" + name]) if any(block[name].size for block in blocks) else float("nan")
    return out


def verify_canonical_coefficients(
    patch: SurfacePatch | FormsGrid, gate: np.ndarray | None = None
) -> CoefficientReport:
    """Check a patch, or the FormsGrid already computed from one, against
    the canonical first/second form shapes."""
    grid = patch if isinstance(patch, FormsGrid) else forms_grid(patch)
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
    return CoefficientReport(res, branch, valid & (branch != 0))


# ---------------------------------------------------------------------------
# the canonical-parameter curvature PDE
# ---------------------------------------------------------------------------


def canonical_pde_residual(forms: FormsGrid, g, gp, gate: float) -> np.ndarray:
    """m_uu - m_vv - 2 sigma sqrt|K|, m = ln sqrt|K|, per node of the forms,
    with K the forms' own and g = (g+, g-), gp = (g'+, g'-) the null sides
    of canonical g and g' at the same nodes.

    In canonical parameters |K| = 16 (g'+ g'-)^2 / (1 - g+ g-)^4, so m is a
    function of p = u+v, one of q = u-v and -2 ln|1 - g+ g-|, and
    m_uu - m_vv = 4 m_pq = 8 g'+ g'- / (1 - g+ g-)^2 exactly, with no
    stencil; the branch is sigma = sign(g'+ g'-).  NaN where K is, and where
    |1 - g+ g-| <= gate.
    """
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        prod = gp[0] * gp[1]
        gap = 1.0 - g[0] * g[1]
        resid = 8.0 * prod / gap**2 - 2.0 * np.sign(prod) * np.sqrt(np.abs(forms.K))
        resid[~(np.abs(gap) > gate)] = np.nan
    return resid


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


# ---------------------------------------------------------------------------
# curvature-field comparison modulo gauge
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FieldMatch:
    """The best gauge, max |K1 - K2| over the overlap shared nodes, and
    whether that discrepancy is below tol."""

    coincide: bool
    gauge: CanonicalGauge | None
    discrepancy: float
    overlap: int


def _window_sums(x, rows, cols):
    """Sums of x over the windows x[rows[0][k]:rows[1][k], cols[0][l]:cols[1][l]],
    shaped (k, l), as box sums of one prefix-sum table."""
    table = np.zeros((x.shape[0] + 1, x.shape[1] + 1))
    table[1:, 1:] = x.cumsum(0).cumsum(1)
    (r0, r1), (c0, c1) = rows, cols
    return table[r1][:, c1] - table[r0][:, c1] - table[r1][:, c0] + table[r0][:, c0]


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
    bound on its max discrepancy, kept as one map per eps.  When neither
    field misses a node, every node of an overlap is shared: the sums of
    squares over the overlaps are box sums of a prefix-sum table, and only
    the values take a transform; otherwise the masks and squares take one
    too.  The translation with the least bound is evaluated exactly first,
    on slices of the fields; then only those whose bound does not exceed the
    best discrepancy found, in increasing bound order, in blocks that gather
    their shared nodes at once.  Every translation that can win is
    evaluated, so the answer is the exhaustive one.  Gauges off the lattice
    are not recovered.  Raises InconclusiveOverlap when no translation
    qualifies.
    """
    h = field1.h_u
    for other in (field1.h_v, field2.h_u, field2.h_v):
        if abs(other - h) > 1e-9 * max(1.0, abs(h)):
            raise ValueError("fields must share one common grid step")
    axis_floor = max(2, int(np.sqrt(min_overlap)))
    vals1, vals2 = field1.values, field2.values
    (n1, m1), (n2, m2) = vals1.shape, vals2.shape
    shape = (n1 + n2 - 1, m1 + m2 - 1)
    # entry k of a full correlation holds the index shift d = k - (n2 - 1);
    # field1's overlap with it is rows i0:i1, columns j0:j1
    shifts_u = np.arange(shape[0]) - (n2 - 1)
    shifts_v = np.arange(shape[1]) - (m2 - 1)
    i0, i1 = np.maximum(0, shifts_u), np.minimum(n1, n2 + shifts_u)
    j0, j1 = np.maximum(0, shifts_v), np.minimum(m1, m2 + shifts_v)
    span_u, span_v = i1 - i0, j1 - j0
    nodes = np.outer(span_u, span_v).ravel()
    ok1, ok2 = np.isfinite(vals1), np.isfinite(vals2)
    holes = not (ok1.all() and ok2.all())
    a, b = np.where(ok1, vals1, 0.0), np.where(ok2, vals2, 0.0)
    count, ssd = np.empty((2,) + shape), np.empty((2,) + shape)  # maps, eps = +1 first
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        a2, b2 = a * a, b * b
        # An FFT correlation of x and y over N entries errs by at most about
        # eps log2(N) |x|_2 |y|_1 per entry, and each term of the sum of squares
        # below has |x|_2 |y|_1 <= N (sum a^2 + sum b^2).  Errors measured on
        # fields spanning five decades stay below 1e-4 of this margin, so no
        # bound exceeds the exact discrepancy; a box sum errs far less.
        size = shape[0] * shape[1]
        margin = 4.0 * np.finfo(float).eps * np.log2(size) * size * (np.sum(a2) + np.sum(b2))
        # One batched transform per field of its mask, square and value, or of
        # its value alone.  Correlation with field2 is convolution with field2
        # reversed, whose spectrum is phase * conj(spec2); for eps = -1 it is
        # with field2 itself.
        planes1, planes2 = ([ok1, a2, a], [ok2, b2, b]) if holes else ([a], [b])
        s1, spec2 = np.fft.rfft2(planes1, shape), np.fft.rfft2(planes2, shape)
        phase = np.exp(-2j * np.pi * ((n2 - 1) * np.arange(shape[0]) % shape[0] / shape[0]))[:, None] * np.exp(
            -2j * np.pi * ((m2 - 1) * np.arange(spec2.shape[2]) % shape[1] / shape[1]))
        specs2 = (phase * np.conj(spec2), spec2)
        if holes:
            for e, s2 in enumerate(specs2):
                # sum over shared nodes of (K1 - K2)^2 = sum a^2 m2 + sum m1 b^2 - 2 sum a b
                ssd[e] = np.fft.irfft2(s1[1] * s2[0] + s1[0] * s2[1] - 2.0 * s1[2] * s2[2], shape)
                count[e] = np.rint(np.fft.irfft2(s1[0] * s2[0], shape))
        else:
            # every node of an overlap is shared; field2's overlap is rows
            # r0:r1, columns c0:c1, in its own orientation for eps = +1 and
            # reversed for eps = -1
            r0, r1, c0, c1 = i0 - shifts_u, i1 - shifts_u, j0 - shifts_v, j1 - shifts_v
            squares1 = _window_sums(a2, (i0, i1), (j0, j1))
            squares2 = (_window_sums(b2, (r0, r1), (c0, c1)), _window_sums(b2, (n2 - r1, n2 - r0), (m2 - c1, m2 - c0)))
            for e, s2 in enumerate(specs2):
                ssd[e] = squares1 + squares2[e] - 2.0 * np.fft.irfft2(s1[0] * s2[0], shape)
            count[:] = nodes.reshape(shape)
        del s1, spec2, specs2, s2
        qualify = (span_u >= axis_floor)[:, None] & (span_v >= axis_floor) & (count >= min_overlap)
        # a NaN sum (overflowing squares) counts as 0, so it is always
        # evaluated; a translation that does not qualify gets an infinite bound
        bound = np.where(qualify, np.sqrt(np.fmax(ssd - margin, 0.0) / count), np.inf).ravel()
    if not qualify.any():
        raise InconclusiveOverlap("no gauge alignment shares %d valid nodes" % min_overlap)
    # missing nodes as NaN; both orientations of field2, also in one flat array
    vals1 = np.where(ok1, vals1, np.nan)
    vals2 = np.where(ok2, vals2, np.nan)
    oriented2 = (vals2, vals2[::-1, ::-1])
    flat1, flat2 = vals1.ravel(), np.concatenate([v.ravel() for v in oriented2])
    us2, vs2 = (field2.us, -field2.us[::-1]), (field2.vs, -field2.vs[::-1])
    best = None

    def evaluate(ks):
        """Exact discrepancies of translations ks, sliced for one and gathered
        at once for more; keeps the least key."""
        nonlocal best
        e, ku, kv = np.unravel_index(ks, count.shape)
        du, dv, sz = shifts_u[ku], shifts_v[kv], nodes[ks % nodes.size]
        i0, j0, starts = np.maximum(0, du), np.maximum(0, dv), np.cumsum(sz) - sz
        with np.errstate(over="ignore"):
            if len(ks) == 1:
                (top,), (left,), (bottom,), (right,) = i0, j0, i0 + span_u[ku], j0 + span_v[kv]
                (su,), (sv,) = du, dv
                d = np.abs(vals1[top:bottom, left:right] - oriented2[e[0]][top - su:bottom - su, left - sv:right - sv])
                d = d.ravel()
            else:
                r, c = np.divmod(np.arange(starts[-1] + sz[-1]) - np.repeat(starts, sz), np.repeat(span_v[kv], sz))
                base1, base2 = i0 * m1 + j0, e * (n2 * m2) + (i0 - du) * m2 + j0 - dv
                d = np.abs(flat1[r * m1 + c + np.repeat(base1, sz)] - flat2[r * m2 + c + np.repeat(base2, sz)])
        disc = np.fmax.reduceat(d, starts)
        least = float(disc.min())
        if best is not None and least > best[0][0]:
            return
        # Python keys only for the block's least-discrepancy ties
        for t in np.flatnonzero(disc == least):
            A = float(field1.us[i0[t]] - us2[e[t]][i0[t] - du[t]])
            B = float(field1.vs[j0[t]] - vs2[e[t]][j0[t] - dv[t]])
            key = (least, round((abs(A) + abs(B)) / h, 6), int(e[t]), int(du[t]), int(dv[t]))
            if best is None or key < best[0]:
                shared = int(np.count_nonzero(~np.isnan(d[starts[t]:starts[t] + sz[t]])))
                best = (key, FieldMatch(least < tol, CanonicalGauge(1 - 2 * int(e[t]), A, B), least, shared))

    first = np.argmin(bound)
    evaluate(np.array([first]))
    # then, in bound order, every translation whose bound does not exceed the
    # best discrepancy, in blocks of at most 4096 gathered nodes (or one)
    rest = np.flatnonzero(qualify.ravel() & (bound <= best[0][0]))
    rest = rest[rest != first]
    rest = rest[np.argsort(bound[rest], kind="stable")]
    ends = np.cumsum(nodes[rest % nodes.size])
    pos = 0
    while pos < len(rest) and bound[rest[pos]] <= best[0][0]:
        end = np.searchsorted(ends, (ends[pos - 1] if pos else 0) + 4096, "right")
        end = min(max(pos + 1, end), np.searchsorted(bound[rest], best[0][0], "right"))
        evaluate(rest[pos:end])
        pos = end
    return best[1]
