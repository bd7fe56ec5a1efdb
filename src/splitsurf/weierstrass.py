"""Surface patches in R^3_1 from holomorphic generating data.

A pair (f, g) feeds the general representation with curve derivative
(-f(1+g^2)/2, (J/2) f(1-g^2), f g); a single function g feeds the special
form with f replaced by 1/g'.  The real part of the integral curve is a
minimal timelike surface of negative Gauss curvature, the imaginary part one
of positive curvature.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .algebra import SplitComplex, splitc
from .holofn import PLUS, MINUS, Const, HoloExpr, integrate_sweep, pole_gaps

__all__ = [
    "Part",
    "GeneratingData",
    "SurfacePatch",
    "curve_expressions",
    "evaluate_surface",
]

_SING_EPS = 1e-12


class Part(enum.Enum):
    REAL = "real"
    IMAGINARY = "imaginary"


@dataclass(frozen=True)
class GeneratingData:
    """Weierstrass-type generating data plus base point and part selector."""

    g: HoloExpr
    f: HoloExpr | None = None  # None means the special form with f = 1/g'
    base_point: SplitComplex = field(default_factory=lambda: splitc(0.0))
    part: Part = Part.REAL

    @classmethod
    def general(cls, f, g, part=Part.REAL, base_point=None) -> "GeneratingData":
        return cls(g=g, f=f, part=part, base_point=base_point or splitc(0.0))

    @classmethod
    def canonical(cls, g, part=Part.REAL, base_point=None) -> "GeneratingData":
        return cls(g=g, f=None, part=part, base_point=base_point or splitc(0.0))

    @property
    def is_canonical(self) -> bool:
        return self.f is None


def curve_expressions(data: GeneratingData):
    """The three components of the curve derivative as expression trees."""
    g = data.g
    one = Const(splitc(1.0))
    half = Const(splitc(0.5))
    jhalf = Const(splitc(0.0, 0.5))
    g2 = g**2
    if data.f is not None:
        f = data.f
        psi1 = -(half * (f * (one + g2)))
        psi2 = jhalf * (f * (one - g2))
        psi3 = f * g
    else:
        gp = g.derivative()
        two_gp = Const(splitc(2.0)) * gp
        psi1 = -((one + g2) / two_gp)
        psi2 = Const(splitc(0.0, 1.0)) * ((one - g2) / two_gp)
        psi3 = g / gp
    return psi1, psi2, psi3


def _part(a, b, part: Part):
    """The selected part of from_null(a, b), formed in a, which it
    overwrites: re = (a+b)/2, im = (a-b)/2, bit for bit.  Of a curve's null
    sides it is the patch's points; of its derivative's, the tangent x_u, and
    the other part is x_v."""
    (np.add if part == Part.REAL else np.subtract)(a, b, out=a)
    a /= 2.0
    return a


@dataclass(frozen=True)
class SurfacePatch:
    """Sampled rectangular patch; invalid samples hold NaN coordinates."""

    us: np.ndarray
    vs: np.ndarray
    points: np.ndarray  # (len(us), len(vs), 3)
    valid: np.ndarray  # bool mask, same leading shape
    provenance: GeneratingData | None = None
    _index: _NullIndex | None = field(default=None, repr=False, compare=False)

    @property
    def h_u(self) -> float:
        return float(self.us[1] - self.us[0]) if len(self.us) > 1 else 0.0

    @property
    def h_v(self) -> float:
        return float(self.vs[1] - self.vs[0]) if len(self.vs) > 1 else 0.0

    @property
    def shape(self):
        return self.points.shape[:2]

    @classmethod
    def from_points(cls, us, vs, points) -> "SurfacePatch":
        points = np.asarray(points, float)
        valid = np.all(np.isfinite(points), axis=-1)
        return cls(np.asarray(us, float), np.asarray(vs, float), points, valid, None)


@dataclass(frozen=True)
class _NullIndex:
    """Grid nodes by the values of their null coordinates: on side s, node k
    has coordinate knots[s][at[s][k]].  An expression is evaluated once per
    knot and gathered to the nodes."""

    knots: tuple
    at: np.ndarray

    def _used(self, rows):
        """Per side, the knots that the grid rows `rows` use (a slice; every
        knot when rows is None) and each node's place among them."""
        for knots, at in zip(self.knots, self.at):
            if rows is not None:
                # without a sort (np.unique's integer sort maps its own code)
                seen = np.zeros(len(knots), bool)
                seen[at[rows]] = True
                used = np.flatnonzero(seen)
                knots, at = knots[used], np.searchsorted(used, at[rows])
            yield knots, at

    def sides(self, expr: HoloExpr, rows=None):
        """expr's null components (e+, e-) at every node of the grid rows
        `rows` (a slice; None for every node)."""
        return tuple(expr.eval_null(k, side)[a] for side, (k, a) in zip((PLUS, MINUS), self._used(rows)))

    def tangents(self, exprs, part: Part, rows=None):
        """x_u and x_v of the selected part of the curve whose derivative has
        the components exprs, at every node of the grid rows `rows` (a slice;
        None for every node) with the components on the last axis, and the
        mask of those nodes where both are finite.

        Per side the components are evaluated once at each knot the rows
        use, stacked and gathered to the nodes; x_u is the selected part of
        the two sides, formed in place, and x_v the other part, so three
        arrays the size of the rows are live at most.  Rows take only their
        own knots: off square steps the index has about one knot per node.
        Evaluation is elementwise, so a node's values are the same bits
        whichever rows ask for them."""
        a, b = (np.stack([e.eval_null(k, side) for e in exprs], axis=-1)[at]
                for side, (k, at) in zip((PLUS, MINUS), self._used(rows)))
        xv = _part(a.copy(), b, Part.IMAGINARY if part == Part.REAL else Part.REAL)
        xu = _part(a, b, part)
        return xu, xv, np.isfinite(xu).all(axis=-1) & np.isfinite(xv).all(axis=-1)


def _domain(domain):
    """domain (u_min, u_max, v_min, v_max) as four floats; ValueError unless
    every bound and both widths are finite and min < max per axis.  The one
    domain rule of every entry point, the CLI's --domain included."""
    u0, u1, v0, v1 = map(float, domain)
    # the widths too: (-1e308, 1e308) overflows np.linspace into NaN nodes
    if not np.all(np.isfinite([u0, u1, v0, v1, u1 - u0, v1 - v0])):
        raise ValueError("domain bounds and widths must be finite")
    if not (u0 < u1 and v0 < v1):
        raise ValueError("domain must satisfy min < max per axis")
    return u0, u1, v0, v1


def _axes(domain, grid):
    """The u and v sample axes of domain at grid (N, M)."""
    u0, u1, v0, v1 = _domain(domain)
    return np.linspace(u0, u1, grid[0]), np.linspace(v0, v1, grid[1])


def _null_index(us, vs, z0: SplitComplex | None = None) -> _NullIndex:
    """Per side, the sorted values of p = u+v (q = u-v) over the grid, with
    the base point's inserted when one is given, and every node's place among
    them.

    On square steps they are the exact lattice p0 + k h, k = 0 .. n+m-2,
    spaced evenly between the corner sums, and node (i, j) sits at k = i+j
    on the p side and k = i-j+m-1 on the q side, so equal values of p share
    one knot; a base point on a grid node keeps that node's float sums as
    its knots, so the node is the base point bit for bit.  Other grids take
    the distinct float sums u_i + v_j (u_i - v_j).
    """
    n, m = len(us), len(vs)
    # square steps: equal to 1e-12 relative
    if n > 1 and m > 1 and abs(us[1] - us[0] - (vs[1] - vs[0])) <= 1e-12 * max(us[1] - us[0], vs[1] - vs[0]):
        values = (np.linspace(us[0] + vs[0], us[-1] + vs[-1], n + m - 1),
                  np.linspace(us[0] - vs[-1], us[-1] - vs[0], n + m - 1))
        i, j = np.ogrid[:n, :m]
        slots = (i + j, i - j + (m - 1))
        if z0 is not None and float(z0.re) in us and float(z0.im) in vs:
            i0, j0 = np.searchsorted(us, float(z0.re)), np.searchsorted(vs, float(z0.im))
            values[0][i0 + j0], values[1][i0 - j0 + m - 1] = z0.p, z0.q
    else:
        values = (np.add.outer(us, vs).ravel(), np.subtract.outer(us, vs).ravel())
        slots = (np.arange(n * m).reshape(n, m),) * 2
    base = ((), ()) if z0 is None else ((float(z0.p),), (float(z0.q),))
    knots, at = zip(*(np.unique(np.append(t, t0), return_inverse=True) for t, t0 in zip(values, base)))
    # one (2, n, m) block: two node-sized arrays kept by a patch fragmented
    # the heap and raised a long-running process's peak RSS by about 1 MB
    return _NullIndex(knots, np.stack([a[s] for a, s in zip(at, slots)]))


def _null_sweep(exprs, index: _NullIndex, z0: SplitComplex, tol: float):
    """Per side, the integrals of exprs from z0 to every node, each with the
    components on its last axis, and the nodes both sides reach.

    The integral is from_null(F+(p) - F+(p0), F-(q) - F-(q0)): one sweep per
    side over all the index's knots, on panels all components share, and both
    sides in one integrate_sweep call.  The gaps where pole_gaps locates a
    pole fail before any quadrature, so the knots beyond them, seen from p0
    (q0), are unreachable without a panel evaluated past the pole.
    """
    origins = [int(np.searchsorted(k, float(t0))) for k, t0 in zip(index.knots, (z0.p, z0.q))]
    funs = [lambda s, side=side: [e.eval_null(s, side) for e in exprs] for side in (PLUS, MINUS)]
    poles = [pole_gaps(exprs, k, side) for k, side in zip(index.knots, (PLUS, MINUS))]
    swept = integrate_sweep(funs, index.knots, origins, tol, poles)
    (fp, reach_p), (fq, reach_q) = ((v.T[a], r[a]) for (v, r), a in zip(swept, index.at))
    return (fp, fq), reach_p & reach_q


def evaluate_surface(
    data: GeneratingData,
    domain: tuple[float, float, float, float],
    grid: tuple[int, int],
    tol: float = 1e-10,
) -> SurfacePatch:
    """Sample the selected part of the integral curve over a rectangle.

    domain is (u_min, u_max, v_min, v_max), with finite bounds and widths
    and min < max per axis; grid is (N, M) with N, M >= 3 (ValueError
    otherwise).
    Every grid expression is evaluated once per knot of the grid's null
    index (_null_index: on square steps the exact lattice of p = u+v and
    q = u-v, else their distinct float values), which the patch keeps.
    Every component goes through one integrate_sweep call: x(z) - x(z0) is
    from_null(F+(p) - F+(p0), F-(q) - F-(q0)), so each side is one problem
    over the gaps between the index's knots, p0 (or q0) among them, whose
    panels all three components share.  tol bounds each component's summed
    error estimate per gap.

    A node is valid when the integrand is finite there, its tangent plane
    does not degenerate (|E| > 1e-12 |x_u|^2, with the Euclidean length of
    the tangent x_u), and it is reachable: every gap between p0 and p, and
    between q0 and q, converged.  A gap where holofn.pole_gaps locates a
    pole of the integrand, also one within rounding of a knot, is in the
    sweep's failed mask and fails before any quadrature; other singular gaps
    (a branch point, a pole just beyond a knot) fail by the panel budget or
    a non-finite value.  Invalid nodes hold NaN instead of aborting the
    patch.

    Each stage drops the node-sized arrays it no longer needs: x_v goes as
    soon as the tangents are read, x_u after the degeneracy test, before the
    sweep; the points are the selected part of the two sides' integrals,
    formed and NaN-masked in place.  So the call peaks at about four
    (n, m, 3) float arrays, the returned patch and its null index included.
    """
    n, m = grid
    if n < 3 or m < 3:
        raise ValueError("grid must be at least 3x3")
    us, vs = _axes(domain, grid)
    z0 = data.base_point
    index = _null_index(us, vs, z0)

    exprs = curve_expressions(data)
    xu, xv, valid = index.tangents(exprs, data.part)
    del xv  # the degeneracy test reads x_u alone
    # conformal factor E = <x_u, x_u> (F = 0, G = -E): flags tangent-plane
    # degeneracies without differencing, each node against its own tangent,
    # so a huge E near a pole elsewhere cannot make regular nodes look degenerate
    t0, t1, t2 = np.moveaxis(xu, -1, 0)
    with np.errstate(invalid="ignore"):
        valid &= ~(np.abs(-t0 * t0 + t1 * t1 + t2 * t2) <= _SING_EPS * (t0**2 + t1**2 + t2**2))
    del xu, t0, t1, t2

    (fp, fq), ok = _null_sweep(exprs, index, z0, tol)
    valid &= ok
    points = _part(fp, fq, data.part)
    del fq
    # x + 0.0 is x, except that an underflowed -0.0 becomes +0.0: a zero
    # integral has one sign whichever route formed it
    points += 0.0
    valid &= np.all(np.isfinite(points), axis=-1)
    points[~valid] = np.nan
    return SurfacePatch(us, vs, points, valid, data, index)

