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

from .algebra import SplitComplex, from_null, splitc
from .holofn import PLUS, MINUS, Const, HoloExpr, antiderivative, integrate_sweep

__all__ = [
    "Part",
    "GeneratingData",
    "SurfacePatch",
    "curve_expressions",
    "curve_derivative",
    "isotropy_defect",
    "conformal_factor",
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


def curve_derivative(data: GeneratingData, z) -> tuple[SplitComplex, SplitComplex, SplitComplex]:
    """Curve derivative at z: NaN at singular array nodes; a singular scalar raises."""
    return tuple(e.eval(z) for e in curve_expressions(data))


def isotropy_defect(data: GeneratingData, z) -> SplitComplex:
    """-psi1^2 + psi2^2 + psi3^2; identically zero for valid generating data."""
    p1, p2, p3 = curve_derivative(data, z)
    return -(p1 * p1) + p2 * p2 + p3 * p3


def _part_re_im(values: SplitComplex, part: Part):
    """(tangent-u, tangent-v) component pair of one curve coordinate."""
    if part == Part.REAL:
        return values.re, values.im
    return values.im, values.re


def conformal_factor(psi_vals, part: Part):
    """Analytic E = <x_u, x_u>; the patch metric is E, F=0, G=-E."""
    a1, _ = _part_re_im(psi_vals[0], part)
    a2, _ = _part_re_im(psi_vals[1], part)
    a3, _ = _part_re_im(psi_vals[2], part)
    return -a1 * a1 + a2 * a2 + a3 * a3


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

    def zgrid(self) -> SplitComplex:
        U, V = np.meshgrid(self.us, self.vs, indexing="ij")
        return SplitComplex(U, V)

    @classmethod
    def from_points(cls, us, vs, points) -> "SurfacePatch":
        points = np.asarray(points, float)
        valid = np.all(np.isfinite(points), axis=-1)
        return cls(np.asarray(us, float), np.asarray(vs, float), points, valid, None)


@dataclass(frozen=True)
class _NullIndex:
    """Grid nodes by the values of their null coordinates: on side s, node k
    has coordinate knots[s][at[s][k]] (at[s] is ... when knots[s] already
    holds one value per node).  An expression is evaluated once per knot and
    gathered to the nodes."""

    knots: tuple
    at: np.ndarray | tuple

    def sides(self, expr: HoloExpr):
        """expr's null components (e+, e-) at every node."""
        return tuple(expr.eval_null(k, side)[a] for side, k, a in zip((PLUS, MINUS), self.knots, self.at))


def _null_index(zg: SplitComplex, z0: SplitComplex) -> _NullIndex:
    """Per side, the sorted distinct values of the node sums p = u+v (q = u-v)
    with the base point's appended, and every node's place among them."""
    knots, at = zip(*(np.unique(np.append(t, float(t0)), return_inverse=True)
                      for t, t0 in ((zg.p, z0.p), (zg.q, z0.q))))
    # one (2, n, m) block: two node-sized arrays kept by a patch fragmented
    # the heap and raised a long-running process's peak RSS by about 1 MB
    return _NullIndex(knots, np.stack([a[:-1].reshape(zg.shape) for a in at]))


def _eval_grid(expr: HoloExpr, index: _NullIndex):
    """Values of expr on a grid and the mask of nodes where they are finite."""
    vals = from_null(*index.sides(expr))
    return vals, np.isfinite(vals.re) & np.isfinite(vals.im)


def _null_sweep(exprs, index: _NullIndex, z0: SplitComplex, tol: float):
    """Integrals of exprs from z0 to every node of the grid, and their common reachability.

    The integral is from_null(F+(p) - F+(p0), F-(q) - F-(q0)): one sweep per
    side over the index's knots, on panels all components share, and both
    sides in one integrate_sweep call.
    """
    origins = [int(np.searchsorted(k, float(t0))) for k, t0 in zip(index.knots, (z0.p, z0.q))]
    funs = [lambda s, side=side: [e.eval_null(s, side) for e in exprs] for side in (PLUS, MINUS)]
    sides = integrate_sweep(funs, index.knots, origins, tol)
    (fp, reach_p), (fq, reach_q) = ((v[:, a], r[a]) for (v, r), a in zip(sides, index.at))
    return [from_null(a, b) for a, b in zip(fp, fq)], reach_p & reach_q


def evaluate_surface(
    data: GeneratingData,
    domain: tuple[float, float, float, float],
    grid: tuple[int, int],
    tol: float = 1e-10,
) -> SurfacePatch:
    """Sample the selected part of the integral curve over a rectangle.

    domain is (u_min, u_max, v_min, v_max); grid is (N, M) with N, M >= 3.
    Every grid expression is evaluated once per distinct value of p = u+v
    and of q = u-v, from one index of the grid that the patch keeps.
    Components with a symbolic antiderivative are evaluated in closed form.
    The rest go through one integrate_sweep call: x(z) - x(z0) is
    from_null(F+(p) - F+(p0), F-(q) - F-(q0)), so each side is one problem
    over the gaps between the sorted distinct grid values of p (or q) and p0
    (or q0), whose panels all those components share.  tol bounds each
    component's summed error estimate per gap.

    A node is valid when the integrand is finite there, its tangent plane
    does not degenerate (|E| > 1e-12 |x_u|^2, with the Euclidean length of
    the tangent x_u), and it is reachable: every gap between p0 and p, and
    between q0 and q, converged.  Invalid nodes hold NaN instead of aborting
    the patch.
    """
    u0, u1, v0, v1 = map(float, domain)
    n, m = grid
    if n < 3 or m < 3:
        raise ValueError("grid must be at least 3x3")
    if not (u0 < u1 and v0 < v1):
        raise ValueError("domain must satisfy min < max per axis")
    us = np.linspace(u0, u1, n)
    vs = np.linspace(v0, v1, m)
    U, V = np.meshgrid(us, vs, indexing="ij")
    z0 = data.base_point
    index = _null_index(SplitComplex(U, V), z0)

    exprs = curve_expressions(data)
    psi_vals = []
    valid = np.ones((n, m), bool)
    for e in exprs:
        vals, ok = _eval_grid(e, index)
        psi_vals.append(vals)
        valid &= ok

    # conformal factor: flags tangent-plane degeneracies without differencing,
    # each node against its own tangent, so a huge E near a pole elsewhere
    # cannot make regular nodes look degenerate
    tangent = [_part_re_im(v, data.part)[0] for v in psi_vals]
    with np.errstate(invalid="ignore"):
        valid &= ~(
            np.abs(conformal_factor(psi_vals, data.part))
            <= _SING_EPS * (tangent[0] ** 2 + tangent[1] ** 2 + tangent[2] ** 2)
        )

    antis = [antiderivative(e) for e in exprs]
    swept = [k for k, anti in enumerate(antis) if anti is None]
    integrals, ok = _null_sweep([exprs[k] for k in swept], index, z0, tol) if swept else ([], True)
    integrals = dict(zip(swept, integrals))
    valid &= ok
    points = np.empty((n, m, 3))
    for k, anti in enumerate(antis):
        if anti is not None:
            vals, ok = _eval_grid(anti, index)
            integrals[k] = vals - anti.eval(z0)
            valid &= ok
        points[:, :, k] = _part_re_im(integrals[k], data.part)[0]
    valid &= np.all(np.isfinite(points), axis=-1)
    points = np.where(valid[:, :, None], points, np.nan)
    return SurfacePatch(us, vs, points, valid, data, index)

