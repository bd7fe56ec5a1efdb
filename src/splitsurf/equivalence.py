"""Transformations of generating data that preserve the surface.

Two mechanisms: reparametrizing a general pair (f, g) by any holomorphic
w(z), and acting on a canonical generating function g by
g~ = +-e^(phi J) (alpha + g)/(1 + conj(alpha) g)   (fractional form)
g~ = +-e^(phi J) / g                               (inversion form)
The fractional action is witnessed by explicit SO(1,2) matrices A(phi),
B(alpha) with A B Psi' = Psi~', certifying that the two canonical curves
differ by a linear isometry plus translation.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np

from .algebra import SplitComplex, from_null, splitc
from .algebra import exp as sc_exp
from .holofn import Const, DomainError, HoloExpr
from .weierstrass import GeneratingData, _axes, _null_index, curve_expressions
from .canonical import FieldMatch, canonical_curvature_field, compare_curvature_fields

__all__ = [
    "InvalidParams",
    "MoebiusForm",
    "MoebiusParams",
    "MotionWitness",
    "moebius_transform",
    "motion_witness",
    "witness_discrepancy",
    "reparametrize_pair",
    "fit_moebius",
    "surfaces_coincide",
]

_ETA3 = np.diag([-1.0, 1.0, 1.0])


class InvalidParams(ValueError):
    """Parameters outside the group domain (|alpha|^2 = 1 degenerates B)."""


class MoebiusForm(enum.Enum):
    FRACTIONAL = "fractional"
    INVERSION = "inversion"


@dataclass(frozen=True)
class MoebiusParams:
    """Hyperbolic rotation angle phi, double parameter alpha, global sign."""

    phi: float = 0.0
    alpha: SplitComplex = field(default_factory=lambda: splitc(0.0))
    sign: int = +1
    form: MoebiusForm = MoebiusForm.FRACTIONAL

    def __post_init__(self):
        if self.sign not in (+1, -1):
            raise InvalidParams("sign must be +1 or -1")
        if self.form == MoebiusForm.FRACTIONAL:
            a, b = float(self.alpha.re), float(self.alpha.im)
            if abs(1.0 - a * a + b * b) < 1e-9:
                raise InvalidParams("|alpha|^2 = 1 is excluded (B would degenerate)")

    @property
    def unit(self) -> SplitComplex:
        """e^(phi J) = cosh phi + J sinh phi."""
        return sc_exp(splitc(0.0, self.phi))


def moebius_transform(
    g: HoloExpr, m: MoebiusParams, inversion_reading: str = "g"
) -> HoloExpr:
    """Transformed canonical generating function.

    Fractional: +-e^(phi J)(alpha + g)/(1 + conj(alpha) g).  The inversion
    form is printed with 1/f in some sources while the canonical family is
    parametrized by g alone (f = 1/g'); reading "g" (default) realizes it as
    +-e^(phi J)/g, which is the curvature-preserving reading, while reading
    "f" keeps the literal 1/f = g'.
    """
    u = Const(m.unit if m.sign > 0 else -m.unit)
    if m.form == MoebiusForm.FRACTIONAL:
        num = Const(m.alpha) + g
        den = Const(splitc(1.0)) + Const(m.alpha.conj()) * g
        return u * (num / den)
    if inversion_reading == "g":
        return u / g
    if inversion_reading == "f":
        return u * g.derivative()
    raise ValueError("inversion_reading must be 'g' or 'f'")


@dataclass(frozen=True)
class MotionWitness:
    """SO(1,2) factors A (boost) and B (alpha part) with A B Psi' = Psi~'."""

    A: np.ndarray
    B: np.ndarray
    translation: np.ndarray
    sign: int = +1

    @property
    def matrix(self) -> np.ndarray:
        flip = np.diag([-1.0, -1.0, 1.0]) if self.sign < 0 else np.eye(3)
        return flip @ self.A @ self.B

    def preserves_metric(self, tol: float = 1e-10) -> bool:
        M = self.matrix
        return bool(
            np.max(np.abs(M.T @ _ETA3 @ M - _ETA3)) < tol
            and abs(np.linalg.det(M) - 1.0) < tol
        )


def motion_witness(m: MoebiusParams) -> MotionWitness:
    """The explicit matrix pair witnessing the fractional transformation."""
    if m.form != MoebiusForm.FRACTIONAL:
        raise InvalidParams("motion witness applies to the fractional form")
    phi = m.phi
    a, b = float(m.alpha.re), float(m.alpha.im)
    A = np.array(
        [
            [np.cosh(phi), np.sinh(phi), 0.0],
            [np.sinh(phi), np.cosh(phi), 0.0],
            [0.0, 0.0, 1.0],
        ]
    )
    den = 1.0 - a * a + b * b
    B = (
        np.array(
            [
                [1 + a * a + b * b, -2 * a * b, -2 * a],
                [2 * a * b, 1 - a * a - b * b, -2 * b],
                [-2 * a, 2 * b, 1 + a * a - b * b],
            ]
        )
        / den
    )
    return MotionWitness(A, B, np.zeros(3), m.sign)


def witness_discrepancy(
    g: HoloExpr,
    m: MoebiusParams,
    domain: tuple[float, float, float, float] = (-0.4, 0.4, -0.4, 0.4),
    grid: tuple[int, int] = (5, 5),
) -> float:
    """max |A B Psi'(z) - Psi~'(z)| over a grid, the Euclidean magnitude of
    each component's double-number difference.

    A B is real, so it acts on each null side alone: Psi' and Psi~' are
    evaluated once per knot of the grid's null index and gathered to the
    nodes.  Raises DomainError when either curve derivative is singular or
    non-finite at a node of the grid.
    """
    index = _null_index(*_axes(domain, grid))
    # (component, side, n, m) per curve
    psi, psi_t = (np.array([index.sides(e) for e in curve_expressions(GeneratingData.canonical(h))])
                  for h in (g, moebius_transform(g, m)))
    diff = np.tensordot(motion_witness(m).matrix, psi, axes=1) - psi_t
    # np.max propagates the NaN of a singular node
    worst = float(np.max(from_null(diff[:, 0], diff[:, 1]).mag))
    if not np.isfinite(worst):
        raise DomainError("curve derivative singular on the witness grid")
    return worst


def reparametrize_pair(f: HoloExpr, g: HoloExpr, w: HoloExpr):
    """Precompose a general pair with w(z): (f(w) w', g(w)) keeps the surface."""
    return f.subs(w) * w.derivative(), g.subs(w)


def fit_moebius(transform: HoloExpr) -> MoebiusParams:
    """Recover (phi, alpha, sign) from a fractional transform given as an
    expression in the g-slot variable; raises InvalidParams when the map is
    not of that shape."""
    zero = splitc(0.0)
    try:
        U = transform.eval(zero)
        V = transform.derivative().eval(zero)
    except ArithmeticError as exc:
        raise InvalidParams("transform not evaluable at 0: %s" % exc) from exc
    alpha_m2 = float(U.modulus2)
    denom = 1.0 - alpha_m2
    if abs(denom) < 1e-9:
        raise InvalidParams("|alpha|^2 = 1 in fitted transform")
    kappa = V / denom
    if abs(float(kappa.modulus2) - 1.0) > 1e-6:
        raise InvalidParams("scale factor is not a unit double number")
    alpha = U / kappa
    sign = +1 if float(kappa.re) > 0 else -1
    phi = float(np.arctanh(float(kappa.im) / float(kappa.re)))
    return MoebiusParams(phi, alpha, sign, MoebiusForm.FRACTIONAL)


def surfaces_coincide(
    data1: GeneratingData,
    data2: GeneratingData,
    domain: tuple[float, float, float, float],
    grid: tuple[int, int] = (41, 41),
) -> FieldMatch:
    """Decide whether two datasets generate the same surface up to position.

    Both are brought to canonical parameters and their curvature fields are
    compared modulo the canonical gauge; equal fields identify the surface.
    The fields take the default gate of canonical_curvature_field and the
    comparison, whose FieldMatch is the answer, its default tol and
    min_overlap.  For a known fractional transform m, motion_witness(m)
    gives the motion.
    """
    return compare_curvature_fields(canonical_curvature_field(data1, domain, grid),
                                    canonical_curvature_field(data2, domain, grid))
