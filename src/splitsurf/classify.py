"""Classification of degree-3 polynomial isothermal parametrizations.

A cubic minimal timelike immersion in isothermal parameters lifts to a
polynomial curve by the formal substitution u -> z/2, v -> J z/2; the
generating pair is then read off from
f = -phi1 + J phi2,  f g^2 = -phi1 - J phi2,  f g = phi3,
and the only surfaces that occur are homothetic motions of the Enneper
surface: f = +-(a z + b)^2, g = (c z + d)/(a z + b) with bc - ad != 0.
The normal form is decided per null side, where it is two real quadratic
fits accepted by one backward-error test.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass

import numpy as np

from .algebra import J, splitc
from ._dpoly import DPoly
from .holofn import HoloExpr, poly_to_expr

__all__ = [
    "NotMinimalError",
    "DegenerateError",
    "Verdict",
    "Poly2",
    "CubicParametrization",
    "ClassificationVerdict",
    "lift_to_curve",
    "extract_pair",
    "classify_cubic",
]

COEFF_RTOL = 1e-9


class NotMinimalError(ArithmeticError):
    """The lifted curve violates the isotropy identity: not a minimal-surface part."""


class DegenerateError(ArithmeticError):
    """f vanishes identically or the pair leaves the rational normal form."""


class Verdict(enum.Enum):
    ENNEPER_NEGATIVE = "EnneperNegative"
    NOT_MINIMAL = "NotMinimal"
    NOT_ISOTHERMAL = "NotIsothermal"
    DEGENERATE = "Degenerate"


class Poly2:
    """Real bivariate polynomial; coeffs[i, j] multiplies u^i v^j."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = np.asarray(coeffs, float)

    @classmethod
    def zero(cls, n=1):
        return cls(np.zeros((n, n)))

    @classmethod
    def from_dict(cls, d: dict) -> "Poly2":
        if not d:
            return cls.zero()
        deg = max(i + j for i, j in d)
        coeffs = np.zeros((deg + 1, deg + 1))
        for (i, j), c in d.items():
            coeffs[i, j] = c
        return cls(coeffs)

    @property
    def degree(self) -> int:
        nz = np.argwhere(self.coeffs != 0.0)
        if len(nz) == 0:
            return 0
        return int(np.max(nz.sum(axis=1)))

    @property
    def max_abs(self) -> float:
        return float(np.max(np.abs(self.coeffs)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.coeffs) <= tol))

    def deriv_u(self) -> "Poly2":
        c = self.coeffs
        if c.shape[0] == 1:
            return Poly2.zero()
        return Poly2(c[1:, :] * np.arange(1, c.shape[0])[:, None])

    def deriv_v(self) -> "Poly2":
        c = self.coeffs
        if c.shape[1] == 1:
            return Poly2.zero()
        return Poly2(c[:, 1:] * np.arange(1, c.shape[1])[None, :])

    def __add__(self, other):
        n = max(self.coeffs.shape[0], other.coeffs.shape[0])
        m = max(self.coeffs.shape[1], other.coeffs.shape[1])
        out = np.zeros((n, m))
        out[: self.coeffs.shape[0], : self.coeffs.shape[1]] += self.coeffs
        out[: other.coeffs.shape[0], : other.coeffs.shape[1]] += other.coeffs
        return Poly2(out)

    def __sub__(self, other):
        return self + other.scale(-1.0)

    def __mul__(self, other):
        a, b = self.coeffs, other.coeffs
        out = np.zeros((a.shape[0] + b.shape[0] - 1, a.shape[1] + b.shape[1] - 1))
        for i in range(a.shape[0]):
            for j in range(a.shape[1]):
                if a[i, j] != 0.0:
                    out[i : i + b.shape[0], j : j + b.shape[1]] += a[i, j] * b
        return Poly2(out)

    def scale(self, c: float) -> "Poly2":
        return Poly2(self.coeffs * c)

    def __call__(self, u, v):
        out = 0.0
        for i in range(self.coeffs.shape[0]):
            for j in range(self.coeffs.shape[1]):
                if self.coeffs[i, j] != 0.0:
                    out = out + self.coeffs[i, j] * u**i * v**j
        return out


@dataclass(frozen=True)
class CubicParametrization:
    """Three bivariate real polynomial components of total degree <= 3."""

    x1: Poly2
    x2: Poly2
    x3: Poly2

    def __post_init__(self):
        for comp in (self.x1, self.x2, self.x3):
            if comp.degree > 3:
                raise ValueError("components must have total degree <= 3")

    @property
    def components(self):
        return (self.x1, self.x2, self.x3)

    @property
    def degree(self) -> int:
        return max(c.degree for c in self.components)

    @classmethod
    def from_coeff_maps(cls, m1: dict, m2: dict, m3: dict) -> "CubicParametrization":
        return cls(Poly2.from_dict(m1), Poly2.from_dict(m2), Poly2.from_dict(m3))

    @classmethod
    def from_json(cls, obj) -> "CubicParametrization":
        if isinstance(obj, str):
            obj = json.loads(obj)
        maps = []
        for name in ("x1", "x2", "x3"):
            raw = obj.get(name, {})
            parsed = {}
            for key, c in raw.items():
                nums = key.strip().strip("()").split(",")
                parsed[(int(nums[0]), int(nums[1]))] = float(c)
            maps.append(parsed)
        return cls.from_coeff_maps(*maps)

    def to_json(self) -> dict:
        out = {}
        for name, comp in zip(("x1", "x2", "x3"), self.components):
            d = {}
            for i in range(comp.coeffs.shape[0]):
                for j in range(comp.coeffs.shape[1]):
                    if comp.coeffs[i, j] != 0.0:
                        d["(%d,%d)" % (i, j)] = float(comp.coeffs[i, j])
            out[name] = d
        return out

    def apply_motion(self, matrix, translation=None, scale: float = 1.0) -> "CubicParametrization":
        """lam * (M x + t), coefficientwise."""
        matrix = np.asarray(matrix, float)
        t = np.zeros(3) if translation is None else np.asarray(translation, float)
        comps = []
        for k in range(3):
            acc = Poly2.zero()
            for j in range(3):
                acc = acc + self.components[j].scale(matrix[k, j])
            acc = acc + Poly2.from_dict({(0, 0): t[k]})
            comps.append(acc.scale(scale))
        return CubicParametrization(*comps)

    def eval(self, u, v):
        return np.stack([c(u, v) for c in self.components], axis=-1)


def _is_isothermal(x: CubicParametrization):
    xu = [c.deriv_u() for c in x.components]
    xv = [c.deriv_v() for c in x.components]

    def mink(a, b):
        return (a[0] * b[0]).scale(-1.0) + a[1] * b[1] + a[2] * b[2]

    E = mink(xu, xu)
    G = mink(xv, xv)
    F = mink(xu, xv)
    scale = max(E.max_abs, G.max_abs, F.max_abs, 1e-300)
    return (E + G).is_zero(COEFF_RTOL * scale) and F.is_zero(COEFF_RTOL * scale)


def lift_to_curve(x: CubicParametrization) -> tuple[DPoly, DPoly, DPoly]:
    """Polynomial curve from the formal substitution u -> z/2, v -> J z/2.

    The constant term is dropped (base-point translation), so the curve
    starts at the origin; u^i v^j contributes 2^(1-i-j) J^j z^(i+j).
    """
    out = []
    for comp in x.components:
        coeffs = [splitc(0.0)] * 4
        c = comp.coeffs
        for i in range(c.shape[0]):
            for j in range(c.shape[1]):
                if c[i, j] == 0.0 or (i == 0 and j == 0):
                    continue
                unit = J if j % 2 else splitc(1.0)
                coeffs[i + j] = coeffs[i + j] + unit * (c[i, j] * 2.0 ** (1 - i - j))
        out.append(DPoly.from_coeffs(coeffs))
    return tuple(out)


def extract_pair(phi):
    """Generating data from the curve derivative phi = (phi1, phi2, phi3).

    Returns (f, P, Q) with f = -phi1 + J phi2 = s Q^2 for one sign s and
    g = P/Q; a constant f gives Q = sqrt(s f).  Per null side, f is fitted
    as s (a t + b)^2 and phi3 = f g divided by s (a t + b), each accepted
    when the rebuilt coefficients match to COEFF_RTOL of that side.
    Raises NotMinimalError when (-phi1+J phi2)(-phi1-J phi2) != phi3^2, and
    DegenerateError when f vanishes, f or f g = phi3 has degree above 2,
    or the pair leaves the normal form.
    """
    phi1, phi2, phi3 = phi
    defect = phi1 * phi1 - phi2 * phi2 - phi3 * phi3
    scale = max(
        (phi1 * phi1).max_abs, (phi2 * phi2).max_abs, (phi3 * phi3).max_abs, 1e-300
    )
    if not defect.is_zero(COEFF_RTOL * scale):
        raise NotMinimalError(
            "isotropy identity violated (relative defect %.3g)"
            % (defect.max_abs / scale)
        )
    f = (-phi1) + phi2.scale(J)
    if f.is_zero(0.0):
        raise DegenerateError("f vanishes identically")
    for name, poly in (("f", f), ("f g", phi3)):
        if poly.degree > 2:
            raise DegenerateError("%s has degree %d, above 2: outside the normal form" % (name, poly.degree))
    fit = _signed_square(f)
    if fit is None:
        raise DegenerateError("f is not +-(a z + b)^2: outside the normal form")
    s, Q = fit
    P = [_side_quotient(e, q, s) for e, q in ((phi3.plus, Q.plus), (phi3.minus, Q.minus))]
    if None in P:
        raise DegenerateError("f g is not divisible by the square root of f")
    return f, DPoly(*P), Q


def _side(coeffs, s):
    """s times the coefficients of one null side, padded to degree 2."""
    return [s * float(c) for c in coeffs] + [0.0] * (3 - len(coeffs))


def _matches(c, rebuilt) -> bool:
    """Backward-error test on one null side: |c - rebuilt| <= COEFF_RTOL max|c|."""
    tol = COEFF_RTOL * max(map(abs, c))
    return all(abs(x - y) <= tol for x, y in zip(c, rebuilt))


def _side_square(coeffs, s):
    """[b, a] with a >= 0 and s (c0, c1, c2) = (b^2, 2ab, a^2), or None.

    The larger root comes from its own square and the smaller from the
    cross term, so a root far below the other keeps its relative accuracy.
    """
    c0, c1, c2 = c = _side(coeffs, s)
    root = max(c0, c2, 0.0) ** 0.5
    if root == 0.0:
        return None
    if c2 >= c0:
        a, b = root, c1 / (2.0 * root)
    else:
        b = root if c1 >= 0.0 else -root
        a = c1 / (2.0 * b)
    return [b, a] if _matches(c, (b * b, 2.0 * a * b, a * a)) else None


def _signed_square(f: DPoly):
    """(s, Q) with f = s Q^2 on both null sides, s in {+1, -1}; None if neither."""
    for s in (1, -1):
        plus, minus = _side_square(f.plus, s), _side_square(f.minus, s)
        if plus is not None and minus is not None:
            return s, DPoly(plus, minus)
    return None


def _side_quotient(coeffs, root, s):
    """[d, c] with s (e0, e1, e2) = (a t + b)(c t + d) for root = [b, a], or None.

    Divides by the larger of a and |b|; accepts on the rebuilt product.
    """
    e0, e1, e2 = e = _side(coeffs, s)
    b, a = _side(root, 1)[:2]
    if a >= abs(b):
        c = e2 / a
        d = (e1 - b * c) / a
    else:
        d = e0 / b
        c = (e1 - a * d) / b
    return [d, c] if _matches(e, (b * d, a * d + b * c, a * c)) else None


@dataclass(frozen=True)
class ClassificationVerdict:
    verdict: Verdict
    f: HoloExpr | None = None
    g: HoloExpr | None = None
    scale: float | None = None
    notes: tuple[str, ...] = ()
    normal_form: dict | None = None

    def to_dict(self) -> dict:
        return {
            "verdict": self.verdict.value,
            "f": str(self.f) if self.f is not None else None,
            "g": str(self.g) if self.g is not None else None,
            "scale": self.scale,
            "notes": list(self.notes),
            "normal_form": self.normal_form,
        }


def _homothety_scale(a, b, c, d):
    """|bc - ad|^3 / (|a|^2 - |c|^2)^2 for the normal-form parameters.

    In canonical parameters the field (-16/K)^(1/4) of a scaled Enneper
    surface is sqrt(lam) - (u^2 - v^2)/sqrt(lam); matching its u^2
    coefficient against the one computed from (a, b, c, d) gives lam.
    """
    bc_ad = b * c - a * d
    m2 = float(bc_ad.modulus2)
    den = float(a.modulus2) - float(c.modulus2)
    return m2, den, (m2**1.5 / den**2 if m2 > 0.0 and den != 0.0 else None)


def classify_cubic(x: CubicParametrization) -> ClassificationVerdict:
    """Full decision pipeline for a cubic isothermal parametrization."""
    notes = []
    if x.degree < 3:
        notes.append("total degree is %d, not 3" % x.degree)
    if not _is_isothermal(x):
        return ClassificationVerdict(Verdict.NOT_ISOTHERMAL, notes=tuple(notes))
    psi = lift_to_curve(x)
    phi = tuple(p.deriv() for p in psi)
    try:
        f, P, Q = extract_pair(phi)
    except NotMinimalError as exc:
        return ClassificationVerdict(Verdict.NOT_MINIMAL, notes=tuple(notes) + (str(exc),))
    except DegenerateError as exc:
        verdict_notes = tuple(notes) + (str(exc),)
        phi1, phi2, _ = phi
        if _signed_square(((-phi1) + phi2.scale(J)).scale(J)) is not None:
            verdict_notes += (
                "J*f is a signed square: imaginary-part (positive curvature) "
                "family; that branch is not classified",
            )
        return ClassificationVerdict(Verdict.DEGENERATE, notes=verdict_notes)

    # g = P/Q over the denominator a z + b that squares to +-f
    s = _signed_square(f)[0]
    a, b = Q.coeff(1), Q.coeff(0)
    c, d = P.coeff(1), P.coeff(0)
    m2, den, scale = _homothety_scale(a, b, c, d)
    coeff_scale = max(P.max_abs, Q.max_abs)
    if abs(m2) <= (COEFF_RTOL * coeff_scale**2) ** 2:
        return ClassificationVerdict(
            Verdict.DEGENERATE, notes=tuple(notes) + ("bc - ad = 0: the surface is planar",)
        )
    if scale is None or abs(den) <= COEFF_RTOL * coeff_scale**2:
        return ClassificationVerdict(
            Verdict.DEGENERATE,
            notes=tuple(notes)
            + ("normal-form invariants leave the negative-curvature Enneper family",),
        )

    g_expr = _ratio_expr(P, Q)
    f_expr = poly_to_expr(f.chop())
    normal = {
        "sign": s,
        "a": str(a),
        "b": str(b),
        "c": str(c),
        "d": str(d),
    }
    return ClassificationVerdict(
        Verdict.ENNEPER_NEGATIVE, f_expr, g_expr, float(scale), tuple(notes), normal
    )


def _ratio_expr(P: DPoly, Q: DPoly) -> HoloExpr:
    if Q.degree == 0:
        q0 = Q.coeff(0)
        if bool(q0.is_invertible()):
            return poly_to_expr(P.scale(splitc(1.0) / q0))
    return poly_to_expr(P) / poly_to_expr(Q)
