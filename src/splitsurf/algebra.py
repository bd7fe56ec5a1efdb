"""Arithmetic of split-complex (double) numbers a + bJ with J*J = +1.

The algebra has zero divisors along the null lines a = +-b.  In the
idempotent basis e+ = (1+J)/2, e- = (1-J)/2 multiplication is componentwise,
which is what makes every solver downstream decouple into two real problems.
Components may be numpy arrays, in which case all operations act elementwise.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "SplitComplex",
    "ZeroDivisor",
    "NoSquareRoot",
    "NULL_EPS",
    "splitc",
    "from_null",
    "exp",
    "sqrt",
    "sqrt_all",
    "E_PLUS",
    "E_MINUS",
    "J",
]

# Divisions closer to the null cone than this (relative to max(1, |z|))
# amplify rounding error without bound, so they fail loudly instead.
NULL_EPS = 1e-12


class ZeroDivisor(ArithmeticError):
    """The divisor lies on a null line (p = 0 or q = 0); it has no inverse."""


class NoSquareRoot(ArithmeticError):
    """No square root exists with both null components non-negative."""


def _as_component(x):
    if isinstance(x, np.ndarray):
        return x.astype(float, copy=False)
    return float(x)


class SplitComplex:
    """A double number re + im*J.  Immutable; scalar or elementwise array."""

    __slots__ = ("re", "im")

    def __init__(self, re=0.0, im=0.0):
        re = _as_component(re)
        im = _as_component(im)
        if isinstance(re, np.ndarray) or isinstance(im, np.ndarray):
            re, im = np.broadcast_arrays(np.asarray(re, float), np.asarray(im, float))
            re = re.copy()
            im = im.copy()
        object.__setattr__(self, "re", re)
        object.__setattr__(self, "im", im)

    @classmethod
    def _fresh(cls, re, im) -> "SplitComplex":
        """A value of components this class has just computed: C-contiguous
        float64 arrays of one shape are stored as they are, without the
        public constructor's copy."""
        if not (isinstance(re, np.ndarray) and re.flags.c_contiguous and im.flags.c_contiguous):
            return cls(re, im)
        z = object.__new__(cls)
        object.__setattr__(z, "re", re)
        object.__setattr__(z, "im", im)
        return z

    def __setattr__(self, name, value):
        raise AttributeError("SplitComplex is immutable")

    # -- null (idempotent) coordinates ------------------------------------
    @property
    def p(self):
        """Plus null coordinate re + im."""
        return self.re + self.im

    @property
    def q(self):
        """Minus null coordinate re - im."""
        return self.re - self.im

    @staticmethod
    def from_null(p, q) -> "SplitComplex":
        p = _as_component(p)
        q = _as_component(q)
        return SplitComplex._fresh((p + q) / 2.0, (p - q) / 2.0)

    # -- basic structure ---------------------------------------------------
    def conj(self) -> "SplitComplex":
        return SplitComplex(self.re, -self.im)

    @property
    def modulus2(self):
        """Squared modulus z * conj(z) = re^2 - im^2; may be negative or zero."""
        return self.re * self.re - self.im * self.im

    @property
    def mag(self):
        """Euclidean magnitude hypot(re, im); used only for scaling thresholds."""
        return np.hypot(self.re, self.im)

    def is_invertible(self, eps: float = NULL_EPS):
        scale = np.maximum(1.0, self.mag)
        return np.minimum(np.abs(self.p), np.abs(self.q)) >= eps * scale

    # -- ring operations ---------------------------------------------------
    @staticmethod
    def _coerce(x):
        if isinstance(x, SplitComplex):
            return x
        if isinstance(x, (int, float, np.floating, np.integer, np.ndarray)):
            return SplitComplex(x, 0.0)
        return NotImplemented

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SplitComplex._fresh(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SplitComplex._fresh(self.re - other.re, self.im - other.im)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other - self

    def __neg__(self):
        return SplitComplex._fresh(-self.re, -self.im)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return SplitComplex._fresh(
            self.re * other.re + self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        bad = ~other.is_invertible()
        if np.any(bad):
            raise ZeroDivisor(
                "division by a null (or near-null) double number %s" % _brief(other)
            )
        m2 = other.modulus2
        num = self * other.conj()
        return SplitComplex._fresh(num.re / m2, num.im / m2)

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n):
        if not isinstance(n, (int, np.integer)):
            return NotImplemented
        n = int(n)
        if n == 0:
            return SplitComplex(np.ones_like(self.re) if self._is_array else 1.0, 0.0)
        if n < 0:
            base = SplitComplex(1.0) / self
            n = -n
        else:
            base = self
        # componentwise in null coordinates: powers commute with the splitting
        return SplitComplex.from_null(base.p**n, base.q**n)

    # -- comparisons / container protocol -----------------------------------
    @property
    def _is_array(self):
        return isinstance(self.re, np.ndarray)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self._is_array or other._is_array:
            return bool(
                np.array_equal(self.re, other.re) and np.array_equal(self.im, other.im)
            )
        return self.re == other.re and self.im == other.im

    def __hash__(self):
        return hash((float(self.re), float(self.im)))

    @property
    def shape(self):
        return self.re.shape if self._is_array else ()

    def __getitem__(self, idx):
        return SplitComplex(self.re[idx], self.im[idx])

    def ravel(self):
        return SplitComplex(np.ravel(self.re), np.ravel(self.im))

    # -- text ---------------------------------------------------------------
    def __str__(self):
        if self._is_array:
            return "SplitComplex(re=%r, im=%r)" % (self.re, self.im)
        if self.im == 0.0:
            return repr(float(self.re))
        if self.re == 0.0:
            return repr(float(self.im)) + "J"
        sign = "+" if self.im > 0 else "-"
        return "%r%s%rJ" % (float(self.re), sign, abs(float(self.im)))

    def __repr__(self):
        if self._is_array:
            return "SplitComplex(re=%r, im=%r)" % (self.re, self.im)
        return "SplitComplex(%r, %r)" % (float(self.re), float(self.im))


def _brief(z: SplitComplex) -> str:
    if z._is_array:
        return "<array>"
    return str(z)


def splitc(re=0.0, im=0.0) -> SplitComplex:
    """Shorthand constructor."""
    return SplitComplex(re, im)


J = SplitComplex(0.0, 1.0)
E_PLUS = SplitComplex(0.5, 0.5)
E_MINUS = SplitComplex(0.5, -0.5)


def from_null(p, q) -> SplitComplex:
    return SplitComplex.from_null(p, q)


def exp(z: SplitComplex) -> SplitComplex:
    """exp acts componentwise in null coordinates; exp(J*t) = cosh t + J sinh t."""
    z = SplitComplex._coerce(z)
    return SplitComplex.from_null(np.exp(z.p), np.exp(z.q))


def sqrt(z: SplitComplex) -> SplitComplex:
    """Principal square root: both null components non-negative.

    Raises NoSquareRoot when p < 0 or q < 0; the other sign choices are
    enumerated by sqrt_all.
    """
    z = SplitComplex._coerce(z)
    p, q = z.p, z.q
    if np.any(np.asarray(p) < 0.0) or np.any(np.asarray(q) < 0.0):
        raise NoSquareRoot(
            "no principal square root: null coordinates of %s are not both >= 0"
            % _brief(z)
        )
    return SplitComplex.from_null(np.sqrt(p), np.sqrt(q))


def sqrt_all(z: SplitComplex) -> list[SplitComplex]:
    """All square roots (up to 4, scalar input): sign choices per null component."""
    z = SplitComplex._coerce(z)
    if z._is_array:
        raise ValueError("sqrt_all expects a scalar")
    r = sqrt(z)
    roots = []
    for sp in (1.0, -1.0):
        for sq in (1.0, -1.0):
            cand = SplitComplex.from_null(sp * r.p, sq * r.q)
            if not any(cand == seen for seen in roots):
                roots.append(cand)
    return roots
