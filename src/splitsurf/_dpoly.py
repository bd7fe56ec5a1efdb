"""Univariate polynomials with split-complex coefficients.

Stored dense, low degree first.  Because the coefficient algebra splits into
two real lines (null coordinates), a DPoly is a pair of ordinary real
polynomials, one per null side, and every operation acts on each side.
"""

from __future__ import annotations

import numpy as np

from .algebra import SplitComplex, from_null

__all__ = ["DPoly"]


def _trim(arr: np.ndarray, tol: float = 0.0) -> np.ndarray:
    arr = np.asarray(arr, float)
    n = len(arr)
    while n > 1 and abs(arr[n - 1]) <= tol:
        n -= 1
    return arr[:n]


class DPoly:
    """Polynomial sum c_k z^k with SplitComplex coefficients c_k."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus, minus):
        # real coefficient arrays of the two induced null-component polynomials
        self.plus = _trim(np.asarray(plus, float))
        self.minus = _trim(np.asarray(minus, float))

    @classmethod
    def from_coeffs(cls, coeffs) -> "DPoly":
        """Build from an iterable of SplitComplex (or real) coefficients."""
        cs = [c if isinstance(c, SplitComplex) else SplitComplex(c) for c in coeffs]
        if not cs:
            cs = [SplitComplex(0.0)]
        return cls([c.p for c in cs], [c.q for c in cs])

    @classmethod
    def zero(cls) -> "DPoly":
        return cls([0.0], [0.0])

    @classmethod
    def const(cls, c) -> "DPoly":
        return cls.from_coeffs([c])

    @classmethod
    def x(cls) -> "DPoly":
        return cls([0.0, 1.0], [0.0, 1.0])

    # -- inspection ---------------------------------------------------------
    @property
    def degree(self) -> int:
        return max(len(self.plus), len(self.minus)) - 1

    def coeff(self, k: int) -> SplitComplex:
        p = self.plus[k] if k < len(self.plus) else 0.0
        q = self.minus[k] if k < len(self.minus) else 0.0
        return from_null(p, q)

    def coeffs(self) -> list[SplitComplex]:
        return [self.coeff(k) for k in range(self.degree + 1)]

    @property
    def max_abs(self) -> float:
        return max(np.max(np.abs(self.plus)), np.max(np.abs(self.minus)))

    def is_zero(self, tol: float = 0.0) -> bool:
        return bool(np.all(np.abs(self.plus) <= tol) and np.all(np.abs(self.minus) <= tol))

    def chop(self, rel_tol: float = 1e-9) -> "DPoly":
        """Zero out coefficients below rel_tol times the largest coefficient."""
        scale = self.max_abs
        if scale == 0.0:
            return self
        cut = rel_tol * scale
        plus = np.where(np.abs(self.plus) < cut, 0.0, self.plus)
        minus = np.where(np.abs(self.minus) < cut, 0.0, self.minus)
        return DPoly(_trim(plus, 0.0), _trim(minus, 0.0))

    # -- ring operations ------------------------------------------------------
    @staticmethod
    def _pad(a: np.ndarray, n: int) -> np.ndarray:
        if len(a) >= n:
            return a
        out = np.zeros(n)
        out[: len(a)] = a
        return out

    def __add__(self, other: "DPoly") -> "DPoly":
        n = max(len(self.plus), len(other.plus))
        m = max(len(self.minus), len(other.minus))
        return DPoly(
            self._pad(self.plus, n) + self._pad(other.plus, n),
            self._pad(self.minus, m) + self._pad(other.minus, m),
        )

    def __sub__(self, other: "DPoly") -> "DPoly":
        return self + (-other)

    def __neg__(self) -> "DPoly":
        return DPoly(-self.plus, -self.minus)

    def __mul__(self, other: "DPoly") -> "DPoly":
        return DPoly(
            np.convolve(self.plus, other.plus), np.convolve(self.minus, other.minus)
        )

    def scale(self, c: SplitComplex) -> "DPoly":
        c = SplitComplex._coerce(c)
        return DPoly(self.plus * c.p, self.minus * c.q)

    # -- calculus -------------------------------------------------------------
    def deriv(self) -> "DPoly":
        ks = np.arange(1, len(self.plus))
        km = np.arange(1, len(self.minus))
        plus = self.plus[1:] * ks if len(self.plus) > 1 else [0.0]
        minus = self.minus[1:] * km if len(self.minus) > 1 else [0.0]
        return DPoly(plus, minus)

    def __call__(self, z: SplitComplex) -> SplitComplex:
        z = SplitComplex._coerce(z)
        p, q = z.p, z.q
        vp = np.polyval(self.plus[::-1], p)
        vq = np.polyval(self.minus[::-1], q)
        return from_null(vp, vq)

    def __repr__(self):
        return "DPoly(%s)" % ", ".join(str(c) for c in self.coeffs())
