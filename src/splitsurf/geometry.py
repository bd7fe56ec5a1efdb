"""Minkowski surface geometry: fundamental forms, normals, curvatures.

The ambient metric is <x,y> = -x1 y1 + x2 y2 + x3 y3 (first coordinate
timelike).  Forms can be computed from sampled points by second-order
central differences, from the generating data analytically, or mixed:
analytic first derivatives with finite-difference second derivatives of the
sampled points (the default for generated patches, and the one minimality
checks run on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weierstrass import GeneratingData, SurfacePatch, curve_expressions, _eval_grid, _null_index, _part_re_im

__all__ = [
    "DegenerateNormal",
    "FundamentalForms",
    "FormsGrid",
    "minkowski_inner",
    "lorentz_cross",
    "fundamental_forms",
    "forms_grid",
    "curvatures",
]


class DegenerateNormal(ArithmeticError):
    """The candidate normal is lightlike or zero: forms are undefined there."""


def minkowski_inner(x, y):
    """<x, y> = -x1 y1 + x2 y2 + x3 y3, over the last axis."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    # bit for bit the operand order and signs of np.sum(eta * x * y, axis=-1),
    # eta = (-1, 1, 1)
    return 0.0 - x[..., 0] * y[..., 0] + x[..., 1] * y[..., 1] + x[..., 2] * y[..., 2]


def lorentz_cross(x, y):
    """The product characterized by <cross(x,y), w> = det[x; y; w] for all w."""
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    (x0, x1, x2), (y0, y1, y2) = np.moveaxis(x, -1, 0), np.moveaxis(y, -1, 0)
    c = np.empty(np.broadcast_shapes(x.shape, y.shape))
    np.multiply(x1 * y2 - x2 * y1, -1.0, out=c[..., 0])  # as np.cross(x, y) * eta
    np.subtract(x2 * y0, x0 * y2, out=c[..., 1])
    np.subtract(x0 * y1, x1 * y0, out=c[..., 2])
    return c


@dataclass(frozen=True)
class FundamentalForms:
    E: float
    F: float
    G: float
    L: float
    M: float
    N: float
    U: np.ndarray
    method: str

    def curvatures(self):
        return curvatures(self)


def curvatures(ff) -> tuple[float, float]:
    """(K, H) from form coefficients: K=(LN-M^2)/(EG-F^2), H=(EN-2FM+GL)/(2(EG-F^2))."""
    den = ff.E * ff.G - ff.F * ff.F
    K = (ff.L * ff.N - ff.M * ff.M) / den
    H = (ff.E * ff.N - 2.0 * ff.F * ff.M + ff.G * ff.L) / (2.0 * den)
    return K, H


@dataclass(frozen=True)
class FormsGrid:
    """Per-node form coefficients over a patch; NaN where not computed."""

    E: np.ndarray
    F: np.ndarray
    G: np.ndarray
    L: np.ndarray
    M: np.ndarray
    N: np.ndarray
    K: np.ndarray
    H: np.ndarray
    U: np.ndarray  # unit normal, (n, m, 3)
    valid: np.ndarray
    method: str
    metric_violations: int = 0

    def at(self, i: int, j: int) -> FundamentalForms:
        if not self.valid[i, j]:
            raise DegenerateNormal("normal degenerate or stencil invalid at (%d, %d)" % (i, j))
        return FundamentalForms(
            float(self.E[i, j]),
            float(self.F[i, j]),
            float(self.G[i, j]),
            float(self.L[i, j]),
            float(self.M[i, j]),
            float(self.N[i, j]),
            U=self.U[i, j].copy(),
            method=self.method,
        )


def _resolve_method(patch: SurfacePatch, method: str) -> str:
    if method == "auto":
        if patch.provenance is None:
            return "fd"
        # differenced second derivatives only keep the L = N cancellation
        # exact on square grid steps; otherwise stay fully analytic
        square = abs(patch.h_u - patch.h_v) <= 1e-12 * max(patch.h_u, patch.h_v)
        return "mixed" if square else "analytic"
    if method in ("fd", "analytic", "mixed"):
        if method != "fd" and patch.provenance is None:
            raise ValueError("patch has no generating data; only method='fd' applies")
        return method
    raise ValueError("method must be one of auto, fd, analytic, mixed")


def _analytic_first(patch: SurfacePatch, second: bool = False):
    """(x_u, x_v) from the curve derivative, or (x_uu, x_uv) from its
    derivative when `second`, and the mask of nodes where they are finite."""
    data: GeneratingData = patch.provenance
    index = patch._index or _null_index(patch.zgrid(), data.base_point)
    xu = np.empty(patch.points.shape)
    xv = np.empty(patch.points.shape)
    ok = np.ones(patch.shape, bool)
    for k, e in enumerate(curve_expressions(data)):
        vals, good = _eval_grid(e.derivative() if second else e, index)
        xu[:, :, k], xv[:, :, k] = _part_re_im(vals, data.part)
        ok &= good
    return xu, xv, ok


def _fd_first(points, hu, hv):
    xu = np.full(points.shape, np.nan)
    xv = np.full(points.shape, np.nan)
    xu[1:-1, :, :] = (points[2:, :, :] - points[:-2, :, :]) / (2.0 * hu)
    xv[:, 1:-1, :] = (points[:, 2:, :] - points[:, :-2, :]) / (2.0 * hv)
    return xu, xv


def _fd_second(points, hu, hv):
    xuu = np.full(points.shape, np.nan)
    xvv = np.full(points.shape, np.nan)
    xuv = np.full(points.shape, np.nan)
    xuu[1:-1, :, :] = (points[2:, :, :] - 2.0 * points[1:-1, :, :] + points[:-2, :, :]) / hu**2
    xvv[:, 1:-1, :] = (points[:, 2:, :] - 2.0 * points[:, 1:-1, :] + points[:, :-2, :]) / hv**2
    xuv[1:-1, 1:-1, :] = (
        points[2:, 2:, :] - points[2:, :-2, :] - points[:-2, 2:, :] + points[:-2, :-2, :]
    ) / (4.0 * hu * hv)
    return xuu, xuv, xvv


def forms_grid(patch: SurfacePatch, method: str = "auto") -> FormsGrid:
    """Fundamental forms at every node where the chosen stencil is available."""
    method = _resolve_method(patch, method)
    pts = patch.points
    if method == "fd":
        xu, xv = _fd_first(pts, patch.h_u, patch.h_v)
        xuu, xuv, xvv = _fd_second(pts, patch.h_u, patch.h_v)
        ok = patch.valid.copy()
    elif method == "analytic":
        xu, xv, ok = _analytic_first(patch)
        xuu, xuv, ok2 = _analytic_first(patch, second=True)
        xvv = xuu  # every component satisfies the wave equation x_vv = x_uu
        ok = ok & ok2 & patch.valid
    else:  # mixed: exact tangents, measured second derivatives
        xu, xv, ok = _analytic_first(patch)
        xuu, xuv, xvv = _fd_second(pts, patch.h_u, patch.h_v)
        ok = ok & patch.valid

    with np.errstate(invalid="ignore"):
        E = minkowski_inner(xu, xu)
        F = minkowski_inner(xu, xv)
        G = minkowski_inner(xv, xv)
        cross = lorentz_cross(xu, xv)
        norm2 = minkowski_inner(cross, cross)
        scale = np.einsum("ijk,ijk->ij", xu, xu) * np.einsum("ijk,ijk->ij", xv, xv)
        degenerate = ~(norm2 > 1e-12 * np.maximum(scale, 1e-300))
        norm2_safe = np.where(degenerate, 1.0, norm2)
        U = cross / np.sqrt(norm2_safe)[..., None]
        L = minkowski_inner(U, xuu)
        M = minkowski_inner(U, xuv)
        N = minkowski_inner(U, xvv)
        computed = (
            ok
            & ~degenerate
            & np.isfinite(E)
            & np.isfinite(G)
            & np.isfinite(L)
            & np.isfinite(M)
            & np.isfinite(N)
        )
        violations = int(np.sum(computed & (E * G - F * F >= 0.0)))
        valid = computed & (E * G - F * F < 0.0)
        den = E * G - F * F
        den = np.where(valid, den, np.nan)
        K = (L * N - M * M) / den
        H = (E * N - 2.0 * F * M + G * L) / (2.0 * den)

    nan = lambda arr: np.where(valid, arr, np.nan)
    return FormsGrid(
        nan(E), nan(F), nan(G), nan(L), nan(M), nan(N), K, H,
        np.where(valid[..., None], U, np.nan), valid, method, violations
    )


def fundamental_forms(patch: SurfacePatch, at: tuple[int, int], method: str = "auto") -> FundamentalForms:
    """Forms at one grid node; the node (and its stencil, for fd) must be valid."""
    method = _resolve_method(patch, method)
    i, j = at
    n, m = patch.shape
    if method != "analytic" and not (0 < i < n - 1 and 0 < j < m - 1):
        raise ValueError("finite-difference forms need an interior node")
    return forms_grid(patch, method).at(i, j)
