"""Minkowski surface geometry: fundamental forms, normals, curvatures.

The ambient metric is <x,y> = -x1 y1 + x2 y2 + x3 y3 (first coordinate
timelike).  The stencil comes from the patch, not from an argument: a
patch without generating data (read from points) gets second-order central
differences; a generated patch on square grid steps gets "mixed" forms,
analytic first derivatives with finite-difference second derivatives of the
sampled points; any other generated patch gets fully analytic forms.

`forms_grid` is the one forms path: forms, normal and K, H at every node,
NaN and not `valid` where the stencil is unavailable, the normal degenerate
or the metric not timelike.  One node is read by indexing the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .weierstrass import SurfacePatch, _square_steps, curve_expressions

__all__ = [
    "FormsGrid",
    "minkowski_inner",
    "lorentz_cross",
    "forms_grid",
]


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


def _resolve_method(patch: SurfacePatch) -> str:
    """The stencil for a patch: fd without generating data, else mixed on square steps, else analytic."""
    if patch.provenance is None:
        return "fd"
    # differenced second derivatives only keep the L = N cancellation
    # exact on square grid steps; otherwise stay fully analytic
    return "mixed" if _square_steps(patch.h_u, patch.h_v) else "analytic"


def _analytic_first(patch: SurfacePatch, second: bool = False):
    """(x_u, x_v) from the curve derivative, or (x_uu, x_uv) from its
    derivative when `second`, and the mask of nodes where they are finite."""
    exprs = curve_expressions(patch.provenance)
    return patch._index.tangents([e.derivative() for e in exprs] if second else exprs, patch.provenance.part)


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


def forms_grid(patch: SurfacePatch) -> FormsGrid:
    """Fundamental forms at every node where the patch's stencil is available."""
    method = _resolve_method(patch)
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
