"""Minkowski surface geometry: fundamental forms, normals, curvatures.

The ambient metric is <x,y> = -x1 y1 + x2 y2 + x3 y3 (first coordinate
timelike).  The stencil comes from the patch, not from an argument: a
patch without generating data (read from points) gets second-order central
differences; a generated patch on square grid steps gets "mixed" forms,
analytic first derivatives with finite-difference second derivatives of the
sampled points; any other generated patch gets fully analytic forms.

`forms_blocks` is the one forms path: forms, normal and K, H at every node
of one block of grid rows at a time, NaN and not `valid` where the stencil
is unavailable, the normal degenerate or the metric not timelike.
`forms_grid` stores the blocks into whole-grid arrays; one node is read by
indexing them.  `BlockFold` reduces per-node statistics over the blocks to
the whole grid's.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .weierstrass import SurfacePatch, _square_steps, curve_expressions

__all__ = [
    "BlockFold",
    "FormsGrid",
    "minkowski_inner",
    "lorentz_cross",
    "forms_blocks",
    "forms_grid",
]

# nodes in one block of forms_blocks: whole grid rows, at least one; a
# 101-column grid takes 20 rows a block, and a 33x33 patch is one block
BLOCK_NODES = 2048


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


def _halo(points, rows):
    """The points of grid rows `rows` with the neighbouring row on each side
    the grid has one, and the place of rows within them.  The central
    differences below leave NaN only on the first and last row of what they
    are given, so on the rows they equal the whole grid's, bit for bit."""
    lo = max(rows.start - 1, 0)
    return points[lo:rows.stop + 1], slice(rows.start - lo, rows.stop - lo)


def _shifted(points, out, steps):
    """Flat views for a stencil on (r, m, 3) arrays: the entries of out that
    have every neighbour (i+di, j+dj) of steps within the points, and per
    step the points at that neighbour of each of them.

    A neighbour is a fixed number of entries away in the flattened arrays,
    so every view is contiguous: numpy allocates iteration buffers, as large
    as a block of rows, for strided operands.  The first and last entries of
    a grid row find a neighbour along v in the next or previous row; callers
    set the first and last column to NaN."""
    m = points.shape[1]
    offsets = [3 * (di * m + dj) for di, dj in steps]
    pad = max(map(abs, offsets))
    n = max(out.size - 2 * pad, 0)
    flat = points.reshape(-1)
    return out.reshape(-1)[pad:pad + n], [flat[pad + o:pad + o + n] for o in offsets]


def _fd_first(points, hu, hv):
    """x_u and x_v by central differences, NaN where the stencil leaves the
    points given, each formed in place."""
    xu, xv = np.full(points.shape, np.nan), np.full(points.shape, np.nan)
    for x, (di, dj), h in ((xu, (1, 0), hu), (xv, (0, 1), hv)):
        t, (plus, minus) = _shifted(points, x, [(di, dj), (-di, -dj)])
        # the row ends pair points of two rows: quiet there, and NaN below
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(plus, minus, out=t)
            t /= 2.0 * h
    xv[:, [0, -1]] = np.nan
    return xu, xv


def _fd_second(points, hu, hv):
    """x_uu, x_uv and x_vv by central differences, NaN where the stencil
    leaves the points given, each formed in place with the operations of
    (a - 2 b + c) / h^2 and (a - b - c + d) / (4 h_u h_v) in their order, and
    made only when the caller asks for the next."""

    def along(di, dj, h2):
        x = np.full(points.shape, np.nan)
        t, (a, b, c) = _shifted(points, x, [(di, dj), (0, 0), (-di, -dj)])
        with np.errstate(over="ignore", invalid="ignore"):
            np.multiply(b, 2.0, out=t)
            np.subtract(a, t, out=t)
            t += c
            t /= h2
        if dj:
            x[:, [0, -1]] = np.nan
        return x

    def across():
        x = np.full(points.shape, np.nan)
        t, (a, b, c, d) = _shifted(points, x, [(1, 1), (1, -1), (-1, 1), (-1, -1)])
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(a, b, out=t)
            t -= c
            t += d
            t /= 4.0 * hu * hv
        x[:, [0, -1]] = np.nan
        return x

    yield along(1, 0, hu**2)
    yield across()
    yield along(0, 1, hv**2)


def _unit_normal(xu, xv):
    """cross(x_u, x_v) scaled to unit Minkowski length, and the mask of nodes
    where it is degenerate against |x_u| |x_v| (there it is left unscaled)."""
    U = lorentz_cross(xu, xv)
    norm2 = minkowski_inner(U, U)
    scale = np.einsum("ijk,ijk->ij", xu, xu) * np.einsum("ijk,ijk->ij", xv, xv)
    degenerate = ~(norm2 > 1e-12 * np.maximum(scale, 1e-300))
    U /= np.sqrt(np.where(degenerate, 1.0, norm2))[..., None]
    return U, degenerate


def _quiet_inner(a, b):
    """<a, b>, NaN without a warning where an infinite value meets a zero."""
    with np.errstate(invalid="ignore"):
        return minkowski_inner(a, b)


def _forms_block(patch: SurfacePatch, method: str, rows: slice, exprs) -> FormsGrid:
    """The forms of the grid rows `rows` of the patch by the stencil method;
    exprs are the curve derivative's components and, for analytic forms,
    their derivatives (None for fd).

    Analytic tangents are the rows' own (_NullIndex.tangents evaluates the
    knots they use); differences read the rows and one halo row on each
    side (_halo), with the patch's steps h_u and h_v, so a block edge inside
    the grid is no grid edge.  Every value is the one the whole grid would
    give at that node, bit for bit.
    """
    slab, inner = _halo(patch.points, rows)
    if method == "fd":
        xu, xv = (x[inner] for x in _fd_first(slab, patch.h_u, patch.h_v))
        ok = patch.valid[rows]
    else:
        xu, xv, ok = patch._index.tangents(exprs[0], patch.provenance.part, rows)
        ok &= patch.valid[rows]

    with np.errstate(invalid="ignore"):
        U, degenerate = _unit_normal(xu, xv)
        E = minkowski_inner(xu, xu)
        F = minkowski_inner(xu, xv)
        G = minkowski_inner(xv, xv)
    del xu, xv
    if method == "analytic":
        # x_uu and x_uv: the tangents of the curve derivative's derivative
        xuu, xuv, ok2 = patch._index.tangents(exprs[1], patch.provenance.part, rows)
        ok &= ok2
        # every component satisfies the wave equation x_vv = x_uu
        L, M, N = map(functools.partial(_quiet_inner, U), (xuu, xuv, xuu))
        del xuu, xuv
    else:  # fd, and mixed: exact tangents, measured second derivatives
        # map, unlike a generator expression, keeps no second derivative
        # alive while the next one is made
        L, M, N = map(lambda x: _quiet_inner(U, x[inner]), _fd_second(slab, patch.h_u, patch.h_v))

    with np.errstate(invalid="ignore"):
        computed = (
            ok
            & ~degenerate
            & np.isfinite(E)
            & np.isfinite(G)
            & np.isfinite(L)
            & np.isfinite(M)
            & np.isfinite(N)
        )
        den = E * G - F * F
        violations = int(np.sum(computed & (den >= 0.0)))
        valid = computed & (den < 0.0)
        invalid = ~valid
        den[invalid] = np.nan
        K = (L * N - M * M) / den
        H = (E * N - 2.0 * F * M + G * L) / (2.0 * den)

    # K and H too: a NaN operand's sign would depend on numpy's loop for the
    # block's length, so every invalid node gets the one NaN
    for arr in (E, F, G, L, M, N, K, H, U):
        arr[invalid] = np.nan
    return FormsGrid(E, F, G, L, M, N, K, H, U, valid, method, violations)


def forms_blocks(patch: SurfacePatch):
    """The fundamental forms of the patch one block of grid rows at a time:
    (rows, FormsGrid of those rows) for consecutive slices of rows, each of
    whole rows and at most BLOCK_NODES nodes (at least one row).

    A consumer that folds over the blocks never holds the whole grid's
    forms: a block's working set is a few arrays of its own size, and
    forms_grid stores the blocks into whole-grid outputs.  Each node's values
    are the same bits whatever the blocks (_forms_block).
    """
    method = _resolve_method(patch)
    exprs = None
    if method != "fd":
        first = curve_expressions(patch.provenance)
        exprs = first, [e.derivative() for e in first] if method == "analytic" else None
    n, m = patch.shape
    step = max(1, BLOCK_NODES // m)
    for lo in range(0, n, step):
        rows = slice(lo, min(lo + step, n))
        yield rows, _forms_block(patch, method, rows, exprs)


def forms_grid(patch: SurfacePatch) -> FormsGrid:
    """Fundamental forms at every node where the patch's stencil is available.

    The fold of forms_blocks that stores each block into preallocated
    outputs, so the call holds the outputs (about 3.7 (n, m, 3) float arrays,
    eight coefficients, the normal and the mask) and one block's working set.
    """
    n, m = patch.shape
    out = {name: np.empty((n, m)) for name in ("E", "F", "G", "L", "M", "N", "K", "H")}
    out.update(U=np.empty((n, m, 3)), valid=np.empty((n, m), bool))
    violations = 0
    for rows, block in forms_blocks(patch):
        for name, arr in out.items():
            arr[rows] = getattr(block, name)
        violations += block.metric_violations
        method = block.method
        del block  # else it is held while the next block is made
    return FormsGrid(**out, method=method, metric_violations=violations)


class BlockFold(dict):
    """Statistics of per-node arrays folded over blocks of grid rows, the
    same bits as from the whole grid's arrays, whatever the blocks.

    add folds ufunc.reduce of a block's values, if any, into self[name] by
    ufunc: np.fmax and np.fmin ignore NaN (a block with no number never
    wins), np.maximum and np.minimum propagate it.
    """

    def add(self, name, ufunc, values):
        values = np.asarray(values)
        if values.size:
            block = ufunc.reduce(values, axis=None)
            self[name] = ufunc(self[name], block) if name in self else block
