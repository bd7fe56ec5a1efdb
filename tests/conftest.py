import numpy as np
import pytest

from splitsurf import holofn
from splitsurf.canonical import canonical_pde_residual
from splitsurf.geometry import forms_grid
from splitsurf.weierstrass import evaluate_surface


def enneper_x(u, v):
    """Closed form of the negative-curvature Enneper patch (real part)."""
    return np.stack(
        [
            -u * (u**2 + 3 * v**2 + 3) / 6.0,
            -v * (3 * u**2 + v**2 - 3) / 6.0,
            (u**2 + v**2) / 2.0,
        ],
        axis=-1,
    )


def enneper_y(u, v):
    """Closed form of the positive-curvature Enneper patch (imaginary part)."""
    return np.stack(
        [
            -v * (3 * u**2 + v**2 + 3) / 6.0,
            -u * (u**2 + 3 * v**2 - 3) / 6.0,
            u * v,
        ],
        axis=-1,
    )


def pde_residual(data, domain, grid, gate=0.3):
    """canonical_pde_residual at every node of the patch of data, with g and
    g' per null side from the patch's own null index, as verify folds it."""
    patch = evaluate_surface(data, domain, grid)
    g = data.g
    return canonical_pde_residual(forms_grid(patch), *(patch._index.sides(e) for e in (g, g.derivative())), gate)


@pytest.fixture
def expr():
    return holofn.parse
