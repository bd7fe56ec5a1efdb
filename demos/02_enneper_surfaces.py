"""Generating minimal timelike surfaces from holomorphic data.

The pair f = 1, g = z produces the two timelike Enneper surfaces: the real
part of the integral curve has K < 0, the imaginary part K > 0.  We sample
both, confirm the classical closed forms, check minimality numerically, and
export a mesh.
"""

import os
import tempfile

import numpy as np

from splitsurf import GeneratingData, Part, evaluate_surface, forms_grid, parse
from splitsurf.cli import write_obj

data = GeneratingData.general(parse("1"), parse("z"))
patch = evaluate_surface(data, (-0.9, 0.9, -0.9, 0.9), (37, 37))

U, V = np.meshgrid(patch.us, patch.vs, indexing="ij")
closed_form = np.stack(
    [
        -U * (U**2 + 3 * V**2 + 3) / 6,
        -V * (3 * U**2 + V**2 - 3) / 6,
        (U**2 + V**2) / 2,
    ],
    axis=-1,
)
print("=== negative-curvature Enneper (real part) ===")
print("max deviation from the closed form:", np.nanmax(np.abs(patch.points - closed_form)))

grid = forms_grid(patch)
print("max |H| over the patch:", np.nanmax(np.abs(grid.H)), " (minimal!)")
print("K range:", np.nanmin(grid.K), "to", np.nanmax(grid.K))

print("\n=== positive-curvature Enneper (imaginary part) ===")
patch_im = evaluate_surface(
    GeneratingData.general(parse("1"), parse("z"), part=Part.IMAGINARY),
    (-0.9, 0.9, -0.9, 0.9),
    (37, 37),
)
grid_im = forms_grid(patch_im)
print("K range:", np.nanmin(grid_im.K), "to", np.nanmax(grid_im.K))
both = grid.valid & grid_im.valid
print("curvature signs opposed at every common node:", bool(np.all(grid.K[both] * grid_im.K[both] < 0)))

print("\n=== a rational pair ===")
# rational f: adaptive quadrature along the null coordinates p = u+v, q = u-v
slow = GeneratingData.general(parse("1/(z-5)"), parse("z"))
patch_slow = evaluate_surface(slow, (-0.4, 0.4, -0.4, 0.4), (9, 9))
print("quadrature patch max |H|:", np.nanmax(np.abs(forms_grid(patch_slow).H)))

out = os.path.join(tempfile.gettempdir(), "enneper.obj")
verts, faces = write_obj(out, patch)
print(f"\nwrote {verts} vertices / {faces} triangles to {out}")
