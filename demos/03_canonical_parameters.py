"""Canonical parameters: the natural coordinates of a minimal timelike surface.

In canonical parameters the fundamental forms collapse to a rigid shape
(-E = G = 1/sqrt(-K), F = 0, L = N = -1, M = 0 for K < 0), and the curvature
alone determines the surface up to position.  Reaching them means solving
(z')^2 = 1/(f g') -- in null coordinates, two decoupled real quadratures to
invert.
"""

import numpy as np

from splitsurf import (
    GeneratingData,
    Part,
    canonical_pde_residual,
    canonicalize,
    evaluate_surface,
    forms_grid,
    parse,
    splitc,
    verify_canonical_coefficients,
)
from splitsurf.holofn import expr_to_poly

print("=== a linear pair in closed form ===")
# f = 2, g = z + 1: the reparametrization is affine, z(w) = w/sqrt(2) - 1,
# and the canonical generating function comes out symbolically.
res = canonicalize(parse("2"), parse("z+1"), w0=splitc(0), z0=splitc(-1))
print("affine solution:", res.affine)
print("g~(w) =", res.g_tilde_expr)
print("coefficients:", [str(c) for c in expr_to_poly(res.g_tilde_expr).coeffs()])
print("reparametrization residual:", res.max_residual)

print("\n=== an exponential pair via the quadrature route ===")
res2 = canonicalize(
    parse("exp(z)"), parse("exp(z)"), w0=splitc(0), z0=splitc(0),
    domain=(0.9, 2.9, -0.3, 0.3), grid=(21, 9),
)
print("affine:", res2.affine, "| residual:", res2.max_residual)
U, _ = np.meshgrid(res2.us, res2.vs, indexing="ij")
print("transported g~ equals 1 + w to", np.nanmax(np.abs(res2.g_tilde_values.re - (1 + U))))

print("\n=== coefficient shapes on a canonical patch ===")
patch = evaluate_surface(GeneratingData.canonical(parse("z")), (-0.4, 0.4, -0.4, 0.4), (17, 17))
report = verify_canonical_coefficients(patch)
for name, value in report.summary().items():
    print(f"  {name}: {value}")

print("\n=== the curvature PDE ===")
# In canonical parameters (ln sqrt|K|)_uu - (ln sqrt|K|)_vv = 2 sigma sqrt|K|
# with the branch sigma = sign(g'+ g'-) per node.  Per null side
# |K| = 16 (g'+ g'-)^2 / (1 - g+ g-)^4, so the left side is exactly
# 8 g'+ g'- / (1 - g+ g-)^2; K itself is read from the patch's forms.


def pde_residual(data, domain, grid):
    patch = evaluate_surface(data, domain, grid)
    g = data.g
    sides = [patch._index.sides(e) for e in (g, g.derivative())]  # per null side, at the lattice knots
    return canonical_pde_residual(forms_grid(patch), *sides, 0.3)  # NaN where |1 - |g|^2| <= 0.3


for g in ("z", "z^2+z+3"):
    for part in (Part.REAL, Part.IMAGINARY):
        resid = pde_residual(GeneratingData.canonical(parse(g), part=part), (-0.5, 0.5, -0.5, 0.5), (21, 21))
        print(f"canonical g = {g}, {part.value} part: max residual {np.nanmax(np.abs(resid)):.2e}"
              f" on {np.sum(np.isfinite(resid))} nodes")
# the same isothermal surface off its canonical parameters fails it
resid = pde_residual(GeneratingData.general(parse("1"), parse("2*z")), (-0.2, 0.2, -0.2, 0.2), (9, 9))
print("(f, g) = (1, 2z), not canonical: max residual", np.nanmax(np.abs(resid)))
