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
    canonical_pde_residual,
    canonicalize,
    evaluate_surface,
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
# (ln sqrt(-K))_uu - (ln sqrt(-K))_vv = 2 sqrt(-K) characterizes minimal
# timelike curvature fields in canonical parameters
K = lambda u, v: -16.0 / (1.0 - (u**2 - v**2)) ** 4
us = np.linspace(-0.6, 0.6, 25)
resid = canonical_pde_residual(K, sign="negative", h=1e-3, us=us, vs=us)
print("max residual for the Enneper curvature field:", np.nanmax(np.abs(resid.values)))
flat = canonical_pde_residual(lambda u, v: -4.0 + 0 * u, sign="negative", h=1e-3, us=us[:5], vs=us[:5])
print("a constant field fails it by -2 sqrt(-K):", flat.values[2, 2])
