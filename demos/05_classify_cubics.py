"""Classifying degree-3 polynomial minimal timelike surfaces.

Up to position and homothety there is exactly one: the Enneper surface of
negative curvature.  The pipeline lifts a cubic isothermal parametrization
to a polynomial curve over the double numbers, reads off the generating
pair, and matches it against the rational normal form.
"""

import numpy as np

from splitsurf import CubicParametrization, classify_cubic, splitc
from splitsurf.equivalence import MoebiusParams, motion_witness

enneper = CubicParametrization.from_coeff_maps(
    {(3, 0): -1 / 6, (1, 2): -1 / 2, (1, 0): -1 / 2},
    {(2, 1): -1 / 2, (0, 3): -1 / 6, (0, 1): 1 / 2},
    {(2, 0): 1 / 2, (0, 2): 1 / 2},
)

print("=== the Enneper cubic itself ===")
verdict = classify_cubic(enneper)
print(f"verdict: {verdict.verdict.value}, f = {verdict.f}, g = {verdict.g}, scale = {verdict.scale}")

print("\n=== hidden behind a motion and a homothety ===")
rng = np.random.default_rng(5)
m = MoebiusParams(rng.uniform(-1, 1), splitc(0.2, -0.15))
moved = enneper.apply_motion(motion_witness(m).matrix, translation=[0.4, -1.0, 0.2], scale=2.5)
verdict2 = classify_cubic(moved)
print(f"verdict: {verdict2.verdict.value}, recovered scale = {verdict2.scale:.12f} (true 2.5)")
print("normal form:", verdict2.normal_form)

# a boost, then a rotation 0.004 rad from the identity in the (x2, x3) plane:
# one null side of f keeps only a tiny leading coefficient
ch, sh, c, s = np.cosh(0.3), np.sinh(0.3), np.cos(0.004), np.sin(0.004)
small = np.array([[1, 0, 0], [0, c, -s], [0, s, c]]) @ np.array([[ch, sh, 0], [sh, ch, 0], [0, 0, 1]])
verdict3 = classify_cubic(enneper.apply_motion(small, translation=[0.4, -1.0, 0.2], scale=2.0))
print(f"rotated 0.004 rad: {verdict3.verdict.value}, recovered scale = {verdict3.scale:.12f} (true 2)")

print("\n=== negative controls ===")
not_iso = CubicParametrization.from_coeff_maps({(1, 0): 1}, {(0, 1): 1}, {(2, 0): 1})
print("x = (u, v, u^2):", classify_cubic(not_iso).verdict.value)

maps = [{(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(4 - i)} for _ in range(3)]
random_cubic = CubicParametrization.from_coeff_maps(*maps)
print("a random cubic:", classify_cubic(random_cubic).verdict.value)

plane = CubicParametrization.from_coeff_maps({(0, 1): 1}, {(1, 0): 1}, {})
pv = classify_cubic(plane)
print("a plane:", pv.verdict.value, "-", pv.notes[-1])

print("\n=== the imaginary (positive-curvature) Enneper part ===")
imag = CubicParametrization.from_coeff_maps(
    {(2, 1): -1 / 2, (0, 3): -1 / 6, (0, 1): -1 / 2},
    {(3, 0): -1 / 6, (1, 2): -1 / 2, (1, 0): 1 / 2},
    {(1, 1): 1.0},
)
vi = classify_cubic(imag)
print(f"verdict: {vi.verdict.value}")
for note in vi.notes:
    print("  note:", note)
