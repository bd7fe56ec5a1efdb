"""A tour of the split-complex (double) number algebra.

Double numbers look like complex numbers with J*J = +1 instead of -1. That
single sign change gives the algebra zero divisors along the lines a = +-b,
and makes it the natural scalar field for timelike surface geometry.
"""

import numpy as np

from splitsurf import (
    E_MINUS,
    E_PLUS,
    J,
    NoSquareRoot,
    ZeroDivisor,
    exp,
    from_null,
    splitc,
    sqrt,
    sqrt_all,
)

print("=== arithmetic ===")
a = splitc(2, 1)
b = splitc(3, 2)
print(f"({a}) * ({b}) = {a * b}")
print(f"({a * b}) / ({b}) = {(a * b) / b}")
print(f"J * J = {J * J}   (the defining identity)")

print("\n=== null coordinates ===")
# e+ = (1+J)/2 and e- = (1-J)/2 are idempotents; in the basis (e+, e-)
# multiplication is componentwise, which every solver in this package uses.
print(f"e+^2 = {E_PLUS * E_PLUS},  e-^2 = {E_MINUS * E_MINUS},  e+ e- = {E_PLUS * E_MINUS}")
p, q = a.p, a.q
print(f"{a} has null coordinates p = {p}, q = {q}; from_null(p, q) = {from_null(p, q)}")

print("\n=== zero divisors ===")
w = splitc(1, 1)
print(f"{w} * {splitc(1, -1)} = {w * splitc(1, -1)}  (nonzero factors, zero product)")
try:
    splitc(1) / w
except ZeroDivisor as err:
    print(f"1 / ({w}) raises ZeroDivisor: {err}")

print("\n=== exp and sqrt ===")
phi = 0.8
u = exp(splitc(0, phi))
print(f"exp({phi}J) = {u}   with |.|^2 = {u.modulus2:.15f}  (a hyperbolic rotation)")
print(f"sqrt(1+1J) = {sqrt(splitc(1, 1))}")
print(f"all square roots of 4: {[str(r) for r in sqrt_all(splitc(4))]}")
try:
    sqrt(splitc(-1))
except NoSquareRoot as err:
    print(f"sqrt(-1) raises NoSquareRoot: {err}")

print("\n=== vectorized ===")
zs = from_null(np.linspace(0.5, 2.0, 4), np.linspace(1.0, 1.6, 4))
print("a batch of squares, real parts:", np.round((zs * zs).re, 4))
