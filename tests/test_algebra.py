import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from splitsurf.algebra import (
    E_MINUS,
    E_PLUS,
    J,
    NoSquareRoot,
    SplitComplex,
    ZeroDivisor,
    exp,
    from_null,
    splitc,
    sqrt,
    sqrt_all,
)
from splitsurf.holofn import ExprSyntaxError, parse_constant

finite = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False)


def close(a, b, tol=1e-12):
    return float((a - b).mag) <= tol * max(1.0, float(a.mag), float(b.mag))


def test_mul_examples():
    assert (splitc(1, 1) * splitc(1, -1)) == splitc(0)  # zero divisor product
    assert (J * J) == splitc(1)
    assert (splitc(2, 1) * splitc(3, 2)) == splitc(8, 7)


def test_mul_null_oracle():
    # componentwise product in null coordinates: p = 3*5, q = 1*1
    a, b = splitc(2, 1), splitc(3, 2)
    pa, qa = a.p, a.q
    pb, qb = b.p, b.q
    assert from_null(pa * pb, qa * qb) == a * b
    assert (pa * pb, qa * qb) == (15.0, 1.0)


def test_div_examples():
    with pytest.raises(ZeroDivisor):
        splitc(1) / splitc(1, 1)
    assert close(splitc(8, 7) / splitc(3, 2), splitc(2, 1))
    z = splitc(-0.7, 0.3)
    assert close(z / splitc(1), z)


def test_div_roundtrip():
    rng = np.random.default_rng(0)
    for _ in range(200):
        a = splitc(*rng.uniform(-3, 3, 2))
        b = splitc(*rng.uniform(-3, 3, 2))
        if not b.is_invertible(1e-6):
            continue
        assert close((a / b) * b, a, 1e-10)


def test_exp_examples():
    assert exp(splitc(0)) == splitc(1)
    got = exp(J)
    assert close(got, splitc(np.cosh(1.0), np.sinh(1.0)))
    # null-coordinate oracle e^1 e+ + e^-1 e-
    assert close(got, from_null(np.e, 1.0 / np.e))
    for phi in np.linspace(-3, 3, 11):
        assert abs(float(exp(splitc(0, phi)).modulus2) - 1.0) < 1e-12


def test_sqrt_examples():
    assert sqrt(splitc(4)) == splitc(2)
    r = sqrt(splitc(1, 1))
    assert close(r, from_null(np.sqrt(2.0), 0.0))
    assert close(r * r, splitc(1, 1))
    with pytest.raises(NoSquareRoot):
        sqrt(splitc(-1))


def test_sqrt_all_roots():
    roots = sqrt_all(splitc(4))
    assert len(roots) == 4
    for r in roots:
        assert close(r * r, splitc(4))
    assert len(sqrt_all(splitc(0))) == 1


def test_null_coordinates():
    z = splitc(3, 2)
    assert (z.p, z.q) == (5.0, 1.0)
    assert (J.p, J.q) == (1.0, -1.0)
    assert from_null(1.0, 1.0) == splitc(1)
    rng = np.random.default_rng(1)
    for _ in range(100):
        # exact when the components are dyadic with matching scales
        z = splitc(*(np.round(rng.uniform(-10, 10, 2) * 1024) / 1024))
        assert from_null(z.p, z.q) == z
    for _ in range(100):
        z = splitc(*rng.uniform(-10, 10, 2))
        assert close(from_null(z.p, z.q), z, 5e-16)


def test_idempotents():
    assert E_PLUS * E_PLUS == E_PLUS
    assert E_MINUS * E_MINUS == E_MINUS
    assert E_PLUS * E_MINUS == splitc(0)
    assert E_PLUS + E_MINUS == splitc(1)


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite, finite, finite, finite)
# a + b cancels to 8, so the sums differ in the last bits of the operands' scale
@example(-999224.0, 0.0, 999232.0, 0.0, 0.20948214108472782, 0.0)
def test_ring_axioms(ar, ai, br, bi, cr, ci):
    # identities hold to relative precision in the operand magnitudes; the
    # results themselves may be catastrophically smaller near null lines
    a, b, c = splitc(ar, ai), splitc(br, bi), splitc(cr, ci)
    mags = float(a.mag), float(b.mag), float(c.mag)
    assert close(a * b, b * a)
    tol3 = 1e-12 * max(1.0, mags[0] * mags[1] * mags[2])
    assert float(((a * b) * c - a * (b * c)).mag) <= tol3
    assert float((a * (b + c) - (a * b + a * c)).mag) <= 1e-12 * max(
        1.0, mags[0] * (mags[1] + mags[2])
    )
    assert float(((a + b) + c - (a + (b + c))).mag) <= 1e-12 * max(1.0, mags[0] + mags[1] + mags[2])


@settings(max_examples=200, deadline=None)
@given(finite, finite, finite, finite)
def test_conj_automorphism_and_modulus(ar, ai, br, bi):
    a, b = splitc(ar, ai), splitc(br, bi)
    assert close((a * b).conj(), a.conj() * b.conj(), 1e-11)
    lhs = float((a * b).modulus2)
    rhs = float(a.modulus2) * float(b.modulus2)
    # the difference of squares carries eps * |ab|^2 rounding
    assert abs(lhs - rhs) <= 1e-12 * max(1.0, float((a * b).mag) ** 2)
    assert a.conj().conj() == a


def test_literal_roundtrip():
    cases = ["3.0", "3.0+2.0J", "3.0-2.0J", "2.0J", "-1.5", "-0.25J", "1e-03"]
    for text in cases:
        z = parse_constant(text)
        assert parse_constant(str(z)) == z
    assert parse_constant("2J") == splitc(0, 2)
    assert parse_constant("1.5-2j") == splitc(1.5, -2)
    with pytest.raises(ExprSyntaxError):
        parse_constant("foo")


def test_array_elementwise():
    z = SplitComplex(np.array([1.0, 2.0, 0.0]), np.array([1.0, 1.0, 1.0]))
    w = z * z
    assert np.allclose(w.re, [2.0, 5.0, 1.0])
    assert np.allclose(w.im, [2.0, 4.0, 0.0])
    with pytest.raises(ZeroDivisor):
        splitc(1) / z  # first element is null


def test_array_value_is_immutable():
    U, V = np.array([1.0, 2.0]), np.array([0.5, -0.5])
    z = SplitComplex(U, V)
    p, q = z.p, z.q
    w = from_null(p, q)
    U[0] = V[0] = p[0] = q[0] = 7.0
    assert np.array_equal(z.re, [1.0, 2.0]) and np.array_equal(z.im, [0.5, -0.5])
    assert np.array_equal(w.re, [1.0, 2.0]) and np.array_equal(w.im, [0.5, -0.5])


def test_pow_matches_repeated_mul():
    z = splitc(1.2, -0.4)
    assert close(z**3, z * z * z)
    assert close(z**-1 * z, splitc(1))
    assert z**0 == splitc(1)
