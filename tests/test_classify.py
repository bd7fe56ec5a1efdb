from math import comb

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsurf.algebra import splitc
from splitsurf.classify import (
    CubicParametrization,
    DegenerateError,
    NotMinimalError,
    Verdict,
    classify_cubic,
    extract_pair,
    lift_to_curve,
)
from splitsurf.equivalence import MoebiusParams, motion_witness
from splitsurf._dpoly import DPoly

ENNEPER_MAPS = (
    {(3, 0): -1 / 6, (1, 2): -1 / 2, (1, 0): -1 / 2},
    {(2, 1): -1 / 2, (0, 3): -1 / 6, (0, 1): 1 / 2},
    {(2, 0): 1 / 2, (0, 2): 1 / 2},
)

IMAGINARY_MAPS = (
    {(2, 1): -1 / 2, (0, 3): -1 / 6, (0, 1): -1 / 2},
    {(3, 0): -1 / 6, (1, 2): -1 / 2, (1, 0): 1 / 2},
    {(1, 1): 1.0},
)


def enneper_cubic():
    return CubicParametrization.from_coeff_maps(*ENNEPER_MAPS)


def boost(phi):
    """Boost in the timelike x1 and the spacelike x2 direction."""
    ch, sh = np.cosh(phi), np.sinh(phi)
    return np.array([[ch, sh, 0.0], [sh, ch, 0.0], [0.0, 0.0, 1.0]])


def rotation(theta):
    """Rotation in the spacelike (x2, x3) plane."""
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])


def pair_cubic(s, a, b, c, d):
    """Re Psi(u + J v) for f = s (a z + b)^2 and g = (c z + d)/(a z + b).

    Psi' = (-(f + f g^2)/2, J (f - f g^2)/2, f g) is integrated per null
    side in closed form, and Psi(0) = 0.
    """
    Q, P = DPoly.from_coeffs([b, a]), DPoly.from_coeffs([d, c])
    f, fg2, fg = ((X * Y).scale(splitc(float(s))) for X, Y in ((Q, Q), (P, P), (Q, P)))
    maps = []
    for phi in ((f + fg2).scale(splitc(-0.5)), (f - fg2).scale(splitc(0.0, 0.5)), fg):
        psi = DPoly(*(np.concatenate([[0.0], side / np.arange(1, len(side) + 1)])
                      for side in (phi.plus, phi.minus)))
        # Re (c J^j) is c.re for even j and c.im for odd j
        maps.append({(n - j, j): comb(n, j) * float(psi.coeff(n).im if j % 2 else psi.coeff(n).re)
                     for n in range(1, psi.degree + 1) for j in range(n + 1)})
    return CubicParametrization.from_coeff_maps(*maps)


def test_lift_third_component():
    x = CubicParametrization.from_coeff_maps({}, {}, {(2, 0): 0.5, (0, 2): 0.5})
    psi = lift_to_curve(x)
    assert psi[0].is_zero() and psi[1].is_zero()
    # 2 * ((z/2)^2 + (Jz/2)^2) / 2 = z^2 / 2
    assert float((psi[2].coeff(2) - splitc(0.5)).mag) < 1e-15
    assert psi[2].degree == 2


def test_lift_constant_is_zero():
    x = CubicParametrization.from_coeff_maps({(0, 0): 3.0}, {(0, 0): -1.0}, {(0, 0): 0.5})
    psi = lift_to_curve(x)
    assert all(p.is_zero() for p in psi)


def test_lift_full_enneper_gives_standard_integrand():
    psi = lift_to_curve(enneper_cubic())
    phi = tuple(p.deriv() for p in psi)
    # phi = (-(1+z^2)/2, (J/2)(1-z^2), z)
    assert float((phi[0].coeff(0) + splitc(0.5)).mag) < 1e-15
    assert float((phi[0].coeff(2) + splitc(0.5)).mag) < 1e-15
    assert float((phi[1].coeff(0) - splitc(0, 0.5)).mag) < 1e-15
    assert float((phi[1].coeff(2) + splitc(0, 0.5)).mag) < 1e-15
    assert float((phi[2].coeff(1) - splitc(1.0)).mag) < 1e-15


def test_extract_pair_enneper():
    phi = tuple(p.deriv() for p in lift_to_curve(enneper_cubic()))
    f, P, Q = extract_pair(phi)
    assert f.degree == 0 and f.coeff(0) == splitc(1.0)
    assert Q.degree == 0 and Q.coeff(0) == splitc(1.0)
    assert P.degree == 1 and P.coeff(1) == splitc(1.0) and P.coeff(0) == splitc(0.0)


def test_extract_pair_homothety_linearity():
    phi = tuple(p.deriv() for p in lift_to_curve(enneper_cubic()))
    scaled = tuple(p.scale(splitc(3.0)) for p in phi)
    f, P, Q = extract_pair(scaled)
    assert float((f.coeff(0) - splitc(3.0)).mag) < 1e-14
    # g = phi3 / f is unchanged
    assert float((P.coeff(1) / Q.coeff(0) - splitc(1.0)).mag) < 1e-14


def test_extract_pair_rejects_random_curve():
    rng = np.random.default_rng(13)
    phi = tuple(
        DPoly.from_coeffs([splitc(*rng.uniform(-1, 1, 2)) for _ in range(3)])
        for _ in range(3)
    )
    with pytest.raises(NotMinimalError):
        extract_pair(phi)


def test_extract_pair_rejects_degree_above_two():
    # phi = (-z^3, 0, z^3) is isotropic, with f = z^3
    z3 = DPoly.from_coeffs([0.0, 0.0, 0.0, 1.0])
    with pytest.raises(DegenerateError, match="f has degree 3, above 2: outside the normal form"):
        extract_pair((-z3, DPoly.zero(), z3))
    # f = 1 and f g = z^3: phi1 = -(1 + z^6)/2, J phi2 = (1 - z^6)/2
    one, z6 = DPoly.const(splitc(1.0)), DPoly.from_coeffs([0.0] * 6 + [1.0])
    phi = ((one + z6).scale(splitc(-0.5)), (one - z6).scale(splitc(0.0, 0.5)), z3)
    with pytest.raises(DegenerateError, match="f g has degree 3, above 2"):
        extract_pair(phi)


def test_classify_enneper():
    verdict = classify_cubic(enneper_cubic())
    assert verdict.verdict == Verdict.ENNEPER_NEGATIVE
    assert str(verdict.f) == "1.0"
    assert str(verdict.g) == "z"
    assert abs(verdict.scale - 1.0) < 1e-12


def test_classify_homothety():
    doubled = enneper_cubic().apply_motion(np.eye(3), scale=2.0)
    verdict = classify_cubic(doubled)
    assert verdict.verdict == Verdict.ENNEPER_NEGATIVE
    assert abs(verdict.scale - 2.0) < 1e-8


def test_classify_motion_invariance():
    rng = np.random.default_rng(14)
    base = enneper_cubic()
    for _ in range(10):
        phi = rng.uniform(-1, 1)
        while True:
            a, b = rng.uniform(-0.6, 0.6, 2)
            if abs(a * a - b * b) <= 0.5:
                break
        m = MoebiusParams(phi, splitc(a, b), sign=int(rng.choice([1, -1])))
        moved = base.apply_motion(
            motion_witness(m).matrix, translation=rng.uniform(-1, 1, 3), scale=1.0
        )
        verdict = classify_cubic(moved)
        assert verdict.verdict == Verdict.ENNEPER_NEGATIVE
        assert abs(verdict.scale - 1.0) < 1e-8


@pytest.mark.parametrize(
    "phi, theta, scale, translation",
    [(phi, theta, scale, (0.0, 0.0, 0.0))
     for phi in (-2.0, 0.3, 2.0) for theta in (1e-9, 1e-6, 4e-3, 0.4, 3.0) for scale in (1e-3, 2.0, 1e3)]
    + [(0.3, 0.004, 2.0, (0.4, -1.0, 0.2))]
    # tiny surfaces, whose planar and family thresholds scale with the coefficients
    + [(0.0, 0.0, scale, (0.0, 0.0, 0.0)) for scale in (1e-12, 1e-10, 1e-9)],
)
def test_classify_small_and_large_motions_recover_scale(phi, theta, scale, translation):
    # a rotation near the identity leaves a tiny leading coefficient on one
    # null side of f; it must still be read as the square of a t + b
    moved = enneper_cubic().apply_motion(rotation(theta) @ boost(phi), translation, scale)
    verdict = classify_cubic(moved)
    assert verdict.verdict == Verdict.ENNEPER_NEGATIVE
    assert abs(verdict.scale - scale) <= 1e-9 * scale


angle = st.tuples(st.sampled_from([1.0, -1.0]), st.floats(-9.0, 0.5)).map(lambda t: t[0] * 10.0 ** t[1])


@settings(max_examples=60, deadline=None)
@given(angle, st.floats(-2.0, 2.0), angle, st.floats(-3.0, 3.0),
       st.tuples(*[st.floats(-1.0, 1.0)] * 3))
def test_classify_random_lorentz_motion_recovers_scale(alpha, phi, beta, log_scale, translation):
    # every element of SO+(1,2) is a rotation, a boost and a rotation
    scale = 10.0**log_scale
    matrix = rotation(alpha) @ boost(phi) @ rotation(beta)
    verdict = classify_cubic(enneper_cubic().apply_motion(matrix, translation, scale))
    assert verdict.verdict == Verdict.ENNEPER_NEGATIVE
    assert abs(verdict.scale - scale) <= 1e-9 * scale


def test_classify_near_constant_f():
    # f = s (a z + b)^2 with |a| <= 1e-6 on both null sides is almost constant
    a, b = splitc(4e-7, -3e-7), splitc(1.3, 0.2)
    c, d = splitc(0.4, -0.1), splitc(-0.2, 0.5)
    U, V = np.meshgrid(np.linspace(-1, 1, 5), np.linspace(-1, 1, 5))
    enneper_pair = pair_cubic(1, splitc(0.0), splitc(1.0), splitc(1.0), splitc(0.0))
    assert np.allclose(enneper_pair.eval(U, V), enneper_cubic().eval(U, V), rtol=0, atol=1e-15)
    expected = abs(float((b * c - a * d).modulus2)) ** 1.5 / (float(a.modulus2) - float(c.modulus2)) ** 2
    for s in (1, -1):
        verdict = classify_cubic(pair_cubic(s, a, b, c, d))
        assert verdict.verdict == Verdict.ENNEPER_NEGATIVE
        assert verdict.normal_form["sign"] == s
        assert abs(verdict.scale - expected) <= 1e-9 * expected


def test_classify_not_isothermal():
    x = CubicParametrization.from_coeff_maps({(1, 0): 1.0}, {(0, 1): 1.0}, {(2, 0): 1.0})
    assert classify_cubic(x).verdict == Verdict.NOT_ISOTHERMAL


def test_classify_random_cubic():
    rng = np.random.default_rng(15)
    maps = []
    for _ in range(3):
        maps.append({(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(4 - i)})
    x = CubicParametrization.from_coeff_maps(*maps)
    assert classify_cubic(x).verdict in (Verdict.NOT_ISOTHERMAL, Verdict.NOT_MINIMAL)


def test_classify_planar_pair_degenerate():
    # the pair f = z^2, g = 2 has bc - ad = 0; its real part is a plane:
    # Psi = (-5z^3/6, -J z^3/2, 2 z^3/3)
    x = CubicParametrization.from_coeff_maps(
        {(3, 0): -5 / 6, (1, 2): -5 / 2},
        {(2, 1): -3 / 2, (0, 3): -1 / 2},
        {(3, 0): 2 / 3, (1, 2): 2.0},
    )
    verdict = classify_cubic(x)
    assert verdict.verdict == Verdict.DEGENERATE
    assert any("planar" in note for note in verdict.notes)


def test_classify_plane_f_zero():
    x = CubicParametrization.from_coeff_maps({(0, 1): 1.0}, {(1, 0): 1.0}, {})
    verdict = classify_cubic(x)
    assert verdict.verdict == Verdict.DEGENERATE
    assert any("f vanishes" in note for note in verdict.notes)


def test_classify_imaginary_part_notes_positive_family():
    verdict = classify_cubic(CubicParametrization.from_coeff_maps(*IMAGINARY_MAPS))
    assert verdict.verdict == Verdict.DEGENERATE
    assert any("positive curvature" in note for note in verdict.notes)


def test_roundtrip_from_generated_patch():
    # fit exact cubic coefficients from the closed form and classify
    from conftest import enneper_x

    us = np.linspace(-1, 1, 9)
    U, V = np.meshgrid(us, us, indexing="ij")
    pts = enneper_x(U, V)
    # exact coefficients are known; confirm the sampled points match first
    x = enneper_cubic()
    assert np.allclose(pts, x.eval(U, V))
    assert classify_cubic(x).verdict == Verdict.ENNEPER_NEGATIVE


def test_json_round_trip():
    x = enneper_cubic()
    again = CubicParametrization.from_json(x.to_json())
    assert classify_cubic(again).verdict == Verdict.ENNEPER_NEGATIVE
    packed = {"x1": {"(1,0)": 1.0}, "x2": {"0,1": 1.0}, "x3": {}}
    parsed = CubicParametrization.from_json(packed)
    assert parsed.x1.coeffs[1, 0] == 1.0
    assert parsed.x2.coeffs[0, 1] == 1.0


def test_degree_guard():
    with pytest.raises(ValueError):
        CubicParametrization.from_coeff_maps({(4, 0): 1.0}, {}, {})
