import numpy as np
import pytest

from splitsurf.algebra import splitc
from splitsurf.canonical import FieldMatch
from splitsurf.holofn import parse
from splitsurf.weierstrass import GeneratingData, evaluate_surface
from splitsurf.equivalence import (
    InvalidParams,
    MoebiusForm,
    MoebiusParams,
    fit_moebius,
    moebius_transform,
    motion_witness,
    reparametrize_pair,
    surfaces_coincide,
    witness_discrepancy,
)

_ETA = np.diag([-1.0, 1.0, 1.0])


def canonical_K(g, zg):
    gp = g.derivative().eval(zg)
    gv = g.eval(zg)
    with np.errstate(invalid="ignore", divide="ignore"):
        return -16.0 * gp.modulus2**2 / (1.0 - gv.modulus2) ** 4


def _grid(span=0.35, n=7):
    us = np.linspace(-span, span, n)
    U, V = np.meshgrid(us, us, indexing="ij")
    return splitc(U, V)


def test_reparametrize_exp_example():
    f_t, g_t = reparametrize_pair(parse("1"), parse("z"), parse("exp(z)"))
    assert str(f_t) == "exp(z)"
    assert str(g_t) == "exp(z)"
    same = reparametrize_pair(parse("1"), parse("z"), parse("z"))
    assert str(same[0]) == "1.0" and str(same[1]) == "z"


def test_reparametrize_affine_patch_match():
    # w(z) = 2z + 1 sends (1, z) to (2, 2z+1); the patches agree pointwise
    # after aligning the integration constants
    f_t, g_t = reparametrize_pair(parse("1"), parse("z"), parse("2*z+1"))
    data_t = GeneratingData.general(f_t, g_t)
    patch_t = evaluate_surface(data_t, (-0.2, 0.2, -0.2, 0.2), (9, 9))
    data = GeneratingData.general(parse("1"), parse("z"))
    patch = evaluate_surface(data, (0.6, 1.4, -0.4, 0.4), (9, 9))
    # w maps (u, v) -> (2u+1, 2v); both grids sample corresponding points
    offset = patch.points[0, 0] - patch_t.points[0, 0]
    assert np.nanmax(np.abs(patch.points - (patch_t.points + offset))) < 1e-9


def test_moebius_identity_and_substitution():
    g = parse("z")
    ident = moebius_transform(g, MoebiusParams(0.0, splitc(0.0)))
    zg = _grid()
    assert np.max((ident.eval(zg) - zg).mag) < 1e-15
    half = moebius_transform(g, MoebiusParams(0.0, splitc(0.5)))
    expect = parse("(0.5 + z) / (1 + 0.5*z)")
    assert np.max((half.eval(zg) - expect.eval(zg)).mag) < 1e-15


def test_invalid_alpha_rejected():
    with pytest.raises(InvalidParams):
        MoebiusParams(0.0, splitc(1.0))  # |alpha|^2 = 1


def test_k_field_invariance_fractional():
    rng = np.random.default_rng(21)
    g = parse("z")
    zg = _grid()
    base = canonical_K(g, zg)
    for _ in range(10):
        phi = rng.uniform(-1, 1)
        while True:
            a, b = rng.uniform(-0.6, 0.6, 2)
            if abs(a * a - b * b) <= 0.5:
                break
        m = MoebiusParams(phi, splitc(a, b), sign=int(rng.choice([1, -1])))
        gt = moebius_transform(g, m)
        assert np.max(np.abs(canonical_K(gt, zg) - base)) < 1e-9


def test_inversion_readings_recorded():
    # reading "g" preserves the curvature field; the literal 1/f = g'
    # reading does not (for g = z it even degenerates to a constant)
    g = parse("z+3")
    zg = _grid(0.3)
    m = MoebiusParams(0.2, splitc(0.0), form=MoebiusForm.INVERSION)
    k_g = canonical_K(moebius_transform(g, m, inversion_reading="g"), zg)
    assert np.max(np.abs(k_g - canonical_K(g, zg))) < 1e-9
    k_f = canonical_K(moebius_transform(g, m, inversion_reading="f"), zg)
    literal_invariant = np.all(np.isfinite(k_f)) and np.max(np.abs(k_f - canonical_K(g, zg))) < 1e-9
    assert not literal_invariant


def test_witness_identity_params():
    w = motion_witness(MoebiusParams(0.0, splitc(0.0)))
    assert np.allclose(w.A, np.eye(3)) and np.allclose(w.B, np.eye(3))


def test_witness_boost_preserves_metric():
    w = motion_witness(MoebiusParams(0.7, splitc(0.0)))
    assert np.allclose(w.A.T @ _ETA @ w.A, _ETA, atol=1e-12)


def test_witness_example_grid():
    disc = witness_discrepancy(parse("z"), MoebiusParams(0.3, splitc(0.2, 0.1)), grid=(5, 5))
    assert disc < 1e-9


def test_witness_randomized_metric_and_curve():
    rng = np.random.default_rng(22)
    for g_text in ("z", "z + 0.3", "0.2*z^2 + z"):
        g = parse(g_text)
        for _ in range(5):
            phi = rng.uniform(-1, 1)
            while True:
                a, b = rng.uniform(-0.6, 0.6, 2)
                if abs(a * a - b * b) <= 0.5:
                    break
            m = MoebiusParams(phi, splitc(a, b), sign=int(rng.choice([1, -1])))
            w = motion_witness(m)
            assert w.preserves_metric(1e-10)
            assert witness_discrepancy(g, m, domain=(-0.25, 0.25, -0.25, 0.25)) < 1e-9


def test_witness_maps_patches_pointwise():
    # the matrix identity on curve derivatives integrates: with a common
    # base point the transformed patch is exactly W applied to the original
    m = MoebiusParams(0.25, splitc(0.1, -0.05))
    g = parse("z")
    g_t = moebius_transform(g, m)
    dom, grid = (-0.3, 0.3, -0.3, 0.3), (9, 9)
    patch = evaluate_surface(GeneratingData.canonical(g), dom, grid)
    patch_t = evaluate_surface(GeneratingData.canonical(g_t), dom, grid)
    W = motion_witness(m).matrix
    moved = patch.points @ W.T
    assert np.nanmax(np.abs(moved - patch_t.points)) < 1e-9


def test_group_closure_via_fit():
    g = parse("z")
    m1 = MoebiusParams(0.4, splitc(0.1, 0.25))
    m2 = MoebiusParams(-0.7, splitc(-0.2, 0.05), sign=-1)
    composite = moebius_transform(moebius_transform(g, m1), m2)
    fitted = moebius_transform(g, fit_moebius(composite))
    zg = _grid(0.3, 9)
    assert np.max((composite.eval(zg) - fitted.eval(zg)).mag) < 1e-9


def test_surfaces_coincide_exp_pair():
    d1 = GeneratingData.general(parse("1"), parse("z"))
    d2 = GeneratingData.general(parse("exp(z)"), parse("exp(z)"))
    result = surfaces_coincide(d1, d2, (1.4, 2.9, -0.2, 0.2), grid=(31, 9))
    assert result.coincide
    assert result.gauge.eps == 1 and abs(result.gauge.A - 1.0) < 1e-12
    assert result.discrepancy < 1e-4


def test_surfaces_distinct():
    d1 = GeneratingData.general(parse("1"), parse("z"))
    d3 = GeneratingData.general(parse("1"), parse("3*z"))
    result = surfaces_coincide(d1, d3, (-0.3, 0.3, -0.3, 0.3), grid=(13, 13))
    assert not result.coincide
    assert result.discrepancy > 1.0


def test_surfaces_coincide_self():
    d1 = GeneratingData.general(parse("1"), parse("z"))
    result = surfaces_coincide(d1, d1, (-0.3, 0.3, -0.3, 0.3), grid=(13, 13))
    assert result.coincide
    assert result.gauge.eps == 1 and result.gauge.A == 0.0 and result.gauge.B == 0.0


def test_witness_attached_when_params_known():
    d1 = GeneratingData.canonical(parse("z"))
    m = MoebiusParams(0.2, splitc(0.1))
    d2 = GeneratingData.canonical(moebius_transform(parse("z"), m))
    result = surfaces_coincide(d1, d2, (-0.3, 0.3, -0.3, 0.3), grid=(13, 13))
    assert isinstance(result, FieldMatch)
    assert result.coincide
    # the witness comes from the known parameters, not from the decision
    assert motion_witness(m).preserves_metric()
