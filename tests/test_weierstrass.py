import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitsurf import holofn, weierstrass
from splitsurf.algebra import from_null, splitc
from splitsurf.canonical import canonical_curvature_field
from splitsurf.holofn import MINUS, PLUS, parse
from splitsurf.geometry import forms_grid
from splitsurf.weierstrass import (
    GeneratingData,
    Part,
    curve_expressions,
    evaluate_surface,
)

from conftest import enneper_x, enneper_y


def _mp_real_part(expr, z0, z1):
    """Re of the integral of expr from z0 to z1: mpmath quadrature of each
    null side, an oracle independent of holofn.integrate_sweep."""
    sides = [mpmath.quad(lambda t: expr.eval_null(float(t), side), [float(a), float(b)])
             for side, a, b in ((PLUS, z0.p, z1.p), (MINUS, z0.q, z1.q))]
    return float(sides[0] + sides[1]) / 2.0


def test_curve_derivative_values():
    general = GeneratingData.general(parse("1"), parse("z"))
    got = tuple(e.eval(splitc(0)) for e in curve_expressions(general))
    assert got[0] == splitc(-0.5)
    assert got[1] == splitc(0, 0.5)
    assert got[2] == splitc(0)
    canonical = GeneratingData.canonical(parse("z"))
    assert tuple(e.eval(splitc(0)) for e in curve_expressions(canonical)) == got


def test_isotropy_identity():
    rng = np.random.default_rng(7)
    datasets = [
        GeneratingData.general(parse("exp(z)"), parse("exp(z)")),
        GeneratingData.general(parse("(z+2)^2"), parse("(z+1)/(z+2)")),
        GeneratingData.canonical(parse("exp(2*z)")),
    ]
    for data in datasets:
        for _ in range(20):
            z = splitc(*rng.uniform(-0.5, 0.5, 2))
            # -psi1^2 + psi2^2 + psi3^2, componentwise on each null side
            defect = []
            for side, t in ((PLUS, z.p), (MINUS, z.q)):
                p1, p2, p3 = (e.eval_null(t, side) for e in curve_expressions(data))
                defect.append(-(p1 * p1) + p2 * p2 + p3 * p3)
            assert float(from_null(*defect).mag) < 1e-12


def test_enneper_closed_forms():
    data = GeneratingData.general(parse("1"), parse("z"))
    patch = evaluate_surface(data, (-0.9, 0.9, -0.9, 0.9), (19, 19))
    U, V = np.meshgrid(patch.us, patch.vs, indexing="ij")
    assert np.nanmax(np.abs(patch.points - enneper_x(U, V))) < 1e-8

    data_im = GeneratingData.general(parse("1"), parse("z"), part=Part.IMAGINARY)
    patch_im = evaluate_surface(data_im, (-0.9, 0.9, -0.9, 0.9), (19, 19))
    assert np.nanmax(np.abs(patch_im.points - enneper_y(U, V))) < 1e-8


def test_imaginary_part_sample_value():
    # y(1,1) = (-7/6, -1/6, 1) from the closed form of the imaginary part
    data = GeneratingData.general(parse("1"), parse("z"), part=Part.IMAGINARY)
    patch = evaluate_surface(data, (0.5, 1.5, 0.5, 1.5), (3, 3))
    assert np.allclose(patch.points[1, 1], [-7.0 / 6.0, -1.0 / 6.0, 1.0], atol=1e-12)


def test_base_point_maps_to_origin():
    base = splitc(0.3, -0.2)
    data = GeneratingData.general(parse("exp(z)"), parse("z"), base_point=base)
    patch = evaluate_surface(data, (0.3 - 0.2, 0.3 + 0.2, -0.4, 0.0), (5, 5))
    i = int(np.argmin(np.abs(patch.us - 0.3)))
    j = int(np.argmin(np.abs(patch.vs + 0.2)))
    assert np.allclose(patch.points[i, j], 0.0, atol=1e-12)


def test_part_curvature_signs_opposed():
    data_re = GeneratingData.general(parse("1"), parse("z"))
    data_im = GeneratingData.general(parse("1"), parse("z"), part=Part.IMAGINARY)
    dom = (-0.6, 0.6, -0.6, 0.6)
    k_re = forms_grid(evaluate_surface(data_re, dom, (13, 13))).K
    k_im = forms_grid(evaluate_surface(data_im, dom, (13, 13))).K
    both = np.isfinite(k_re) & np.isfinite(k_im)
    assert np.all(k_re[both] < 0.0)
    assert np.all(k_im[both] > 0.0)
    # measured magnitude ratio, recorded for the open question on |K| equality
    ratio = np.abs(k_im[both]) / np.abs(k_re[both])
    print("K magnitude ratio (imag/real): min %.4f max %.4f" % (ratio.min(), ratio.max()))


def test_quadrature_route_matches_direct_integration():
    # cross-check a node of the null-coordinate sweep against mpmath
    # quadrature along each null side, with a rational f
    f = parse("1/(z - 5)")
    g = parse("z")
    data = GeneratingData.general(f, g)
    patch = evaluate_surface(data, (-0.4, 0.4, -0.4, 0.4), (5, 5), tol=1e-11)
    exprs = curve_expressions(data)
    i, j = 3, 4
    target = splitc(patch.us[i], patch.vs[j])
    expect = np.array([_mp_real_part(e, splitc(0), target) for e in exprs])
    assert np.max(np.abs(patch.points[i, j] - expect)) < 1e-9


def test_singular_locus_marked_invalid():
    # the conformal factor of the canonical Enneper data vanishes on
    # u^2 - v^2 = 1, which crosses this domain
    data = GeneratingData.canonical(parse("z"))
    patch = evaluate_surface(data, (-1.2, 1.2, -0.2, 0.2), (25, 9))
    assert not np.all(patch.valid)
    U, V = np.meshgrid(patch.us, patch.vs, indexing="ij")
    gap = np.abs(1.0 - (U**2 - V**2))
    assert np.all(gap[~patch.valid] < 0.15)
    assert np.all(np.isnan(patch.points[~patch.valid]))


def test_curve_expressions_roundtrip_through_text():
    for data in (
        GeneratingData.general(parse("exp(z)"), parse("1/(z-0.25)^2 + sqrt(z+0.5)")),
        GeneratingData.canonical(parse("z^3 - 2J*z")),
    ):
        for e in curve_expressions(data):
            assert parse(str(e)) == e


@pytest.mark.parametrize("g", ["1/(z-0.25)^2 + sqrt(z+0.5)", "1/(z-0.3)", "(z-0.5)^-3"])
def test_singular_null_lines_leak_no_warnings(g):
    # step 1/8 on [-1, 1]^2: the singular null lines cross the grid, some
    # through lattice nodes; masking must not leak divide or invalid warnings
    dom, grid = (-1.0, 1.0, -1.0, 1.0), (17, 17)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        patch = evaluate_surface(GeneratingData.general(parse("1"), parse(g)), dom, grid)
        fg = forms_grid(patch)
        field = canonical_curvature_field(GeneratingData.canonical(parse(g)), dom, grid)
    for valid in (patch.valid, fg.valid, np.isfinite(field.values)):
        assert valid.any() and not valid.all()
    assert np.all(np.isfinite(patch.points[patch.valid]))
    assert np.all(np.isnan(patch.points[~patch.valid]))


def test_grid_validation():
    data = GeneratingData.general(parse("1"), parse("z"))
    with pytest.raises(ValueError):
        evaluate_surface(data, (-1, 1, -1, 1), (2, 5))
    with pytest.raises(ValueError):
        evaluate_surface(data, (1, -1, -1, 1), (5, 5))


def _null_grid(patch):
    U, V = np.meshgrid(patch.us, patch.vs, indexing="ij")
    return U + V, U - V


def _segments_avoid(P, Q, c, p0=0.0, q0=0.0):
    """Nodes whose null segments [p0, p] and [q0, q] both miss the value c."""
    hit_p = (np.minimum(P, p0) <= c) & (c <= np.maximum(P, p0))
    hit_q = (np.minimum(Q, q0) <= c) & (c <= np.maximum(Q, q0))
    return ~hit_p & ~hit_q


def _pole_patch_exact(c, P, Q, p0=0.0, q0=0.0):
    """Real part of the curve of f = 1, g = 1/(z - c), integrated from (p0, q0).

    Per null side, with s = t - c, the components integrate to
    -(t - 1/s)/2, +-(t + 1/s)/2 (J is +1 on p, -1 on q) and log|s|.
    """
    def side(t, sign):
        s = t - c
        return [-(t - 1.0 / s) / 2.0, sign * (t + 1.0 / s) / 2.0, np.log(np.abs(s))]

    fp, fq = side(P, 1.0), side(Q, -1.0)
    fp0, fq0 = side(np.float64(p0), 1.0), side(np.float64(q0), -1.0)
    return np.stack(
        [0.5 * ((a - a0) + (b - b0)) for a, a0, b, b0 in zip(fp, fp0, fq, fq0)], axis=-1
    )


def test_validity_is_null_reachability_across_singular_lines():
    # canonical g = z^2+z+3 has g' = 0 on p = -1/2 and q = -1/2, the edges of
    # this domain; every node with p > -1/2 and q > -1/2 reaches the base
    # point 0 along null segments that avoid those lines, wherever its row
    # meets u = -1/2
    data = GeneratingData.canonical(parse("z^2+z+3"))
    patch = evaluate_surface(data, (-0.5, 0.5, -0.5, 0.5), (21, 21))
    i, j = np.meshgrid(np.arange(21), np.arange(21), indexing="ij")
    # p = -1 + (i + j)/20, q = (i - j)/20 on the lattice
    expected = (i + j > 10) & (i - j > -10)
    assert int(expected.sum()) == 310
    assert np.array_equal(patch.valid, expected)


def test_quadrature_sweep_matches_per_node_integrals():
    # pole a quarter step off the p and q lattices (step 1/8), off-lattice base
    h = 0.125
    c = 0.25 + 0.25 * h
    base = splitc(0.03, -0.07)
    data = GeneratingData.general(parse("1"), parse("1/(z-%r)" % c), base_point=base)
    patch = evaluate_surface(data, (-1.0, 1.0, -1.0, 1.0), (17, 17))
    P, Q = _null_grid(patch)
    reach = _segments_avoid(P, Q, c, float(base.p), float(base.q))
    assert np.array_equal(patch.valid, reach)
    exprs = curve_expressions(data)
    for i, j in np.argwhere(patch.valid):
        target = splitc(patch.us[i], patch.vs[j])
        expect = [_mp_real_part(e, base, target) for e in exprs]
        assert np.max(np.abs(patch.points[i, j] - expect)) < 1e-9
    exact = _pole_patch_exact(c, P, Q, float(base.p), float(base.q))
    assert np.max(np.abs(patch.points[reach] - exact[reach])) < 1e-9


def test_pole_just_beyond_lattice_line_fails_only_past_it():
    # the pole sits 5e-6 beyond p = 1/4 and q = 1/4; the gap [0, 1/4] ends
    # where the integrand is ~4e10, so it cannot meet the absolute tol and
    # every node with p >= 1/4 or q >= 1/4 is unreachable; the huge conformal
    # factor next to the pole must not make the other nodes degenerate
    c = 0.250005
    data = GeneratingData.general(parse("1"), parse("1/(z-%r)" % c))
    patch = evaluate_surface(data, (-1.0, 1.0, -1.0, 1.0), (9, 9))
    P, Q = _null_grid(patch)
    assert np.array_equal(patch.valid, (P < 0.25) & (Q < 0.25))
    assert not np.any(patch.valid & ~_segments_avoid(P, Q, c))
    exact = _pole_patch_exact(c, P, Q)
    assert np.max(np.abs(patch.points[patch.valid] - exact[patch.valid])) < 1e-9
    assert np.all(np.isnan(patch.points[~patch.valid]))


def test_swept_components_take_one_engine_call(monkeypatch):
    # all three components and both null sides go through one integrate_sweep
    # call, for pole data and for exp-poly data alike
    sweep = weierstrass.integrate_sweep
    for f, g, n_valid in (("1", "1/(z-0.43125)", 487), ("exp(0.5*z)*(1+0.2*z)", "z^2+z", 33 * 33)):
        calls = []
        monkeypatch.setattr(weierstrass, "integrate_sweep", lambda *a, **k: calls.append(1) or sweep(*a, **k))
        patch = evaluate_surface(GeneratingData.general(parse(f), parse(g)), (-1.0, 1.0, -1.0, 1.0), (33, 33))
        assert len(calls) == 1
        assert int(patch.valid.sum()) == n_valid


def _count_rounds(monkeypatch):
    """A list that gets one entry per G7/K15 batch the sweep evaluates."""
    rounds, panels = [], holofn._gk_panels
    monkeypatch.setattr(holofn, "_gk_panels", lambda *a: rounds.append(1) or panels(*a))
    return rounds


@pytest.mark.parametrize("c, n, max_rounds", [(0.43125, 33, 4), (0.249995, 9, 2)])
def test_located_pole_fails_its_gap_without_bisecting(monkeypatch, c, n, max_rounds):
    # the pole lies inside a gap, a tenth of a step or 5e-6 from a lattice
    # line: the sweep stops at it in a few rounds instead of bisecting
    # toward it until the panel budget runs out (16 and 20 rounds)
    rounds = _count_rounds(monkeypatch)
    data = GeneratingData.general(parse("1"), parse("1/(z-%r)" % c))
    patch = evaluate_surface(data, (-1.0, 1.0, -1.0, 1.0), (n, n))
    assert len(rounds) <= max_rounds
    P, Q = _null_grid(patch)
    assert np.array_equal(patch.valid, _segments_avoid(P, Q, c))
    exact = _pole_patch_exact(c, P, Q)
    assert np.max(np.abs(patch.points[patch.valid] - exact[patch.valid])) < 1e-9


@pytest.mark.parametrize("f, g, n, max_rounds, n_valid", [
    # poles fail their gaps at once
    ("1", "(z-0.3)^-2", 17, 4, 289 - 174),
    ("1/(z-0.3)", "z", 33, 4, 1089 - 669),
    # removable zeros of a denominator: the sweep crosses the line
    (None, "1/(z-0.3)", 17, 1, 289),
    ("(z-0.3)^2", "1/(z-0.3)", 17, 1, 289),
    # a pole within rounding of the lattice knot 0.30000000000000027 counts
    # as on it: both gaps next to the knot fail at once, not by bisection
    ("exp(0.5*z)", "1/(z-0.3)", 81, 4, 6561 - 3994),
    # a branch point and poles off the real null lines: nothing to locate
    ("1", "1/sqrt(z+0.5)", 33, 40, 1089 - 572),
    ("1", "1/(z^2+0.01)", 33, 2, 1089),
])
def test_cut_at_located_poles_keeps_the_uncut_answer(monkeypatch, f, g, n, max_rounds, n_valid):
    data = (GeneratingData.canonical(parse(g)) if f is None else GeneratingData.general(parse(f), parse(g)))
    dom = (-1.0, 1.0, -1.0, 1.0)
    rounds = _count_rounds(monkeypatch)
    patch = evaluate_surface(data, dom, (n, n))
    assert len(rounds) <= max_rounds
    assert int(patch.valid.sum()) == n_valid
    monkeypatch.setattr(weierstrass, "pole_gaps", lambda exprs, knots, side: np.zeros(len(knots) - 1, bool))
    uncut = evaluate_surface(data, dom, (n, n))
    assert np.array_equal(patch.valid, uncut.valid)
    assert np.max(np.abs(patch.points[patch.valid] - uncut.points[patch.valid])) < 1e-12


def test_base_point_boxed_in_by_poles_on_both_sides():
    # poles at p, q = +-0.01 in the two gaps next to the base point 0: both
    # sides cut to the origin knot, and only the base node is reachable
    data = GeneratingData.general(parse("1"), parse("1/((z-0.01)*(z+0.01))"))
    patch = evaluate_surface(data, (-1.0, 1.0, -1.0, 1.0), (17, 17))
    assert np.flatnonzero(patch.valid).tolist() == [8 * 17 + 8]
    assert np.array_equal(patch.points[8, 8], np.zeros(3))


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(40)


def _exp_patch_exact(a, gpoly, us, vs):
    """Real part of the curve of f = exp(a z), g = gpoly(z) (low degree first), from 0.

    Per null side every component is a real function of t = p (J = +1) or
    t = q (J = -1), integrated over [0, t] by 40-point Gauss-Legendre: exact
    to rounding for these entire integrands on |t| <= 2.
    """
    g = np.polynomial.Polynomial(gpoly)

    def side(t, j):
        s = 0.5 * t[..., None] * (_GL_NODES + 1.0)
        f, gs = np.exp(a * s), g(s)
        psi = [-f * (1 + gs**2) / 2, j * f * (1 - gs**2) / 2, f * gs]
        return [0.5 * t * (x @ _GL_WEIGHTS) for x in psi]

    U, V = np.meshgrid(us, vs, indexing="ij")
    return np.stack([(xp + xq) / 2 for xp, xq in zip(side(U + V, 1.0), side(U - V, -1.0))], axis=-1)


@pytest.mark.parametrize("a, g, gpoly, n_valid", [
    # a small exponent, where exp(a z) sum_j (-1)^j p^(j) / a^(j+1) cancels
    # catastrophically; 1 - |g|^2 vanishes at the nodes (u, v) = (+-1, 0)
    (0.002, "z^3", [0, 0, 0, 1], 101 * 101 - 2),
    (0.2, "z^3+z", [0, 1, 0, 1], 101 * 101),
], ids=["small_exponent", "cubic_g"])
def test_exp_poly_vertices_match_gauss_legendre(a, g, gpoly, n_valid):
    data = GeneratingData.general(parse("exp(%r*z)" % a), parse(g))
    patch = evaluate_surface(data, (-1.0, 1.0, -1.0, 1.0), (101, 101))
    assert int(patch.valid.sum()) == n_valid
    exact = _exp_patch_exact(a, gpoly, patch.us, patch.vs)
    assert np.max(np.abs(patch.points[patch.valid] - exact[patch.valid])) < 1e-8


# ---------------------------------------------------------------------------
# the null index of a grid
# ---------------------------------------------------------------------------


def _node_knots(index):
    return [k[a] for k, a in zip(index.knots, index.at)]


@pytest.mark.parametrize("n, m, domain", [(41, 41, (0.0, 0.4, -0.2, 0.2)), (101, 101, (-1.0, 1.0, -1.0, 1.0)),
                                          (21, 13, (-0.6, 0.4, -0.3, 0.3))])
def test_square_grid_takes_the_exact_lattice(n, m, domain):
    us, vs = np.linspace(*domain[:2], n), np.linspace(*domain[2:], m)
    i, j = np.ogrid[:n, :m]
    slots = (i + j, i - j + m - 1)
    lattice = (np.linspace(us[0] + vs[0], us[-1] + vs[-1], n + m - 1),
               np.linspace(us[0] - vs[-1], us[-1] - vs[0], n + m - 1))
    # n + m - 1 knots per side, and a base point off the lattice one more
    index = weierstrass._null_index(us, vs, splitc(0.0123, 0.0456))
    for knots, nodes, values, k in zip(index.knots, _node_knots(index), lattice, slots):
        assert len(knots) == n + m and np.all(np.diff(knots) > 0)
        assert np.array_equal(nodes, values[k])
    # a base point on a node keeps that node's float sums as its knots
    base = splitc(us[3], vs[2])
    index = weierstrass._null_index(us, vs, base)
    assert [len(k) for k in index.knots] == [n + m - 1] * 2
    for nodes, values, k, t0 in zip(_node_knots(index), lattice, slots, (base.p, base.q)):
        assert nodes[3, 2] == t0
        assert np.array_equal(nodes[k != k[3, 2]], values[k][k != k[3, 2]])


def test_unequal_steps_keep_the_float_sums():
    us, vs = np.linspace(-1.0, 1.0, 17), np.linspace(-0.5, 0.7, 9)
    base = splitc(0.1, 0.05)
    index = weierstrass._null_index(us, vs, base)
    for knots, sums, t0 in zip(index.knots, (np.add.outer(us, vs), np.subtract.outer(us, vs)), (base.p, base.q)):
        assert np.array_equal(knots, np.unique(np.append(sums, t0)))
    P, Q = _node_knots(index)
    assert np.array_equal(P, np.add.outer(us, vs)) and np.array_equal(Q, np.subtract.outer(us, vs))


@settings(max_examples=200, deadline=None)
@given(st.integers(3, 120), st.integers(3, 120), st.integers(-30, 30), st.integers(-30, 30), st.integers(1, 40))
def test_lattice_knots_lie_within_rounding_of_the_float_sums(n, m, a, b, w):
    # decimal domains with square steps, as a user types them
    u0, v0, width = a / 10, b / 10, w / 10
    us, vs = np.linspace(u0, u0 + width, n), np.linspace(v0, v0 + width * (m - 1) / (n - 1), m)
    index = weierstrass._null_index(us, vs)
    assert [len(k) for k in index.knots] == [n + m - 1] * 2
    P, Q = _node_knots(index)
    # each coordinate carries linspace's rounding at the domain's scale, and
    # so do the float sums and the knots: they agree to a few of its ulps
    ulp = np.spacing(np.abs(us[[0, -1]]).sum() + np.abs(vs[[0, -1]]).sum())
    assert np.max(np.abs(P - np.add.outer(us, vs))) <= 8 * ulp
    assert np.max(np.abs(Q - np.subtract.outer(us, vs))) <= 8 * ulp

