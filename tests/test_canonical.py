import operator
import warnings
from fractions import Fraction

import numpy as np
import pytest

from splitsurf import canonical, holofn, weierstrass
from splitsurf.algebra import from_null, splitc
from splitsurf.equivalence import surfaces_coincide
from splitsurf.geometry import forms_grid
from splitsurf.holofn import MINUS, PLUS, Add, Const, Div, Mul, Neg, Pow, Sub, Var, expr_to_poly, integrate_sweep, parse
from splitsurf.canonical import (
    BranchError,
    CanonicalGauge,
    FieldMatch,
    InconclusiveOverlap,
    SampledField,
    canonical_curvature_field,
    canonicalize,
    compare_curvature_fields,
    verify_canonical_coefficients,
)
from splitsurf.weierstrass import GeneratingData, Part, SurfacePatch, _NullIndex, evaluate_surface

from conftest import pde_residual


def enneper_K(U, V):
    with np.errstate(divide="ignore"):
        return -16.0 / (1.0 - (U**2 - V**2)) ** 4


def test_worked_affine_example():
    # f = a = 2, g = b z + c with b = c = 1: z(w) = w/sqrt(ab) - c/b and
    # g~(w) = (sqrt(b)/sqrt(a)) w = w/sqrt(2)
    res = canonicalize(parse("2"), parse("z+1"), w0=splitc(0), z0=splitc(-1))
    assert res.affine
    assert res.max_residual < 1e-10
    poly = expr_to_poly(res.g_tilde_expr)
    assert poly is not None and poly.degree == 1
    assert float((poly.coeff(0) - splitc(0)).mag) < 1e-10
    assert float((poly.coeff(1) - splitc(1 / np.sqrt(2))).mag) < 1e-10
    # z(w) itself at the grid node w = 0: z(0) = -1, z'(w) = 1/sqrt(2)
    assert res.us[16] == 0.0 and res.vs[16] == 0.0
    assert float((res.z_values[16, 16] - splitc(-1)).mag) < 1e-12
    assert float((res.z_prime[16, 16] - splitc(1 / np.sqrt(2))).mag) < 1e-12


def test_identity_when_already_canonical():
    res = canonicalize(parse("1"), parse("z"))
    assert res.affine
    assert str(res.g_tilde_expr) == "z"
    assert res.max_residual < 1e-14


def test_ode_route_against_quadrature_oracle():
    # (e^z, e^z): p'(s) = e^(-p), whose implicit solution is
    # s - s0 = int_{p0}^{p} sqrt(Phi+) dr with sqrt(Phi+) = e^r
    f = parse("exp(z)")
    res = canonicalize(f, f, w0=splitc(0), z0=splitc(0), domain=(0.9, 2.9, -0.3, 0.3), grid=(11, 7))
    assert not res.affine
    phi = f * f.derivative()
    for i in (0, 5, 10):
        for j in (0, 3, 6):
            s = res.us[i] + res.vs[j]
            p = float(res.z_values.p[i, j])
            lhs = integrate_sweep(lambda r: np.sqrt(phi.eval_null(r, PLUS)), [0.0, p], 0, 1e-12)[0][1]
            assert abs(lhs - s) < 1e-8
    # transported generating function is 1 + w
    U, V = np.meshgrid(res.us, res.vs, indexing="ij")
    assert np.nanmax(np.abs(res.g_tilde_values.re - (1 + U))) < 1e-9
    assert np.nanmax(np.abs(res.g_tilde_values.im - V)) < 1e-9


def test_reparametrization_residual_gate():
    res = canonicalize(
        parse("exp(z)"), parse("exp(z)"), w0=splitc(0), z0=splitc(0),
        domain=(0.9, 2.9, -0.3, 0.3), grid=(15, 9),
    )
    assert res.max_residual < 1e-8


def test_both_signs_are_gauge_equivalent():
    dom = (-0.35, 0.35, -0.35, 0.35)
    f, g = parse("exp(z)"), parse("exp(z)")
    fields = []
    for sign in (+1, -1):
        res = canonicalize(f, g, w0=splitc(0.0), z0=splitc(0.0), domain=dom, grid=(15, 15), sign=sign)
        zv = res.z_values
        gv = g.eval(zv)
        gpv = g.derivative().eval(zv)
        fv = f.eval(zv)
        with np.errstate(invalid="ignore", divide="ignore"):
            K = -16.0 * gpv.modulus2 / (fv.modulus2 * (1 - gv.modulus2) ** 4)
            K = np.where(np.abs(1 - gv.modulus2) > 0.1, K, np.nan)
        fields.append(SampledField(res.us, res.vs, K))
    match = compare_curvature_fields(fields[0], fields[1], tol=1e-6)
    assert match.coincide
    assert match.gauge.eps == -1


def test_canonicalized_patch_passes_coefficient_check():
    # close the loop: canonicalize a pair, regenerate the surface from the
    # transported g~, and confirm the canonical coefficient shapes hold
    res = canonicalize(parse("2"), parse("z+1"), w0=splitc(0), z0=splitc(-1))
    data = GeneratingData.canonical(res.g_tilde_expr)
    patch = evaluate_surface(data, (-0.4, 0.4, -0.4, 0.4), (17, 17))
    rep = verify_canonical_coefficients(patch)
    assert rep.summary()["max_residual"] < 1e-4


def test_branch_error_at_critical_point():
    with pytest.raises(BranchError):
        canonicalize(parse("1"), parse("z^3"), w0=splitc(0), z0=splitc(0))


def test_affine_rejects_inadmissible_constant():
    # f*g' = -1 has no square root with positive null components
    with pytest.raises(BranchError):
        canonicalize(parse("-1"), parse("z"))


# f = 1, g = z^2/2, z(0) = 1: Phi = f g' = z, so s(p) = (2/3)(p^(3/2) - 1) and
# z+-(w) = (1 + 1.5 s)^(2/3).  The cone exit p = 0 lies at s = -2/3; the
# nodes with S = u + v or T = u - v below it have no preimage.
CONE_EXIT = dict(w0=splitc(0), z0=splitc(1), domain=(-0.6, 0.4, -0.3, 0.3), grid=(21, 13))


def cone_exit_grid():
    U, V = np.meshgrid(np.linspace(-0.6, 0.4, 21), np.linspace(-0.3, 0.3, 13), indexing="ij")
    return U + V, U - V


def test_cone_exit_masks_unreachable_nodes():
    res = canonicalize(parse("1"), parse("z^2/2"), **CONE_EXIT)
    S, T = cone_exit_grid()
    reachable = (S > -2 / 3) & (T > -2 / 3)
    assert np.array_equal(np.isfinite(res.z_values.re), reachable)
    assert np.array_equal(np.isfinite(res.residual), reachable)
    assert int(reachable.sum()) == 243
    p = (1 + 1.5 * S[reachable]) ** (2 / 3)
    q = (1 + 1.5 * T[reachable]) ** (2 / 3)
    assert np.max(np.abs(res.z_values.p[reachable] - p)) < 1e-12
    assert np.max(np.abs(res.z_values.q[reachable] - q)) < 1e-12
    assert res.max_residual < 1e-12


def test_cone_exit_inverts_both_sides_in_lockstep(monkeypatch):
    # one integrate_sweep call per tabulation pass and Newton step serves
    # both null sides, so the sides' steps are not summed
    calls = []
    sweep = holofn.integrate_sweep
    monkeypatch.setattr(holofn, "integrate_sweep", lambda *a, **k: calls.append(1) or sweep(*a, **k))
    res = canonicalize(parse("1"), parse("z^2/2"), **CONE_EXIT)
    S, T = cone_exit_grid()
    assert np.array_equal(np.isfinite(res.z_values.re), (S > -2 / 3) & (T > -2 / 3))
    assert int(np.isfinite(res.z_values.re).sum()) == 243
    assert len(calls) <= 46


def test_canonical_curvature_field_masks_cone_exit():
    data = GeneratingData.general(parse("1"), parse("z^2/2"), base_point=splitc(1))
    field = canonical_curvature_field(data, CONE_EXIT["domain"], CONE_EXIT["grid"], w0=splitc(0))
    S, T = cone_exit_grid()
    finite = np.isfinite(field.values)
    assert int(finite.sum()) == 243
    assert not np.any(finite & ((S < -2 / 3) | (T < -2 / 3)))


def _per_node_curvature(exprs, index, gate):
    # the former per-node K: every factor of exprs = (g, g', f) evaluated at
    # z = from_null(z+, z-), with |h|^2 = re^2 - im^2
    z = from_null(*(k[a] for k, a in zip(index.knots, index.at)))
    g, gp, f = (e.eval(z) for e in exprs)
    ok = np.logical_and.reduce([np.isfinite(x) for v in (g, gp, f) for x in (v.re, v.im)])
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = 1.0 - g.modulus2
        K = -16.0 * gp.modulus2 / (f.modulus2 * gap**4)
        ok &= (np.abs(f.modulus2) > 1e-300) & np.isfinite(K) & (np.abs(gap) > gate)
    return np.where(ok, K, np.nan)


def _exact_null(e, t, side):
    # e's null component at a float t, in exact rational arithmetic
    if isinstance(e, Const):
        return Fraction(float(e.value.p if side == PLUS else e.value.q))
    if isinstance(e, Var):
        return Fraction(float(t))
    if isinstance(e, Neg):
        return -_exact_null(e.a, t, side)
    if isinstance(e, Pow):
        return _exact_null(e.base, t, side) ** e.n
    op = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}[type(e)]
    return op(_exact_null(e.a, t, side), _exact_null(e.b, t, side))


# the cone exit, (1, g) against its reparametrization (a, g(a w)) at 41^2,
# and on the affine route the bench's scaled linear g off a non-square grid
REPARAM_G = "(z^2+1.0*z+(-0.2+0.1J))"
CANONICAL_ROUTE_CASES = [
    ("1", "z^2/2", CONE_EXIT, 243),
    ("1", REPARAM_G, dict(domain=(0.0, 0.4, -0.2, 0.2), grid=(41, 41)), 1681),
    ("1.1", REPARAM_G.replace("z", "(1.1*z)"), dict(domain=(0.0, 0.4, -0.2, 0.2), grid=(41, 41)), 1681),
    ("1", "1.7*(0.8*z+(0.05+0.07J))", dict(w0=splitc(0.1, -0.05), z0=splitc(0.2, 0.1),
                                          domain=(0.0, 0.4, -0.2, 0.2), grid=(21, 13)), 273),
]


@pytest.mark.parametrize("f, g, kw, finite", CANONICAL_ROUTE_CASES)
def test_canonical_route_evaluates_per_null_side(f, g, kw, finite):
    f, g = parse(f), parse(g)
    res = canonicalize(f, g, **kw)
    z = res.z_values
    assert int(np.isfinite(z.re).sum()) == finite
    phi = (f * g.derivative()).eval(z)
    per_node = {"z_prime": from_null(1.0 / np.sqrt(phi.p), 1.0 / np.sqrt(phi.q)), "g_tilde_values": g.eval(z)}
    for name, expect in per_node.items():
        got = getattr(res, name)
        assert np.array_equal(np.isnan(got.re), np.isnan(z.re))
        assert np.array_equal(np.isnan(expect.re), np.isnan(z.re))
        scale = np.hypot(expect.re, expect.im)
        for a, b in ((got.re, expect.re), (got.im, expect.im)):
            assert np.nanmax(np.abs(a - b) / scale) <= 1e-14

    data = GeneratingData.general(f, g, base_point=kw.get("z0", splitc(0)))
    K = canonical_curvature_field(data, kw["domain"], kw["grid"], w0=kw.get("w0")).values
    assert np.array_equal(np.isnan(K), np.isnan(_per_node_curvature((g, g.derivative(), f), res._index, 0.1)))
    assert int(np.isfinite(K).sum()) > 0
    # against K in exact arithmetic from the same null sides of z
    index = res._index
    sides = [k[a] for k, a in zip(index.knots, index.at)]
    for i, j in np.argwhere(np.isfinite(K)):
        h = [[_exact_null(e, t[i, j], side) for side, t in zip((PLUS, MINUS), sides)]
             for e in (g, g.derivative(), f)]
        exact = -16 * h[1][0] * h[1][1] / (h[2][0] * h[2][1] * (1 - h[0][0] * h[0][1]) ** 4)
        assert abs((Fraction(float(K[i, j])) - exact) / exact) <= 1e-14


def _canonical_field_and_reference(g, domain, grid):
    g = parse(g)
    field = canonical_curvature_field(GeneratingData.canonical(g), domain, grid)
    index = weierstrass._null_index(field.us, field.vs)
    assert [len(k) for k in index.knots] == [sum(grid) - 1] * 2
    gp = g.derivative()
    expect = _per_node_curvature((g, gp, Const(splitc(1.0)) / gp), index, 0.1)
    assert np.array_equal(np.isnan(field.values), np.isnan(expect))
    assert 0 < int(np.isfinite(expect).sum()) < field.values.size
    return field, expect, index


@pytest.mark.parametrize("g, domain, grid", [
    ("exp(0.5*z)+0.3*z", (-0.6, 0.2, -0.4, 0.4), (41, 41)),
    ("sqrt(z+1.5)", (-1.0, 0.0, -0.3, 0.3), (21, 13)),
])
def test_canonical_field_matches_per_node_curvature_on_the_lattice(g, domain, grid):
    field, expect, _ = _canonical_field_and_reference(g, domain, grid)
    assert np.nanmax(np.abs(field.values - expect) / np.abs(expect)) <= 1e-14


def test_canonical_field_across_pole_lines_matches_exact_arithmetic():
    # the null lines p, q = 0.3 of the pole cross the domain; per node in
    # (re, im) arithmetic K differs by 6e-14 there, so the values are checked
    # against exact arithmetic at the lattice knots, the mask per node
    g = "1/(z-0.3)"
    field, _, index = _canonical_field_and_reference(g, (0.0, 0.8, -0.4, 0.4), (33, 33))
    g = parse(g)
    for (i, j), K in zip(np.argwhere(np.isfinite(field.values)), field.values[np.isfinite(field.values)]):
        gs, gps = ([_exact_null(e, t[i, j], side) for side, t in zip((PLUS, MINUS), _node_knots(index))]
                   for e in (g, g.derivative()))
        exact = -16 * gps[0] ** 2 * gps[1] ** 2 / (1 - gs[0] * gs[1]) ** 4
        assert abs((Fraction(float(K)) - exact) / exact) <= 1e-14


def _node_knots(index):
    return [k[a] for k, a in zip(index.knots, index.at)]


@pytest.mark.parametrize("f1, g1, f2, g2, base, domain, grid", [
    ("1", REPARAM_G, "1.1", REPARAM_G.replace("z", "(1.1*z)"), 0.0, (0.0, 0.4, -0.2, 0.2), (41, 41)),
    ("1", "(0.8*z+(0.05+0.07J))", "1", "1.7*(0.8*z+(0.05+0.07J))", 0.0, (0.0, 0.4, -0.2, 0.2), (41, 41)),
    # w0 = z0 = 1: the cone exit crosses the domain at u +- v = 1/3
    ("1", "z^2/2", "1", "z^2/2+0.05", 1.0, (0.3, 1.3, -0.3, 0.3), (21, 13)),
])
def test_surfaces_coincide_decisions_match_per_node_curvature(monkeypatch, f1, g1, f2, g2, base, domain, grid):
    d1, d2 = (GeneratingData.general(parse(f), parse(g), base_point=splitc(base))
              for f, g in ((f1, g1), (f2, g2)))
    got = surfaces_coincide(d1, d2, domain, grid)
    monkeypatch.setattr(canonical, "_curvature_at", _per_node_curvature)
    expect = surfaces_coincide(d1, d2, domain, grid)
    assert got.coincide == expect.coincide
    assert got.gauge == expect.gauge
    assert abs(got.discrepancy - expect.discrepancy) <= 1e-12 * max(1.0, expect.discrepancy)


def test_all_masked_max_residual_is_nan_without_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = canonicalize(parse("1"), parse("z^2/2"), w0=splitc(0), z0=splitc(1),
                           domain=(-2, -1.5, -0.1, 0.1), grid=(5, 5))
        assert np.isnan(res.max_residual)
    assert np.all(np.isnan(res.z_values.re))


def test_quadrature_route_base_node_and_ode_residual():
    f, g = parse("exp(z)"), parse("z^2+3*z")
    domain, grid = (-0.3, 0.5, -0.3, 0.3), (17, 13)
    # w0 on the grid node (8, 7), which must map to z0 exactly
    w0 = splitc(np.linspace(-0.3, 0.5, 17)[8], np.linspace(-0.3, 0.3, 13)[7])
    z0 = splitc(0.25, -0.125)
    res = canonicalize(f, g, w0=w0, z0=z0, domain=domain, grid=grid)
    assert not res.affine
    assert res.z_values[8, 7] == z0
    phi = f * g.derivative()
    assert np.max(((res.z_prime * res.z_prime) * phi.eval(res.z_values) - 1.0).mag) <= 1e-13


def test_quadrature_route_sign_symmetry():
    # z' = -1/sqrt(Phi) is the + branch run backwards: z_-(w) = z_+(2 w0 - w)
    f, g = parse("exp(z)"), parse("exp(z)")
    w0 = splitc(0.1, -0.05)
    kwargs = dict(w0=w0, z0=splitc(0), domain=(-0.35, 0.35, -0.35, 0.35), grid=(15, 15))
    minus = canonicalize(f, g, sign=-1, **kwargs)
    # node (i, j) of the mirrored domain is 2 w0 minus node (14 - i, 14 - j)
    kwargs["domain"] = (2 * 0.1 - 0.35, 2 * 0.1 + 0.35, 2 * -0.05 - 0.35, 2 * -0.05 + 0.35)
    plus = canonicalize(f, g, sign=+1, **kwargs)
    mirrored = plus.z_values[::-1, ::-1]
    assert np.max((minus.z_values - mirrored).mag) < 1e-12


@pytest.mark.parametrize("f, g, z0, closed_form", [
    # Phi = z: s = (2/3)(z^{3/2} - z0^{3/2}); sqrt(Phi) |z| = 1000 at z0 = 100
    ("1", "z^2/2", 100.0, lambda s: (100.0**1.5 + 1.5 * s) ** (2 / 3)),
    # Phi = 1e4 (z + 1): s = (200/3)((z + 1)^{3/2} - 2^{3/2})
    ("1e4", "z^2/2+z", 1.0, lambda s: (2**1.5 + 0.015 * s) ** (2 / 3) - 1.0),
], ids=["z0=100", "phi=1e4(z+1)"])
def test_quadrature_route_large_rate_times_base_point(f, g, z0, closed_form):
    # rate |z| far above max(1, |s|): the error floor of a float z exceeds
    # 32 eps |s|, and every node must still converge
    res = canonicalize(parse(f), parse(g), w0=splitc(0), z0=splitc(z0))
    S = res.us[:, None] + res.vs[None, :]
    T = res.us[:, None] - res.vs[None, :]
    assert np.all(np.isfinite(res.z_values.re)) and np.all(np.isfinite(res.residual))
    scale = max(1.0, z0)
    assert np.max(np.abs(res.z_values.p - closed_form(S))) < 1e-12 * scale
    assert np.max(np.abs(res.z_values.q - closed_form(T))) < 1e-12 * scale
    assert res.max_residual < 1e-12


def test_quadrature_route_non_finite_w_gives_nan():
    res = canonicalize(parse("1"), parse("z^2/2"), w0=splitc(0), z0=splitc(1),
                       domain=(-0.3, 0.3, -0.3, 0.3), grid=(5, 5))
    phi = parse("1") * parse("z^2/2").derivative()

    def z_at(w):
        # every value of w its own target
        knots = tuple(np.atleast_1d(t) for t in (w.p, w.q))
        targets = _NullIndex(knots, np.stack([np.arange(len(knots[0]))] * 2))
        index, _ = canonical._invert(phi, res.z0, res.w0, +1, targets)
        return from_null(*(k[a] for k, a in zip(index.knots, index.at)))

    for w in (splitc(np.nan, 0), splitc(np.inf, 0.1)):
        assert np.isnan(z_at(w).re)
    pair = z_at(splitc(np.array([0.1, np.nan]), 0.0))
    assert np.isfinite(pair.re[0]) and np.isnan(pair.re[1])
    masked = canonicalize(parse("1"), parse("z^2/2"), w0=splitc(np.nan), z0=splitc(1),
                          domain=(-0.3, 0.3, -0.3, 0.3), grid=(5, 5))
    assert np.all(np.isnan(masked.z_values.re)) and np.isnan(masked.max_residual)
    assert np.all(np.isnan(masked.z_prime.re))


def test_verify_coefficients_principal_and_asymptotic():
    patch = evaluate_surface(GeneratingData.canonical(parse("z")), (-0.4, 0.4, -0.4, 0.4), (17, 17))
    rep = verify_canonical_coefficients(patch)
    assert rep.summary()["max_residual"] < 1e-5
    assert np.all(rep.branch[rep.valid] == -1)

    patch_im = evaluate_surface(
        GeneratingData.canonical(parse("z"), part=Part.IMAGINARY), (-0.4, 0.4, -0.4, 0.4), (17, 17)
    )
    rep_im = verify_canonical_coefficients(patch_im)
    assert rep_im.summary()["max_residual"] < 1e-5
    assert np.all(rep_im.branch[rep_im.valid] == +1)
    assert float(np.nanmax(rep_im.residuals["M"])) < 1e-5  # |M - 1|
    assert float(np.nanmax(rep_im.residuals["L"])) < 1e-5
    assert float(np.nanmax(rep_im.residuals["N"])) < 1e-5


def test_non_canonical_patch_flagged():
    # (f = 1, g = 2z) through the general formula is isothermal but the
    # parameters are not canonical: |L + 1| stays away from zero
    patch = evaluate_surface(GeneratingData.general(parse("1"), parse("2*z")), (-0.2, 0.2, -0.2, 0.2), (9, 9))
    rep = verify_canonical_coefficients(patch)
    assert float(np.nanmin(rep.residuals["L"])) > 0.1


def test_pde_residual_enneper():
    res = pde_residual(GeneratingData.canonical(parse("z")), (-0.8, 0.8, -0.8, 0.8), (33, 33), 0.3)
    assert np.nanmax(np.abs(res)) < 1e-5


def test_pde_residual_linear_family():
    # the pair f = a, g = b z + c with a = 2, b = 1 has canonical g = sqrt(beta) z,
    # beta = |b/a|, and K = -16 beta^2 / (1 - beta (u^2 - v^2))^4
    res = pde_residual(GeneratingData.canonical(parse("sqrt(0.5)*z")), (-0.8, 0.8, -0.8, 0.8), (21, 21), 0.3)
    assert np.nanmax(np.abs(res)) < 1e-5


def test_pde_residual_flags_non_canonical_patches():
    # isothermal and minimal, not in canonical parameters: the K of the
    # patch's forms breaks the PDE written with the patch's g
    for f, g, least in (("1", "2*z", 1.0), ("exp(0.45*z)", "z", 0.1)):
        res = pde_residual(GeneratingData.general(parse(f), parse(g)), (-0.2, 0.2, -0.2, 0.2), (9, 9))
        assert np.all(np.isfinite(res)) and np.max(np.abs(res)) > least


# canonical g with no symmetry of its curvature: g' has no real zero, and
# |1 - |g|^2| stays above the field's gate on the domains below
GAUGE_G = "0.4*z+0.3*z^2+0.1*z^3"
GAUGE_DOMAIN, GAUGE_GRID = (-0.5, 0.5, -0.5, 0.5), (21, 21)  # step 0.05


def _gauged(eps, A, B, g=GAUGE_G):
    """g(eps z + c), c = A + B J, as text."""
    return g.replace("z", "(%d*z+(%r+%rJ))" % (eps, A, B))


def _gauge_field(g, domain=GAUGE_DOMAIN, grid=GAUGE_GRID):
    return canonical_curvature_field(GeneratingData.canonical(parse(g)), domain, grid)


def test_gauge_identity_and_reflection():
    # w -> eps w + c maps canonical parameters to canonical parameters, and
    # g(eps w + c) has the curvature K(eps w + c): compare_curvature_fields
    # recovers (eps, A, B) = (eps, Re c, Im c), the identity from g itself
    field = _gauge_field(GAUGE_G)
    same = compare_curvature_fields(field, field, tol=1e-12)
    assert same.coincide and same.gauge == CanonicalGauge() and same.discrepancy == 0.0
    for eps, A, B in ((-1, 0.0, 0.0), (-1, 0.1, -0.05), (1, 0.15, 0.05)):
        match = compare_curvature_fields(field, _gauge_field(_gauged(eps, A, B)), tol=1e-12)
        assert match.coincide and match.gauge.eps == eps
        assert abs(match.gauge.A - A) < 1e-12 and abs(match.gauge.B - B) < 1e-12


def test_gauge_composition_law():
    # a gauge (e1, A1, B1) followed by (e2, A2, B2) is (e1 e2, e1 A2 + A1, e1 B2 + B1):
    # g1 = g(z + c1), then g2 = g1(-z + c2) = g(-z + c2 + c1)
    g1 = _gauged(1, 0.1, 0.05)
    g2 = _gauged(-1, 0.05, -0.1, g1)
    fields = [_gauge_field(g) for g in (GAUGE_G, g1, g2)]
    first, second, both = (compare_curvature_fields(fields[a], fields[b], tol=1e-12)
                           for a, b in ((0, 1), (1, 2), (0, 2)))
    assert first.coincide and second.coincide and both.coincide
    e1, e2 = first.gauge.eps, second.gauge.eps
    assert (e1, e2, both.gauge.eps) == (1, -1, e1 * e2)
    assert abs(both.gauge.A - (e1 * second.gauge.A + first.gauge.A)) < 1e-12
    assert abs(both.gauge.B - (e1 * second.gauge.B + first.gauge.B)) < 1e-12
    assert abs(both.gauge.A - 0.15) < 1e-12 and abs(both.gauge.B + 0.05) < 1e-12


def test_gauge_invariance_of_pde_residual():
    # the gauge w -> -w takes canonical g to g(-w), and a pair (f, g) to
    # (-f(-w), g(-w)): the same surface, so on symmetric nodes the residual
    # is the original's reindexed, up to the rounding of the reflected null
    # lattice; the pair is not canonical, and its residual is no rounding
    dom, grid = (-0.5, 0.5, -0.5, 0.5), (21, 21)
    for data, reflected in ((GeneratingData.canonical(parse("z")), GeneratingData.canonical(parse("-z"))),
                            (GeneratingData.general(parse("exp(0.45*z)"), parse("z")),
                             GeneratingData.general(parse("-exp(-0.45*z)"), parse("-z")))):
        before, after = pde_residual(data, dom, grid), pde_residual(reflected, dom, grid)
        assert np.array_equal(np.isnan(after), np.isnan(before[::-1, ::-1]))
        assert np.nanmax(np.abs(after - before[::-1, ::-1])) < 1e-8
    assert np.nanmax(np.abs(before)) > 0.1


def test_gauge_on_surface_patch():
    patch = evaluate_surface(GeneratingData.canonical(parse("z")), (-0.4, 0.4, -0.4, 0.4), (9, 9))
    # the gauge u = -u_new + 0.1, v = -v_new: u_new = -(u - 0.1) runs over
    # [-0.3, 0.5], and node (i, j) of the patch is node (8 - i, 8 - j)
    gauged = SurfacePatch.from_points(-(patch.us - 0.1)[::-1], -patch.vs[::-1], patch.points[::-1, ::-1])
    grid = forms_grid(gauged)
    assert grid.method == "fd"
    base = forms_grid(SurfacePatch.from_points(patch.us, patch.vs, patch.points))
    assert np.allclose(
        np.nan_to_num(grid.K), np.nan_to_num(base.K[::-1, ::-1]), atol=1e-12
    )


def test_gauge_on_callable():
    # the recovered gauge acts on K as a function of the parameters, at
    # points off the lattice too: K~(u, v) = K(eps u + A, eps v + B)
    def curvature(text):
        g = parse(text)
        gp = g.derivative()

        def K(u, v):
            g2 = g.eval_null(u + v, PLUS) * g.eval_null(u - v, MINUS)
            gp2 = gp.eval_null(u + v, PLUS) * gp.eval_null(u - v, MINUS)
            return -16.0 * gp2 * gp2 / (1.0 - g2) ** 4
        return K

    gauged = _gauged(-1, 0.1, -0.05)
    gauge = compare_curvature_fields(_gauge_field(GAUGE_G), _gauge_field(gauged), tol=1e-12).gauge
    K, K_new = curvature(GAUGE_G), curvature(gauged)
    u, v = np.random.default_rng(4).uniform(-0.5, 0.5, (2, 50))
    assert np.allclose(K_new(u, v), K(gauge.eps * u + gauge.A, gauge.eps * v + gauge.B), rtol=1e-12, atol=0.0)


def test_compare_fields_translation():
    h = 0.05
    us1 = np.arange(-10, 11) * h
    field1 = SampledField(us1, us1, enneper_K(us1[:, None], us1[None, :]))
    shifted = enneper_K(us1[:, None] + 0.5, us1[None, :])
    field2 = SampledField(us1, us1, shifted)
    match = compare_curvature_fields(field1, field2, tol=1e-9)
    assert match.coincide
    assert match.gauge.eps == 1
    assert abs(abs(match.gauge.A) - 0.5) < 1e-12
    # the recovered gauge really maps new params onto old ones
    u_new = 0.1
    u_old = match.gauge.eps * u_new + match.gauge.A
    assert abs(enneper_K(np.array(u_old), np.array(0.0)) - enneper_K(np.array(u_new + 0.5), np.array(0.0))) < 1e-12


def test_compare_fields_self_match():
    us = np.linspace(-0.4, 0.4, 17)
    field = SampledField(us, us, enneper_K(us[:, None], us[None, :]))
    match = compare_curvature_fields(field, field, tol=1e-12)
    assert match.coincide and match.gauge == CanonicalGauge(1, 0.0, 0.0)


def test_compare_fields_inconclusive():
    us1 = np.linspace(0.0, 0.1, 3)
    field1 = SampledField(us1, us1, np.full((3, 3), np.nan))
    field2 = SampledField(us1, us1, np.ones((3, 3)))
    with pytest.raises(InconclusiveOverlap):
        compare_curvature_fields(field1, field2)


def test_canonical_curvature_field_gates_blowup():
    data = GeneratingData.canonical(parse("z"))
    field = canonical_curvature_field(data, (-1.2, 1.2, -0.2, 0.2), (25, 9), gate=0.1)
    U, V = np.meshgrid(field.us, field.vs, indexing="ij")
    gap = np.abs(1.0 - (U**2 - V**2))
    assert np.all(np.isnan(field.values[gap <= 0.1]))
    inside = gap > 0.1
    assert np.allclose(field.values[inside], enneper_K(U, V)[inside])


# ---------------------------------------------------------------------------
# exact gauge search against a brute-force reference
# ---------------------------------------------------------------------------


def brute_force_match(field1, field2, tol=1e-4, min_overlap=9):
    """Evaluate every eligible (eps, du, dv) and keep the smallest key."""
    floor = max(2, int(np.sqrt(min_overlap)))
    n1, m1 = field1.values.shape
    n2, m2 = field2.values.shape
    best = None
    for eps in (1, -1):
        us2, vs2, vals2 = field2.us, field2.vs, field2.values
        if eps == -1:
            us2, vs2, vals2 = -us2[::-1], -vs2[::-1], vals2[::-1, ::-1]
        for du in range(-n2, n1 + 1):
            for dv in range(-m2, m1 + 1):
                i0, i1 = max(0, du), min(n1, n2 + du)
                j0, j1 = max(0, dv), min(m1, m2 + dv)
                if i1 - i0 < floor or j1 - j0 < floor:
                    continue
                x = field1.values[i0:i1, j0:j1]
                y = vals2[i0 - du:i1 - du, j0 - dv:j1 - dv]
                both = np.isfinite(x) & np.isfinite(y)
                if both.sum() < min_overlap:
                    continue
                with np.errstate(over="ignore"):
                    disc = float(np.max(np.abs(x[both] - y[both])))
                A = float(field1.us[i0] - us2[i0 - du])
                B = float(field1.vs[j0] - vs2[j0 - dv])
                key = (disc, round((abs(A) + abs(B)) / field1.h_u, 6), 0 if eps == 1 else 1, du, dv)
                if best is None or key < best[0]:
                    match = FieldMatch(disc < tol, CanonicalGauge(eps, A, B), disc, int(both.sum()))
                    best = (key, match)
    if best is None:
        raise InconclusiveOverlap("no alignment")
    return best[1]


_H = 0.05


def _field(values, u0, v0):
    n, m = values.shape
    return SampledField(u0 + _H * np.arange(n), v0 + _H * np.arange(m), values)


def _holes(rng, values, density):
    return np.where(rng.random(values.shape) < density, np.nan, values)


def _random_pair(seed):
    """Two fields from one of four families, by seed."""
    rng = np.random.default_rng(seed)
    family = seed % 4
    n1, m1, n2, m2 = (int(k) for k in rng.integers(4, 19, size=4))
    density = rng.choice([0.0, 0.1, 0.4])
    if family == 0:
        # unrelated noise on unrelated origins (not on a common lattice)
        f1 = _field(_holes(rng, rng.normal(size=(n1, m1)), density), *rng.uniform(-1, 1, 2))
        f2 = _field(_holes(rng, rng.normal(size=(n2, m2)), density), *rng.uniform(-1, 1, 2))
        return f1, f2
    if family == 1:
        # windows of one array, the second reflected, at large offsets
        big = rng.normal(size=(40, 40))
        i1, j1, i2, j2 = (int(k) for k in rng.integers(0, 22, size=4))
        w1 = big[i1:i1 + n1, j1:j1 + m1]
        w2 = big[i2:i2 + n2, j2:j2 + m2]
        if rng.random() < 0.7:
            w2 = w2[::-1, ::-1]
        return _field(_holes(rng, w1, density), 0.0, 0.0), _field(_holes(rng, w2, density), 0.0, 0.0)
    if family == 2:
        # few distinct values with a short period: many shifts tie exactly
        period = int(rng.integers(1, 4))
        tile = rng.integers(0, 2, size=(period, period)).astype(float)
        big = np.tile(tile, (40 // period + 1, 40 // period + 1))
        f1 = _field(_holes(rng, big[:n1, :m1], density), *(_H * rng.integers(-5, 5, 2)))
        f2 = _field(_holes(rng, big[3:3 + n2, 1:1 + m2], density), *(_H * rng.integers(-5, 5, 2)))
        return f1, f2
    # Enneper curvature gated just outside |1 - (u^2 - v^2)| = 0.06, |K| up to ~1e6,
    # against a shifted copy with a perturbation
    u0, v0 = rng.uniform(0.55, 0.85), rng.uniform(-0.3, 0.0)
    U, V = np.meshgrid(u0 + _H * np.arange(n1), v0 + _H * np.arange(m1), indexing="ij")
    K = enneper_K(U, V)
    K = np.where(np.abs(1.0 - (U**2 - V**2)) > 0.06, K, np.nan)
    su, sv = (int(k) for k in rng.integers(0, 3, size=2))
    K2 = K[su:, sv:] * (1.0 + 1e-9 * rng.normal(size=K[su:, sv:].shape))
    return _field(_holes(rng, K, density), u0, v0), _field(_holes(rng, K2, density), u0, v0)


@pytest.mark.parametrize("seed", range(48))
def test_compare_fields_equals_brute_force(seed):
    field1, field2 = _random_pair(seed)
    for tol, min_overlap in ((1e-4, 9), (1e-6, 16)):
        try:
            expected = brute_force_match(field1, field2, tol, min_overlap)
        except InconclusiveOverlap:
            with pytest.raises(InconclusiveOverlap):
                compare_curvature_fields(field1, field2, tol, min_overlap)
            continue
        assert compare_curvature_fields(field1, field2, tol, min_overlap) == expected


def test_compare_fields_reflected_far_shift():
    big = np.random.default_rng(3).normal(size=(40, 40))
    field1 = _field(big[:20, :20], 0.0, 0.0)
    field2 = _field(big[16:36, 15:35][::-1, ::-1].copy(), 0.0, 0.0)
    match = compare_curvature_fields(field1, field2, tol=1e-12)
    assert match == brute_force_match(field1, field2, tol=1e-12)
    assert match.coincide and match.gauge.eps == -1
    assert match.overlap == 4 * 5


def test_compare_fields_tie_goes_to_smallest_translation():
    field = _field(np.ones((12, 10)), 0.0, 0.0)
    match = compare_curvature_fields(field, field)
    assert match == FieldMatch(True, CanonicalGauge(1, 0.0, 0.0), 0.0, 120)
    shifted = _field(np.ones((12, 10)), 3 * _H, -2 * _H)
    match = compare_curvature_fields(field, shifted)
    assert match == brute_force_match(field, shifted)
    assert match.discrepancy == 0.0 and abs(match.gauge.A) + abs(match.gauge.B) < 1e-12


def test_compare_fields_odd_lattice_shift():
    g = "(z^2+1.0187995116067217*z+(-0.10314774187784814+0.1327512840629668J))"
    domain, grid = (0.0, 0.4, -0.2, 0.2), (41, 41)
    field1 = canonical_curvature_field(GeneratingData.canonical(parse(g)), domain, grid)
    field2 = canonical_curvature_field(
        GeneratingData.canonical(parse(g.replace("z", "(z+(0.03+0.07J))"))), domain, grid
    )
    match = compare_curvature_fields(field1, field2)
    assert match == brute_force_match(field1, field2)
    assert match.coincide and match.gauge.eps == 1
    assert abs(match.gauge.A - 0.03) < 1e-12 and abs(match.gauge.B - 0.07) < 1e-12


@pytest.mark.parametrize("transpose", [False, True])
def test_compare_fields_ignores_sub_floor_alignments(transpose):
    # a one-column alignment (30 shared nodes) matches exactly; every alignment
    # at least axis_floor = 3 columns wide disagrees
    rng = np.random.default_rng(11)
    v1 = rng.normal(size=(30, 41))
    v2 = rng.normal(size=(30, 41))
    v2[:, 0] = v1[:, -1]
    if transpose:
        v1, v2 = v1.T.copy(), v2.T.copy()
    field1, field2 = _field(v1, 0.0, 0.0), _field(v2, 0.0, 0.0)
    match = compare_curvature_fields(field1, field2)
    assert match == brute_force_match(field1, field2)
    assert not match.coincide and match.discrepancy > 0.1


def test_compare_fields_gauge_tie_ignores_last_bit_of_origins():
    # g = z is symmetric under the reflection, so (+1, 0.025, 0) and
    # (-1, -0.025, 0) match equally well; |A| + |B| agree up to the last bit
    # of the grid origins, and eps = +1 wins the tie
    domain, grid = (-1.0, 1.0, -1.0, 1.0), (81, 81)
    field1 = canonical_curvature_field(GeneratingData.canonical(parse("z")), domain, grid)
    field2 = canonical_curvature_field(GeneratingData.canonical(parse("z+0.025")), domain, grid)
    match = compare_curvature_fields(field1, field2)
    assert match.coincide and match.gauge.eps == 1
    assert abs(match.gauge.A - 0.025) < 1e-12 and match.gauge.B == 0.0


# fields without a missing node: box sums of squares, one transform per field


def _full_pairs():
    rng = np.random.default_rng(21)
    big = rng.normal(size=(40, 40))
    huge = 1e160 * (1.0 + 0.1 * rng.normal(size=(30, 30)))
    tile = np.tile(rng.integers(0, 2, size=(2, 3)).astype(float), (14, 14))
    return {
        "unrelated": (_field(rng.normal(size=(9, 14)), 0.1, -0.3), _field(rng.normal(size=(16, 5)), -0.2, 0.4)),
        "unequal_shapes": (_field(big[4:11, 2:21], 0.0, 0.0), _field(big[0:16, 10:16], 0.0, 0.0)),
        "reflected": (_field(big[:20, :20], 0.0, 0.0), _field(big[16:36, 15:35][::-1, ::-1].copy(), 0.0, 0.0)),
        "overflowing_squares": (_field(huge[:14, :12], 0.0, 0.0), _field(huge[3:15, 2:16], 0.0, 0.0)),
        "overflowing_differences": (_field(np.full((10, 10), 1e308), 0.0, 0.0),
                                    _field(np.full((10, 10), -1e308), 9 * _H, 9 * _H)),
        "integer_ties": (_field(tile[:12, :15], 0.0, 0.0), _field(tile[3:14, 1:9], 2 * _H, -_H)),
    }


@pytest.mark.parametrize("name", list(_full_pairs()))
def test_full_rectangles_take_box_sums_and_match_brute_force(monkeypatch, name):
    field1, field2 = _full_pairs()[name]
    assert np.isfinite(field1.values).all() and np.isfinite(field2.values).all()
    calls, sums = [], canonical._window_sums
    monkeypatch.setattr(canonical, "_window_sums", lambda *a: calls.append(1) or sums(*a))
    for tol, min_overlap in ((1e-4, 9), (1e-6, 16)):
        expected = brute_force_match(field1, field2, tol, min_overlap)
        assert compare_curvature_fields(field1, field2, tol, min_overlap) == expected
    assert len(calls) == 2 * 3


def test_one_missing_node_takes_the_masked_transforms(monkeypatch):
    field1, field2 = _full_pairs()["reflected"]
    values = field2.values.copy()
    values[5, 7] = np.nan
    field2 = _field(values, 0.0, 0.0)
    monkeypatch.setattr(canonical, "_window_sums", None)
    match = compare_curvature_fields(field1, field2, tol=1e-12)
    assert match == brute_force_match(field1, field2, tol=1e-12)
    assert match.coincide and match.gauge.eps == -1


def test_full_rectangle_curvature_fields_match_brute_force():
    # g = z keeps |1 - |g|^2| > 0.1 on [-0.4, 0.4]^2, so neither field has a
    # missing node; (+1, 0.025, 0) and (-1, -0.025, 0) match to rounding
    domain, grid = (-0.4, 0.4, -0.4, 0.4), (33, 33)
    field1 = canonical_curvature_field(GeneratingData.canonical(parse("z")), domain, grid)
    field2 = canonical_curvature_field(GeneratingData.canonical(parse("z+0.025")), domain, grid)
    assert np.isfinite(field1.values).all() and np.isfinite(field2.values).all()
    match = compare_curvature_fields(field1, field2)
    assert match == brute_force_match(field1, field2)
    assert match.coincide and match.discrepancy < 1e-12 and match.overlap == 32 * 33
    assert abs(abs(match.gauge.A) - 0.025) < 1e-12 and match.gauge.B == 0.0


def test_window_sums_are_the_direct_sums():
    x = np.random.default_rng(4).normal(size=(7, 9))
    rows = (np.array([0, 2, 3, 6]), np.array([7, 5, 4, 7]))
    cols = (np.array([0, 1, 8, 4, 2]), np.array([9, 3, 9, 6, 8]))
    expect = [[x[r0:r1, c0:c1].sum() for c0, c1 in zip(*cols)] for r0, r1 in zip(*rows)]
    assert np.max(np.abs(canonical._window_sums(x, rows, cols) - expect)) < 1e-12


# fixed edge cases the random families never draw


def _same_as_brute_force(field1, field2):
    match = compare_curvature_fields(field1, field2)
    assert match == brute_force_match(field1, field2)
    assert match.overlap >= 9
    return match


def test_compare_fields_overflowing_differences():
    # every difference 1e308 - (-1e308) overflows, so every discrepancy is inf
    # and |A| + |B| decides; the alignment with the least |A| + |B| at least
    # axis_floor wide shares fewer than min_overlap nodes and must not win
    rng = np.random.default_rng(5)
    v1 = _holes(rng, np.full((10, 10), 1e308), 0.3)
    v2 = _holes(rng, np.full((10, 10), -1e308), 0.3)
    match = _same_as_brute_force(_field(v1, 0.0, 0.0), _field(v2, 9 * _H, 9 * _H))
    assert match.discrepancy == np.inf and not match.coincide


def test_compare_fields_overflowing_squares():
    # |K| ~ 1e160: the squares overflow and every FFT bound is NaN
    rng = np.random.default_rng(6)
    big = _holes(rng, 1e160 * (1.0 + 0.1 * rng.normal(size=(30, 30))), 0.1)
    field1, field2 = _field(big[:14, :12], 0.0, 0.0), _field(big[3:15, 2:16], 0.0, 0.0)
    match = _same_as_brute_force(field1, field2)
    assert match.coincide and match.discrepancy == 0.0 and (match.gauge.A, match.gauge.B) != (0.0, 0.0)


def test_compare_fields_infinite_entries_are_missing():
    rng = np.random.default_rng(7)
    big = rng.normal(size=(30, 30))
    v1, v2 = big[:12, :12].copy(), big[2:14, 5:17].copy()
    # +inf in one field, -inf in the other: most pair with finite nodes
    v1[rng.random(v1.shape) < 0.15] = np.inf
    v2[rng.random(v2.shape) < 0.15] = -np.inf
    match = _same_as_brute_force(_field(v1, 0.0, 0.0), _field(v2, 0.0, 0.0))
    assert match.coincide and match.overlap == int((np.isfinite(v1[2:, 5:]) & np.isfinite(v2[:10, :7])).sum())


def test_compare_fields_unequal_shapes():
    big = np.random.default_rng(8).normal(size=(30, 30))
    field1 = _field(big[4:11, 2:21], 0.0, 0.0)
    field2 = _field(big[0:16, 10:16][::-1, ::-1].copy(), 0.0, 0.0)
    match = _same_as_brute_force(field1, field2)
    assert match.coincide and match.gauge.eps == -1 and match.overlap == 7 * 6


def test_compare_fields_inconclusive_below_min_overlap():
    # eight finite nodes in the first field: no alignment can share nine
    values = np.full((6, 6), np.nan)
    values[1:3, 1:5] = 1.0
    field1, field2 = _field(values, 0.0, 0.0), _field(np.ones((6, 6)), 0.0, 0.0)
    with pytest.raises(InconclusiveOverlap):
        brute_force_match(field1, field2)
    with pytest.raises(InconclusiveOverlap):
        compare_curvature_fields(field1, field2)
