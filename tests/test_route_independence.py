"""Route independence: per-null-value grid evaluation against per-node
evaluation, the affine z(w) against the quadrature inversion, and the exact
curvature-PDE terms against a stencil.

evaluate_surface and forms_grid evaluate every grid expression once per
knot of the grid's null index and gather the results to the nodes.  The
reference below is the per-node route they replaced: expr.eval_null on the
null coordinates of every node of the whole grid (or of the grid rows a
forms block asks for), for the tangents and the null sides alike, and a
null sweep that sorts them itself.  The node coordinates are the index's: the float sums
u + v and u - v, or on square steps the exact lattice p0 + k h.  Both
routes do the same float operations per node, so every array must agree
bit for bit, NaN masks included.

For a symbolically constant f g' canonical._z_sides maps w to z affinely
per null side; with holofn.constant_value patched to see no constant, the
same data take canonical._invert on the same w index, and the two routes
must agree to the inversion's accuracy.

The curvature PDE's m_uu - m_vv, m = ln sqrt|K|, is exact per null side
in canonical_pde_residual; a five-point stencil of m, kept here, must
agree with it to the stencil's own error.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from splitsurf import canonical, holofn, weierstrass
from splitsurf.algebra import from_null, splitc
from splitsurf.geometry import forms_grid
from splitsurf.holofn import MINUS, PLUS, Const, Z, parse
from splitsurf.weierstrass import GeneratingData, Part, SurfacePatch, evaluate_surface


def _per_node_routes(P, Q):
    def sides(index, expr):
        return expr.eval_null(P, PLUS), expr.eval_null(Q, MINUS)

    def tangents(index, exprs, part, rows=None):
        # x_u is the selected part of the two sides, x_v the other part
        p, q = (P, Q) if rows is None else (P[rows], Q[rows])
        a, b = (np.stack([e.eval_null(t, side) for e in exprs], axis=-1) for t, side in ((p, PLUS), (q, MINUS)))
        real, imag = (a + b) / 2.0, (a - b) / 2.0
        xu, xv = (real, imag) if part == Part.REAL else (imag, real)
        return xu, xv, np.isfinite(xu).all(axis=-1) & np.isfinite(xv).all(axis=-1)

    def null_sweep(exprs, index, z0, tol):
        knots, at = zip(*(np.unique(np.append(t, float(t0)), return_inverse=True)
                          for t, t0 in ((P, z0.p), (Q, z0.q))))
        # the same cut at located poles, through the same helper, on knots from the nodes themselves
        swept = weierstrass._sweep_to_poles(exprs, knots, [int(i[-1]) for i in at], tol)
        (fp, reach_p), (fq, reach_q) = ((v.T[i[:-1]].reshape(P.shape + (-1,)), r[i[:-1]].reshape(P.shape))
                                        for (v, r), i in zip(swept, at))
        return (fp, fq), reach_p & reach_q

    return sides, tangents, null_sweep


def _outputs(data, domain, grid):
    patch = evaluate_surface(data, domain, grid)
    out = {"points": patch.points, "valid": patch.valid}
    # the patch's analytic forms, and the fd forms of its points
    for method, source in (("analytic", patch), ("fd", SurfacePatch.from_points(patch.us, patch.vs, patch.points))):
        fg = forms_grid(source)
        for name in ("E", "F", "G", "L", "M", "N", "K", "H", "H_scale", "U", "valid"):
            out["%s.%s" % (method, name)] = getattr(fg, name)
        out[method + ".violations"] = np.array(fg.metric_violations)
    return out


def _num(x):
    return repr(float(x))


@st.composite
def _cases(draw):
    n, m = draw(st.integers(3, 17)), draw(st.integers(3, 17))
    u0 = draw(st.floats(-1.0, 0.5))
    v0 = draw(st.floats(-1.0, 0.5))
    width = draw(st.floats(0.2, 1.5))
    # square steps (the exact null lattice) or independent ones
    height = draw(st.sampled_from([width * (m - 1) / (n - 1), draw(st.floats(0.2, 1.5))]))
    domain = (u0, u0 + width, v0, v0 + height)
    us, vs = np.linspace(domain[0], domain[1], n), np.linspace(domain[2], domain[3], m)
    base = splitc(draw(st.sampled_from([0.0, 0.1, -0.2])), draw(st.sampled_from([0.0, 0.05])))
    # a real constant whose null lines p = c, q = c lie on grid nodes or between them
    on_lattice = float(us[draw(st.integers(0, n - 1))] + vs[draw(st.integers(0, m - 1))])
    c = draw(st.sampled_from([on_lattice, draw(st.floats(-1.5, 1.5))]))
    assume(min(abs(c - base.p), abs(c - base.q)) > 0.05)
    a = _num(draw(st.floats(0.2, 0.8)) * draw(st.sampled_from([-1, 1])))
    coeffs = [_num(draw(st.floats(-1.0, 1.0))) for _ in range(4)]
    cubic = "%s+%s*z+%s*z^2+z^3" % tuple(coeffs[:3])
    g = draw(st.sampled_from([
        "z", "%s+z+%s*z^2" % tuple(coeffs[:2]), cubic, "1/(z-%s)" % _num(c),
        "sqrt(z-%s)" % _num(c), "exp(%s*z)" % a, "(z-%s)^-2" % _num(c),
    ]))
    f = draw(st.sampled_from([
        None, "1", "exp(%s*z)" % a, "exp(%s*z)*(1+%s*z)" % (a, coeffs[3]), "sqrt(z+%s)" % _num(c + 2.0),
        "sqrt(z-%s)" % _num(c), "(z-%s)^-3" % _num(c), "1/(z-%s)" % _num(c),
    ]))
    part = draw(st.sampled_from([Part.REAL, Part.IMAGINARY]))
    data = (GeneratingData.canonical(parse(g), part, base) if f is None
            else GeneratingData.general(parse(f), parse(g), part, base))
    return data, domain, (n, m)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_cases())
def test_per_null_value_evaluation_equals_per_node_evaluation(case):
    data, domain, grid = case
    got = _outputs(data, domain, grid)
    n, m = grid
    index = weierstrass._null_index(np.linspace(*domain[:2], n), np.linspace(*domain[2:], m), data.base_point)
    sides, tangents, null_sweep = _per_node_routes(*(k[a] for k, a in zip(index.knots, index.at)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weierstrass._NullIndex, "sides", sides)
        mp.setattr(weierstrass._NullIndex, "tangents", tangents)
        mp.setattr(weierstrass, "_null_sweep", null_sweep)
        expect = _outputs(data, domain, grid)
    _assert_same_bytes(got, expect)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_cases())
# the v axis starts at an underflowing -1.5e-171: points[0, 0, 2] is a zero
# integral, -0.0 on one route and +0.0 on the other unless evaluate_surface
# gives zero one sign
@example((GeneratingData.general(parse("1"), parse("z")), (0.0, 1.0, -1.4662029370387342e-171, 1.0), (3, 3)))
def test_imaginary_part_is_real_part_of_j_times_f(case):
    # Im Psi(f, g) = Re Psi(J f, g): J f has the null sides (f+, -f-), and
    # the real part of those is (f+ - f-)/2, the imaginary part of f's
    data, domain, grid = case
    assume(data.f is not None)
    got = _outputs(GeneratingData.general(data.f, data.g, Part.IMAGINARY, data.base_point), domain, grid)
    jf = GeneratingData.general(Const(splitc(0.0, 1.0)) * data.f, data.g, Part.REAL, data.base_point)
    _assert_same_bytes(got, _outputs(jf, domain, grid))


def _assert_same_bytes(got, expect):
    for name, value in expect.items():
        assert got[name].shape == value.shape, name
        assert got[name].tobytes() == value.tobytes(), name


@st.composite
def _affine_cases(draw):
    n, m = draw(st.integers(3, 17)), draw(st.integers(3, 17))
    assume(n != m)
    u0, v0 = draw(st.floats(-1.0, 0.5)), draw(st.floats(-1.0, 0.5))
    width = draw(st.floats(0.2, 1.5))
    height = draw(st.sampled_from([width * (m - 1) / (n - 1), draw(st.floats(0.2, 1.5))]))
    off_zero = st.floats(0.05, 0.5).flatmap(lambda x: st.sampled_from([x, -x]))
    z0, w0 = (splitc(draw(off_zero), draw(off_zero)) for _ in range(2))
    # f = c, g = a z + b with both null sides of f g' = c a in [0.1, 10]
    phi = [10.0 ** draw(st.floats(-1.0, 1.0)) for _ in range(2)]
    a = [draw(st.floats(0.3, 3.0)) * draw(st.sampled_from([-1.0, 1.0])) for _ in range(2)]
    c = from_null(phi[0] / a[0], phi[1] / a[1])
    b = splitc(draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5)))
    f, g = Const(c), Const(from_null(*a)) * Z + Const(b)
    sign = draw(st.sampled_from([1, -1]))
    return f, g, z0, w0, (u0, u0 + width, v0, v0 + height), (n, m), sign


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_affine_cases())
def test_affine_sides_equal_the_quadrature_inversion(case):
    f, g, z0, w0, domain, grid, sign = case
    phi = f * g.derivative()
    us, vs = canonical._axes(domain, grid)
    data = GeneratingData.general(f, g, base_point=z0)

    def routes():
        index, _, r = canonical._z_sides(phi, z0, w0, sign, us, vs)
        field = canonical.canonical_curvature_field(data, domain, grid, w0=w0).values
        return [k[at] for k, at in zip(index.knots, index.at)], field, r is not None

    affine, field, is_affine = routes()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(holofn, "constant_value", lambda e: None)
        inverted, expect, was_affine = routes()
    assert is_affine and not was_affine
    for got, ref in zip(affine, inverted):
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        assert np.nanmax(np.abs(got - ref)) < 1e-9
    assert np.array_equal(np.isnan(field), np.isnan(expect))
    assert np.nanmax(np.abs(field - expect) / np.abs(expect), initial=0.0) < 1e-8


@st.composite
def _pde_cases(draw):
    n, m = draw(st.integers(5, 13)), draw(st.integers(5, 13))
    u0, v0 = draw(st.floats(-0.5, 0.5)), draw(st.floats(-0.5, 0.5))
    width = draw(st.floats(0.2, 0.6))
    height = draw(st.sampled_from([width * (m - 1) / (n - 1), draw(st.floats(0.2, 0.6))]))
    # g' = 0 on the null line p = r (and q = r), which crosses the domain
    r = u0 + v0 + draw(st.floats(0.2, 0.8)) * (width + height)
    off_zero = st.floats(0.05, 0.6).flatmap(lambda x: st.sampled_from([x, -x]))
    base = splitc(draw(off_zero), draw(off_zero))
    assume(min(abs(base.p - r), abs(base.q - r)) > 0.05)
    # P = c + (z - r)^2 (b0 + b1 (z - r) + ...), of degree 2 to 6, with a simple critical point r
    degree = draw(st.integers(2, 6))
    b = [draw(st.floats(0.3, 1.0)) * draw(st.sampled_from([-1, 1]))]
    b += [draw(st.floats(-0.5, 0.5)) for _ in range(degree - 2)]
    zr = "(z-%s)" % _num(r)
    poly = "(%s+%s+%sJ)" % (
        "+".join("%s*%s^%d" % (_num(c), zr, k + 2) for k, c in enumerate(b)),
        _num(draw(st.floats(-0.5, 0.5))), _num(draw(st.floats(-0.5, 0.5))))
    g = draw(st.sampled_from([poly, "exp(%s*%s)" % (_num(draw(st.floats(0.2, 0.8))), poly), "sqrt(3+%s)" % poly]))
    return parse(g), base, (u0, u0 + width, v0, v0 + height), (n, m)


def _stencil_m_uu_minus_m_vv(g, P, Q, h):
    """The five-point stencil (-1, 16, -30, 16, -1) / (12 h^2) of
    m = 1/2 ln|-16 (g'+ g'-)^2 / (1 - g+ g-)^4| along u and along v at the
    null coordinates (P, Q), their difference, and its rounding floor: the
    stencil's weights sum to 64 / (12 h^2) in magnitude, times the
    rounding of m at its points.  The functions of p alone and of q alone
    in m take the same points, so their truncation cancels in the
    difference, and their rounding too, term by term."""
    gp = g.derivative()

    def m(p, q):
        k = -16.0 * (gp.eval_null(p, PLUS) * gp.eval_null(q, MINUS)) ** 2
        return 0.5 * np.log(np.abs(k / (1.0 - g.eval_null(p, PLUS) * g.eval_null(q, MINUS)) ** 4))

    weights = {-2: -1.0, -1: 16.0, 0: -30.0, 1: 16.0, 2: -1.0}
    # a point on a null line of g' or a pole leaves the node's values non-finite
    with np.errstate(all="ignore"):
        # along u both null coordinates move by c h, along v they move apart
        along_u = {c: m(P + c * h, Q + c * h) for c in weights}
        along_v = {c: m(P + c * h, Q - c * h) for c in weights}
        uu, vv = (sum(w * ms[c] for c, w in weights.items()) / (12.0 * h * h) for ms in (along_u, along_v))
        largest = np.max(np.abs([*along_u.values(), *along_v.values()]), axis=0)
        return uu - vv, 8.0 * 64.0 / (12.0 * h * h) * np.finfo(float).eps * (4.0 + largest)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_pde_cases())
def test_exact_pde_terms_equal_the_five_point_stencil(case):
    # canonical_pde_residual takes m_uu - m_vv = 8 g'+ g'- / (1 - g+ g-)^2
    # exactly and the branch sigma = sign(g'+ g'-) per node; adding
    # 2 sigma sqrt|K| back must give the stencil's m_uu - m_vv at h = 1e-3,
    # on either part, within the stencil's rounding floor and twice its
    # truncation, which Richardson's |S(2h) - S(h)| / 15 estimates.  A
    # branch taken from the sign of K (-1 on the real part, +1 on the
    # imaginary) is wrong on one part, and misses by 4 sqrt|K|.
    g, base, domain, grid = case
    for part in (Part.REAL, Part.IMAGINARY):
        patch = evaluate_surface(GeneratingData.canonical(g, part, base), domain, grid)
        index = patch._index
        forms = forms_grid(patch)
        gp_sides = index.sides(g.derivative())
        resid = canonical.canonical_pde_residual(forms, index.sides(g), gp_sides, 0.3)
        exact = resid + 2.0 * np.sign(gp_sides[0] * gp_sides[1]) * np.sqrt(np.abs(forms.K))
        P, Q = (k[a] for k, a in zip(index.knots, index.at))
        (stencil, floor), (coarse, _) = (_stencil_m_uu_minus_m_vv(g, P, Q, h) for h in (1e-3, 2e-3))
        judged = np.isfinite(exact) & np.isfinite(stencil) & np.isfinite(coarse)
        assume(np.count_nonzero(judged) >= 4)
        bound = floor[judged] + 2.0 * np.abs(coarse - stencil)[judged] / 15.0
        assert np.all(np.abs(exact - stencil)[judged] <= bound)
