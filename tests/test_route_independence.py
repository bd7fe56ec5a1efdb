"""Route independence: per-null-value grid evaluation against per-node
evaluation, and the affine z(w) against the quadrature inversion.

evaluate_surface and forms_grid evaluate every grid expression once per
knot of the grid's null index and gather the results to the nodes.  The
reference below is the per-node route they replaced: expr.eval_null on the
null coordinates of every node of the whole grid, and a null sweep that
sorts them itself.  The node coordinates are the index's: the float sums
u + v and u - v, or on square steps the exact lattice p0 + k h.  Both
routes do the same float operations per node, so every array must agree
bit for bit, NaN masks included.

For a symbolically constant f g' canonical._z_sides maps w to z affinely
per null side; with holofn.constant_value patched to see no constant, the
same data take canonical._invert on the same w index, and the two routes
must agree to the inversion's accuracy.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from splitsurf import canonical, geometry, holofn, weierstrass
from splitsurf.algebra import from_null, splitc
from splitsurf.geometry import forms_grid
from splitsurf.holofn import MINUS, PLUS, Const, Z, parse
from splitsurf.weierstrass import GeneratingData, Part, evaluate_surface


def _per_node_routes(P, Q):
    def sides(index, expr):
        return expr.eval_null(P, PLUS), expr.eval_null(Q, MINUS)

    def null_sweep(exprs, index, z0, tol):
        knots, at = zip(*(np.unique(np.append(t, float(t0)), return_inverse=True)
                          for t, t0 in ((P, z0.p), (Q, z0.q))))
        # the same cut at located poles, through the same helper, on knots from the nodes themselves
        swept = weierstrass._sweep_to_poles(exprs, knots, [int(i[-1]) for i in at], tol)
        (fp, reach_p), (fq, reach_q) = ((v.T[i[:-1]].reshape(P.shape + (-1,)), r[i[:-1]].reshape(P.shape))
                                        for (v, r), i in zip(swept, at))
        return (fp, fq), reach_p & reach_q

    return sides, null_sweep


def _outputs(data, domain, grid):
    patch = evaluate_surface(data, domain, grid)
    out = {"points": patch.points, "valid": patch.valid}
    derived = geometry._resolve_method
    for method in ("auto", "analytic", "fd"):
        # the stencil comes from the patch: force each one in turn
        if method != "auto":
            geometry._resolve_method = lambda patch, method=method: method
        try:
            fg = forms_grid(patch)
        finally:
            geometry._resolve_method = derived
        for name in ("E", "F", "G", "L", "M", "N", "K", "H", "U", "valid"):
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
    sides, null_sweep = _per_node_routes(*(k[a] for k, a in zip(index.knots, index.at)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weierstrass._NullIndex, "sides", sides)
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
