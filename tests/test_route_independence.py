"""Route independence: per-null-value grid evaluation against per-node evaluation.

evaluate_surface and forms_grid evaluate every grid expression once per
distinct value of p = u+v and q = u-v and gather the results to the nodes.
The reference below is the per-node route they replaced: expr.eval_null on
the node sums and differences of the whole grid, and a null sweep that sorts
the grid itself.  Both routes do the same float operations per node, so
every array must agree bit for bit, NaN masks included.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from splitsurf import geometry, weierstrass
from splitsurf.algebra import SplitComplex, splitc
from splitsurf.geometry import forms_grid
from splitsurf.holofn import MINUS, PLUS, Const, parse
from splitsurf.weierstrass import GeneratingData, Part, evaluate_surface


def _per_node_routes(zg):
    def sides(index, expr):
        return expr.eval_null(zg.p, PLUS), expr.eval_null(zg.q, MINUS)

    def null_sweep(exprs, index, z0, tol):
        knots, at = zip(*(np.unique(np.append(t, float(t0)), return_inverse=True)
                          for t, t0 in ((zg.p, z0.p), (zg.q, z0.q))))
        # the same cut at located poles, through the same helper, on knots from the grid itself
        swept = weierstrass._sweep_to_poles(exprs, knots, [int(i[-1]) for i in at], tol)
        (fp, reach_p), (fq, reach_q) = ((v.T[i[:-1]].reshape(zg.shape + (-1,)), r[i[:-1]].reshape(zg.shape))
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
    domain = (u0, u0 + draw(st.floats(0.2, 1.5)), v0, v0 + draw(st.floats(0.2, 1.5)))
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
    U, V = np.meshgrid(np.linspace(domain[0], domain[1], n), np.linspace(domain[2], domain[3], m), indexing="ij")
    sides, null_sweep = _per_node_routes(SplitComplex(U, V))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(weierstrass._NullIndex, "sides", sides)
        mp.setattr(weierstrass, "_null_sweep", null_sweep)
        expect = _outputs(data, domain, grid)
    _assert_same_bytes(got, expect)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(_cases())
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
