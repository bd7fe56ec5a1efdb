import math
import operator

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from splitsurf import algebra, holofn
from splitsurf.algebra import NoSquareRoot, SplitComplex, ZeroDivisor, from_null, splitc
from splitsurf.holofn import (
    Add,
    Const,
    Div,
    Exp,
    ExprSyntaxError,
    Mul,
    Neg,
    Pow,
    Sqrt,
    Sub,
    Var,
    MINUS,
    PLUS,
    Z,
    integrate_sweep,
    parse,
    pole_gaps,
)


def test_parse_basics():
    assert parse("z") == Var()
    tree = parse("(2J)*z^2 + exp(z)")
    assert tree == Add(Mul(Const(splitc(0, 2)), Pow(Var(), 2)), Exp(Var()))


def test_parse_error_offset():
    with pytest.raises(ExprSyntaxError) as err:
        parse("z +")
    assert err.value.offset == 3
    assert err.value.expected
    with pytest.raises(ExprSyntaxError):
        parse("exp z")
    with pytest.raises(ExprSyntaxError):
        parse("z ^ 2.5")


_ROUNDTRIP_CASES = [
    "z",
    "1.5+2.5J * z",
    "(1.5+2.5J) * z",
    "-z^2",
    "(z + 1.0) / (z - 1.0)",
    "exp(2.0 * z) * sqrt(z + 4.0)",
    "z^-2 - 3.0J",
    "1.0 - -z",
    "(2J)*z^2 + exp(z)",
]


@pytest.mark.parametrize("text", _ROUNDTRIP_CASES)
def test_print_parse_roundtrip(text):
    tree = parse(text)
    assert parse(str(tree)) == tree


def test_eval_examples():
    assert parse("z^2").eval(splitc(1, 1)) == splitc(2, 2)
    assert parse("exp(z)").eval(splitc(0)) == splitc(1)
    with pytest.raises(ZeroDivisor):
        parse("1/z").eval(splitc(1, 1))


@pytest.mark.parametrize(
    "text", ["1/(z-0.25)^2 + sqrt(z+0.5)", "(z-0.5)^-3", "1/(1/(z-0.5)+1)", "(z-1e-307)^-2", "1/(z-1e-310)"]
)
def test_array_nan_mask_matches_scalar_raising(text):
    # step 1/8 on [-1, 1]^2: the singular null lines p, q in {-0.5, 0.25, 0.5}
    # run through lattice nodes, and those at 1e-307 and 1e-310 so close to
    # p, q = 0 that the discarded values would overflow
    e = parse(text)
    us = np.linspace(-1.0, 1.0, 17)
    U, V = np.meshgrid(us, us, indexing="ij")
    with np.errstate(all="raise"):
        vals = e.eval(SplitComplex(U, V))
    masked = np.isnan(vals.re) | np.isnan(vals.im)
    raised = np.zeros(U.shape, bool)
    for i, j in np.ndindex(U.shape):
        try:
            v = e.eval(splitc(U[i, j], V[i, j]))
        except (ZeroDivisor, NoSquareRoot):
            raised[i, j] = True
            continue
        assert v.re == vals.re[i, j] and v.im == vals.im[i, j]
    assert raised.any() and not raised.all()
    assert np.array_equal(masked, raised)


@pytest.mark.parametrize(
    "text, t, error",
    [("1/(z-1)", 1.0, ZeroDivisor), ("z^-2", 0.0, ZeroDivisor), ("sqrt(z)", -1.0, NoSquareRoot)],
)
def test_scalar_eval_null_raises_array_masks(text, t, error):
    e = parse(text)
    with pytest.raises(error):
        e.eval_null(t, holofn.PLUS)
    out = e.eval_null(np.array([t, 4.0]), holofn.PLUS)
    assert np.isnan(out[0]) and np.isfinite(out[1])


def test_operators_build_the_smart_constructor_nodes():
    one, zero = Const(splitc(1.0)), Const(splitc(0.0))
    assert Z * one is Z and one * Z is Z
    assert Z + zero is Z and Z - zero is Z and Z / one is Z
    assert -(-Z) is Z
    assert Z**1 is Z and Z**0 == one
    assert Const(splitc(2.0)) * Const(splitc(3.0)) == Const(splitc(6.0))
    assert zero - Z == Neg(Z)
    assert Z / (Z + one) == Div(Z, Add(Z, one))
    assert (Z - one) ** -2 == parse("(z-1)^-2")
    assert Z * Const(splitc(2.0)) == parse("z*2")
    assert Sqrt(Z) ** 2 == Pow(Sqrt(Z), 2)
    with pytest.raises(TypeError):
        Z**0.5


def _direct(e, z):
    """e at z by plain split-complex arithmetic, one tree node at a time."""
    binary = {Add: operator.add, Sub: operator.sub, Mul: operator.mul, Div: operator.truediv}
    if isinstance(e, Const):
        return e.value
    if isinstance(e, Var):
        return z
    if type(e) in binary:
        return binary[type(e)](_direct(e.a, z), _direct(e.b, z))
    if isinstance(e, Neg):
        return -_direct(e.a, z)
    if isinstance(e, Pow):
        return _direct(e.base, z) ** e.n
    return {Exp: algebra.exp, Sqrt: algebra.sqrt}[type(e)](_direct(e.a, z))


def test_eval_null_decomposition_matches_direct():
    rng = np.random.default_rng(2)
    f = parse("exp(z) * (z^2 - 3) / (z + 10) + sqrt(z + 9) - (z - 4)^-2")
    for _ in range(50):
        z = splitc(*rng.uniform(-2, 2, 2))
        direct = _direct(f, z)
        vianull = f.eval(z)
        assert float((direct - vianull).mag) < 1e-12 * max(1.0, float(direct.mag))


def test_derivative_examples():
    two_z = parse("z^2").derivative()
    z = splitc(0.7, -0.2)
    assert float((two_z.eval(z) - z * 2).mag) < 1e-14
    d = parse("exp(3*z)").derivative()
    expect = parse("3*exp(3*z)")
    assert float((d.eval(z) - expect.eval(z)).mag) < 1e-14


def test_derivative_finite_difference_oracle():
    # the evaluation point must stay off the null lines of the denominator,
    # so z = 2 + 0.5J rather than a point with q(z-1) = 0
    f = parse("(z+1)/(z-1)")
    z = splitc(2.0, 0.5)
    h = 1e-5
    fd = (f.eval(z + splitc(h)) - f.eval(z - splitc(h))) / (2 * h)
    sym = f.derivative().eval(z)
    assert float((fd - sym).mag) < 1e-8


def test_hyperbolic_cauchy_riemann():
    rng = np.random.default_rng(3)
    exprs = [
        parse("z^3 - 2*z + 1"),
        parse("exp(z) * z"),
        parse("(z + 5) / (z - 5)"),
        parse("sqrt(z + 8)"),
    ]
    h = 1e-5
    for f in exprs:
        for _ in range(20):
            u, v = rng.uniform(-1.5, 1.5, 2)

            def val(uu, vv):
                return f.eval(splitc(uu, vv))

            xu = (val(u + h, v).re - val(u - h, v).re) / (2 * h)
            yu = (val(u + h, v).im - val(u - h, v).im) / (2 * h)
            xv = (val(u, v + h).re - val(u, v - h).re) / (2 * h)
            yv = (val(u, v + h).im - val(u, v - h).im) / (2 * h)
            grad = max(abs(xu), abs(yu), abs(xv), abs(yv))
            assert abs(xu - yv) < 1e-6 * max(1.0, grad)
            assert abs(xv - yu) < 1e-6 * max(1.0, grad)


def _one_gap(fun, a, b, tol=1e-10):
    """(integral of fun from a to b, whether it converged) from a one-gap integrate_sweep."""
    origin = int(b < a)
    values, reachable = integrate_sweep(fun, sorted((a, b)), origin, tol)
    return float(values[1 - origin]), bool(reachable[1 - origin])


def _sides(z0, z1):
    return (PLUS, float(z0.p), float(z1.p)), (MINUS, float(z0.q), float(z1.q))


def _segment(f, z0, z1, tol=1e-10):
    """Per null side, the integral of f along the segment [z0, z1] and whether
    it converged: one integrate_sweep call per null side."""
    return tuple(zip(*(_one_gap(lambda t: f.eval_null(t, side), a, b, tol) for side, a, b in _sides(z0, z1))))


def _segment_in_one_sweep(f, z0, z1, tol=1e-10):
    """_segment with both null sides as the problems of one integrate_sweep call."""
    sides = _sides(z0, z1)
    funs = [lambda t, side=side: f.eval_null(t, side) for side, _, _ in sides]
    runs = integrate_sweep(funs, [sorted((a, b)) for _, a, b in sides], [int(b < a) for _, a, b in sides], tol)
    return tuple(zip(*((float(v[int(a <= b)]), bool(r[int(a <= b)])) for (v, r), (_, a, b) in zip(runs, sides))))


def test_integrate_path_closed_forms():
    one = parse("1")
    value, reach = _segment(one, splitc(0), splitc(1, 1))
    assert reach == (True, True) and float((from_null(*value) - splitc(1, 1)).mag) < 1e-14
    zed = parse("z")
    value, reach = _segment(zed, splitc(0), splitc(2))
    assert reach == (True, True) and float((from_null(*value) - splitc(2)).mag) < 1e-13


def test_integrate_path_quadrature_vs_simpson_oracle():
    # oracle: composite Simpson with 10^6 panels per null coordinate for
    # int_0^1 dz/(z - (3+J)); frozen values below reproduce it to 1e-14 and
    # equal log(3/4) and log(1/2) in the two null coordinates
    expected = from_null(-0.2876820724517809, -0.6931471805599453)
    f = parse("1/(z - (3+1J))")
    got, reach = _segment(f, splitc(0), splitc(1), tol=1e-12)
    assert reach == (True, True) and float((from_null(*got) - expected).mag) < 1e-10


def test_simpson_oracle_reproduces_frozen_values():
    def simpson(fun, a, b, panels=10**6):
        xs = np.linspace(a, b, 2 * panels + 1)
        w = np.ones(len(xs))
        w[1:-1:2] = 4.0
        w[2:-1:2] = 2.0
        return (b - a) / (6.0 * panels) * float(np.dot(w, fun(xs)))

    assert abs(simpson(lambda p: 1.0 / (p - 4.0), 0.0, 1.0) - (-0.2876820724517809)) < 1e-13
    assert abs(simpson(lambda q: 1.0 / (q - 2.0), 0.0, 1.0) - (-0.6931471805599453)) < 1e-13


def test_path_independence():
    rng = np.random.default_rng(5)
    f = parse("1/(z - (4+1J))")
    tol = 1e-10
    z0, z1 = splitc(0), splitc(1, 0.5)
    direct = from_null(*_segment(f, z0, z1, tol)[0])
    for _ in range(5):
        mid = splitc(*rng.uniform(-0.5, 1.0, 2))
        via = from_null(*_segment(f, z0, mid, tol)[0]) + from_null(*_segment(f, mid, z1, tol)[0])
        assert float((direct - via).mag) <= 2 * tol + 1e-12


def test_integrate_path_singular_segment():
    # 1/(z - 0.5) is singular on p = 0.5 and on q = 0.5, which both sides cross
    f = parse("1/(z - 0.5)")
    assert _segment(f, splitc(0), splitc(1))[1] == (False, False)


@pytest.mark.parametrize("text, z1", [
    ("sqrt(z + 3)", splitc(0.7, 0.2)),
    ("sqrt(z + 3)", splitc(-0.4, 0.9)),
    ("sqrt(z + 3)", splitc(0.3, 0.3)),  # q side of zero length
    ("1/(z - 0.3)", splitc(0.1, 0.1)),  # the pole lies beyond both ends
    ("1/(z - 0.3)", splitc(-0.2, 0.4)),
])
def test_integrate_path_one_sweep_equals_two_real_integrals(text, z1):
    f = parse(text)
    got, got_reach = _segment_in_one_sweep(f, splitc(0.05, -0.02), z1)
    expect, expect_reach = _segment(f, splitc(0.05, -0.02), z1)
    assert got_reach == expect_reach == (True, True)
    assert got == expect


@pytest.mark.parametrize("z1, reach", [
    (splitc(0.1, 0.4), (False, True)),
    (splitc(0.1, -0.4), (True, False)),
    (splitc(0.5, 0.0), (False, False)),
], ids=["p_crosses", "q_crosses", "both_cross"])
def test_path_unreachable_where_either_side_fails(z1, reach):
    # 1/(z - 0.3) is singular on p = 0.3 and on q = 0.3: the segment crosses
    # the first line, the second, or both
    f = parse("1/(z - 0.3)")
    got, got_reach = _segment_in_one_sweep(f, splitc(0), z1)
    expect, expect_reach = _segment(f, splitc(0), z1)
    assert got_reach == expect_reach == reach
    # a side that converged has the same bits on both routes, and one that
    # did not is NaN on both
    assert np.array_equal(got, expect, equal_nan=True)
    assert np.array_equal(np.isnan(got), np.logical_not(reach))


def test_integrate_real_basic():
    assert abs(_one_gap(np.sin, 0.0, math.pi)[0] - 2.0) < 1e-10
    assert _one_gap(np.sin, 1.0, 1.0) == (0.0, True)
    assert abs(_one_gap(np.exp, 1.0, 0.0)[0] + (math.e - 1.0)) < 1e-10


def test_gauss_kronrod_rules_exact_on_monomials():
    # K15 integrates t^k exactly for k <= 3*7+1, its embedded G7 for k <= 2*7-1
    for weights, degree in ((holofn._GK_WK, 22), (holofn._GK_WG, 13)):
        for k in range(degree + 1):
            exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
            got = float(np.dot(weights, holofn._GK_NODES**k))
            assert abs(got - exact) <= 1e-15 * max(exact, 1.0), (k, got - exact)
    # G7 is inexact from degree 14 on, so |K15 - G7| sees the error there
    assert abs(float(np.dot(holofn._GK_WG, holofn._GK_NODES**14)) - 2.0 / 15) > 1e-4


def test_integrate_sweep_blocks_knots_beyond_a_failed_gap():
    # 1/(t - 0.3) is not integrable across 0.3, which lies in the gap
    # [0.25, 0.5]; knots beyond it, seen from the origin t = 0, are unreachable
    knots = np.linspace(-1.0, 1.0, 9)
    values, reach = integrate_sweep(lambda t: 1.0 / (t - 0.3), knots, 4)
    assert np.array_equal(reach, knots < 0.3)
    assert np.all(np.isnan(values[~reach]))
    exact = np.log(np.abs(knots[reach] - 0.3)) - np.log(0.3)
    assert np.max(np.abs(values[reach] - exact)) < 1e-10
    # a gap's value is what a one-gap sweep gives on that gap alone
    alone = [_one_gap(lambda t: 1.0 / (t - 0.3), a, b)[0] for a, b in zip(knots, knots[1:6])]
    assert np.max(np.abs(np.diff(values[:6]) - alone)) < 1e-14


def test_integrate_sweep_batch_equals_problems_run_alone():
    # a smooth problem and one whose gap [0.25, 0.5] holds the pole of
    # 1/(t - 0.3), left of its origin t = 1, with different knots, in one call
    smooth = (np.cos, np.linspace(-2.0, 1.0, 13), 7)
    pole = (lambda t: 1.0 / (t - 0.3), np.linspace(-1.0, 1.0, 9), 8)
    batch = integrate_sweep(*zip(smooth, pole))
    for (fun, knots, origin), (values, reach) in zip((smooth, pole), batch):
        alone, reach_alone = integrate_sweep(fun, knots, origin)
        assert np.array_equal(reach, reach_alone)
        assert np.max(np.abs(values[reach] - alone[reach])) < 1e-14
        assert np.all(np.isnan(values[~reach]))
    # the failed gap blocks only the knots of its own problem
    assert batch[0][1].all()
    assert np.array_equal(batch[1][1], pole[1] > 0.3)


def test_integrate_sweep_components_share_panels():
    knots = np.linspace(-1.0, 1.0, 9)
    values, reach = integrate_sweep(lambda t: [np.cos(t), 1.0 / (t - 0.3)], knots, 4)
    # the gap holding the pole fails for both components
    assert values.shape == (2, 9)
    assert np.array_equal(reach, knots < 0.3)
    assert np.all(np.isnan(values[:, ~reach]))
    assert np.max(np.abs(values[0, reach] - (np.sin(knots[reach]) - np.sin(0.0)))) < 1e-10
    # smooth components agree with one-gap sweeps from the origin, one by one
    values, reach = integrate_sweep(lambda t: [np.cos(t), np.exp(-t * t)], knots, 4)
    assert reach.all()
    for k, fun in enumerate((np.cos, lambda t: np.exp(-t * t))):
        alone = [_one_gap(fun, 0.0, b)[0] for b in knots]
        assert np.max(np.abs(values[k] - alone)) < 1e-10


def test_integrate_real_gives_up_within_the_panel_budget():
    # 1/(t - c)^2 near a pole 5e-6 outside [1/4, 1/2]: the integral is ~2e5,
    # so the absolute tol lies below its roundoff; the bounded search gives up
    values, reachable = integrate_sweep(lambda t: 1.0 / (t - 0.249995) ** 2, [0.25, 0.5], 0)
    assert not reachable[1] and np.isnan(values[1])
    # a singular integrand met by the batch makes its gap unreachable, not ZeroDivisor
    values, reachable = integrate_sweep(lambda t: parse("1/z").eval_null(t, holofn.PLUS), [-1.0, 1.0], 0)
    assert not reachable[1] and np.isnan(values[1])


@pytest.mark.parametrize("expr, side, marked", [
    # gap 10 is [0.25, 0.375]; a pole of order 1, 2 or 3 there, alone or
    # in a product, or as the zero of exp(t) - 1.35, fails it at once
    ("1/(z-0.3)", PLUS, [10]),
    ("(z-0.3)^-2", PLUS, [10]),
    ("exp(z)/(2*(z-0.3)^3)", PLUS, [10]),
    ("1/((z-0.3)*(z+0.7))", PLUS, [2, 10]),
    ("1/(exp(z)-1.35)", PLUS, [10]),
    # a zero exactly on the knot 1/4 stands for both gaps next to it
    ("1/(z-0.25)", PLUS, [9, 10]),
    # p = 0.4 and q = 0.2 of the constant 0.3 + 0.1J, one per side
    ("1/(z-(0.3+0.1J))", PLUS, [11]),
    ("1/(z-(0.3+0.1J))", MINUS, [9]),
    # removable zeros do not grow
    ("(z-0.3)/(z-0.3)", PLUS, []),
    ("(z-0.3)^2/(z-0.3)", PLUS, []),
    # a NaN probe, no sign change, an order-1/2 branch point, no real zero: the sweep decides
    ("sqrt(z-0.3)/(z-0.3)", PLUS, []),
    ("1/sqrt(z-0.3)", PLUS, []),
    ("sqrt(sqrt((z-0.3)^2))/(z-0.3)", PLUS, []),
    ("1/(z^2+0.01)", PLUS, []),
    # two zeros of one factor in one gap show no sign change
    ("1/((z-0.3)*(z-0.31))", PLUS, [10]),
    ("1/(z^2-0.61*z+0.093)", PLUS, []),
])
def test_pole_gaps_marks_the_gaps_of_located_poles(expr, side, marked):
    knots = np.linspace(-1.0, 1.0, 17)
    with np.errstate(all="raise"):
        got = pole_gaps([parse(expr), parse("z")], knots, side)
    assert got.shape == (16,)
    assert np.flatnonzero(got).tolist() == marked


def test_pole_gaps_marks_a_pole_within_rounding_of_a_knot():
    # 0.3 lies 5.6e-17 below the knot 0.1 + 0.2: the zero counts as on the
    # knot, and both gaps next to it hold the pole
    knots = np.array([0.0, 0.1 + 0.2, 0.5])
    assert pole_gaps([parse("1/(z-0.3)")], knots, PLUS).tolist() == [True, True]
    # and the lattice knot 0.30000000000000027, five ulps above the pole
    knots = np.linspace(-2.0, 2.0, 161)
    assert np.flatnonzero(pole_gaps([parse("1/(z-0.3)")], knots, PLUS)).tolist() == [91, 92]
    # within NULL_EPS max(1, |knot|) = 1e-12 of the knot, on either side
    for knot in (0.3 - 9e-13, 0.3 + 9e-13):
        assert pole_gaps([parse("1/(z-0.3)")], np.array([0.0, knot, 0.5]), PLUS).tolist() == [True, True]
    # one knot and no gap, with the factor zero on it
    assert pole_gaps([parse("1/(z-0.3)")], np.array([0.3]), PLUS).shape == (0,)


def test_parse_constant():
    assert holofn.parse_constant("0.2+0.1J") == splitc(0.2, 0.1)
    assert holofn.parse_constant("-1") == splitc(-1)
    assert holofn.parse_constant("2*3") == splitc(6)
    with pytest.raises(ValueError):
        holofn.parse_constant("z+1")


# ---------------------------------------------------------------------------
# the polynomial fragment
# ---------------------------------------------------------------------------


def _const(p, q):
    return Const(from_null(p, q))


_side = st.floats(-2.0, 2.0)
# a divisor's null coordinates may differ by a factor 2000 in magnitude: the
# fragment divides each side by its own, as eval_null does
_far = st.floats(1e-3, 2.0) | st.floats(-2.0, -1e-3)
_divisors = st.builds(_const, _far, _far) | st.builds(Exp, st.builds(_const, *[st.floats(-0.5, 0.5)] * 2))
_leaves = st.one_of(
    st.just(Z),
    st.builds(_const, _side, _side),
    st.builds(Exp, st.builds(_const, _side, _side)),
    # radicands up to the null lines: the fragment takes each side's root
    st.builds(Sqrt, st.builds(_const, st.floats(0.0, 2.0), st.floats(0.0, 2.0))),
)
# built from the node classes, so that no constant is folded away
_poly_trees = st.recursive(_leaves, lambda sub: st.one_of(
    st.builds(Add, sub, sub),
    st.builds(Sub, sub, sub),
    st.builds(Mul, sub, sub),
    st.builds(Neg, sub),
    st.builds(Div, sub, _divisors),
    st.builds(Pow, sub, st.integers(0, 3)),
    st.builds(Pow, _divisors, st.integers(-3, -1)),
), max_leaves=12)


def _magnitude(e, t, side):
    """A bound on |e| on one null side at t: the sum of |every term| before cancellation."""
    if isinstance(e, Var):
        return abs(t)
    if isinstance(e, (Add, Sub)):
        return _magnitude(e.a, t, side) + _magnitude(e.b, t, side)
    if isinstance(e, Mul):
        return _magnitude(e.a, t, side) * _magnitude(e.b, t, side)
    if isinstance(e, Neg):
        return _magnitude(e.a, t, side)
    if isinstance(e, Div):
        return _magnitude(e.a, t, side) / abs(e.b.eval_null(t, side))
    if isinstance(e, Pow) and e.n >= 0:
        return _magnitude(e.base, t, side) ** e.n
    return abs(e.eval_null(t, side))  # a constant


@settings(max_examples=200, deadline=None)
@given(_poly_trees)
def test_expr_to_poly_matches_evaluation(e):
    poly = holofn.expr_to_poly(e)
    assume(poly is not None)  # a power above degree 64
    for z in (splitc(0.3, -0.2), splitc(-1.1, 0.4), splitc(0.7, 0.9)):
        got, want = poly(z), e.eval(z)
        if np.all(np.isfinite([got.re, got.im, want.re, want.im])):
            scale = max(1.0, _magnitude(e, z.p, PLUS), _magnitude(e, z.q, MINUS))
            assert abs(got.re - want.re) <= 1e-12 * scale
            assert abs(got.im - want.im) <= 1e-12 * scale


@pytest.mark.parametrize("text", ["exp(z)*exp(-z)", "exp(2*z)/exp(2*z)", "exp(z)-exp(z)+z"])
def test_expr_to_poly_leaves_exp_of_z_out(text):
    # equal to a polynomial, but only through exp(a z) terms that cancel
    assert holofn.expr_to_poly(parse(text)) is None
    assert holofn.constant_value(parse(text)) is None


def test_expr_to_poly_degree_cap():
    assert holofn.expr_to_poly(parse("(z+1)^64")).degree == 64
    assert holofn.expr_to_poly(parse("(z+1)^65")) is None


def test_constant_value():
    assert holofn.constant_value(parse("(z+1)^2 - z^2 - 2*z")) == splitc(1.0)
    assert holofn.constant_value(parse("z - z")) == splitc(0.0)
    assert holofn.constant_value(parse("z/2 + 1")) is None
    assert holofn.constant_value(parse("1/(z+1)")) is None
