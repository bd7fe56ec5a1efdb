import math
import operator

import numpy as np
import pytest

from splitsurf import algebra, holofn
from splitsurf.algebra import NoSquareRoot, SplitComplex, ZeroDivisor, from_null, splitc
from splitsurf.holofn import (
    Add,
    Const,
    Div,
    DomainError,
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
    antiderivative,
    integrate_path,
    integrate_real,
    integrate_sweep,
    parse,
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
    "text", ["1/(z-0.25)^2 + sqrt(z+0.5)", "(z-0.5)^-3", "1/(1/(z-0.5)+1)"]
)
def test_array_nan_mask_matches_scalar_raising(text):
    # step 1/8 on [-1, 1]^2: the singular null lines p, q in {-0.5, 0.25, 0.5}
    # run through lattice nodes
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


def test_antiderivative_examples():
    anti = antiderivative(parse("z^2"))
    z = splitc(0.9, 0.4)
    assert float((anti.eval(z) - z**3 / 3.0).mag) < 1e-14
    anti2 = antiderivative(parse("exp(2*z)"))
    from splitsurf.algebra import exp as sc_exp

    assert float((anti2.eval(z) - sc_exp(z * 2) / 2.0).mag) < 1e-14
    assert antiderivative(parse("1/(z^2-1)")) is None
    assert antiderivative(parse("sqrt(z+2)")) is None


def test_antiderivative_derivative_roundtrip():
    rng = np.random.default_rng(4)
    exprs = [
        parse("z^3 - 2*z^2 + 7"),
        parse("(z^2 + 1) * exp(-2*z)"),
        parse("exp(z) * exp(z) + z"),
        parse("(1+2J) * z * exp(3*z)"),
    ]
    for f in exprs:
        anti = antiderivative(f)
        assert anti is not None
        for _ in range(10):
            z = splitc(*rng.uniform(-1, 1, 2))
            err = float((anti.derivative().eval(z) - f.eval(z)).mag)
            assert err < 1e-10 * max(1.0, float(f.eval(z).mag))


def test_integrate_path_closed_forms():
    one = parse("1")
    assert float((integrate_path(one, splitc(0), splitc(1, 1)) - splitc(1, 1)).mag) < 1e-14
    zed = parse("z")
    assert float((integrate_path(zed, splitc(0), splitc(2)) - splitc(2)).mag) < 1e-13


def test_integrate_path_quadrature_vs_simpson_oracle():
    # oracle: composite Simpson with 10^6 panels per null coordinate for
    # int_0^1 dz/(z - (3+J)); frozen values below reproduce it to 1e-14 and
    # equal log(3/4) and log(1/2) in the two null coordinates
    expected = from_null(-0.2876820724517809, -0.6931471805599453)
    f = parse("1/(z - (3+1J))")
    assert antiderivative(f) is None  # forces the quadrature route
    got = integrate_path(f, splitc(0), splitc(1), tol=1e-12)
    assert float((got - expected).mag) < 1e-10


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
    direct = integrate_path(f, z0, z1, tol)
    for _ in range(5):
        mid = splitc(*rng.uniform(-0.5, 1.0, 2))
        via = integrate_path(f, z0, mid, tol) + integrate_path(f, mid, z1, tol)
        assert float((direct - via).mag) <= 2 * tol + 1e-12


def test_integrate_path_singular_segment():
    f = parse("1/(z - 0.5)")
    with pytest.raises(DomainError):
        integrate_path(f, splitc(0), splitc(1))


def _path_by_two_real_integrals(f, z0, z1, tol=1e-10):
    # the former integrate_path: one integrate_real call per null side
    vp = integrate_real(lambda t: f.eval_null(t, PLUS), float(z0.p), float(z1.p), tol)
    vq = integrate_real(lambda t: f.eval_null(t, MINUS), float(z0.q), float(z1.q), tol)
    return from_null(vp, vq)


@pytest.mark.parametrize("text, z1", [
    ("sqrt(z + 3)", splitc(0.7, 0.2)),
    ("sqrt(z + 3)", splitc(-0.4, 0.9)),
    ("sqrt(z + 3)", splitc(0.3, 0.3)),  # q side of zero length
    ("1/(z - 0.3)", splitc(0.1, 0.1)),  # the pole lies beyond both ends
    ("1/(z - 0.3)", splitc(-0.2, 0.4)),
])
def test_integrate_path_one_sweep_equals_two_real_integrals(text, z1):
    f = parse(text)
    assert antiderivative(f) is None
    got = integrate_path(f, splitc(0.05, -0.02), z1)
    expect = _path_by_two_real_integrals(f, splitc(0.05, -0.02), z1)
    assert (got.re, got.im) == (expect.re, expect.im)


@pytest.mark.parametrize("z1", [splitc(0.1, 0.4), splitc(0.1, -0.4), splitc(0.5, 0.0)])
def test_integrate_path_raises_where_either_side_fails(z1):
    # 1/(z - 0.3) is singular on p = 0.3 and on q = 0.3: the segment crosses
    # the first line, the second, or both
    f = parse("1/(z - 0.3)")
    with pytest.raises(DomainError) as expect:
        _path_by_two_real_integrals(f, splitc(0), z1)
    with pytest.raises(DomainError) as got:
        integrate_path(f, splitc(0), z1)
    assert str(got.value) == str(expect.value)


def test_integrate_real_basic():
    assert abs(integrate_real(np.sin, 0.0, math.pi) - 2.0) < 1e-10
    assert integrate_real(np.sin, 1.0, 1.0) == 0.0
    assert abs(integrate_real(np.exp, 1.0, 0.0) + (math.e - 1.0)) < 1e-10


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
    # a gap's value is what integrate_real gives on that gap alone
    alone = [integrate_real(lambda t: 1.0 / (t - 0.3), a, b) for a, b in zip(knots, knots[1:6])]
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
    # smooth components agree with integrate_real from the origin, one by one
    values, reach = integrate_sweep(lambda t: [np.cos(t), np.exp(-t * t)], knots, 4)
    assert reach.all()
    for k, fun in enumerate((np.cos, lambda t: np.exp(-t * t))):
        alone = [integrate_real(fun, 0.0, b) for b in knots]
        assert np.max(np.abs(values[k] - alone)) < 1e-10


def test_integrate_real_gives_up_within_the_panel_budget():
    # 1/(t - c)^2 near a pole 5e-6 outside [1/4, 1/2]: the integral is ~2e5,
    # so the absolute tol lies below its roundoff; the bounded search raises
    with pytest.raises(DomainError):
        integrate_real(lambda t: 1.0 / (t - 0.249995) ** 2, 0.25, 0.5)
    # a singular integrand met by the batch is a DomainError, not ZeroDivisor
    with pytest.raises(DomainError):
        integrate_real(lambda t: parse("1/z").eval_null(t, holofn.PLUS), -1.0, 1.0)


def test_parse_constant():
    assert holofn.parse_constant("0.2+0.1J") == splitc(0.2, 0.1)
    assert holofn.parse_constant("-1") == splitc(-1)
    assert holofn.parse_constant("2*3") == splitc(6)
    with pytest.raises(ValueError):
        holofn.parse_constant("z+1")
