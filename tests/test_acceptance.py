"""Acceptance suite: one test per release criterion, each printing a
[PASS]/[FAIL] line with the measured quantity against its pinned tolerance."""

import time

import numpy as np

from splitsurf.algebra import SplitComplex, ZeroDivisor, from_null, splitc
from splitsurf.holofn import expr_to_poly, parse
from splitsurf.geometry import forms_grid
from splitsurf.weierstrass import GeneratingData, Part, evaluate_surface
from splitsurf.canonical import canonicalize, verify_canonical_coefficients
from splitsurf.equivalence import (
    MoebiusParams,
    moebius_transform,
    motion_witness,
    surfaces_coincide,
    witness_discrepancy,
)
from splitsurf.classify import (
    CubicParametrization,
    NotMinimalError,
    Verdict,
    classify_cubic,
    extract_pair,
    lift_to_curve,
)

from conftest import enneper_x, enneper_y, pde_residual


def _report(criterion, ok, detail):
    print("[%s] criterion %s: %s" % ("PASS" if ok else "FAIL", criterion, detail))
    assert ok, "criterion %s failed: %s" % (criterion, detail)


def _random_moebius(rng):
    phi = rng.uniform(-1.0, 1.0)
    while True:
        a, b = rng.uniform(-0.6, 0.6, 2)
        if abs(a * a - b * b) <= 0.5:
            return MoebiusParams(phi, splitc(a, b), sign=int(rng.choice([1, -1])))


def test_criterion_1_enneper_closed_form():
    start = time.perf_counter()
    dom, grid = (-0.9, 0.9, -0.9, 0.9), (37, 37)
    patch = evaluate_surface(GeneratingData.general(parse("1"), parse("z")), dom, grid)
    U, V = np.meshgrid(patch.us, patch.vs, indexing="ij")
    err_x = float(np.nanmax(np.abs(patch.points - enneper_x(U, V))))
    patch_im = evaluate_surface(
        GeneratingData.general(parse("1"), parse("z"), part=Part.IMAGINARY), dom, grid
    )
    err_y = float(np.nanmax(np.abs(patch_im.points - enneper_y(U, V))))
    elapsed = time.perf_counter() - start
    ok = err_x < 1e-8 and err_y < 1e-8 and np.all(patch.valid) and elapsed < 5.0
    _report(
        1,
        ok,
        "closed-form deviation real %.3e / imaginary %.3e (tol 1e-8), %.2fs (< 5s)"
        % (err_x, err_y, elapsed),
    )


def test_criterion_2_minimality():
    # grid steps pinned at h = 0.05 in both directions; the forms are
    # analytic at every node, the grid's edges included
    cases = [
        (GeneratingData.general(parse("1"), parse("z")), (-0.9, 0.9, -0.9, 0.9), (37, 37)),
        (GeneratingData.general(parse("exp(z)"), parse("exp(z)")), (0.2, 1.2, -0.5, 0.5), (21, 21)),
        (
            GeneratingData.general(parse("(z+2)^2"), parse("(z+1)/(z+2)")),
            (-0.5, 0.5, -0.5, 0.5),
            (21, 21),
        ),
    ]
    worst = 0.0
    for data, dom, grid_dims in cases:
        patch = evaluate_surface(data, dom, grid_dims)
        assert abs(patch.h_u - 0.05) < 1e-12 and abs(patch.h_v - 0.05) < 1e-12
        grid = forms_grid(patch)
        assert grid.method == "analytic" and np.all(grid.valid[[0, -1]])
        worst = max(worst, float(np.nanmax(np.abs(grid.H))))
    _report(2, worst < 1e-6, "max |H| over three datasets %.3e (tol 1e-6)" % worst)


def test_criterion_3_canonical_coefficients():
    dom, grid_dims = (-0.4, 0.4, -0.4, 0.4), (17, 17)
    patch = evaluate_surface(GeneratingData.canonical(parse("z")), dom, grid_dims)
    U, V = np.meshgrid(patch.us, patch.vs, indexing="ij")
    gate = np.abs(1.0 - (U**2 - V**2)) > 0.3
    rep = verify_canonical_coefficients(patch, gate=gate)
    assert np.all(rep.branch[rep.valid] == -1)
    principal = rep.summary()["max_residual"]

    patch_im = evaluate_surface(
        GeneratingData.canonical(parse("z"), part=Part.IMAGINARY), dom, grid_dims
    )
    rep_im = verify_canonical_coefficients(patch_im, gate=gate)
    assert np.all(rep_im.branch[rep_im.valid] == +1)
    asymptotic = max(
        float(np.nanmax(rep_im.residuals["L"])),
        float(np.nanmax(rep_im.residuals["M"])),
        float(np.nanmax(rep_im.residuals["N"])),
    )
    ok = principal < 1e-4 and asymptotic < 1e-4
    _report(
        3,
        ok,
        "principal residual %.3e, asymptotic residual %.3e (tol 1e-4)"
        % (principal, asymptotic),
    )


def test_criterion_4_curvature_pde():
    # canonical Enneper, K = -16 / (1 - (u^2 - v^2))^4, and the family of the
    # pair f = 2, g = z + 1, whose canonical g = sqrt(beta) z, beta = |b/a| =
    # 0.5, gives K = -16 beta^2 / (1 - beta (u^2 - v^2))^4; nodes within 0.3
    # of 1 - |g|^2 = 0 are masked
    dom, grid = (-0.8, 0.8, -0.8, 0.8), (33, 33)
    worst1, worst2 = (float(np.nanmax(np.abs(pde_residual(GeneratingData.canonical(parse(g)), dom, grid, 0.3))))
                      for g in ("z", "sqrt(0.5)*z"))
    ok = worst1 < 1e-5 and worst2 < 1e-5
    _report(4, ok, "PDE residual %.3e / %.3e (tol 1e-5, exact per null side)" % (worst1, worst2))


def test_criterion_5_worked_canonicalization():
    res = canonicalize(parse("2"), parse("z+1"), w0=splitc(0), z0=splitc(-1))
    poly = expr_to_poly(res.g_tilde_expr)
    coeff_err = max(
        float((poly.coeff(0) - splitc(0.0)).mag),
        float((poly.coeff(1) - splitc(1.0 / np.sqrt(2.0))).mag),
    )
    ok = res.affine and res.max_residual < 1e-10 and coeff_err < 1e-10
    _report(
        5,
        ok,
        "affine %s, residual %.3e (tol 1e-10), g~ coefficient error %.3e (tol 1e-10)"
        % (res.affine, res.max_residual, coeff_err),
    )


def test_criterion_6_motion_witness():
    rng = np.random.default_rng(2024)
    g = parse("z")
    us = np.linspace(-0.4, 0.4, 9)
    U, V = np.meshgrid(us, us, indexing="ij")
    zg = SplitComplex(U, V)

    def K_of(expr):
        gp = expr.derivative().eval(zg)
        gv = expr.eval(zg)
        return -16.0 * gp.modulus2**2 / (1.0 - gv.modulus2) ** 4

    base = K_of(g)
    worst_w = 0.0
    worst_k = 0.0
    for _ in range(10):
        m = _random_moebius(rng)
        worst_w = max(worst_w, witness_discrepancy(g, m, grid=(5, 5)))
        worst_k = max(worst_k, float(np.max(np.abs(K_of(moebius_transform(g, m)) - base))))
    ok = worst_w < 1e-9 and worst_k < 1e-9
    _report(
        6,
        ok,
        "witness discrepancy %.3e, K-field invariance %.3e (tol 1e-9, 10 draws)"
        % (worst_w, worst_k),
    )


def test_criterion_7_classification():
    enneper = CubicParametrization.from_coeff_maps(
        {(3, 0): -1 / 6, (1, 2): -1 / 2, (1, 0): -1 / 2},
        {(2, 1): -1 / 2, (0, 3): -1 / 6, (0, 1): 1 / 2},
        {(2, 0): 1 / 2, (0, 2): 1 / 2},
    )
    t0 = time.perf_counter()
    verdict = classify_cubic(enneper)
    t1 = time.perf_counter() - t0
    case1 = (
        verdict.verdict == Verdict.ENNEPER_NEGATIVE
        and str(verdict.f) == "1.0"
        and str(verdict.g) == "z"
        and t1 < 1.0
    )

    rng = np.random.default_rng(77)
    m = _random_moebius(rng)
    moved = enneper.apply_motion(
        motion_witness(m).matrix, translation=rng.uniform(-1, 1, 3), scale=2.0
    )
    t0 = time.perf_counter()
    verdict2 = classify_cubic(moved)
    t2 = time.perf_counter() - t0
    case2 = (
        verdict2.verdict == Verdict.ENNEPER_NEGATIVE
        and abs(verdict2.scale - 2.0) < 1e-8
        and t2 < 1.0
    )

    maps = [
        {(i, j): rng.uniform(-1, 1) for i in range(4) for j in range(4 - i)}
        for _ in range(3)
    ]
    random_cubic = CubicParametrization.from_coeff_maps(*maps)
    t0 = time.perf_counter()
    # an isotropy-violating cubic cannot be isothermal, so the violation is
    # reported by the extraction step of the pipeline
    phi = tuple(p.deriv() for p in lift_to_curve(random_cubic))
    try:
        extract_pair(phi)
        case3 = False
    except NotMinimalError:
        case3 = True
    assert classify_cubic(random_cubic).verdict == Verdict.NOT_ISOTHERMAL
    t3 = time.perf_counter() - t0
    case3 = case3 and t3 < 1.0

    ok = case1 and case2 and case3
    _report(
        7,
        ok,
        "enneper (f=%s, g=%s, %.3fs), moved scale %.12f (%.3fs), random -> NotMinimal %s (%.3fs)"
        % (verdict.f, verdict.g, t1, verdict2.scale, t2, case3, t3),
    )


def test_criterion_8_equivalent_pairs():
    d1 = GeneratingData.general(parse("1"), parse("z"))
    d2 = GeneratingData.general(parse("exp(z)"), parse("exp(z)"))
    result = surfaces_coincide(d1, d2, (1.4, 2.9, -0.2, 0.2), grid=(31, 9))
    ok = result.coincide and result.discrepancy < 1e-4
    _report(
        8,
        ok,
        "coincide %s via gauge %s, discrepancy %.3e (tol 1e-4)"
        % (result.coincide, result.gauge, result.discrepancy),
    )


def test_criterion_9_algebra_property_suite():
    start = time.perf_counter()
    n = 100_000
    rng = np.random.default_rng(99)

    def rand():
        return SplitComplex(rng.uniform(-10, 10, n), rng.uniform(-10, 10, n))

    def rel_ok(x, y, tol=1e-12):
        err = (x - y).mag
        scale = np.maximum(1.0, np.maximum(x.mag, y.mag))
        return bool(np.all(err <= tol * scale))

    a, b, c = rand(), rand(), rand()
    checks = {
        "commutativity": rel_ok(a * b, b * a),
        "associativity": rel_ok((a * b) * c, a * (b * c)),
        "distributivity": rel_ok(a * (b + c), a * b + a * c),
        "null decomposition": rel_ok(a * b, from_null(a.p * b.p, a.q * b.q)),
        # |ab|^2 is a difference of squares of the product's components, so
        # the relative scale of the computed quantities is (|ab| magnitude)^2
        "modulus multiplicativity": bool(
            np.all(
                np.abs((a * b).modulus2 - a.modulus2 * b.modulus2)
                <= 1e-12 * np.maximum(1.0, (a * b).mag ** 2)
            )
        ),
    }
    # zero-divisor divisions must raise the typed error
    raises = 0
    trials = 200
    for k in range(trials):
        t = rng.uniform(-5, 5)
        null = from_null(0.0, t) if k % 2 else from_null(t, 0.0)
        try:
            splitc(1.0) / null
        except ZeroDivisor:
            raises += 1
    checks["zero divisors raise"] = raises == trials
    array_with_null = SplitComplex(np.array([1.0, 1.0]), np.array([0.0, 1.0]))
    try:
        splitc(1.0) / array_with_null
        checks["zero divisors raise"] = False
    except ZeroDivisor:
        pass
    elapsed = time.perf_counter() - start
    ok = all(checks.values()) and elapsed < 10.0
    _report(
        9,
        ok,
        "%d checks x %d samples, all %s, %.2fs (< 10s)"
        % (len(checks), n, all(checks.values()), elapsed),
    )
