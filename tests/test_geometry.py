import numpy as np
import pytest

from splitsurf.holofn import parse
from splitsurf.geometry import (
    DegenerateNormal,
    FundamentalForms,
    curvatures,
    forms_grid,
    fundamental_forms,
    lorentz_cross,
    minkowski_inner,
)
from splitsurf.weierstrass import GeneratingData, SurfacePatch, evaluate_surface


def test_minkowski_inner_examples():
    assert minkowski_inner([1, 0, 0], [1, 0, 0]) == -1.0
    assert minkowski_inner([0, 1, 0], [0, 1, 0]) == 1.0
    assert minkowski_inner([1, 1, 0], [1, 1, 0]) == 0.0


def test_lorentz_cross_examples():
    assert np.allclose(lorentz_cross([0, 1, 0], [0, 0, 1]), [-1, 0, 0])
    x = np.array([0.3, -1.2, 0.5])
    assert np.allclose(lorentz_cross(x, x), 0.0)
    rng = np.random.default_rng(11)
    for _ in range(50):
        a, b, w = rng.uniform(-2, 2, (3, 3))
        c = lorentz_cross(a, b)
        det = np.linalg.det(np.stack([a, b, w]))
        scale = max(1.0, abs(det))
        assert abs(minkowski_inner(c, w) - det) < 1e-12 * scale
        assert abs(minkowski_inner(c, a)) < 1e-12 * scale
        # bilinearity and antisymmetry
        assert np.allclose(lorentz_cross(b, a), -c)


_ETA = np.array([-1.0, 1.0, 1.0])


def _random_vectors(rng, shape):
    # magnitudes over ten decades, with NaN and signed-zero entries
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 5, size=shape)
    for value, share in ((np.nan, 0.1), (0.0, 0.1), (-0.0, 0.1)):
        x[rng.random(shape) < share] = value
    return x


@pytest.mark.parametrize("shape_x, shape_y", [
    ((41, 33, 3), (41, 33, 3)),
    ((3,), (41, 33, 3)),
    ((41, 33, 3), (3,)),
    ((7, 3), (7, 3)),
    ((3,), (3,)),
])
def test_kernels_bit_equal_the_reduction_and_np_cross(shape_x, shape_y):
    rng = np.random.default_rng(sum(shape_x) + 7 * sum(shape_y))
    for _ in range(10):
        x, y = _random_vectors(rng, shape_x), _random_vectors(rng, shape_y)
        with np.errstate(invalid="ignore"):
            inner = np.asarray(np.sum(_ETA * x * y, axis=-1))
            cross = np.cross(x, y) * _ETA
            got_inner, got_cross = np.asarray(minkowski_inner(x, y)), lorentz_cross(x, y)
        assert got_inner.shape == inner.shape and got_inner.tobytes() == inner.tobytes()
        assert got_cross.shape == cross.shape and got_cross.tobytes() == cross.tobytes()


def test_kernels_take_lists():
    x, y = [0.5, -1.0, 2.0], [1.5, 0.25, -3.0]
    assert minkowski_inner(x, y) == np.sum(_ETA * np.array(x) * np.array(y))
    assert lorentz_cross(x, y).tobytes() == (np.cross(x, y) * _ETA).tobytes()
    assert lorentz_cross([x, y], y).tobytes() == (np.cross([x, y], y) * _ETA).tobytes()


def test_flat_plane_has_zero_second_form():
    us = np.linspace(-1, 1, 9)
    vs = np.linspace(-1, 1, 9)
    U, V = np.meshgrid(us, vs, indexing="ij")
    points = np.stack([V, U, np.zeros_like(U)], axis=-1)  # x(u,v) = (v, u, 0)
    patch = SurfacePatch.from_points(us, vs, points)
    ff = fundamental_forms(patch, (4, 4), method="fd")
    assert abs(ff.L) < 1e-12 and abs(ff.M) < 1e-12 and abs(ff.N) < 1e-12
    assert curvatures(ff) == (0.0, 0.0)


def test_canonical_enneper_origin_forms():
    patch = evaluate_surface(GeneratingData.canonical(parse("z")), (-0.4, 0.4, -0.4, 0.4), (17, 17))
    ff = fundamental_forms(patch, (8, 8))
    K, H = curvatures(ff)
    # the coefficient shape is pinned against the measured curvature
    assert abs(-ff.E - 1.0 / np.sqrt(-K)) < 1e-10
    assert abs(ff.E + ff.G) < 1e-12
    assert abs(ff.F) < 1e-12
    assert abs(ff.L + 1.0) < 1e-10
    assert abs(ff.M) < 1e-10
    assert abs(ff.N + 1.0) < 1e-10
    assert abs(H) < 1e-10
    assert abs(float(minkowski_inner(ff.U, ff.U)) - 1.0) < 1e-9


def test_curvature_formula_plugging():
    ff = FundamentalForms(E=-1, F=0, G=1, L=-1, M=0, N=-1, U=np.array([0, 0, -1.0]), method="fd")
    K, H = curvatures(ff)
    assert K == -1.0 and H == 0.0


def test_curvature_matches_closed_formula():
    # K = -16 |g'|^4 / (1 - |g|^2)^4 for data in canonical parameters
    patch = evaluate_surface(GeneratingData.canonical(parse("z")), (-0.4, 0.4, -0.4, 0.4), (17, 17))
    grid = forms_grid(patch)
    U, V = np.meshgrid(patch.us, patch.vs, indexing="ij")
    expect = -16.0 / (1.0 - (U**2 - V**2)) ** 4
    err = np.abs(grid.K - expect)
    assert np.nanmax(err[grid.valid]) < 1e-5


def test_normal_orthogonality():
    patch = evaluate_surface(
        GeneratingData.general(parse("exp(z)"), parse("exp(z)")), (0.2, 1.0, -0.3, 0.3), (9, 9)
    )
    from splitsurf.geometry import _analytic_first

    xu, xv, _ = _analytic_first(patch)
    for (i, j) in [(3, 3), (5, 2), (4, 6)]:
        ff = fundamental_forms(patch, (i, j))
        assert abs(minkowski_inner(ff.U, xu[i, j])) < 1e-9
        assert abs(minkowski_inner(ff.U, xv[i, j])) < 1e-9
        assert abs(minkowski_inner(ff.U, ff.U) - 1.0) < 1e-9


def test_fd_vs_analytic_first_form_agreement():
    # closed-form sampled points, tiny step: O(h^2) truncation ~ 3e-9
    h = 1e-4
    patch = evaluate_surface(
        GeneratingData.general(parse("1"), parse("z")), (0.2 - 2 * h, 0.2 + 2 * h, 0.1 - 2 * h, 0.1 + 2 * h), (5, 5)
    )
    fd = forms_grid(patch, "fd")
    an = forms_grid(patch, "analytic")
    i = j = 2
    for name in ("E", "F", "G"):
        assert abs(getattr(fd, name)[i, j] - getattr(an, name)[i, j]) < 1e-7


def test_fd_convergence_order():
    # halving h should cut the first-form error by about 4 (second order)
    data = GeneratingData.general(parse("1"), parse("z"))
    center = (0.3, 0.2)

    def fd_error(h):
        dom = (center[0] - 2 * h, center[0] + 2 * h, center[1] - 2 * h, center[1] + 2 * h)
        patch = evaluate_surface(data, dom, (5, 5))
        fd = forms_grid(patch, "fd")
        an = forms_grid(patch, "analytic")
        return abs(fd.E[2, 2] - an.E[2, 2])

    e1, e2 = fd_error(2e-3), fd_error(1e-3)
    assert 3.0 < e1 / e2 < 5.0


def test_degenerate_normal_raises():
    us = np.linspace(-1, 1, 5)
    vs = np.linspace(-1, 1, 5)
    U, V = np.meshgrid(us, vs, indexing="ij")
    # x_u = (1, 1, 0) is lightlike and x_u x x_v is null
    points = np.stack([U, U, V], axis=-1)
    patch = SurfacePatch.from_points(us, vs, points)
    with pytest.raises(DegenerateNormal):
        fundamental_forms(patch, (2, 2), method="fd")


def test_minimality_on_generated_patches():
    datasets = [
        GeneratingData.general(parse("1"), parse("z")),
        GeneratingData.general(parse("exp(z)"), parse("exp(z)")),
        GeneratingData.canonical(parse("exp(z)")),
    ]
    domains = [(-0.6, 0.6, -0.6, 0.6), (0.2, 1.0, -0.3, 0.3), (0.1, 0.9, -0.3, 0.3)]
    for data, dom in zip(datasets, domains):
        patch = evaluate_surface(data, dom, (13, 13))
        grid = forms_grid(patch)
        assert np.nanmax(np.abs(grid.H)) < 1e-6
