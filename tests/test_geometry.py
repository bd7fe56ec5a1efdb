import numpy as np
import pytest

from splitsurf import geometry
from splitsurf.cli import read_csv_patch, write_csv
from splitsurf.holofn import parse
from splitsurf.geometry import forms_grid, lorentz_cross, minkowski_inner
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
    grid = forms_grid(patch)
    assert grid.valid[4, 4]
    assert abs(grid.L[4, 4]) < 1e-12 and abs(grid.M[4, 4]) < 1e-12 and abs(grid.N[4, 4]) < 1e-12
    assert (grid.K[4, 4], grid.H[4, 4]) == (0.0, 0.0)


def test_canonical_enneper_origin_forms():
    patch = evaluate_surface(GeneratingData.canonical(parse("z")), (-0.4, 0.4, -0.4, 0.4), (17, 17))
    grid = forms_grid(patch)
    assert grid.valid[8, 8]
    E, F, G = grid.E[8, 8], grid.F[8, 8], grid.G[8, 8]
    L, M, N = grid.L[8, 8], grid.M[8, 8], grid.N[8, 8]
    # the coefficient shape is pinned against the measured curvature
    assert abs(-E - 1.0 / np.sqrt(-grid.K[8, 8])) < 1e-10
    assert abs(E + G) < 1e-12
    assert abs(F) < 1e-12
    assert abs(L + 1.0) < 1e-10
    assert abs(M) < 1e-10
    assert abs(N + 1.0) < 1e-10
    assert abs(grid.H[8, 8]) < 1e-10
    assert abs(float(minkowski_inner(grid.U[8, 8], grid.U[8, 8])) - 1.0) < 1e-9


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
    from splitsurf.weierstrass import curve_expressions

    xu, xv, _ = patch._index.tangents(curve_expressions(patch.provenance), patch.provenance.part)
    grid = forms_grid(patch)
    for (i, j) in [(3, 3), (5, 2), (4, 6)]:
        assert grid.valid[i, j]
        U = grid.U[i, j]
        assert abs(minkowski_inner(U, xu[i, j])) < 1e-9
        assert abs(minkowski_inner(U, xv[i, j])) < 1e-9
        assert abs(minkowski_inner(U, U) - 1.0) < 1e-9


def _fd_and_analytic(patch):
    """fd forms of the patch's points, and analytic forms forced on the patch."""
    fd = forms_grid(SurfacePatch.from_points(patch.us, patch.vs, patch.points))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "_resolve_method", lambda patch: "analytic")
        return fd, forms_grid(patch)


def test_stencil_comes_from_the_patch(tmp_path):
    data = GeneratingData.canonical(parse("z"))
    square = evaluate_surface(data, (-0.4, 0.4, -0.4, 0.4), (9, 9))
    wide = evaluate_surface(data, (-0.4, 0.4, -0.2, 0.2), (9, 9))  # h_u = 2 h_v
    write_csv(str(tmp_path / "square.csv"), square)
    assert forms_grid(read_csv_patch(str(tmp_path / "square.csv"))).method == "fd"
    assert forms_grid(square).method == "mixed"
    assert forms_grid(wide).method == "analytic"
    # differenced second derivatives need an interior node; analytic ones do not
    assert not forms_grid(square).valid[0, 4]
    assert forms_grid(wide).valid[0, 4]


def test_fd_vs_analytic_first_form_agreement():
    # closed-form sampled points, tiny step: O(h^2) truncation ~ 3e-9
    h = 1e-4
    patch = evaluate_surface(
        GeneratingData.general(parse("1"), parse("z")), (0.2 - 2 * h, 0.2 + 2 * h, 0.1 - 2 * h, 0.1 + 2 * h), (5, 5)
    )
    fd, an = _fd_and_analytic(patch)
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
        fd, an = _fd_and_analytic(patch)
        return abs(fd.E[2, 2] - an.E[2, 2])

    e1, e2 = fd_error(2e-3), fd_error(1e-3)
    assert 3.0 < e1 / e2 < 5.0


def test_degenerate_normal_is_masked():
    us = np.linspace(-1, 1, 5)
    vs = np.linspace(-1, 1, 5)
    U, V = np.meshgrid(us, vs, indexing="ij")
    # x_u = (1, 1, 0) is lightlike and x_u x x_v is null
    points = np.stack([U, U, V], axis=-1)
    grid = forms_grid(SurfacePatch.from_points(us, vs, points))
    assert not grid.valid[2, 2]
    assert np.isnan(grid.K[2, 2]) and np.isnan(grid.H[2, 2])
    # a degenerate normal is not counted as a non-timelike metric
    assert grid.metric_violations == 0


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
