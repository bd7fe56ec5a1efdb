"""Memory budgets of the mesh pipeline, in node arrays.

Every stage of the export path builds arrays with one value per grid node,
so its traced peak (tracemalloc) is measured in units of one (n, m, 3)
float64 array of the grid it works on, the returned result included.  Each
budget is the largest peak measured on the grids below with at most 15%
headroom; COMMAND_BUDGET also bounds each command at 201x201 run in a fresh
interpreter.  The peaks were measured with Python 3.11.7 and numpy 2.4.6
only, the pair CI pins on its Python 3.11 leg: they count numpy's own
temporaries, which another numpy may make differently.
"""

import contextlib
import io
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import splitsurf
from splitsurf.cli import main, read_csv_patch, write_csv, write_json_mesh, write_obj
from splitsurf.geometry import forms_grid
from splitsurf.holofn import parse
from splitsurf.weierstrass import GeneratingData, SurfacePatch, evaluate_surface

BUDGETS = {
    "evaluate_surface": 4.5,
    # the whole-grid outputs (4 node arrays) and one block's working set
    "forms_grid analytic": 5.6,
    "forms_grid fd": 5.2,
    "write_obj": 0.38,
    # one block of forms at a time, and one grid row of text
    "write_csv": 1.4,
    "write_json_mesh": 0.42,
    "read_csv_patch": 4.2,
}
# generate peaks in evaluate_surface, verify --from-csv in read_csv_patch
COMMAND_BUDGET = 4.7

# (n, m) and the v half-width that makes the steps square on u in [-1, 1]
GRIDS = [((101, 101), 1.0), ((81, 121), 1.5)]

DATA = GeneratingData.general(parse("exp(0.5*z)"), parse("z^2+0.3*z"))


def node_arrays(shape, fn, *args):
    """fn(*args) and its traced peak in (n, m, 3) float64 arrays, (n, m) =
    shape.  A first, untraced call lets numpy finish what it sets up once,
    so the peak is the call's own."""
    fn(*args)
    tracemalloc.start()
    try:
        out = fn(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak / (shape[0] * shape[1] * 3 * 8)


@pytest.mark.parametrize("grid, half_v", GRIDS)
def test_stage_peaks_within_budget(grid, half_v, tmp_path):
    csv, obj, mesh = (str(tmp_path / name) for name in ("patch.csv", "patch.obj", "patch.json"))
    peaks = {}
    patch, peaks["evaluate_surface"] = node_arrays(grid, evaluate_surface, DATA, (-1, 1, -half_v, half_v), grid)
    forms, peaks["forms_grid analytic"] = node_arrays(grid, forms_grid, patch)
    _, peaks["write_csv"] = node_arrays(grid, write_csv, csv, patch)
    _, peaks["write_obj"] = node_arrays(grid, write_obj, obj, patch)
    _, peaks["write_json_mesh"] = node_arrays(grid, write_json_mesh, mesh, patch)
    read, peaks["read_csv_patch"] = node_arrays(grid, read_csv_patch, csv)
    fd, peaks["forms_grid fd"] = node_arrays(grid, forms_grid, read)
    unequal = evaluate_surface(DATA, (-1, 1, -0.6 * half_v, 0.6 * half_v), grid)
    # square and unequal steps, within one budget
    analytic, peak = node_arrays(grid, forms_grid, unequal)
    peaks["forms_grid analytic"] = max(peaks["forms_grid analytic"], peak)
    assert (forms.method, fd.method, analytic.method) == ("analytic", "fd", "analytic")
    assert read.valid.sum() == patch.valid.sum() > 0.9 * patch.valid.size
    over = {stage: round(peak, 2) for stage, peak in peaks.items() if peak > BUDGETS[stage]}
    assert not over, over


def _quiet_main(argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return main(argv)


# prints the exit code of main(argv) and its traced peak in bytes
FRESH = """\
import contextlib, io, sys, tracemalloc
from splitsurf.cli import main
tracemalloc.start()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(sys.argv[1:])
print(code, tracemalloc.get_traced_memory()[1])
"""


def fresh_node_arrays(shape, argv):
    """The exit code of main(argv) run in a fresh interpreter, and its traced
    peak in (n, m, 3) float64 arrays, (n, m) = shape, so whatever the command
    imports or sets up once counts too."""
    path = [os.path.dirname(os.path.dirname(splitsurf.__file__)), os.environ.get("PYTHONPATH", "")]
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", FRESH, *argv],
                         capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)))
    assert run.returncode == 0, run.stderr
    code, peak = map(int, run.stdout.split())
    return code, peak / (shape[0] * shape[1] * 3 * 8)


@pytest.mark.parametrize("fmt", ["obj", "csv", "json"])
@pytest.mark.parametrize("n, fresh", [(101, False), (201, True)], ids=["101", "201-fresh"])
def test_command_peaks_within_budget(fmt, n, fresh, tmp_path):
    out = str(tmp_path / ("patch." + fmt))
    runs = [["generate", "--f", "exp(0.5*z)", "--g", "z^2+0.3*z", "--domain", "-1:1:-1:1",
             "--grid", "%dx%d" % (n, n), "--format", fmt, "--out", out]]
    if fmt == "csv":
        runs.append(["verify", "--from-csv", out])
    for argv in runs:
        if fresh:
            code, peak = fresh_node_arrays((n, n), argv)
        else:
            code, peak = node_arrays((n, n), _quiet_main, argv)
        assert code in (0, 1) and peak <= COMMAND_BUDGET, (argv[0], code, round(peak, 2))


@pytest.mark.parametrize("method, half_v", [("analytic", 1.0), ("analytic", 0.6), ("fd", 1.0)])
def test_stages_leave_their_inputs_alone(method, half_v):
    grid, domain = (41, 33), (-1, 1, -0.8 * half_v, 0.8 * half_v)
    first, second = (evaluate_surface(DATA, domain, grid) for _ in range(2))
    assert np.array_equal(first.points, second.points, equal_nan=True)
    assert np.array_equal(first.valid, second.valid)
    assert all(np.array_equal(x, y) for x, y in zip(first._index.at, second._index.at))
    if method == "fd":
        first = SurfacePatch.from_points(first.us, first.vs, first.points)
    kept = first.points.copy(), first.valid.copy()
    a, b = forms_grid(first), forms_grid(first)
    assert a.method == method
    for name in ("E", "F", "G", "L", "M", "N", "K", "H", "H_scale", "U", "valid"):
        assert np.array_equal(getattr(a, name), getattr(b, name), equal_nan=True), name
    assert np.array_equal(first.points, kept[0], equal_nan=True) and np.array_equal(first.valid, kept[1])
