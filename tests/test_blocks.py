"""Forms one block of grid rows at a time: every value is the whole grid's.

forms_blocks computes the fundamental forms of at most geometry.BLOCK_NODES
nodes at a time, in whole grid rows, and forms_grid and every CLI consumer
fold over the blocks.  With blocks of one row, of seven rows (on grids whose
row count is no multiple of seven) and of the whole grid, the forms, the
written files and the reports must be the same bits.  With one row a block,
every row is a block edge: a difference stencil that took its step from the
block, or that read a block edge as a grid edge, changes them.
"""

import contextlib
import io
import json

import numpy as np
import pytest

from splitsurf import geometry
from splitsurf.cli import main, read_csv_patch, write_csv
from splitsurf.geometry import forms_blocks, forms_grid
from splitsurf.holofn import parse
from splitsurf.weierstrass import GeneratingData, evaluate_surface

# block rows: one, seven, and the whole grid
ROWS = [1, 7, None]
FIELDS = ("E", "F", "G", "L", "M", "N", "K", "H", "H_scale", "U", "valid")

# smooth non-polynomial data, and a pole whose null lines cross the grid
DATA = {
    "exp": GeneratingData.general(parse("exp(0.5*z)"), parse("z^2+0.3*z")),
    "pole": GeneratingData.general(parse("1"), parse("1/(z-0.3)")),
}


def _set_block_rows(monkeypatch, rows, shape):
    n, m = shape
    monkeypatch.setattr(geometry, "BLOCK_NODES", (rows or n) * m)


def _patches(data, tmp_path):
    """Analytic patches on square and on unequal steps, and the fd patch read
    back from the square one's CSV; 23 and 30 rows."""
    square = evaluate_surface(data, (-1, 1, -1, 1), (23, 23))
    unequal = evaluate_surface(data, (-1, 1, -0.7, 0.5), (30, 17))
    path = str(tmp_path / "square.csv")
    write_csv(path, square)
    return {"square": square, "unequal": unequal, "fd": read_csv_patch(path)}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", sorted(DATA))
def test_forms_grid_is_the_same_bits_for_any_block_rows(name, tmp_path, monkeypatch):
    patches = _patches(DATA[name], tmp_path)
    results = []
    for rows in ROWS:
        forms = {}
        for kind, patch in patches.items():
            _set_block_rows(monkeypatch, rows, patch.shape)
            n = patch.shape[0]
            slices = [block_rows for block_rows, _ in forms_blocks(patch)]
            assert slices == [slice(lo, min(lo + (rows or n), n)) for lo in range(0, n, rows or n)]
            grid = forms_grid(patch)
            assert grid.method == ("fd" if kind == "fd" else "analytic")
            forms[kind] = {f: getattr(grid, f).tobytes() for f in FIELDS}
            forms[kind]["violations"] = grid.metric_violations
        results.append(forms)
    assert np.any(forms_grid(patches["fd"]).valid)
    assert np.all(np.isnan(forms_grid(patches["fd"]).H_scale))
    assert np.all(np.isfinite(forms_grid(patches["square"]).H_scale) == forms_grid(patches["square"]).valid)
    for other in results[1:]:
        for kind in patches:
            for key, value in results[0][kind].items():
                assert other[kind][key] == value, (kind, key)


def _cli_outputs(tmp_path):
    """Files and reports of generate (three formats, square and unequal
    steps), verify --from-csv, verify --canonical and verify --compare-parts
    on 23-column grids."""
    out = {}
    data = ["--f", "exp(0.5*z)", "--g", "1/(z-1.3)", "--domain", "-1:1:-1:1"]
    runs = {"generate_" + fmt: ["generate", *data, "--grid", "23x23", "--format", fmt,
                                "--out", str(tmp_path / ("patch." + fmt))] for fmt in ("obj", "csv", "json")}
    runs["generate_unequal"] = ["generate", *data, "--grid", "29x23", "--format", "csv",
                                "--out", str(tmp_path / "unequal.csv")]
    runs["verify_csv"] = ["verify", "--from-csv", str(tmp_path / "patch.csv")]
    runs["verify_unequal_csv"] = ["verify", "--from-csv", str(tmp_path / "unequal.csv")]
    runs["verify_canonical"] = ["verify", "--canonical", "--g", "exp(z)", "--domain", "0.1:0.9:-0.3:0.3",
                                "--grid", "31x23"]
    runs["verify_parts"] = ["verify", *data, "--grid", "25x23", "--compare-parts"]
    for name, argv in runs.items():
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            out[name + ".code"] = main(argv)
        out[name + ".report"] = stdout.getvalue()
        if name.startswith("generate"):
            with open(argv[-1], "rb") as fh:
                out[name + ".file"] = fh.read()
    return out


def test_cli_files_and_reports_are_the_same_for_any_block_rows(tmp_path, monkeypatch):
    results = []
    for rows in ROWS:
        monkeypatch.setattr(geometry, "BLOCK_NODES", (rows or 10**6) * 23)
        results.append(_cli_outputs(tmp_path))
    first = results[0]
    assert '"canonical_coefficients"' in first["verify_canonical.report"]
    assert '"part_curvature_signs"' in first["verify_parts.report"]
    for other in results[1:]:
        assert other.keys() == first.keys()
        for key, value in first.items():
            assert other[key] == value, key


def _run(argv):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    return code, stdout.getvalue()


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_blocks_without_a_valid_node_never_win(tmp_path, monkeypatch):
    # the first four grid rows have no point, so with one row a block the
    # first five blocks of fd forms have no valid node and no number
    patch = evaluate_surface(DATA["exp"], (-1, 1, -1, 1), (23, 23))
    points = patch.points.copy()
    points[:4] = np.nan
    path = str(tmp_path / "holes.csv")
    with open(path, "w") as fh:
        fh.write("u,v,x1,x2,x3\n")
        for i, u in enumerate(patch.us):
            for j, v in enumerate(patch.vs):
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (u, v, *points[i, j]))
    read = read_csv_patch(path)
    assert not np.any(read.valid[:4]) and np.any(read.valid[4:])
    reports = []
    for rows in ROWS:
        _set_block_rows(monkeypatch, rows, read.shape)
        if rows == 1:
            assert not np.any([np.any(forms.valid) for _, forms in forms_blocks(read)][:5])
        reports.append(_run(["verify", "--from-csv", path]))
    assert reports[0] == reports[1] == reports[2]
    code, report = reports[0]
    assert code == 1
    max_h = json.loads(report)["gates"]["minimality"]["max_abs_H"]
    assert max_h == np.nanmax(np.abs(forms_grid(read).H))


@pytest.mark.parametrize("rows", [1, None])
def test_a_patch_without_a_valid_node(tmp_path, monkeypatch, rows):
    # f = 1e-90: eight nodes have points, but the normal's squared length,
    # of order |f|^4, underflows to zero and degenerates at every node, by
    # analytic forms and by the differences of the CSV's points alike; the
    # ninth node is on the locus 1 - |g|^2 = 0
    data = ["--f", "1e-90", "--g", "z", "--domain", "0.9:1.1:-0.1:0.1", "--grid", "3x3"]
    monkeypatch.setattr(geometry, "BLOCK_NODES", (rows or 3) * 3)
    for fmt in ("obj", "csv"):
        code, report = _run(["generate", *data, "--format", fmt, "--out", str(tmp_path / ("p." + fmt))])
        summary = json.loads(report)
        assert code == 0 and summary["vertices"] == 8
        assert summary["max_abs_H"] is summary["k_min"] is summary["k_max"] is None
    assert _run(["verify", *data]) == (2, "")
    assert _run(["verify", "--from-csv", str(tmp_path / "p.csv")]) == (2, "")
