import json

import numpy as np

from splitsurf.canonical import canonical_curvature_field
from splitsurf.cli import _curvature_callable, main, read_obj_vertices, read_csv_patch
from splitsurf.weierstrass import GeneratingData, evaluate_surface
from splitsurf.holofn import parse

from conftest import enneper_y


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_obj_roundtrip(tmp_path, capsys):
    out = tmp_path / "enneper.obj"
    code, stdout, _ = run(
        capsys, "generate", "--f", "1", "--g", "z", "--part", "real",
        "--domain", "-1:1:-1:1", "--grid", "41x41", "--out", str(out),
    )
    assert code == 0
    summary = json.loads(stdout)
    assert summary["schema_version"] == 1
    assert summary["max_abs_H"] < 1e-6
    # the grid center is the base point and maps to the origin
    verts = read_obj_vertices(str(out))
    assert any(np.allclose(v, 0.0, atol=1e-15) for v in verts)
    # vertices reproduce the patch points bit-for-bit as printed
    patch = evaluate_surface(
        GeneratingData.general(parse("1"), parse("z")), (-1, 1, -1, 1), (41, 41)
    )
    expected = patch.points[patch.valid]
    assert verts.shape == expected.shape
    assert np.all(verts == expected)


def test_generate_imaginary_matches_closed_form(tmp_path, capsys):
    out = tmp_path / "enneper_imag.csv"
    code, stdout, _ = run(
        capsys, "generate", "--f", "1", "--g", "z", "--part", "imag",
        "--domain", "-0.8:0.8:-0.8:0.8", "--grid", "17x17",
        "--out", str(out), "--format", "csv",
    )
    assert code == 0
    patch = read_csv_patch(str(out))
    U, V = np.meshgrid(patch.us, patch.vs, indexing="ij")
    assert np.nanmax(np.abs(patch.points - enneper_y(U, V))) < 1e-8


def test_generate_deterministic(tmp_path, capsys):
    outs = []
    for name in ("a.obj", "b.obj"):
        out = tmp_path / name
        code, _, _ = run(
            capsys, "generate", "--f", "exp(z)", "--g", "exp(z)",
            "--domain", "0.2:0.8:-0.3:0.3", "--grid", "9x9", "--out", str(out),
        )
        assert code == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_generate_parse_error_exit_3(tmp_path, capsys):
    code, _, err = run(
        capsys, "generate", "--f", "1", "--g", "z +", "--out", str(tmp_path / "x.obj")
    )
    assert code == 3
    assert "offset 3" in err


def test_usage_error_exit_3(capsys):
    code, _, err = run(capsys, "generate", "--g", "z", "--domain", "1:0:0:1", "--out", "x.obj")
    assert code == 3


def test_canonicalize_worked_example(capsys):
    code, stdout, _ = run(capsys, "canonicalize", "--f", "2", "--g", "z+1", "--z0", "-1")
    assert code == 0
    report = json.loads(stdout)
    assert report["affine"] is True
    assert report["g_tilde"] == "0.7071067811865476 * z"
    assert report["residual_max"] < 1e-10


def test_canonicalize_identity_detected(capsys):
    code, stdout, _ = run(capsys, "canonicalize", "--f", "1", "--g", "z")
    report = json.loads(stdout)
    assert code == 0 and report["affine"] is True and report["g_tilde"] == "z"


def test_canonicalize_branch_error_exit_2(capsys):
    code, _, err = run(capsys, "canonicalize", "--f", "1", "--g", "z^3")
    assert code == 2
    assert "cone" in err


def test_verify_canonical_enneper_passes(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--canonical", "--g", "z",
        "--domain", "-0.4:0.4:-0.4:0.4", "--grid", "17x17",
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["pass"] is True
    assert report["gates"]["minimality"]["pass"] is True
    assert report["gates"]["canonical_coefficients"]["pass"] is True
    assert report["gates"]["curvature_pde"]["pass"] is True


def test_verify_gauge_shifted_same_verdict(capsys):
    # composing g with a translation is a canonical-parameter gauge; the
    # verdict must not change
    code1, out1, _ = run(
        capsys, "verify", "--canonical", "--g", "z",
        "--domain", "-0.3:0.3:-0.3:0.3", "--grid", "13x13",
    )
    code2, out2, _ = run(
        capsys, "verify", "--canonical", "--g", "z+0.25",
        "--domain", "-0.55:0.05:-0.3:0.3", "--grid", "13x13",
    )
    assert code1 == code2 == 0
    assert json.loads(out1)["pass"] == json.loads(out2)["pass"] is True


def test_verify_reports_skipped_pde_gate(capsys):
    # |1 - |g|^2| <= 0.27 on every node, inside the default --pde-gate 0.3
    code, stdout, _ = run(
        capsys, "verify", "--canonical", "--g", "z",
        "--domain", "0.86:0.94:-0.05:0.05", "--grid", "9x9",
    )
    report = json.loads(stdout)
    pde = report["gates"]["curvature_pde"]
    assert pde["status"] == "skipped" and "pde-gate" in pde["reason"]
    assert "pass" not in pde
    assert code == 0 and report["pass"] is True


def test_verify_pde_gate_masks_singular_nodes_only(capsys):
    # the null lines of 1/(z - 0.3) cross two corner nodes; the other 79 are checked
    data = GeneratingData.canonical(parse("1/(z-0.3)"))
    field = canonical_curvature_field(data, (0.5, 0.9, -0.2, 0.2), (9, 9), gate=0.3)
    U, V = np.meshgrid(field.us, field.vs, indexing="ij")
    K = _curvature_callable(data, 0.3)(U, V)
    assert np.array_equal(K, field.values, equal_nan=True)
    assert int(np.sum(np.isfinite(K))) == 79
    code, stdout, _ = run(
        capsys, "verify", "--canonical", "--g", "1/(z-0.3)", "--base", "0.7",
        "--domain", "0.5:0.9:-0.2:0.2", "--grid", "9x9",
    )
    report = json.loads(stdout)
    assert report["gates"]["curvature_pde"]["pass"] is True
    assert code == 0


def test_verify_canonical_across_singular_null_lines(capsys):
    # g' = 0 on p = -1/2 and q = -1/2, the domain edges; the 310 nodes whose
    # null segments to the base point avoid them are checked, not none
    code, out, _ = run(
        capsys, "verify", "--canonical", "--g", "z^2+z+3",
        "--domain", "-0.5:0.5:-0.5:0.5", "--grid", "21x21",
    )
    assert code in (0, 1)
    assert json.loads(out)["gates"]["canonical_coefficients"]["nodes"] > 0


def test_verify_csv_nonminimal_fails_h_gate(tmp_path, capsys):
    # x(u, v) = (v, u, u^2) is timelike but not minimal
    us = np.linspace(-0.5, 0.5, 11)
    path = tmp_path / "bad.csv"
    with open(path, "w") as fh:
        fh.write("u,v,x1,x2,x3\n")
        for u in us:
            for v in us:
                fh.write("%.17g,%.17g,%.17g,%.17g,%.17g\n" % (u, v, v, u, u * u))
    code, stdout, _ = run(capsys, "verify", "--from-csv", str(path))
    assert code == 1
    report = json.loads(stdout)
    assert report["gates"]["minimality"]["pass"] is False


def test_verify_compare_parts(capsys):
    code, stdout, _ = run(
        capsys, "verify", "--f", "1", "--g", "z", "--compare-parts",
        "--domain", "-0.6:0.6:-0.6:0.6", "--grid", "13x13",
    )
    assert code == 0
    gate = json.loads(stdout)["gates"]["part_curvature_signs"]
    assert gate["pass"] is True
    assert gate["magnitude_ratio_min"] > 0.0


def test_classify_cli(tmp_path, capsys):
    coeffs = {
        "x1": {"(3,0)": -1 / 6, "(1,2)": -1 / 2, "(1,0)": -1 / 2},
        "x2": {"(2,1)": -1 / 2, "(0,3)": -1 / 6, "(0,1)": 1 / 2},
        "x3": {"(2,0)": 1 / 2, "(0,2)": 1 / 2},
    }
    path = tmp_path / "enneper.json"
    path.write_text(json.dumps(coeffs))
    code, stdout, _ = run(capsys, "classify", str(path))
    assert code == 0
    verdict = json.loads(stdout)
    assert verdict["verdict"] == "EnneperNegative"
    assert verdict["f"] == "1.0" and verdict["g"] == "z"
    assert abs(verdict["scale"] - 1.0) < 1e-12


def test_transform_cli(capsys):
    code, stdout, _ = run(
        capsys, "transform", "--g", "z", "--phi", "0.3", "--alpha", "0.2+0.1J"
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["witness"]["pass"] is True
    assert report["witness"]["metric_preserved"] is True
    assert report["witness"]["max_discrepancy"] < 1e-9


def test_transform_singular_witness_grid_exit_2(capsys):
    # 1/z is singular on the null lines through the grid's center node
    code, stdout, stderr = run(
        capsys, "transform", "--g", "1/z", "--phi", "0.3",
        "--domain=-0.4:0.4:-0.4:0.4", "--grid", "5x5",
    )
    assert code == 2
    assert stdout == "" and "singular" in stderr


def test_generate_json_format(tmp_path, capsys):
    out = tmp_path / "mesh.json"
    code, _, _ = run(
        capsys, "generate", "--f", "1", "--g", "z",
        "--domain", "-0.5:0.5:-0.5:0.5", "--grid", "5x5",
        "--out", str(out), "--format", "json",
    )
    assert code == 0
    mesh = json.loads(out.read_text())
    assert mesh["schema_version"] == 1
    assert len(mesh["us"]) == 5 and len(mesh["points"]) == 5
    assert mesh["valid"][2][2] == 1


def test_canonicalize_samples_file(tmp_path, capsys):
    out = tmp_path / "zmap.csv"
    code, stdout, _ = run(
        capsys, "canonicalize", "--f", "exp(z)", "--g", "exp(z)",
        "--domain", "0.9:2.9:-0.3:0.3", "--grid", "9x5", "--samples", str(out),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["affine"] is False and report["residual_max"] < 1e-8
    rows = out.read_text().strip().splitlines()
    assert rows[0] == "u,v,z_re,z_im,g_tilde_re,g_tilde_im"
    assert len(rows) == 1 + 9 * 5
    # g~(w) = 1 + w on this domain
    u, v, _, _, gre, gim = map(float, rows[1].split(","))
    assert abs(gre - (1 + u)) < 1e-8 and abs(gim - v) < 1e-8


def test_transform_inversion_cli(capsys):
    code, stdout, _ = run(
        capsys, "transform", "--g", "z+3", "--phi", "0.2", "--form", "inversion"
    )
    assert code == 0
    report = json.loads(stdout)
    assert "witness" not in report
    assert report["g_tilde"].endswith("/ (z + 3.0)")
