import contextlib
import io
import json
import warnings

import numpy as np

import pytest

from splitsurf import cli, geometry
from splitsurf.algebra import splitc
from splitsurf.canonical import canonical_curvature_field, canonicalize
from splitsurf.cli import (
    main,
    read_csv_patch,
    write_csv,
    write_json_mesh,
    write_obj,
)
from splitsurf.geometry import forms_grid
from splitsurf.weierstrass import GeneratingData, Part, evaluate_surface
from splitsurf.holofn import Const, parse

from conftest import enneper_y, pde_residual


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
    # |H| at every node, the edge nodes next to 1 - |g|^2 = 0 too, is
    # within rounding of zero: verify's minimality gate passes on the same data
    _, report, _ = run(capsys, "verify", "--f", "1", "--g", "z")
    minimality = json.loads(report)["gates"]["minimality"]
    assert minimality["max_abs_H"] == summary["max_abs_H"] and minimality["pass"] is True
    # the grid center is the base point and maps to the origin
    verts = np.array([line.split()[1:] for line in out.read_text().splitlines() if line.startswith("v ")], float)
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
    # a value that begins with "--" is the next option, not a value
    code, _, err = run(capsys, "generate", "--g", "--grid", "5x5", "--out", "x.obj")
    assert code == 3 and "expected one argument" in err


def test_repeated_calls_share_one_parser(tmp_path, capsys):
    # one process, every call through main: the parser built by the first
    # call carries nothing over to the next
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    code, _, err = run(capsys, "generate", "--g", "z")
    assert code == 3 and "--out" in err
    argv = ("generate", "--f", "1", "--g", "z", "--format", "json", "--out", str(a))
    code, stdout, _ = run(capsys, *argv)
    summary = json.loads(stdout)
    assert code == 0 and summary["vertices"] + summary["invalid_samples"] == 41 * 41
    first = a.read_bytes()
    code, stdout, _ = run(capsys, *argv, "--grid", "5x5")
    summary = json.loads(stdout)
    assert code == 0 and summary["vertices"] + summary["invalid_samples"] == 25
    text = io.StringIO()
    with contextlib.redirect_stdout(text), pytest.raises(SystemExit) as exit_info:
        main(["--help"])
    assert exit_info.value.code == 0
    assert text.getvalue().startswith("usage: splitsurf") and "generate" in text.getvalue()
    assert capsys.readouterr().out == ""
    assert run(capsys, *argv)[0] == 0 and a.read_bytes() == first
    seen = []
    for g in (("--g", "-z"), ("--g=-z",)):
        code, stdout, err = run(capsys, "generate", "--f", "1", *g, "--grid", "5x5",
                                "--format", "json", "--out", str(b))
        assert code == 0, err
        seen.append((stdout, b.read_bytes()))
    assert seen[0] == seen[1]


@pytest.mark.parametrize("argv", [
    ("generate", "--f", "1", "--g", "-0.5*z"),
    ("generate", "--f", "1", "--g", "-z"),
    ("generate", "--f", "-2*z", "--g", "z"),
    ("transform", "--g", "z", "--phi", "-0.3"),
])
def test_values_beginning_with_minus_match_the_equals_form(tmp_path, capsys, argv):
    out = tmp_path / "mesh.obj"
    extra = ("--grid", "9x9", "--out", str(out)) if argv[0] == "generate" else ()
    seen = []
    for pairs in (argv[1:], ["%s=%s" % pair for pair in zip(argv[1::2], argv[2::2])]):
        code, stdout, err = run(capsys, argv[0], *pairs, "--domain", "-0.4:0.4:-0.4:0.4", *extra)
        assert code == 0, err
        seen.append((stdout, out.read_bytes() if extra else None))
    assert seen[0] == seen[1]


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


def test_canonicalize_cancelling_exponentials_take_quadrature(capsys):
    # f g' = exp(-z) exp(z) = 1 is constant only through cancelling exp(a z)
    # terms, which the polynomial fragment does not see: z(w) is inverted
    code, stdout, _ = run(
        capsys, "canonicalize", "--f", "exp(-z)", "--g", "exp(z)",
        "--domain", "-0.5:0.5:-0.5:0.5", "--grid", "21x21",
    )
    report = json.loads(stdout)
    assert code == 0 and report["affine"] is False and report["g_tilde"] is None
    assert report["residual_max"] < 1e-8 and report["invalid_samples"] == 0


def test_canonicalize_branch_error_exit_2(capsys):
    code, _, err = run(capsys, "canonicalize", "--f", "1", "--g", "z^3")
    assert code == 2
    assert "cone" in err


def test_canonicalize_cone_exit_masks_nodes(tmp_path, capsys):
    # f g' = z leaves the cone at S or T = -2/3: 30 of the 21 x 13 nodes lie beyond
    out = tmp_path / "zmap.csv"
    code, stdout, _ = run(
        capsys, "canonicalize", "--f", "1", "--g", "z^2/2", "--z0", "1",
        "--domain", "-0.6:0.4:-0.3:0.3", "--grid", "21x13", "--samples", str(out),
    )
    assert code == 0
    report = json.loads(stdout)
    assert report["invalid_samples"] == 21 * 13 - 243
    assert report["residual_max"] < 1e-12
    rows = out.read_text().splitlines()[1:]
    assert sum(row.endswith("nan,nan,nan,nan") for row in rows) == 30


def test_canonicalize_all_masked_null_residuals(capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, _ = run(
            capsys, "canonicalize", "--f", "1", "--g", "z^2/2", "--z0", "1",
            "--domain", "-2:-1.5:-0.1:0.1", "--grid", "5x5",
        )
    assert code == 0
    report = json.loads(stdout)
    assert report["invalid_samples"] == 25
    assert report["residual_max"] is None and report["residual_mean"] is None


def test_canonicalize_far_base_point_masks_nothing(capsys):
    # Phi = z, z0 = 100: every node is reachable, though ulp(z0) sqrt(Phi) exceeds 32 eps |s|
    code, stdout, _ = run(capsys, "canonicalize", "--f", "1", "--g", "z^2/2", "--z0", "100")
    report = json.loads(stdout)
    assert code == 0 and report["invalid_samples"] == 0
    assert report["residual_max"] < 1e-12 and report["residual_mean"] <= report["residual_max"]


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
    data = GeneratingData.canonical(parse("1/(z-0.3)"), base_point=splitc(0.7))
    resid = pde_residual(data, (0.5, 0.9, -0.2, 0.2), (9, 9))
    field = canonical_curvature_field(data, (0.5, 0.9, -0.2, 0.2), (9, 9), gate=0.3)
    # the patch's valid nodes beyond the gate are the curvature field's
    assert np.array_equal(np.isnan(resid), np.isnan(field.values))
    assert int(np.sum(np.isfinite(resid))) == 79 and np.nanmax(np.abs(resid)) < 1e-12
    code, stdout, _ = run(
        capsys, "verify", "--canonical", "--g", "1/(z-0.3)", "--base", "0.7",
        "--domain", "0.5:0.9:-0.2:0.2", "--grid", "9x9",
    )
    report = json.loads(stdout)
    assert report["gates"]["curvature_pde"]["max_residual"] == np.nanmax(np.abs(resid))
    assert report["gates"]["curvature_pde"]["pass"] is True
    assert code == 0


def test_verify_canonical_across_singular_null_lines(capsys):
    # g' = 0 on p = -1/2 and q = -1/2, the domain edges; the 310 nodes whose
    # null segments to the base point avoid them are checked, not none, and
    # the PDE holds on them with the branch sign(g'+ g'-) = +1 on either
    # part, though K < 0 on every node of the real part
    for part, selected in (("real", Part.REAL), ("imag", Part.IMAGINARY)):
        code, out, _ = run(
            capsys, "verify", "--canonical", "--g", "z^2+z+3", "--part", part,
            "--domain", "-0.5:0.5:-0.5:0.5", "--grid", "21x21",
        )
        gates = json.loads(out)["gates"]
        resid = pde_residual(GeneratingData.canonical(parse("z^2+z+3"), part=selected), (-0.5, 0.5, -0.5, 0.5), (21, 21))
        assert gates["canonical_coefficients"]["nodes"] == int(np.sum(np.isfinite(resid))) == 310
        assert gates["curvature_pde"]["max_residual"] == np.nanmax(np.abs(resid)) < 1e-12
        assert code == 0


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


@pytest.mark.parametrize("fmt", ["obj", "csv"])
def test_generate_and_verify_read_one_fold(tmp_path, capsys, fmt):
    # generate's summary (through write_csv for CSV) and verify's gates come
    # from the same fold over the forms blocks
    data = ("--f", "exp(0.5*z)", "--g", "1/(z-1.3)", "--grid", "23x23")
    code, stdout, _ = run(capsys, "generate", *data, "--format", fmt, "--out", str(tmp_path / ("p." + fmt)))
    assert code == 0
    generated = json.loads(stdout)
    code, stdout, _ = run(capsys, "verify", *data)
    gates = json.loads(stdout)["gates"]
    patch = evaluate_surface(GeneratingData.general(parse("exp(0.5*z)"), parse("1/(z-1.3)")), (-1, 1, -1, 1), (23, 23))
    forms = forms_grid(patch)
    assert gates["minimality"]["max_abs_H"] == generated["max_abs_H"] == np.nanmax(np.abs(forms.H))
    assert gates["timelike"]["violations"] == forms.metric_violations
    assert generated["k_min"] == np.nanmin(forms.K) and generated["k_max"] == np.nanmax(forms.K)


@pytest.mark.parametrize("argv", [
    ("verify", "--from-csv", "CSV", "--f", "1"),
    ("verify", "--from-csv", "CSV", "--g", "z"),
    ("verify", "--from-csv", "CSV", "--canonical"),
    ("verify", "--from-csv", "CSV", "--compare-parts"),
    ("verify", "--from-csv", "CSV", "--compare-parts", "--canonical", "--g", "z"),
    ("verify", "--canonical", "--f", "1", "--g", "z"),
    ("generate", "--canonical", "--f", "1", "--g", "z", "--out", "OUT"),
    ("generate", "--f", "1", "--out", "OUT"),
    # flags no gate would read: the data flags beside --from-csv, --tol-h
    # (imported points only) beside generating data, and the canonical
    # gates' flags without --canonical
    ("verify", "--from-csv", "CSV", "--domain", "0:1:0:1"),
    ("verify", "--from-csv", "CSV", "--grid", "9x9"),
    ("verify", "--from-csv", "CSV", "--part", "imag"),
    ("verify", "--from-csv", "CSV", "--base", "0.5"),
    ("verify", "--f", "1", "--g", "z", "--tol-h", "1e-6"),
    ("verify", "--f", "1", "--g", "z", "--tol-coeff", "1e-4"),
    ("verify", "--f", "1", "--g", "z", "--tol-pde", "1e-5"),
    ("verify", "--f", "1", "--g", "z", "--pde-gate", "0.3"),
    # a domain with a non-finite bound, or a width that overflows, in every
    # command that reads --domain
    ("generate", "--f", "1", "--g", "z", "--domain=-inf:1:-1:1", "--out", "OUT"),
    ("generate", "--f", "1", "--g", "z", "--domain=0:1e999:0:1", "--out", "OUT"),
    ("verify", "--canonical", "--g", "z", "--domain=-inf:1:-1:1", "--grid", "5x5"),
    ("verify", "--canonical", "--g", "z", "--domain=-1e308:1e308:0:1", "--grid", "5x5"),
    ("canonicalize", "--f", "1", "--g", "z", "--domain=-inf:1:-1:1"),
    ("canonicalize", "--f", "1", "--g", "z", "--domain=0:1e999:0:1"),
    ("transform", "--g", "z", "--phi", "0.3", "--domain=-inf:1:-1:1"),
], ids=["csv_f", "csv_g", "csv_canonical", "csv_compare_parts", "csv_three", "verify_canonical_f",
        "generate_canonical_f", "generate_no_g", "csv_domain", "csv_grid", "csv_part", "csv_base",
        "generated_tol_h", "tol_coeff_without_canonical", "tol_pde_without_canonical",
        "pde_gate_without_canonical", "generate_domain_inf", "generate_domain_1e999", "verify_domain_inf",
        "verify_domain_width_overflows", "canonicalize_domain_inf", "canonicalize_domain_1e999",
        "transform_domain_inf"])
def test_conflicting_or_missing_data_flags_are_usage_errors(tmp_path, capsys, argv):
    # data a command would ignore, data it lacks, or a domain it cannot
    # sample, is a usage error before any file is read or written
    csv, out = tmp_path / "e.csv", tmp_path / "out.obj"
    write_csv(str(csv), evaluate_surface(GeneratingData.general(parse("1"), parse("z")), (-1, 1, -1, 1), (9, 9)))
    argv = [{"CSV": str(csv), "OUT": str(out)}.get(arg, arg) for arg in argv]
    code, stdout, err = run(capsys, *argv)
    assert code == 3 and stdout == "" and err.startswith("usage error")
    assert not out.exists()


def test_verify_reads_each_tolerance_where_it_acts(tmp_path, capsys):
    csv = tmp_path / "e.csv"
    write_csv(str(csv), evaluate_surface(GeneratingData.general(parse("1"), parse("z")), (-1, 1, -1, 1), (9, 9)))
    code, stdout, _ = run(capsys, "verify", "--from-csv", str(csv))
    assert code == 1 and json.loads(stdout)["gates"]["minimality"]["tol"] == 1e-6
    code, stdout, _ = run(capsys, "verify", "--from-csv", str(csv), "--tol-h", "1.0")
    assert code == 0 and json.loads(stdout)["gates"]["minimality"]["tol"] == 1.0
    code, stdout, _ = run(capsys, "verify", "--canonical", "--g", "z", "--domain", "-0.4:0.4:-0.4:0.4",
                          "--grid", "9x9", "--tol-coeff", "1e-20", "--tol-pde", "0.5", "--pde-gate", "0.2")
    gates = json.loads(stdout)["gates"]
    assert code == 1 and gates["canonical_coefficients"]["tol"] == 1e-20
    assert gates["curvature_pde"]["tol"] == 0.5 and gates["curvature_pde"]["pass"] is True


@pytest.mark.parametrize("argv", [
    # the benchmark's verify shape, and a patch next to 1 - |g|^2 = 0
    ("--g", "(3.0+1.0*z^1+1.0*z^2)", "--domain=0.2:1.0:-0.4:0.4", "--grid=33x33"),
    ("--g", "z", "--domain", "0.95:1.05:-0.05:0.05", "--grid", "9x9"),
], ids=["bench", "near_locus"])
def test_verify_canonical_passes_on_correct_patches(capsys, argv):
    # analytic forms carry no stencil error into K, so E_vs_K holds to rounding
    code, stdout, _ = run(capsys, "verify", "--canonical", *argv)
    report = json.loads(stdout)
    assert code == 0 and report["pass"] is True
    assert report["gates"]["canonical_coefficients"]["max_residual"] < 1e-8
    assert report["gates"]["minimality"]["max_rounding_ratio"] <= cli.H_ROUNDING_BOUND


@pytest.mark.parametrize("f, g, grid", [("1", "z", "101x101"), ("exp(z)", "z^3", "33x33")],
                         ids=["enneper", "exp_cubic"])
def test_minimality_fails_a_curve_derivative_off_by_one_part_in_1e12(capsys, monkeypatch, f, g, grid):
    # psi3 scaled by 1 + 1e-12 leaves the curve derivative off the null cone:
    # H reaches hundreds of times its rounding scale, an |H| that a bound on
    # |H| alone cannot tell from the rounding next to 1 - |g|^2 = 0
    argv = ["verify", "--f", f, "--g", g, "--grid", grid]
    code, stdout, _ = run(capsys, *argv)
    assert code == 0 and json.loads(stdout)["gates"]["minimality"]["max_rounding_ratio"] <= 1.0
    exact = geometry.curve_expressions

    def off(data):
        psi1, psi2, psi3 = exact(data)
        return psi1, psi2, Const(splitc(1.0 + 1e-12)) * psi3

    monkeypatch.setattr(geometry, "curve_expressions", off)
    code, stdout, _ = run(capsys, *argv)
    minimality = json.loads(stdout)["gates"]["minimality"]
    assert code == 1 and minimality["pass"] is False
    assert minimality["max_rounding_ratio"] > 50 * cli.H_ROUNDING_BOUND


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


@pytest.mark.parametrize("text", [
    "[1, 2]", '{"x1": {"(a,b)": 1}}', '{"x1": {"(1,0)": "one"}}', '{"x1": {"(4,0)": 1.0}}',
    '{"x1": ', '{"x1": {"(1)": 1}}', '{"x1": [1]}',
], ids=["not_an_object", "bad_key", "not_a_number", "degree_4", "invalid_json", "short_key", "not_a_map"])
def test_classify_malformed_coefficients_are_usage_errors(tmp_path, capsys, text):
    path = tmp_path / "coeffs.json"
    path.write_text(text)
    code, stdout, err = run(capsys, "classify", str(path))
    assert code == 3 and stdout == ""
    assert err.startswith("usage error: bad coefficients")


def test_internal_value_error_is_not_a_usage_error(tmp_path, capsys, monkeypatch):
    # only input the CLI itself rejects is a usage error; an internal
    # ValueError escapes with its traceback
    def broken(*args, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(cli, "evaluate_surface", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["generate", "--f", "1", "--g", "z", "--grid", "5x5", "--out", str(tmp_path / "x.obj")])
    assert "usage error" not in capsys.readouterr().err


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
    # the per-cell writer the table helper replaced
    result = canonicalize(parse("exp(z)"), parse("exp(z)"), domain=(0.9, 2.9, -0.3, 0.3), grid=(9, 5))
    lines = ["u,v,z_re,z_im,g_tilde_re,g_tilde_im"]
    for i, u in enumerate(result.us):
        for j, v in enumerate(result.vs):
            vals = (u, v, result.z_values.re[i, j], result.z_values.im[i, j],
                    result.g_tilde_values.re[i, j], result.g_tilde_values.im[i, j])
            lines.append(",".join("%.17g" % val for val in vals))
    assert out.read_text() == "\n".join(lines) + "\n"


def test_transform_inversion_cli(capsys):
    code, stdout, _ = run(
        capsys, "transform", "--g", "z+3", "--phi", "0.2", "--form", "inversion"
    )
    assert code == 0
    report = json.loads(stdout)
    assert "witness" not in report
    assert report["g_tilde"].endswith("/ (z + 3.0)")


# ---------------------------------------------------------------------------
# mesh writers and the CSV reader against per-cell references
# ---------------------------------------------------------------------------


def reference_obj(patch):
    """The per-cell OBJ writer the row-at-a-time one replaced."""
    n, m = patch.shape
    index = np.zeros((n, m), int)
    out = []
    for i in range(n):
        for j in range(m):
            if patch.valid[i, j]:
                index[i, j] = len(out) + 1
                out.append("v %.17g %.17g %.17g\n" % tuple(patch.points[i, j]))
    for i in range(n - 1):
        for j in range(m - 1):
            a, b, c, d = index[i, j], index[i + 1, j], index[i + 1, j + 1], index[i, j + 1]
            if a and b and c and d:
                out.append("f %d %d %d\nf %d %d %d\n" % (a, b, c, a, c, d))
    return "".join(out)


def reference_csv(patch, grid):
    """The per-cell CSV writer the row-at-a-time one replaced."""
    out = ["u,v,x1,x2,x3,E,F,G,L,M,N,K,H\n"]
    for i in range(len(patch.us)):
        for j in range(len(patch.vs)):
            row = [patch.us[i], patch.vs[j], *patch.points[i, j]]
            row += [arr[i, j] for arr in (grid.E, grid.F, grid.G, grid.L, grid.M, grid.N, grid.K, grid.H)]
            out.append(",".join("%.17g" % r for r in row) + "\n")
    return "".join(out)


def reference_mesh(patch):
    def finite(x):
        return x if np.isfinite(x) else None

    return {
        "schema_version": 1,
        "us": patch.us.tolist(),
        "vs": patch.vs.tolist(),
        "points": [[[finite(x) for x in p] for p in row] for row in patch.points.tolist()],
        "valid": patch.valid.astype(int).tolist(),
    }


WRITER_PATCHES = {
    # the pole's null lines cross the grid: invalid nodes and dropped faces
    "pole_41x41": ("1", "1/(z-0.3)", (-1, 1, -1, 1), (41, 41)),
    # non-square, so a transposed writer shows
    "exp_17x9": ("1", "exp(z)", (-0.7, 0.9, -0.3, 0.5), (17, 9)),
    "enneper_3x3": ("1", "z", (-1, 1, -1, 1), (3, 3)),
}


@pytest.fixture(scope="module", params=sorted(WRITER_PATCHES))
def writer_patch(request):
    f, g, domain, grid = WRITER_PATCHES[request.param]
    patch = evaluate_surface(GeneratingData.general(parse(f), parse(g)), domain, grid)
    return patch, forms_grid(patch)


def test_writer_patches_cover_invalid_nodes():
    f, g, domain, grid = WRITER_PATCHES["pole_41x41"]
    patch = evaluate_surface(GeneratingData.general(parse(f), parse(g)), domain, grid)
    assert 0 < int(patch.valid.sum()) < patch.valid.size


def test_write_obj_matches_per_cell_writer(writer_patch, tmp_path):
    patch, _ = writer_patch
    path = tmp_path / "mesh.obj"
    verts, faces = write_obj(str(path), patch)
    text = path.read_text()
    assert text == reference_obj(patch)
    assert verts == int(patch.valid.sum()) == text.count("v ")
    assert faces == text.count("f ")


def test_write_csv_matches_per_cell_writer(writer_patch, tmp_path):
    patch, grid = writer_patch
    path = tmp_path / "mesh.csv"
    write_csv(str(path), patch)
    assert path.read_text() == reference_csv(patch, grid)


def test_write_json_mesh_is_compact_json_with_nulls(writer_patch, tmp_path):
    patch, _ = writer_patch
    path = tmp_path / "mesh.json"
    write_json_mesh(str(path), patch)
    expected = reference_mesh(patch)
    with open(path) as fh:
        assert json.load(fh) == expected
    assert path.read_text() == json.dumps(expected, sort_keys=True) + "\n"
    mesh = json.loads(path.read_text())
    for i, j in zip(*np.nonzero(~patch.valid)):
        assert mesh["valid"][i][j] == 0 and None in mesh["points"][i][j]


def test_read_csv_bit_exact(writer_patch, tmp_path):
    patch, _ = writer_patch
    path = tmp_path / "mesh.csv"
    write_csv(str(path), patch)
    back = read_csv_patch(str(path))
    assert np.array_equal(back.us, patch.us) and np.array_equal(back.vs, patch.vs)
    assert np.array_equal(back.points, patch.points, equal_nan=True)
    assert np.array_equal(back.valid, patch.valid)


def _small_table():
    us, vs = np.linspace(-0.5, 0.5, 4), np.linspace(0.0, 0.3, 3)
    rows = [(u, v, u + v, u * v, u - 2 * v) for u in us for v in vs]
    return us, vs, rows


def test_read_csv_any_row_order_missing_row_extra_columns_crlf(tmp_path):
    us, vs, rows = _small_table()
    order = np.random.default_rng(5).permutation(len(rows))
    dropped = order[0]
    lines = ["x3,extra,v,x2,u,x1"]
    for k in order[1:]:
        u, v, x1, x2, x3 = rows[k]
        lines.append("%.17g,7,%.17g,%.17g,%.17g,%.17g" % (x3, v, x2, u, x1))
    path = tmp_path / "shuffled.csv"
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    patch = read_csv_patch(str(path))
    assert np.array_equal(patch.us, us) and np.array_equal(patch.vs, vs)
    for k, (u, v, *xyz) in enumerate(rows):
        i, j = divmod(k, len(vs))
        if k == dropped:
            assert np.all(np.isnan(patch.points[i, j])) and not patch.valid[i, j]
        else:
            assert patch.points[i, j].tolist() == xyz and patch.valid[i, j]


@pytest.mark.parametrize(
    "text, message",
    [
        ("u,v,x1,x2,x3\n0,0,1,2,3\n0,1,1,2\n", "line 3"),
        ("u,v,x1,x2,x3\n0,0,1,2,3\n0,1,1,abc,4\n", "line 3"),
        ("u,v,x1,x2\n0,0,1,2\n", "x3"),
        ("u,v,x1,x2,x3\n\n", "no data rows"),
        ("u,v,x1,x2,x3\n0,0,1,2,3\nnan,1,1,2,4\n", "finite"),
        ("".join(["u,v,x1,x2,x3\n"] + ["%g,%g,1,2,3\n" % (u, v) for u in (0, 0.1, 0.3) for v in (0, 0.1)]), "u axis"),
    ],
    ids=["ragged_row", "unparsable_value", "missing_column", "no_data_rows", "nan_coordinate", "uneven_axis"],
)
def test_verify_malformed_csv_exit_2(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, stdout, stderr = run(capsys, "verify", "--from-csv", str(path))
    assert code == 2 and stdout == ""
    assert "numeric/domain error" in stderr and message in stderr
