"""Command-line front end: generate meshes, canonicalize, verify, classify,
transform.

Exit codes: 0 ok, 1 verification gates failed, 2 domain/numeric error,
3 usage or expression-parse error.  All reports are JSON with a schema
version field; every command is deterministic given its arguments.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import sys

import numpy as np

from .algebra import NoSquareRoot, SplitComplex, ZeroDivisor, splitc
from . import holofn
from .holofn import DomainError, ExprSyntaxError
from .weierstrass import GeneratingData, Part, SurfacePatch, _domain, evaluate_surface
from .geometry import BlockFold, forms_blocks
from .canonical import (
    BranchError,
    InconclusiveOverlap,
    canonical_pde_residual,
    canonicalize,
    coefficient_summary,
    verify_canonical_coefficients,
)
from .equivalence import (
    InvalidParams,
    MoebiusForm,
    MoebiusParams,
    moebius_transform,
    motion_witness,
    witness_discrepancy,
)
from .classify import CubicParametrization, classify_cubic

SCHEMA_VERSION = 1

_NUMERIC_ERRORS = (
    DomainError,
    ZeroDivisor,
    NoSquareRoot,
    BranchError,
    InconclusiveOverlap,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _parse_domain(text: str):
    parts = text.split(":")
    if len(parts) != 4:
        raise _UsageError("domain must be umin:umax:vmin:vmax")
    try:
        return _domain(parts)
    except ValueError as exc:
        raise _UsageError("bad domain %r: %s" % (text, exc)) from exc


def _parse_grid(text: str):
    try:
        n, m = text.lower().split("x")
        n, m = int(n), int(m)
    except ValueError as exc:
        raise _UsageError("grid must look like 41x41") from exc
    if n < 3 or m < 3:
        raise _UsageError("grid must be at least 3x3")
    return n, m


def _parse_const(text: str) -> SplitComplex:
    try:
        return holofn.parse_constant(text)
    except ExprSyntaxError:
        raise
    except ValueError as exc:
        raise _UsageError(str(exc)) from exc


def _jsonable(value):
    if isinstance(value, float):
        return None if not np.isfinite(value) else value
    if isinstance(value, np.floating):
        return _jsonable(float(value))
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, dict):
        return {k: _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return value


def _emit(report: dict, stream=None):
    stream = stream or sys.stdout
    json.dump(_jsonable(report), stream, indent=2, sort_keys=True)
    stream.write("\n")


def _load_data(args) -> GeneratingData:
    part = Part.REAL if args.part == "real" else Part.IMAGINARY
    base = _parse_const(args.base) if args.base else splitc(0.0)
    if args.g is None:
        raise _UsageError("provide --g EXPR (verify also reads --from-csv FILE)")
    if args.canonical == (args.f is not None):
        raise _UsageError("provide one of --f EXPR and --canonical (which sets f = 1/g')")
    g = holofn.parse(args.g)
    return GeneratingData(g=g, f=None if args.canonical else holofn.parse(args.f), part=part, base_point=base)


# ---------------------------------------------------------------------------
# mesh / table writers
# ---------------------------------------------------------------------------


def _write_table(fh, columns):
    """CSV lines of %.17g values, one per node of the grid the columns
    broadcast to, formatted one grid row at a time from broadcast views, so
    no (n, m, columns) table is built."""
    columns = np.broadcast_arrays(*columns)
    line = ",".join(["%.17g"] * len(columns)) + "\n"
    for i in range(len(columns[0])):
        row = np.stack([c[i] for c in columns], axis=-1)
        fh.write((line * len(row)) % tuple(row.ravel().tolist()))


def write_obj(path: str, patch: SurfacePatch):
    """OBJ of the valid nodes, numbered from 1 in row order, and two triangles
    per cell whose four corners are valid, written one grid row at a time."""
    valid = patch.valid
    faces = 0
    with open(path, "w") as fh:
        for row, ok in zip(patch.points, valid):
            fh.write(("v %.17g %.17g %.17g\n" * int(ok.sum())) % tuple(row[ok].ravel().tolist()))
        top = np.cumsum(valid[0])  # 1-based vertex numbers at the valid nodes of a row
        for upper, lower in zip(valid[:-1], valid[1:]):
            bottom = top[-1] + np.cumsum(lower)
            ok = upper[:-1] & lower[:-1] & lower[1:] & upper[1:]
            a, b, c, d = top[:-1], bottom[:-1], bottom[1:], top[1:]
            tris = np.stack([x[ok] for x in (a, b, c, a, c, d)], axis=-1)
            fh.write(("f %d %d %d\n" * (2 * len(tris))) % tuple(tris.ravel().tolist()))
            faces += 2 * len(tris)
            top = bottom
    return int(valid.sum()), faces


_CSV_REQUIRED = ["u", "v", "x1", "x2", "x3"]


def _fold_forms(blocks, canonical=None, others=None) -> BlockFold:
    """generate's summary and verify's forms gates, folded over the (rows,
    forms) blocks of forms_blocks: valid, max_abs_H, max_H_ratio (of |H| to
    H_scale), k_min, k_max, violations; with canonical = (patch, pde_gate),
    for the canonical patch of the blocks, coefficient_summary's statistics
    and the largest |canonical_pde_residual| (pde_max); and with the other
    part's blocks on the same grid (others) the nodes where both K are
    finite, whether all are opposed and their magnitude ratio's extremes."""
    fold = BlockFold()
    if canonical is not None:
        patch, gate = canonical
        g_exprs = patch.provenance.g, patch.provenance.g.derivative()

    def add(rows, forms):
        fold.add("valid", np.logical_or, forms.valid)
        fold.add("max_abs_H", np.fmax, np.abs(forms.H))
        with np.errstate(invalid="ignore", divide="ignore"):
            # NaN for fd forms, whose H_scale is NaN
            fold.add("max_H_ratio", np.fmax, np.abs(forms.H) / forms.H_scale)
        fold.add("k_min", np.fmin, forms.K)
        fold.add("k_max", np.fmax, forms.K)
        fold.add("violations", np.add, forms.metric_violations)
        if canonical is not None:
            verify_canonical_coefficients(forms).fold(fold)
            # g and g' per null side at the rows' knots of the patch's index
            resid = canonical_pde_residual(forms, *(patch._index.sides(e, rows) for e in g_exprs), gate)
            fold.add("pde_max", np.fmax, np.abs(resid))
        if others is not None:
            kg1, kg2 = forms.K, next(others)[1].K
            finite = np.isfinite(kg1) & np.isfinite(kg2)
            fold.add("both", np.add, finite)
            fold.add("opposed", np.logical_and, kg1[finite] * kg2[finite] < 0.0)
            with np.errstate(invalid="ignore", divide="ignore"):
                ratio = np.abs(kg2[finite]) / np.abs(kg1[finite])
            fold.add("ratio_min", np.minimum, ratio)
            fold.add("ratio_max", np.maximum, ratio)

    for rows, forms in blocks:
        # add's arrays go when it returns; the block's forms go here, else
        # they are held while the next block is made
        add(rows, forms)
        del forms
    return fold


def write_csv(path: str, patch: SurfacePatch) -> BlockFold:
    """CSV of every node's u, v, point and forms E, F, G, L, M, N, K, H,
    written one block of grid rows at a time as forms_blocks gives them, so
    no whole-grid forms are held; returns generate's _fold_forms of the
    blocks."""
    with open(path, "w") as fh:
        fh.write("u,v,x1,x2,x3,E,F,G,L,M,N,K,H\n")

        def written(block):
            rows, forms = block
            _write_table(fh, [patch.us[rows, None], patch.vs[None, :], *np.moveaxis(patch.points[rows], -1, 0),
                              *(getattr(forms, name) for name in ("E", "F", "G", "L", "M", "N", "K", "H"))])
            return block

        # map, unlike a generator, holds no block while the next one is made
        return _fold_forms(map(written, forms_blocks(patch)))


def _bad_csv_line(fh, cols):
    """The first data line of fh that lacks a number in one of the columns cols."""
    fh.seek(0)
    for lineno, line in enumerate(fh, 1):
        try:
            if lineno > 1 and line != "\n":
                [float(line.split(",")[k]) for k in cols]
        except (IndexError, ValueError):
            return "line %d lacks a number in a u,v,x1,x2,x3 column: %r" % (lineno, line.rstrip("\n"))


def read_csv_patch(path: str) -> SurfacePatch:
    """Patch from a CSV with columns u,v,x1,x2,x3 among others; rows in any order, missing nodes NaN.
    Each axis must be evenly spaced, so a missing node is a row with nan x1,x2,x3."""
    with open(path) as fh:
        header = [name.strip() for name in fh.readline().split(",")]
        missing = [name for name in _CSV_REQUIRED if name not in header]
        if missing:
            raise DomainError("%s: header lacks column(s) %s" % (path, ", ".join(missing)))
        cols = [header.index(name) for name in _CSV_REQUIRED]
        if not any(line.strip() for line in fh):
            raise DomainError("%s: no data rows after the header" % path)
        fh.seek(0)
        try:
            table = np.loadtxt(fh, delimiter=",", ndmin=2, usecols=cols, comments=None, skiprows=1)
        except ValueError as exc:
            raise DomainError("%s: %s" % (path, _bad_csv_line(fh, cols) or exc)) from None
    if not np.all(np.isfinite(table[:, :2])):
        raise DomainError("%s: u and v must be finite on every row" % path)
    (us, iu), (vs, iv) = (np.unique(table[:, k], return_inverse=True) for k in (0, 1))
    # the fd stencils of forms_blocks take one step per axis
    for name, axis in (("u", us), ("v", vs)):
        steps = np.diff(axis)
        if steps.size and np.max(np.abs(steps - steps.mean())) > 1e-6 * steps.mean():
            raise DomainError("%s: the %s axis is unevenly spaced (steps %.6g to %.6g); write a missing node "
                              "as a row with nan x1,x2,x3 coordinates" % (path, name, steps.min(), steps.max()))
    points = np.full((len(us), len(vs), 3), np.nan)
    points[iu, iv] = table[:, 2:]
    return SurfacePatch.from_points(us, vs, points)


def _finite_or_none(values: np.ndarray) -> list:
    return np.where(np.isfinite(values), values, None).tolist()


def write_json_mesh(path: str, patch: SurfacePatch):
    """Write the text of json.dumps(mesh, sort_keys=True), the node-sized
    fields (points, valid) one grid row at a time."""
    rows = {"points": (_finite_or_none(row) for row in patch.points),
            "valid": (row.astype(int).tolist() for row in patch.valid)}
    rest = {"schema_version": SCHEMA_VERSION, "us": _finite_or_none(patch.us), "vs": _finite_or_none(patch.vs)}
    with open(path, "w") as fh:
        for i, key in enumerate(sorted([*rows, *rest])):
            fh.write(("{" if i == 0 else ", ") + json.dumps(key) + ": ")
            if key in rest:
                fh.write(json.dumps(rest[key]))
                continue
            fh.write("[")
            for j, row in enumerate(rows[key]):
                fh.write((", " if j else "") + json.dumps(row))
            fh.write("]")
        fh.write("}\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    args = _defaulted(args)
    data = _load_data(args)
    patch = evaluate_surface(data, _parse_domain(args.domain), _parse_grid(args.grid), tol=args.tol)
    summary = {
        "schema_version": SCHEMA_VERSION,
        "command": "generate",
        "out": args.out,
        "format": args.format,
        "invalid_samples": int((~patch.valid).sum()),
    }
    # the CSV writer folds the forms over the blocks it writes; the OBJ and
    # JSON writers read the points alone
    fold = write_csv(args.out, patch) if args.format == "csv" else _fold_forms(forms_blocks(patch))
    # without a valid node there is no summary; a NaN extreme reads null
    summary.update({key: float(fold[key]) if fold["valid"] else None for key in ("max_abs_H", "k_min", "k_max")})
    verts, faces = int(patch.valid.sum()), 0
    if args.format == "obj":
        verts, faces = write_obj(args.out, patch)
    elif args.format == "json":
        write_json_mesh(args.out, patch)
    summary.update(vertices=verts, faces=faces)
    _emit(summary)
    return 0


def cmd_canonicalize(args) -> int:
    f = holofn.parse(args.f)
    g = holofn.parse(args.g)
    w0 = _parse_const(args.w0) if args.w0 else splitc(0.0)
    z0 = _parse_const(args.z0) if args.z0 else w0
    result = canonicalize(
        f, g, w0=w0, z0=z0, domain=_parse_domain(args.domain),
        grid=_parse_grid(args.grid), sign=+1 if args.sign == "+" else -1,
    )
    g_tilde = None
    if result.g_tilde_expr is not None:
        poly = holofn.expr_to_poly(result.g_tilde_expr)
        g_tilde = str(holofn.poly_to_expr(poly.chop())) if poly is not None else str(result.g_tilde_expr)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "canonicalize",
        "affine": result.affine,
        "g_tilde": g_tilde,
        "sign": args.sign,
        "w0": str(result.w0),
        "z0": str(result.z0),
        "residual_max": result.max_residual,
        "residual_mean": result.mean_residual,
        "invalid_samples": int(np.sum(np.isnan(result.z_values.re))),
    }
    if args.samples:
        with open(args.samples, "w") as fh:
            fh.write("u,v,z_re,z_im,g_tilde_re,g_tilde_im\n")
            _write_table(fh, [result.us[:, None], result.vs[None, :], result.z_values.re, result.z_values.im,
                              result.g_tilde_values.re, result.g_tilde_values.im])
        report["samples"] = args.samples
    _emit(report)
    return 0


# the defaults of the data flags and verify's tolerances, which verify must
# see unset to tell which flags were given
_DEFAULTS = {"part": "real", "domain": "-1:1:-1:1", "grid": "41x41", "tol_h": 1e-6, "tol_coeff": 1e-4,
             "tol_pde": 1e-5, "pde_gate": 0.3}
# verify's flags by what a gate needs to read them: the generating data
# (no --from-csv), imported points (--from-csv) or --canonical
_VERIFY_READS = {"data": ("f", "g", "canonical", "compare_parts", "part", "base", "domain", "grid"),
                 "csv": ("tol_h",), "canonical": ("tol_coeff", "tol_pde", "pde_gate")}
# the minimality gate on analytic forms: |H| <= H_ROUNDING_BOUND H_scale per node
H_ROUNDING_BOUND = 8.0


def _defaulted(args):
    """args with the default of every flag not given."""
    return argparse.Namespace(**{**vars(args), **{k: v for k, v in _DEFAULTS.items() if getattr(args, k, 0) is None}})


def cmd_verify(args) -> int:
    csv = args.from_csv is not None
    reads = {"data": not csv, "csv": csv, "canonical": args.canonical}
    unread = [name for need, names in _VERIFY_READS.items() if not reads[need]
              for name in names if getattr(args, name) not in (None, False)]
    if unread:
        raise _UsageError("no gate reads --%s here" % ", --".join(unread).replace("_", "-"))
    args = _defaulted(args)
    gates = {}
    others = None
    if csv:
        patch = read_csv_patch(args.from_csv)
    else:
        data = _load_data(args)
        grid = _parse_domain(args.domain), _parse_grid(args.grid)
        patch = evaluate_surface(data, *grid)
        if args.compare_parts:
            flipped = dataclasses.replace(data, part=Part.IMAGINARY if data.part == Part.REAL else Part.REAL)
            # the same grid, so the same blocks of rows as the patch's
            others = forms_blocks(evaluate_surface(flipped, *grid))
    fold = _fold_forms(forms_blocks(patch), (patch, args.pde_gate) if args.canonical else None, others)
    if not fold["valid"]:
        raise DomainError("no valid nodes to verify")
    # no number among the valid nodes' H (or ratio) is NaN and fails the gate
    max_h, ratio = float(fold["max_abs_H"]), float(fold["max_H_ratio"])
    gates["minimality"] = ({"max_abs_H": max_h, "tol": args.tol_h, "pass": max_h < args.tol_h} if csv else
                           {"max_abs_H": max_h, "max_rounding_ratio": ratio, "rounding_bound": H_ROUNDING_BOUND,
                            "pass": ratio <= H_ROUNDING_BOUND})
    violations = int(fold["violations"])
    gates["timelike"] = {"violations": violations, "pass": violations == 0}
    if args.canonical:
        summary = coefficient_summary(fold)
        gates["canonical_coefficients"] = dict(
            summary, tol=args.tol_coeff, **{"pass": summary["max_residual"] < args.tol_coeff}
        )
        max_resid = float(fold["pde_max"])
        if np.isnan(max_resid):
            gates["curvature_pde"] = {"status": "skipped",
                                      "reason": "no valid node has |1 - |g|^2| > --pde-gate %g" % args.pde_gate}
        else:
            gates["curvature_pde"] = {"max_residual": max_resid, "tol": args.tol_pde, "pass": max_resid < args.tol_pde}
    if others is not None:
        both = int(fold["both"])
        gates["part_curvature_signs"] = {
            "pass": both > 0 and bool(fold["opposed"]),
            "nodes": both,
            "magnitude_ratio_min": fold.get("ratio_min"),
            "magnitude_ratio_max": fold.get("ratio_max"),
        }
    ok = all(g["pass"] for g in gates.values() if g.get("status") != "skipped")
    _emit({"schema_version": SCHEMA_VERSION, "command": "verify", "gates": gates, "pass": ok})
    return 0 if ok else 1


def cmd_classify(args) -> int:
    try:
        if args.coeffs == "-":
            obj = json.load(sys.stdin)
        else:
            with open(args.coeffs) as fh:
                obj = json.load(fh)
        if not (isinstance(obj, dict) and all(isinstance(obj.get(k, {}), dict) for k in ("x1", "x2", "x3"))):
            raise ValueError("expected a JSON object of x1, x2, x3 coefficient maps")
        cubic = CubicParametrization.from_json(obj)
    except (ValueError, TypeError, IndexError) as exc:
        raise _UsageError("bad coefficients: %s" % exc) from exc
    verdict = classify_cubic(cubic)
    _emit(dict({"schema_version": SCHEMA_VERSION, "command": "classify"}, **verdict.to_dict()))
    return 0


def cmd_transform(args) -> int:
    g = holofn.parse(args.g)
    params = MoebiusParams(
        phi=args.phi,
        alpha=_parse_const(args.alpha) if args.alpha else splitc(0.0),
        sign=-1 if args.minus else +1,
        form=MoebiusForm.INVERSION if args.form == "inversion" else MoebiusForm.FRACTIONAL,
    )
    g_tilde = moebius_transform(g, params, inversion_reading=args.inversion_reading)
    report = {
        "schema_version": SCHEMA_VERSION,
        "command": "transform",
        "g_tilde": str(g_tilde),
        "form": params.form.value,
    }
    if params.form == MoebiusForm.FRACTIONAL:
        witness = motion_witness(params)
        disc = witness_discrepancy(g, params, _parse_domain(args.domain), _parse_grid(args.grid))
        report["witness"] = {
            "A": witness.A,
            "B": witness.B,
            "matrix": witness.matrix,
            "metric_preserved": witness.preserves_metric(),
            "max_discrepancy": disc,
            "tol": args.tol,
            "pass": disc < args.tol,
        }
        _emit(report)
        return 0 if disc < args.tol else 1
    _emit(report)
    return 0


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def _add_data_args(p):
    p.add_argument("--f", help="generating function f(z)")
    p.add_argument("--g", help="generating function g(z)")
    p.add_argument("--canonical", action="store_true", help="use the special form with f = 1/g'")
    p.add_argument("--part", choices=("real", "imag"), help="default " + _DEFAULTS["part"])
    p.add_argument("--base", help="base point z0, split-complex literal; default 0")
    p.add_argument("--domain", help="umin:umax:vmin:vmax; default " + _DEFAULTS["domain"])
    p.add_argument("--grid", help="default " + _DEFAULTS["grid"])


def build_parser() -> _Parser:
    parser = _Parser(prog="splitsurf", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="sample a surface patch and export a mesh")
    _add_data_args(p)
    p.add_argument("--tol", type=float, default=1e-10, help="quadrature tolerance")
    p.add_argument("--out", required=True)
    p.add_argument("--format", choices=("obj", "csv", "json"), default="obj")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("canonicalize", help="transform isothermal data to canonical parameters")
    p.add_argument("--f", required=True)
    p.add_argument("--g", required=True)
    p.add_argument("--w0", default=None)
    p.add_argument("--z0", default=None)
    p.add_argument("--domain", default="-1:1:-1:1")
    p.add_argument("--grid", default="33x33")
    p.add_argument("--sign", choices=("+", "-"), default="+")
    p.add_argument("--samples", default=None, help="write sampled z(w), g~(w) as CSV")
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("verify", help="run residual gates on a patch")
    _add_data_args(p)
    p.add_argument("--from-csv", default=None, help="verify an imported patch instead")
    p.add_argument("--tol-h", type=float, help="bound on |H| of imported points; default %g" % _DEFAULTS["tol_h"])
    for flag in ("--tol-coeff", "--tol-pde", "--pde-gate"):
        p.add_argument(flag, type=float, help="with --canonical; default %g" % _DEFAULTS[flag[2:].replace("-", "_")])
    p.add_argument("--compare-parts", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("classify", help="classify a cubic isothermal parametrization")
    p.add_argument("coeffs", help="JSON coefficient file, or - for stdin")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("transform", help="apply a canonical-function transformation")
    p.add_argument("--g", required=True)
    p.add_argument("--phi", type=float, default=0.0)
    p.add_argument("--alpha", default=None)
    p.add_argument("--minus", action="store_true", help="use the - sign choice")
    p.add_argument("--form", choices=("fractional", "inversion"), default="fractional")
    p.add_argument("--inversion-reading", choices=("g", "f"), default="g")
    p.add_argument("--domain", default="-0.4:0.4:-0.4:0.4")
    p.add_argument("--grid", default="5x5")
    p.add_argument("--tol", type=float, default=1e-9)
    p.set_defaults(func=cmd_transform)
    return parser


def _value_flags(parser) -> set:
    """Option strings of every action of parser and its subcommands that takes a value."""
    flags = set()
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                flags |= _value_flags(sub)
        elif action.nargs != 0:
            flags.update(action.option_strings)
    return flags


def _join_negative_values(argv, flags):
    """Join each flag in flags to a following value that begins with a single
    minus sign, so that argparse does not read the value as an option."""
    out = []
    for tok in argv:
        if out and out[-1] in flags and tok.startswith("-") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


@functools.cache
def _cached_parser():
    """The parser and its value-taking flags, built on the first call.  A
    parser keeps no state between parse_args calls: defaults land on each
    call's namespace, and help and errors go to the sys.stdout and sys.stderr
    of the call."""
    parser = build_parser()
    return parser, frozenset(_value_flags(parser))


def main(argv=None) -> int:
    parser, flags = _cached_parser()
    if argv is None:
        argv = sys.argv[1:]
    argv = _join_negative_values(argv, flags)
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except ExprSyntaxError as exc:
        print(
            "expression error: %s (expected: %s)"
            % (exc, ", ".join(sorted(exc.expected)) or "n/a"),
            file=sys.stderr,
        )
        return 3
    except (_UsageError, InvalidParams) as exc:
        print("usage error: %s" % exc, file=sys.stderr)
        return 3
    except _NUMERIC_ERRORS as exc:
        print("numeric/domain error: %s" % exc, file=sys.stderr)
        return 2
    except OSError as exc:
        print("io error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
