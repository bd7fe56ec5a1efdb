"""Command-line front end: generate meshes, canonicalize, verify, classify,
transform.

Exit codes: 0 ok, 1 verification gates failed, 2 domain/numeric error,
3 usage or expression-parse error.  All reports are JSON with a schema
version field; every command is deterministic given its arguments.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .algebra import NoSquareRoot, SplitComplex, ZeroDivisor, splitc
from . import holofn
from .holofn import DomainError, ExprSyntaxError
from .weierstrass import GeneratingData, Part, SurfacePatch, evaluate_surface
from .geometry import forms_grid
from .canonical import (
    BranchError,
    InconclusiveOverlap,
    canonical_pde_residual,
    canonicalize,
    curvature_callable,
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
        u0, u1, v0, v1 = map(float, parts)
    except ValueError as exc:
        raise _UsageError("bad domain %r" % text) from exc
    if not (u0 < u1 and v0 < v1):
        raise _UsageError("domain must satisfy min < max per axis")
    return u0, u1, v0, v1


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
    g = holofn.parse(args.g)
    if getattr(args, "canonical", False):
        return GeneratingData.canonical(g, part=part, base_point=base)
    if args.f is None:
        raise _UsageError("provide --f EXPR or --canonical")
    return GeneratingData.general(holofn.parse(args.f), g, part=part, base_point=base)


# ---------------------------------------------------------------------------
# mesh / table writers
# ---------------------------------------------------------------------------


def _write_table(fh, header: str, columns):
    """CSV of %.17g values, one line per node of the grid the columns broadcast to."""
    table = np.stack(np.broadcast_arrays(*columns), axis=-1)
    line = ",".join(["%.17g"] * table.shape[-1]) + "\n"
    fh.write(header + "\n")
    for row in table:
        fh.write((line * len(row)) % tuple(row.ravel().tolist()))


def write_obj(path: str, patch: SurfacePatch):
    valid = patch.valid
    index = np.cumsum(valid).reshape(valid.shape)  # 1-based vertex numbers at valid nodes
    a, b, c, d = index[:-1, :-1], index[1:, :-1], index[1:, 1:], index[:-1, 1:]
    cells = valid[:-1, :-1] & valid[1:, :-1] & valid[1:, 1:] & valid[:-1, 1:]
    with open(path, "w") as fh:
        for row, ok in zip(patch.points, valid):
            fh.write(("v %.17g %.17g %.17g\n" * int(ok.sum())) % tuple(row[ok].ravel().tolist()))
        for i, ok in enumerate(cells):
            tris = np.stack([x[i, ok] for x in (a, b, c, a, c, d)], axis=-1)
            fh.write(("f %d %d %d\n" * (2 * len(tris))) % tuple(tris.ravel().tolist()))
    return int(valid.sum()), 2 * int(cells.sum())


_CSV_REQUIRED = ["u", "v", "x1", "x2", "x3"]


def write_csv(path: str, patch: SurfacePatch, grid=None):
    grid = grid if grid is not None else forms_grid(patch)
    columns = [patch.us[:, None], patch.vs[None, :], *np.moveaxis(patch.points, -1, 0)]
    columns += [grid.E, grid.F, grid.G, grid.L, grid.M, grid.N, grid.K, grid.H]
    with open(path, "w") as fh:
        _write_table(fh, "u,v,x1,x2,x3,E,F,G,L,M,N,K,H", columns)


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
    """Patch from a CSV with columns u,v,x1,x2,x3 among others; rows in any order, missing nodes NaN."""
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
    points = np.full((len(us), len(vs), 3), np.nan)
    points[iu, iv] = table[:, 2:]
    return SurfacePatch.from_points(us, vs, points)


def _finite_or_none(values: np.ndarray) -> list:
    return np.where(np.isfinite(values), values, None).tolist()


def write_json_mesh(path: str, patch: SurfacePatch):
    """Write the text of json.dumps(mesh, sort_keys=True), one row of points at a time."""
    rest = {"schema_version": SCHEMA_VERSION, "us": _finite_or_none(patch.us),
            "valid": patch.valid.astype(int).tolist(), "vs": _finite_or_none(patch.vs)}
    with open(path, "w") as fh:
        fh.write('{"points": [')
        for i, row in enumerate(patch.points):
            fh.write((", " if i else "") + json.dumps(_finite_or_none(row)))
        fh.write("], " + json.dumps(rest, sort_keys=True)[1:] + "\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_generate(args) -> int:
    data = _load_data(args)
    patch = evaluate_surface(data, _parse_domain(args.domain), _parse_grid(args.grid), tol=args.tol)
    grid = forms_grid(patch)
    verts, faces = int(patch.valid.sum()), 0
    if args.format == "obj":
        verts, faces = write_obj(args.out, patch)
    elif args.format == "csv":
        write_csv(args.out, patch, grid)
    else:
        write_json_mesh(args.out, patch)
    with np.errstate(invalid="ignore"):
        summary = {
            "schema_version": SCHEMA_VERSION,
            "command": "generate",
            "out": args.out,
            "format": args.format,
            "vertices": verts,
            "faces": faces,
            "invalid_samples": int((~patch.valid).sum()),
            "max_abs_H": float(np.nanmax(np.abs(grid.H))) if np.any(grid.valid) else None,
            "k_min": float(np.nanmin(grid.K)) if np.any(grid.valid) else None,
            "k_max": float(np.nanmax(grid.K)) if np.any(grid.valid) else None,
        }
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
            _write_table(fh, "u,v,z_re,z_im,g_tilde_re,g_tilde_im", [
                result.us[:, None], result.vs[None, :], result.z_values.re, result.z_values.im,
                result.g_tilde_values.re, result.g_tilde_values.im])
        report["samples"] = args.samples
    _emit(report)
    return 0


def cmd_verify(args) -> int:
    gates = {}
    data = None
    if args.from_csv:
        patch = read_csv_patch(args.from_csv)
    else:
        if args.g is None:
            raise _UsageError("provide --g (with --f or --canonical) or --from-csv")
        data = _load_data(args)
        patch = evaluate_surface(data, _parse_domain(args.domain), _parse_grid(args.grid))
    grid = forms_grid(patch)
    if not np.any(grid.valid):
        raise DomainError("no valid interior nodes to verify")
    max_h = float(np.nanmax(np.abs(grid.H)))
    gates["minimality"] = {"max_abs_H": max_h, "tol": args.tol_h, "pass": max_h < args.tol_h}
    gates["timelike"] = {
        "violations": grid.metric_violations,
        "pass": grid.metric_violations == 0,
    }
    if data is not None and data.is_canonical:
        rep = verify_canonical_coefficients(grid)
        gates["canonical_coefficients"] = dict(
            rep.summary(), tol=args.tol_coeff, **{"pass": rep.max_residual < args.tol_coeff}
        )
        resid = canonical_pde_residual(
            curvature_callable(data, args.pde_gate),
            sign="auto", h=1e-3,
            us=patch.us, vs=patch.vs,
        )
        if np.any(np.isfinite(resid.values)):
            max_resid = float(np.nanmax(np.abs(resid.values)))
            gates["curvature_pde"] = {
                "max_residual": max_resid,
                "tol": args.tol_pde,
                "pass": max_resid < args.tol_pde,
            }
        else:
            gates["curvature_pde"] = {
                "status": "skipped",
                "reason": "no node has a finite residual: every node is singular "
                          "or within --pde-gate %g of 1 - |g|^2 = 0" % args.pde_gate,
            }
    if args.compare_parts and data is not None:
        flipped = GeneratingData(
            g=data.g, f=data.f, base_point=data.base_point,
            part=Part.IMAGINARY if data.part == Part.REAL else Part.REAL,
        )
        other = evaluate_surface(flipped, _parse_domain(args.domain), _parse_grid(args.grid))
        kg1 = grid.K
        kg2 = forms_grid(other).K
        both = np.isfinite(kg1) & np.isfinite(kg2)
        opposition = bool(np.all(kg1[both] * kg2[both] < 0.0)) if np.any(both) else False
        with np.errstate(invalid="ignore", divide="ignore"):
            ratio = np.abs(kg2[both]) / np.abs(kg1[both])
        gates["part_curvature_signs"] = {
            "pass": opposition,
            "nodes": int(np.sum(both)),
            "magnitude_ratio_min": float(np.min(ratio)) if np.any(both) else None,
            "magnitude_ratio_max": float(np.max(ratio)) if np.any(both) else None,
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
    p.add_argument("--part", choices=("real", "imag"), default="real")
    p.add_argument("--base", help="base point z0, split-complex literal", default=None)
    p.add_argument("--domain", default="-1:1:-1:1", help="umin:umax:vmin:vmax")
    p.add_argument("--grid", default="41x41")


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
    p.add_argument("--tol-h", type=float, default=1e-6)
    p.add_argument("--tol-coeff", type=float, default=1e-4)
    p.add_argument("--tol-pde", type=float, default=1e-5)
    p.add_argument("--pde-gate", type=float, default=0.3)
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
