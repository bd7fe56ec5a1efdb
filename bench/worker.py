"""Long-lived child interpreter that runs benchmark jobs against splitsurf.

Protocol: one JSON job per line on stdin, one JSON reply per line on stdout.
CLI commands go through ``splitsurf.cli.main`` with their output captured;
equivalence commands call ``surfaces_coincide`` and ``classify_cubic``.  The
job wall time is taken here, around the commands only.  With ``trace`` set
in a job, span wrappers around each layer's public functions are installed
for that job and the spans come back with the reply.

Run as ``python3 bench/worker.py`` with splitsurf importable.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

import splitsurf
from splitsurf import canonical, classify, cli, equivalence, geometry, holofn, weierstrass
from splitsurf.weierstrass import GeneratingData


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------


def _file_bytes(out, args, kwargs):
    path = args[0] if args else kwargs.get("path")
    return {"bytes": os.path.getsize(path)}


def _patch_counts(out, args, kwargs):
    return {"nodes": int(out.valid.size), "valid": int(out.valid.sum())}


# span name, defining module, function, counts taken from the returned object
LAYERS = [
    ("holofn.parse", holofn, "parse", None),
    ("holofn.antiderivative", holofn, "antiderivative", lambda out, a, k: {"closed": out is not None}),
    ("weierstrass.evaluate_surface", weierstrass, "evaluate_surface", _patch_counts),
    ("geometry.forms_grid", geometry, "forms_grid", _patch_counts),
    ("cli.write_obj", cli, "write_obj", _file_bytes),
    ("cli.write_csv", cli, "write_csv", _file_bytes),
    ("cli.write_json", cli, "write_json_mesh", _file_bytes),
    ("cli.read_csv", cli, "read_csv_patch", _patch_counts),
    ("canonical.verify_coefficients", canonical, "verify_canonical_coefficients", None),
    ("canonical.pde_residual", canonical, "canonical_pde_residual", None),
    ("canonical.canonicalize", canonical, "canonicalize", lambda out, a, k: {"affine": bool(out.affine)}),
    ("canonical.curvature_field", canonical, "canonical_curvature_field", None),
    ("canonical.compare", canonical, "compare_curvature_fields", lambda out, a, k: {"overlap": int(out.overlap)}),
    ("equivalence.coincide", equivalence, "surfaces_coincide", None),
    ("classify.classify", classify, "classify_cubic", None),
]


class Tracer:
    """Span wrappers swapped into every splitsurf namespace that names a layer function."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.command = -1
        self.patches = []  # (namespace, attribute, original, wrapper)
        self.missing = []
        namespaces = [m for name, m in sorted(sys.modules.items())
                      if name == "splitsurf" or name.startswith("splitsurf.")]
        for span, module, attr, counts in LAYERS:
            orig = getattr(module, attr, None)
            if orig is None:
                self.missing.append(span)
                continue
            wrapper = self._wrap(span, orig, counts)
            for ns in namespaces:
                for key, val in list(vars(ns).items()):
                    if val is orig:
                        self.patches.append((ns, key, orig, wrapper))

    def _wrap(self, name, fn, counts):
        spans, stack = self.spans, self.stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = [name, start, end, parent, self.command, None]
            if counts is not None:
                spans[idx][5] = counts(out, args, kwargs)
            return out

        return wrapper

    def install(self):
        for ns, key, _, wrapper in self.patches:
            setattr(ns, key, wrapper)

    def uninstall(self):
        for ns, key, orig, _ in self.patches:
            setattr(ns, key, orig)

    def take(self):
        out = list(self.spans)
        self.spans.clear()
        return out


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    text = out.getvalue()
    try:
        report = json.loads(text) if text.strip() else None
    except json.JSONDecodeError:
        report = None
    return {"rc": rc, "report": report, "stderr": err.getvalue()[-500:]}


def _data(spec) -> GeneratingData:
    g = holofn.parse(spec["g"])
    if "f" in spec:
        return GeneratingData.general(holofn.parse(spec["f"]), g)
    return GeneratingData.canonical(g)


def run_coincide(cmd):
    n = cmd["grid"]
    res = equivalence.surfaces_coincide(
        _data(cmd["data1"]), _data(cmd["data2"]), tuple(cmd["domain"]), grid=(n, n))
    gauge = res.gauge
    return {"result": {
        "coincide": bool(res.coincide),
        "eps": None if gauge is None else int(gauge.eps),
        "A": None if gauge is None else float(gauge.A),
        "B": None if gauge is None else float(gauge.B),
        "discrepancy": float(res.discrepancy),
    }}


def run_classify(cmd):
    maps = [{(int(i), int(j)): float(c) for i, j, c in comp} for comp in cmd["maps"]]
    verdict = classify.classify_cubic(classify.CubicParametrization.from_coeff_maps(*maps))
    return {"result": {"verdict": verdict.verdict.value, "scale": verdict.scale}}


def run_command(cmd):
    try:
        if isinstance(cmd, list):
            return run_cli(cmd)
        if cmd["op"] == "coincide":
            return run_coincide(cmd)
        return run_classify(cmd)
    except Exception as exc:  # an escaped exception is a failed command
        return {"error": "%s: %s" % (type(exc).__name__, exc)}


def main():
    tracer = Tracer()
    ready = {"ready": True, "splitsurf": os.path.abspath(splitsurf.__file__),
             "untraced_layers": tracer.missing}
    sys.stdout.write(json.dumps(ready) + "\n")
    sys.stdout.flush()
    for line in sys.stdin:
        job = json.loads(line)
        traced = bool(job.get("trace"))
        if traced:
            tracer.install()
        answers = []
        start = time.perf_counter()
        for k, cmd in enumerate(job["commands"]):
            tracer.command = k
            answers.append(run_command(cmd))
        wall = time.perf_counter() - start
        if traced:
            tracer.uninstall()
        reply = {"id": job["id"], "wall_s": wall, "answers": answers,
                 "spans": tracer.take() if traced else []}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
