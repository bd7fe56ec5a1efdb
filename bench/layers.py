"""Per-layer metrics from the spans of a traced run.

A span is ``[name, start, end, parent, command, counts]`` as recorded by the
worker.  Self time is a span's duration minus the time its child spans
cover; calls run one at a time, so that is the sum of the children's
durations.
"""

from __future__ import annotations

import statistics

# layer span -> per-layer time metric (summed self time per job)
TIME_METRICS = {
    "holofn.parse": "holofn.parse_s",
    "holofn.antiderivative": "holofn.antiderivative_s",
    "weierstrass.evaluate_surface": "weierstrass.evaluate_surface_s",
    "geometry.forms_grid": "geometry.forms_grid_s",
    "cli.write_obj": "cli.write_obj_s",
    "cli.write_csv": "cli.write_csv_s",
    "cli.write_json": "cli.write_json_s",
    "cli.read_csv": "cli.read_csv_s",
    "canonical.verify_coefficients": "canonical.verify_coefficients_s",
    "canonical.pde_residual": "canonical.pde_residual_s",
    "canonical.canonicalize": "canonical.canonicalize_s",
    "canonical.curvature_field": "canonical.curvature_field_s",
    "canonical.compare": "canonical.compare_s",
    "equivalence.coincide": "equivalence.coincide_s",
    "classify.classify": "classify.classify_s",
}
WRITERS = ("cli.write_obj", "cli.write_csv", "cli.write_json")

# name -> (unit, better); the order is the order of the report
PER_LAYER = {
    **{name: ("s", "lower") for name in TIME_METRICS.values()},
    "cli.bytes_written": ("count", "lower"),
    "cli.write_mb_per_s": ("MB/s", "higher"),
    "holofn.closed_form_ratio": ("count", "higher"),
    "weierstrass.valid_ratio": ("count", "higher"),
    "weierstrass.reach_ratio": ("count", "higher"),
    "geometry.valid_ratio": ("count", "higher"),
    "canonical.gate_pass_ratio": ("count", "higher"),
    "canonical.affine_ratio": ("count", "higher"),
    "canonical.compare_overlap": ("count", "higher"),
    "trace.overhead_ratio": ("ratio", "lower"),
}


def self_times(spans):
    """[(name, self seconds)] for one job's spans."""
    covered = [0.0] * len(spans)
    for name, start, end, parent, _, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    return [(s[0], s[2] - s[1] - covered[i]) for i, s in enumerate(spans)]


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(traced_jobs, counted_jobs, overhead: float) -> dict:
    """Per-layer metric values.

    traced_jobs: every traced job as (spans, judged commands); times are the
    median over these jobs of the per-job summed self time.  counted_jobs: the
    fixed leading subset whose counts are reported, so that the counts repeat
    exactly for a seed whatever the run length.
    """
    per_job = []
    write_bytes = write_s = 0.0
    for spans, _ in traced_jobs:
        sums = dict.fromkeys(TIME_METRICS.values(), 0.0)
        for span, (name, dt) in zip(spans, self_times(spans)):
            if name in TIME_METRICS:
                sums[TIME_METRICS[name]] += dt
            if name in WRITERS:
                write_bytes += span[5]["bytes"]
                write_s += dt
        per_job.append(sums)
    out = {m: statistics.median(j[m] for j in per_job) if per_job else 0.0
           for m in TIME_METRICS.values()}

    c = dict.fromkeys(("bytes", "anti", "closed", "ws_nodes", "ws_valid", "reach", "fg_nodes",
                       "fg_valid", "gates", "passed", "canon", "affine", "compares", "overlap"), 0)
    for spans, judged in counted_jobs:
        for name, _, _, _, cmd, counts in spans:
            if name in WRITERS:
                c["bytes"] += counts["bytes"]
            elif name == "holofn.antiderivative":
                c["anti"] += 1
                c["closed"] += counts["closed"]
            elif name == "weierstrass.evaluate_surface":
                c["ws_nodes"] += counts["nodes"]
                c["ws_valid"] += counts["valid"]
                c["reach"] += judged[cmd]["counts"].get("reachable", counts["nodes"])
            elif name == "geometry.forms_grid":
                c["fg_nodes"] += counts["nodes"]
                c["fg_valid"] += counts["valid"]
            elif name == "canonical.canonicalize":
                c["canon"] += 1
                c["affine"] += counts["affine"]
            elif name == "canonical.compare":
                c["compares"] += 1
                c["overlap"] += counts["overlap"]
        for cmd in judged:
            c["gates"] += cmd["counts"].get("gates", 0)
            c["passed"] += cmd["counts"].get("gates_passed", 0)
    out.update({
        "cli.bytes_written": _ratio(c["bytes"], len(counted_jobs)),
        "cli.write_mb_per_s": _ratio(write_bytes / 1e6, write_s),
        "holofn.closed_form_ratio": _ratio(c["closed"], c["anti"]),
        "weierstrass.valid_ratio": _ratio(c["ws_valid"], c["ws_nodes"]),
        "weierstrass.reach_ratio": _ratio(c["ws_valid"], c["reach"]),
        "geometry.valid_ratio": _ratio(c["fg_valid"], c["fg_nodes"]),
        "canonical.gate_pass_ratio": _ratio(c["passed"], c["gates"]),
        "canonical.affine_ratio": _ratio(c["affine"], c["canon"]),
        "canonical.compare_overlap": _ratio(c["overlap"], c["compares"]),
        "trace.overhead_ratio": overhead,
    })
    return out
