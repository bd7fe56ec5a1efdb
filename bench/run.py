"""splitsurf benchmark: three workloads through the public entry points.

    python3 bench/run.py --workload export --seed 1 --seconds 30 --trace 0

Workloads (see inputs.py): ``export`` (mesh writers and the CSV read-back),
``quadrature`` (non-fragment data integrated numerically) and ``equivalence``
(same-surface decisions and cubic classification).

Load model: a closed loop with one client.  One long-lived worker
interpreter (worker.py) runs one job at a time; a job is a fixed sequence of
commands on one seeded input, timed as a whole.  CLI commands go through
``splitsurf.cli.main`` in the worker; the interpreter cold start a CLI user
also pays is measured on its own as ``setup_s``.  After each job every answer
is checked by an oracle that does not use splitsurf (oracle.py), outside the
timed region, and the job's files, written under ``.bench_tmp/`` in the
checkout, are deleted.

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (layers.py) in which every job runs once
untraced and once with span wrappers, to measure the tracing overhead.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``attempted``
counts commands and ``failed`` those that did not complete (an exception
or an error exit).  A completed command whose answer the oracle rejects
lowers ``ok_ratio``; ``correct`` is false when a command failed or when a
rejection is not one of the KNOWN_DEFECTS of the seed commit.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import select
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import oracle
import layers

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# one BLAS thread per child: with the default two on two cores, child CPU time
# exceeded wall time
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_STARTS = 5
MIN_JOBS = 21  # the op_s_tail rank leaves 10 jobs beyond it and stays >= p50
TAIL_BEYOND = 10
TRACE_COUNT_JOBS = 8
MAX_RUN_S = 140.0
JOB_TIMEOUT_S = 60.0
WARMUP_INDEX = 999_999

# name -> (unit, better, bound); bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression
END_TO_END = {
    "setup_s": ("s", "lower", 0.25),
    "nodes_per_s": ("1/s", "higher", 0.25),
    "op_s_p50": ("s", "lower", 0.25),
    "op_s_tail": ("s", "lower", 0.25),
    "peak_rss_mb": ("MB", "lower", 0.05),
    "ok_ratio": ("ratio", "higher", 0.01),
}

# Answers the oracle rejects at the seed commit, by case.  They stay in the
# workloads and show as ok_ratio < 1; any other rejection makes the run
# incorrect.
KNOWN_DEFECTS = {
    "odd_lattice_shift": "with over 2500 shift candidates compare_curvature_fields searches every second "
                         "shift first and refines around the 12 with the smallest max discrepancy, "
                         "which can drop an odd lattice shift",
    "enneper_small_rotation": "classify_cubic reports Enneper rotated 0.004 rad from the identity as degenerate "
                              "('f g is not divisible by the square root of f')",
    "offlattice_shift": "compare_curvature_fields tries lattice translations only, "
                        "so a gauge shift of half a grid step is reported as a different surface",
    "pole_near_lattice": "evaluate_surface marks a node degenerate when its conformal factor is below "
                         "1e-12 of the patch maximum, so one node next to a singular line invalidates all others",
    "small_exponent": "the closed-form antiderivative of exp(a z) p(z) cancels catastrophically "
                      "for |a| <= 0.004; vertices are off by 5e-6 and more",
}


class BenchError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")
    env.update(dict.fromkeys(BLAS_VARS, "1"))
    return env


def measure_setup(workload: str, env: dict) -> float:
    """Median cold start of the entry point, after one untimed warm start."""
    if workload == "equivalence":
        argv = [sys.executable, "-c", "import splitsurf"]
    else:
        argv = [sys.executable, "-m", "splitsurf.cli", "--help"]
    times = []
    for k in range(SETUP_STARTS + 1):
        start = time.perf_counter()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
                                  stderr=subprocess.PIPE, timeout=60)
        except subprocess.TimeoutExpired as exc:
            raise BenchError("entry point did not start within 60 s") from exc
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError("entry point failed: %s" % proc.stderr.decode()[-300:])
        if k:
            times.append(elapsed)
    return statistics.median(times)


class Worker:
    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py")], cwd=ROOT, env=env,
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            ready = self._read(60.0)
            if not Path(ready["splitsurf"]).resolve().is_relative_to(SRC.resolve()):
                raise BenchError("worker imported splitsurf from %s" % ready["splitsurf"])
        except BaseException:
            self.kill()
            raise
        if ready["untraced_layers"]:
            print("# layers without a span: %s" % ", ".join(ready["untraced_layers"]))

    def _read(self, timeout: float) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise BenchError("worker gave no reply (exit code %s)" % self.proc.poll())
        return json.loads(line)

    def run(self, job: dict, traced: bool) -> dict:
        msg = {"id": job["id"], "commands": job["commands"], "trace": traced}
        self.proc.stdin.write(json.dumps(msg) + "\n")
        self.proc.stdin.flush()
        return self._read(JOB_TIMEOUT_S)

    def close(self):
        """End the worker by closing its input and wait for it."""
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.kill()

    def kill(self):
        self.proc.kill()
        self.proc.wait()


# ---------------------------------------------------------------------------
# judging and statistics
# ---------------------------------------------------------------------------


def command_nodes(check: dict) -> int:
    """Grid nodes a command handles; each field counts once for a decision."""
    if "grid" not in check:
        return 0
    return check["grid"] ** 2 * (2 if check["check"] == "coincide" else 1)


def judge_job(job: dict, reply: dict) -> list:
    judged = []
    for check, answer in zip(job["checks"], reply["answers"]):
        failed = "error" in answer or answer.get("rc", 0) not in (0, 1)
        ok, reason, counts = oracle.judge(check, answer)
        if failed:
            reason = answer.get("error") or "exit %s: %s" % (answer.get("rc"), answer.get("stderr", "").strip())
        case = check.get("case") or check.get("family", {}).get("kind") or check["check"]
        judged.append({"ok": ok and not failed, "failed": failed, "case": case, "reason": reason,
                       "nodes": command_nodes(check), "counts": counts})
    for path in job["files"]:
        if os.path.exists(path):
            os.remove(path)
    return judged


def tail_rank(n: int) -> int:
    """1-based rank of op_s_tail: the highest order statistic with 10 jobs beyond it."""
    return n - TAIL_BEYOND


def percentiles(times: list) -> dict:
    n = len(times)
    if n < MIN_JOBS:
        raise BenchError("only %d jobs ran; op_s_tail needs at least %d" % (n, MIN_JOBS))
    ordered = sorted(times)
    k = tail_rank(n)
    out = {"n": n, "p50": statistics.median(ordered), "tail": ordered[k - 1], "tail_pct": 100.0 * k / n}
    check_tail(out["p50"], out["tail"])
    return out


def check_tail(p50: float, tail: float):
    """Self-check: a tail percentile of the sample that gave p50 cannot lie below it."""
    if tail < p50:
        raise BenchError("self-check failed: op_s_tail %.6g < op_s_p50 %.6g" % (tail, p50))


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_file = ROOT / ".git" / ref[5:]
        return ref_file.read_text().strip() if ref_file.is_file() else "unknown (packed ref %s)" % ref[5:]
    return ref


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


def run_jobs(worker: Worker, args, tmpdir: str):
    """Jobs for --seconds of wall time, oracle checks included, and at least
    MIN_JOBS of them.  In trace mode each job runs twice, untraced and traced."""
    warm = inputs.draw_job(args.workload, args.seed, WARMUP_INDEX, tmpdir)
    judge_job(warm, worker.run(warm, traced=False))
    if args.trace:
        judge_job(warm, worker.run(warm, traced=True))
    jobs = []
    start = time.perf_counter()
    needed = TRACE_COUNT_JOBS if args.trace else MIN_JOBS
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_RUN_S or (elapsed >= args.seconds and len(jobs) >= needed):
            break
        job = inputs.draw_job(args.workload, args.seed, len(jobs), tmpdir)
        order = (False,)
        if args.trace:  # alternate which side runs first, so neither gains from warm files
            order = (False, True) if len(jobs) % 2 == 0 else (True, False)
        runs = {}
        for traced in order:
            reply = worker.run(job, traced)
            runs[traced] = (reply, judge_job(job, reply))
        jobs.append(runs)
    return jobs


def summarize(args, jobs, setup_s: float):
    judged = [cmd for runs in jobs for _, j in runs.values() for cmd in j]
    attempted = len(judged)
    failed = sum(c["failed"] for c in judged)
    rejected = {}
    for c in judged:
        if not c["ok"]:
            rejected.setdefault(c["case"], []).append(c["reason"])
    unexpected = {k: v for k, v in rejected.items() if k not in KNOWN_DEFECTS}
    correct = failed == 0 and not unexpected

    print("# %s seed=%d seconds=%d trace=%d jobs=%d commands=%d failed=%d"
          % (args.workload, args.seed, args.seconds, args.trace, len(jobs), attempted, failed))
    for case, reasons in sorted(rejected.items()):
        tag = "known defect" if case in KNOWN_DEFECTS else "UNEXPECTED"
        print("# %s %s: %d rejected, e.g. %s" % (tag, case, len(reasons), reasons[0]))
        if case in KNOWN_DEFECTS:
            print("#   why: %s" % KNOWN_DEFECTS[case])

    if args.trace:
        untraced = [runs[False][0]["wall_s"] for runs in jobs]
        traced = [(runs[True][0]["spans"], runs[True][1]) for runs in jobs]
        overhead = sum(runs[True][0]["wall_s"] for runs in jobs) / sum(untraced) - 1.0
        values = layers.layer_metrics(traced, traced[:TRACE_COUNT_JOBS], overhead)
        units = {k: v[0] for k, v in layers.PER_LAYER.items()}
        print("# per-layer: times are medians over %d traced jobs of the summed self time per job;"
              " counts come from the first %d jobs" % (len(traced), TRACE_COUNT_JOBS))
    else:
        walls = [runs[False][0]["wall_s"] for runs in jobs]
        pct = percentiles(walls)
        ok_nodes = sum(c["nodes"] for c in judged if c["ok"])
        values = {
            "setup_s": setup_s,
            "nodes_per_s": ok_nodes / sum(walls),
            "op_s_p50": pct["p50"],
            "op_s_tail": pct["tail"],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
            "ok_ratio": sum(c["ok"] for c in judged) / attempted,
        }
        units = {k: v[0] for k, v in END_TO_END.items()}
        print("# op_s_p50 is the median of %d jobs; op_s_tail is their p%.1f (rank %d of %d,"
              " %d jobs beyond); setup_s is the median of %d cold starts"
              % (pct["n"], pct["tail_pct"], tail_rank(pct["n"]), pct["n"], TAIL_BEYOND, SETUP_STARTS))
    for name, value in values.items():
        print("%-34s %.6g %s" % (name, value, units[name]))
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in values.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=inputs.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "splitsurf" / "__init__.py").is_file():
        print("bench: no splitsurf sources under %s" % SRC, file=sys.stderr)
        return 2
    env = child_env()
    print("# git=%s python=%s numpy=%s nproc=%s %s"
          % (git_sha(), platform.python_version(), np.__version__, os.cpu_count(),
             " ".join("%s=%s" % (v, env[v]) for v in BLAS_VARS)))
    tmpdir = ROOT / ".bench_tmp" / str(os.getpid())
    tmpdir.mkdir(parents=True, exist_ok=True)
    worker = None
    try:
        setup_s = measure_setup(args.workload, env)
        worker = Worker(env)
        jobs = run_jobs(worker, args, str(tmpdir))
        worker.close()
        worker = None
        result = summarize(args, jobs, setup_s)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 1
    finally:
        if worker is not None:
            worker.kill()
        shutil.rmtree(tmpdir, ignore_errors=True)
        try:
            tmpdir.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
