"""qrakit benchmark: cold CLI, in-process library sweep, 10k corpus assess and convert.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all      # every workload, one after another

Untraced (--trace 0), a run spawns WORKERS fresh worker processes one after
another. Each sets the workload up from a fresh interpreter (``setup_s``
is the median of these set-ups) and then runs its share of S seconds of
op time, closed-loop, one client, checking every op against the oracle.
Spreading set-ups and ops over the run's whole span, and pooling the ops
of all workers, keeps a drifting host from skewing one metric alone.
Traced (--trace 1), one worker alternates plain and traced ops and reports
per-layer numbers per op; three ``python -X importtime`` passes give the
import metrics. A fixed stdlib loop timed at the start and end of the run
tells host drift from program noise.

The last stdout line is the result object; the lines above it repeat each
metric with its unit and give the diagnostics. Exits 1 when any op failed
or an output disagreed with the oracle, 2 when the checkout has no qrakit.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import workloads
from tracing import layer_metrics
from workloads import SRC, child_env

HERE = Path(__file__).resolve().parent
WORKERS = 3
IMPORT_PASSES = 3
TIMEOUT_S = 150


def calibration_ms():
    """Median of five runs of a fixed pure-Python loop (~20 ms each)."""
    samples = []
    for _ in range(5):
        start = perf_counter()
        x = 0
        for i in range(200_000):
            x = (x * 31 + i) % 1_000_003
        samples.append((perf_counter() - start) * 1000.0)
    return statistics.median(samples)


def spawn_worker(args, workdir, seconds, worker=0):
    """Run worker number ``worker`` for ``seconds`` of op time; return
    (set-up seconds, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), args.workload, str(args.seed),
           repr(seconds), str(args.trace), str(workdir), str(worker)]
    workdir.mkdir(parents=True)
    start = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=child_env(), cwd=workdir)
    try:
        ready = proc.stdout.readline()
        setup_s = perf_counter() - start
        out, _ = proc.communicate(timeout=TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"worker {args.workload} exited {proc.returncode} "
                           f"before finishing (stdout: {(ready + out)[-500:]!r})")
    return setup_s, json.loads(out.splitlines()[-1])


def percentile(values, q):
    """Linearly interpolated q-quantile (q in [0, 1])."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def timed(args, workdir):
    setups, peaks, elapsed = [], [], 0.0
    result = {"op_s": [], "attempted": 0, "failed": 0, "errors": []}
    for k in range(WORKERS):
        # each worker gets an equal share of what earlier ones left over
        setup_s, r = spawn_worker(args, workdir / f"worker{k}",
                                  max(args.seconds - elapsed, 0.0) / (WORKERS - k), k)
        setups.append(setup_s)
        peaks.append(r["peak_rss_kb"])
        elapsed += r["elapsed_s"]
        for key in ("op_s", "attempted", "failed", "errors"):
            result[key] += r[key]
        result["shape"] = r["shape"]
    ops = result["op_s"] or [0.0]  # every op failed; the run reports correct: false
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "op_ms.p50": (percentile(ops, 0.5) * 1000.0, "ms"),
        "op_ms.p90": (percentile(ops, 0.9) * 1000.0, "ms"),
        "ops_per_s": (len(result["op_s"]) / elapsed, "1/s"),
        "peak_rss_mb": (statistics.median(peaks) / 1024.0, "MB"),
    }
    diagnostics = {"setup_s_samples": setups, "ops_measured": len(result["op_s"]),
                   "error_rate": result["failed"] / max(result["attempted"], 1)}
    return result, metrics, diagnostics


def import_times_ms():
    """Median over IMPORT_PASSES fresh ``import qrakit`` runs of the
    cumulative import time of qrakit, scipy and numpy (outermost entries)."""
    passes = []
    for _ in range(IMPORT_PASSES):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qrakit"],
                              capture_output=True, text=True, env=child_env(), timeout=TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"import qrakit failed: {proc.stderr[-500:]}")
        passes.append(parse_importtime(proc.stderr))
    return {name: statistics.median(p[name] for p in passes) for name in passes[0]}


def parse_importtime(text):
    """Cumulative ms per package from ``-X importtime`` output, counting an
    entry only when no enclosing entry belongs to the same package."""
    entries = [(len(m.group(2)) // 2, m.group(3), int(m.group(1)))
               for m in re.finditer(r"^import time:\s+\d+ \|\s+(\d+) \|( *)(\S+)", text, re.M)]
    totals = dict.fromkeys(("qrakit", "scipy", "numpy"), 0)
    stack = []  # ancestors of the current entry, walking parents before children
    for depth, name, cumulative_us in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = name.split(".")[0]
        if package in totals and all(p != package for _, p in stack):
            totals[package] += cumulative_us / 1000.0
        stack.append((depth, package))
    return totals


def traced(args, workdir):
    _, result = spawn_worker(args, workdir / "trace", args.seconds)
    ops = result["attempted"]
    metrics = {f"import.{name}_ms": (ms, "ms") for name, ms in import_times_ms().items()}
    metrics.update(layer_metrics(result["layers"], ops))
    metrics["trace.overhead_pct"] = ((result["traced_s"] / result["plain_s"] - 1.0) * 100.0, "%")
    return result, metrics, {"traced_ops": ops, "untraced_targets": result["missing"]}


def run(args):
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    calibration = {"start_ms": calibration_ms()}
    try:
        result, metrics, diagnostics = (traced if args.trace else timed)(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    calibration["end_ms"] = calibration_ms()
    correct = result["failed"] == 0
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} {value:.6g} {unit}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "shape": result["shape"],
                      "calibration": calibration, **diagnostics, "errors": result["errors"]}))
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"],
                      "metrics": {name: {"value": value, "unit": unit}
                                  for name, (value, unit) in metrics.items()}}), flush=True)
    return correct


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*workloads.WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "qrakit" / "__init__.py").is_file():
        print(f"error: no qrakit sources under {SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    ok = True
    for name in names:
        ok &= run(argparse.Namespace(**{**vars(args), "workload": name}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
