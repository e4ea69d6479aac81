"""One benchmark process: set up a workload, then run its timed or traced loop.

Usage: python3 worker.py WORKLOAD SEED SECONDS TRACE WORKDIR WORKER

Prints ``ready`` once set-up is done (run.py times set-up from spawn to
this line), then one JSON line with the raw results. Nothing else goes to
stdout. Ops run closed-loop, one at a time.
"""
import json
import resource
import sys
from time import perf_counter

import tracing
import workloads

MAX_ERRORS = 5


def timed_run(wl, seconds, worker):
    """Ops until their summed time reaches ``seconds`` (at least one op);
    each op is verified after its clock stops. Peak RSS is read after the
    first op, so it does not depend on how many ops fitted in."""
    times, failed, attempted, errors = [], 0, 0, []
    elapsed, peak_kb = 0.0, None
    usage = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
    for variant in wl.schedule(worker):
        if attempted and elapsed >= seconds:
            break
        attempted += 1
        start = perf_counter()
        try:
            raw = wl.op(variant)
        except Exception as exc:  # a failed op is counted, not fatal
            elapsed += perf_counter() - start
            failed += 1
            errors.append(f"{variant}: {exc!r}")
            continue
        dt = perf_counter() - start
        elapsed += dt
        peak_kb = peak_kb or resource.getrusage(usage).ru_maxrss
        problems = wl.verify(variant, wl.collect(variant, raw))
        if problems:
            failed += 1
            errors += problems
        else:
            times.append(dt)
    return {"op_s": times, "attempted": attempted, "failed": failed,
            "errors": errors[:MAX_ERRORS], "elapsed_s": elapsed,
            "peak_rss_kb": peak_kb or resource.getrusage(usage).ru_maxrss}


def traced_run(wl, seconds):
    """Whole cycles of (plain op, traced op) pairs until plain and traced
    op time together reach ``seconds``. The traced op's outputs must equal
    the plain op's; per-layer totals are summed over the traced ops."""
    tracer = tracing.Tracer()
    totals, plain_s, traced_s, ops, failed = {}, 0.0, 0.0, 0, 0
    errors = []
    while plain_s + traced_s < seconds:
        for variant in wl.trace_cycle():
            start = perf_counter()
            raw = wl.op(variant)
            plain_s += perf_counter() - start
            plain = wl.collect(variant, raw)
            raw, layers, op_s = wl.traced_op(variant, tracer)
            traced_s += op_s
            traced = wl.collect(variant, raw)
            tracing.merge(totals, layers)
            ops += 1
            problems = wl.verify(variant, traced)
            if traced != plain:
                problems.append(f"{variant}: traced output differs from untraced")
            if problems:
                failed += 1
                errors += problems
    return {"layers": totals, "attempted": ops, "failed": failed,
            "errors": errors[:MAX_ERRORS], "plain_s": plain_s, "traced_s": traced_s,
            "missing": sorted(tracer.missing)}


def main(workload, seed, seconds, trace, workdir, worker):
    wl = workloads.WORKLOADS[workload](workdir, seed)
    print("ready", flush=True)
    wl.prepare()
    result = traced_run(wl, seconds) if trace else timed_run(wl, seconds, worker)
    result["shape"] = wl.shape()
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    name, seed, seconds, trace, workdir, worker = sys.argv[1:]
    main(name, int(seed), float(seconds), trace == "1", workdir, int(worker))
