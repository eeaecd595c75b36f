"""One workload in one fresh interpreter: set up, then a closed loop over its op list.

Started by run.py, never directly.  It prints ``ready`` once set-up is done
(import, input generation, corpus files written into ``--workdir``, one
warm-up op) and, unless
``--setup-only``, runs whole passes of the op list, one op at a time from a
single thread, until another pass would not fit in ``--seconds`` (at least
one pass).  The last line of its output is a JSON summary for run.py.

Every timed sample is stamped with the speed probe (``speed.py``) and
scaled to the nominal machine speed afterwards.  With ``--trace 1`` every
op runs twice in a row, once plain and once with the tracing wrappers
installed (alternating which goes first), so that the trace overhead is
measured on the same ops.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from array import array

# Set-up starts here: importing scatterkit is part of it.
import speed
import workloads
from tracing import Tracer

import scatterkit._kernels as kernels

HERE = os.path.dirname(os.path.abspath(__file__))


def run_op(op, digests, failures):
    """Run one op, time it, check its outcome two ways; return (seconds, ok)."""
    start = time.perf_counter()
    try:
        outcome = op.run()
    except Exception as exc:  # an op that raises is a failed op, not a crashed run
        elapsed = time.perf_counter() - start
        failures.append(f"{op.id}: raised {type(exc).__name__}: {exc}")
        return elapsed, False
    elapsed = time.perf_counter() - start
    expected = digests.get(op.id)
    try:
        identity = op.check(outcome)
    except Exception as exc:
        failures.append(f"{op.id}: check raised {type(exc).__name__}: {exc}")
        return elapsed, False
    if expected != workloads.digest(outcome):
        failures.append(f"{op.id}: outcome digest {workloads.digest(outcome)} != recorded {expected}")
        return elapsed, False
    if not identity:
        failures.append(f"{op.id}: identity check failed on {outcome[:200]!r}")
        return elapsed, False
    return elapsed, True


def measure(ops, digests, seconds, tracer):
    """Closed loop over whole passes of the op list.

    Returns the untraced samples per op and the traced samples of all ops,
    each as (raw seconds, speed-probe stamp) arrays, the raw untraced time
    of each pass, the probe, and the op-run counts.
    """
    probe = speed.SpeedProbe()
    raw = [array("d") for _ in ops]
    stamps = [array("i") for _ in ops]
    traced = (array("d"), array("i"))
    plain_walls = []
    failures = []
    attempted = failed = 0
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        plain = 0.0
        for i, op in enumerate(ops):
            runs = [False] if tracer is None else ([False, True] if i % 2 == 0 else [True, False])
            for with_trace in runs:
                stamp = probe.poll()
                if with_trace:
                    tracer.op_id += 1
                    tracer.install()
                try:
                    elapsed, ok = run_op(op, digests, failures)
                finally:
                    if with_trace:
                        tracer.uninstall()
                attempted += 1
                failed += not ok
                if with_trace:
                    traced[0].append(elapsed)
                    traced[1].append(stamp)
                else:
                    plain += elapsed
                    raw[i].append(elapsed)
                    stamps[i].append(stamp)
        plain_walls.append(plain)
        if tracer is not None:
            tracer.fold()
        now = time.perf_counter()
        if now + (now - pass_start) > begin + seconds:
            break
    probe.poll()
    return raw, stamps, traced, plain_walls, probe, attempted, failed, failures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", help="where a traced run writes its first pass of spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = workloads.WORKLOADS[args.workload]
    os.makedirs(args.workdir, exist_ok=True)
    ops = workload.ops(args.seed, args.workdir)
    with open(os.path.join(HERE, "digests.json"), encoding="utf-8") as handle:
        digests = json.load(handle)[workload.name]
    failures = []
    run_op(workload.warmup(args.workdir), digests, failures)
    if failures:
        print(f"warm-up op failed: {failures[0]}", file=sys.stderr)
        return 1
    print("ready", flush=True)
    if args.setup_only:
        return 0
    tracer = Tracer(kernels.backend_name()) if args.trace else None
    raw, stamps, traced, plain_walls, probe, attempted, failed, failures = measure(
        ops, digests, args.seconds, tracer
    )
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    samples = [probe.scaled(r, k) for r, k in zip(raw, stamps)]
    cuts = statistics.quantiles([statistics.median(x) for x in samples], n=100, method="inclusive")
    summary = {
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "ops": len(ops),
        "passes": len(plain_walls),
        "backend": kernels.backend_name(),
        "wall_s": statistics.median(sum(x[p] for x in samples) for p in range(len(plain_walls))),
        "op_p50_ms": cuts[49] * 1000,
        "op_p90_ms": cuts[89] * 1000,
        "peak_rss_mb": peak_rss_mb,
        "raw_wall_s": statistics.median(plain_walls),
        "speed_probes": len(probe.samples),
        "median_speed_scale": speed.NOMINAL_REFERENCE_S / statistics.median(probe.samples),
    }
    if tracer is not None:
        summary["layers"] = tracer.metrics()
        traced_total = sum(probe.scaled(*traced))
        summary["layers"]["trace_overhead_frac"] = traced_total / sum(map(sum, samples)) - 1
        if args.spans:
            tracer.write_spans(args.spans)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
