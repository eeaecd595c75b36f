"""scatterkit benchmark: three workloads, end-to-end metrics and, traced, per-layer ones.

Run from the repository root:

    python3 perfbench/run.py                       # every workload, seed 0, untraced
    python3 perfbench/run.py --workload group-census --seed 3 --trace 0
    python3 perfbench/run.py --workload homeo-enum --trace 1

Workloads (why each exists: ``workloads.py``; costs left out on purpose:
``workloads.NOT_OPS``):

- ordinal-stream: 1000 library queries on ordinal text (ordinal, classify,
  groups), 3% of them malformed or out of domain.
- homeo-enum: full homeomorphism-group enumeration through the CLI (K6, K7,
  Petersen, discrete 7 and 8, two fan forests, the prop24 suite, 105
  random graphs on 6-8 vertices).
- group-census: full transitivity, normal subgroups and flows through the
  CLI (the Remark 19 spaces up to 6 points, 300 random rigid T0 spaces on
  3-7 points, flows on spaces and on n <= 6, the remark19,
  full-transitivity and flows suites).

Each workload runs in fresh interpreters (``worker.py``): one closed loop,
one client, one thread.  Set-up (interpreter start, importing scatterkit,
generating inputs, writing corpus files, one warm-up op) is timed on nine
``--setup-only`` starts, each scaled to the nominal machine speed by the
reference interpreter starts timed around it, and reported as the median.
A tenth, measuring start then runs whole passes of its fixed op list while
another pass fits in BENCHMARK.json's ``run_seconds`` (always at least
one); ``--seconds`` is accepted only with that value.  Op times are scaled
to the nominal machine speed too (``speed.py``: the shared machines this
runs on swing by +-25% within a minute); the raw pass time is printed with
them.

- wall_s: median over passes of the time to finish the op list;
- op_p50_ms, op_p90_ms: percentiles over the ops of each op's median time
  (the sample count is the number of ops);
- failed_frac: op runs whose outcome differs from the expected one (wrong
  answer, unexpected exception or wrong error class), over op runs;
- peak_rss_mb: peak resident memory of the measuring process.

failed_frac is printed but is not one of the JSON metrics, because a metric
there must never read 0; the JSON carries it as ``failed`` / ``attempted``.
A nonzero failed_frac makes the command exit with status 1.

``--trace 1`` reports the per-layer metrics of BENCHMARK.json instead, per
pass of the op list and in raw seconds, from spans recorded around
scatterkit's public functions (``tracing.py``), plus trace_overhead_frac:
the traced over the untraced time of the same ops, minus 1.  The first
traced pass's spans go to ``.perfbench/spans-<workload>-<seed>.tsv``.

Seeds: inputs depend only on ``--seed``.  Seeds 0-19 were used while the
benchmark was built; seed 15009 is held out and was run once, with
failed_frac 0 on every workload.  A seed only picks which members of the
fixed input pools run (``workloads.Stratum``) and in which order, and
``record_digests.py`` checked every pool member when it recorded the
digests, so the held-out seed tests the steadiness of the timings, not
the correctness of inputs never seen before.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("ordinal-stream", "homeo-enum", "group-census")
#: --setup-only starts whose set-up time is reported (median); the
#: measuring start comes after them.
SETUP_STARTS = 9
#: A run must end within 180 s; the measuring start is stopped after this.
DEADLINE_S = 170


def git_sha():
    """The checked-out commit, or "unknown" outside a git checkout."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_env():
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # the benchmark passes every bound as a flag; an inherited default would change results
    env.pop("SCATTERKIT_MAX_POINTS", None)
    return env


def run_worker(args, workdir, extra, timeout):
    """Run one worker to its end; returns (set-up seconds at nominal speed,
    its output after ``ready``).

    A reference start is timed just before the worker starts and another
    once it has ended, so only a ``--setup-only`` start's set-up is scaled
    by the speed around it.
    """
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--workdir", workdir, *extra,
    ]
    env = child_env()
    reference = speed.reference_start_seconds(env, ROOT)
    begin = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - begin
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RuntimeError(f"{args.workload} did not finish within {DEADLINE_S} s") from None
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if ready != "ready\n" or proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker exited with status {proc.returncode}")
    reference += speed.reference_start_seconds(env, ROOT)
    return setup * speed.NOMINAL_START_S / (reference / 2), out


def run_workload(args):
    """Run one workload; returns (summary from the worker, set-up seconds per start)."""
    started = time.perf_counter()
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    # Every start of the run shares this directory for its corpus files.
    # Writing hundreds of files costs this machine's disk 0.04-0.2 s, unrelated
    # to scatterkit and to the speed reference; the first start writes them,
    # later starts find them unchanged (workloads._write), and the median of
    # the set-up times leaves the first start out.
    workdir = os.path.join(scratch, f"work-{os.getpid()}")
    setups = []
    try:
        for i in range(SETUP_STARTS + 1):
            if i < SETUP_STARTS:
                extra = ["--setup-only"]
            else:
                extra = ["--spans", os.path.join(scratch, f"spans-{args.workload}-{args.seed}.tsv")]
            timeout = max(1.0, DEADLINE_S - (time.perf_counter() - started))
            setup, out = run_worker(args, workdir, extra, timeout)
            setups.append(setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return json.loads(out.strip().splitlines()[-1]), setups[:SETUP_STARTS]


def report(args, spec, summary, setups):
    """Print the human-readable block and return the result object."""
    attempted, failed = summary["attempted"], summary["failed"]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "backend": summary["backend"],
        "nproc": os.cpu_count(),
        "ops_per_pass": summary["ops"],
        "passes": summary["passes"],
        "raw_wall_s": summary["raw_wall_s"],
        "speed_probes": summary["speed_probes"],
        "median_speed_scale": summary["median_speed_scale"],
    }
    print(f"meta {json.dumps(meta)}")
    notes = {
        "wall_s": f"median over {summary['passes']} passes of {summary['ops']} ops, nominal speed",
        "op_p50_ms": f"per-op median time, n={summary['ops']} ops, nominal speed",
        "op_p90_ms": f"per-op median time, n={summary['ops']} ops, nominal speed",
        "setup_s": f"median of {len(setups)} interpreter starts, nominal speed",
        "peak_rss_mb": "measuring process",
    }
    values = dict(summary, setup_s=statistics.median(setups))
    print(f"  {'failed_frac':36} {failed / attempted:<14.6g} {'frac':6} {failed} of {attempted} op runs")
    for failure in summary["failures"]:
        print(f"    failed: {failure}")
    metrics = {}
    if args.trace:
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": summary["layers"][m["name"]], "unit": m["unit"]}
    else:
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    for name, metric in metrics.items():
        print(f"  {name:36} {metric['value']:<14.6g} {metric['unit']:6} {notes.get(name, 'per pass')}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, help="must be BENCHMARK.json's run_seconds (the default)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still stops and waits for its worker (run_worker's finally)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not os.path.exists(os.path.join(ROOT, "src", "scatterkit", "__init__.py")):
        print(f"perfbench: no scatterkit sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    # the run length sets how many passes are medianed, which every bound rests on
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    elif args.seconds != spec["run_seconds"]:
        print(f"perfbench: --seconds must be run_seconds ({spec['run_seconds']}) of BENCHMARK.json", file=sys.stderr)
        return 2

    status = 0
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        args.workload = workload
        print(f"perfbench {workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
        try:
            summary, setups = run_workload(args)
        except RuntimeError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        result = report(args, spec, summary, setups)
        print(json.dumps(result), flush=True)
        status = status or (0 if result["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
