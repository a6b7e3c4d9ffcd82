"""scalebreak benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload all --seed 0 --seconds 10 --trace 0

prints every end-to-end metric of every workload by name with its unit and
checks every operation's output; ``--trace 1`` prints the per-layer metrics
instead.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment.  Metric names and units come from BENCHMARK.json.

Each workload runs in fresh processes started from the root of a checkout,
with the package imported from its ``src`` directory: without tracing, two
that only set up, then one that sets up and measures; ``setup_s`` is the
median of the three set-ups.

Every time is reported at the reference host speed (``hostspeed.py``): a
wall time times the host's speed measured around it.  The line before the
result also gives the median wall time and host speed as measured.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import SELF_TIME

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# A run of one workload ends within 180 s; leave room to report.
DEADLINE_S = 170.0
# The spans' self times must account for nearly all of a traced operation;
# below this share the run fails.
COVERAGE_MIN = 0.99


def parse_args(workloads, argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=(*workloads, "all"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--size", choices=("full", "tiny"), default="full",
                   help="tiny runs the same code paths on small inputs (self-test)")
    return p.parse_args(argv)


def worker_env(nproc):
    """Package from this checkout's src; no more BLAS threads than cores."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    for var in BLAS_VARS:
        env[var] = str(nproc)
    return env


def run_worker(args, workload, env, deadline, setup_only=False):
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--size", args.size]
    if setup_only:
        cmd.append("--setup-only")
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left before the run's deadline")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=timeout)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"worker for {workload} exited with {proc.returncode}:\n{proc.stderr[-2000:]}"
        )
    return json.loads(lines[-1])


def at_reference(op):
    """Seconds per replicate of one operation at the reference host speed."""
    return op["seconds"] * op["speed"] / op["reps"]


def end_to_end(report, setup_samples):
    ops = report["ops"]
    ok = [o for o in ops if not o["failed"]] or ops
    seconds = sum(o["seconds"] * o["speed"] for o in ops)
    return {
        "op_s_p50": statistics.median(at_reference(o) for o in ok),
        "reps_per_s": sum(o["reps"] - o["failed"] for o in ops) / seconds,
        "peak_rss_mb": report["peak_rss_mb"],
        "setup_s": statistics.median(s * v for s, v in setup_samples),
    }


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def per_layer(report):
    """Per-replicate means over the traced operations, the accuracy of all
    operations, and the tracing overhead and coverage."""
    ops = report["ops"]
    traced = [o for o in ops if o["traced"]]
    plain = [o for o in ops if not o["traced"] and not o.get("warmup")]
    reps = sum(o["reps"] for o in traced)
    totals = report["layers"]
    metrics = {name: value / reps for name, value in totals.items()}
    pairs = totals["segment.pairs"]
    metrics["segment.feasible_ratio"] = (
        totals["segment.pairs_feasible"] / pairs if pairs else 0.0
    )
    metrics["segment.pair_matrix_mb"] = pairs * 8 / 1e6 / reps
    metrics["pipeline.tau_abs_err"] = _mean([e for o in ops for e in o["tau_err"]])
    metrics["pipeline.exp_abs_err"] = _mean([e for o in ops for e in o["exp_err"]])
    metrics["trace.overhead_s"] = (
        statistics.median(at_reference(o) for o in traced)
        - statistics.median(at_reference(o) for o in plain)
    )
    metrics["host.speed"] = statistics.median(o["speed"] for o in traced + plain)
    # Self times partition each traced operation when the spans cover it.
    metrics["trace.coverage"] = sum(totals[n] for n in set(SELF_TIME.values())) / sum(
        o["seconds"] for o in traced
    )
    return metrics


def measure(args, workload, env, deadline):
    probes = 0 if args.trace else SETUP_PROBES
    setup = []
    for _ in range(probes):
        probe = run_worker(args, workload, env, deadline, setup_only=True)
        setup.append((probe["setup_s"], probe["setup_speed"]))
    report = run_worker(args, workload, env, deadline)
    setup.append((report["setup_s"], report["setup_speed"]))
    metrics = (per_layer(report) if args.trace
               else end_to_end(report, setup))
    for o in report["ops"]:
        if o["failed"]:
            print(f"{workload}: failed operation: {o['error']}", file=sys.stderr)
    if args.trace and metrics["trace.coverage"] < COVERAGE_MIN:
        raise RuntimeError(f"layer self times cover only {metrics['trace.coverage']:.4f} "
                           "of the traced wall time")
    timed = [o for o in report["ops"] if not o.get("warmup")]
    info = {"workload": workload, "env": report["env"],
            "setup_samples_s_speed": setup,
            "op_wall_s_p50": statistics.median(o["seconds"] / o["reps"] for o in timed),
            "host_speed_p50": statistics.median(o["speed"] for o in timed),
            "trace_file": report.get("trace_file")}
    return metrics, report["ops"], info


def main(argv=None):
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    args = parse_args(workloads, argv)
    declared = bench["per_layer" if args.trace else "end_to_end"]
    nproc = len(os.sched_getaffinity(0))
    env = worker_env(nproc)
    names = workloads if args.workload == "all" else [args.workload]
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    infos = []
    for workload in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            metrics, ops, info = measure(args, workload, env, deadline)
        except (RuntimeError, subprocess.TimeoutExpired) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        missing = [m["name"] for m in declared if m["name"] not in metrics]
        if missing:
            print(f"error: {workload} did not measure {missing}", file=sys.stderr)
            return 1
        attempted = sum(o["reps"] for o in ops)
        failed = sum(o["failed"] for o in ops)
        result["attempted"] += attempted
        result["failed"] += failed
        result["correct"] = result["correct"] and failed == 0
        prefix = f"{workload}." if len(names) > 1 else ""
        for m in declared:
            value = metrics[m["name"]]
            result["metrics"][prefix + m["name"]] = {"value": value, "unit": m["unit"]}
            print(f"{workload:16s} {m['name']:28s} {value:14.6g} {m['unit']}")
        print(f"{workload:16s} {'operations':28s} {attempted:14d} attempted, "
              f"{failed} failed")
        infos.append(info)
    env_line = {"nproc": nproc, "blas_threads": {v: env[v] for v in BLAS_VARS},
                "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                "size": args.size, "workloads": infos}
    print(json.dumps({"environment": env_line}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
