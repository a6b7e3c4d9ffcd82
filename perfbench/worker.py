"""Run one workload in this process and print its raw measurements as JSON.

``run.py`` starts this script in a fresh process per workload, so that the
import and the peak RSS belong to that workload alone.  The clock starts
before the package is imported: set-up time is the import, the default
parameters and the first input, which a CLI user pays on every run.

The host's speed (``hostspeed.py``) is measured right after set-up and
between operations; each operation records the mean of the speeds measured
just before and just after it.

Closed loop, one client: one operation at a time until ``--seconds`` have
passed, and at least one.  With ``--trace 1`` an untimed warm-up comes
first, then every input runs twice in a row, untraced and then traced, at
least once, so that the difference of the two medians is the tracing
overhead on the same inputs.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402
import scalebreak  # noqa: E402
import scipy  # noqa: E402

import hostspeed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--setup-only", action="store_true")
    return p.parse_args(argv)


def run_operation(wl, key, reference, tracer=None, op_id=None):
    """Time one operation and check its outputs against the reference.

    An operation that raises, exits nonzero or misses its reference fails
    every replicate it covers; the run goes on either way.
    """
    op = wl.operation(key)
    rec = {"key": key, "traced": tracer is not None, "reps": wl.reps_per_op,
           "failed": 0, "tau_err": [], "exp_err": []}
    start = time.perf_counter()
    try:
        if tracer is None:
            result = op()
        else:
            with tracer.operation(op_id, wl.root_span):
                result = op()
        rec["seconds"] = time.perf_counter() - start
        outputs = wl.outputs(result)
        if len(outputs) != len(reference):
            raise RuntimeError(f"{len(outputs)} replicates, expected {len(reference)}")
    except Exception:  # a failed operation is counted and the loop goes on
        rec["seconds"] = rec.get("seconds", time.perf_counter() - start)
        rec["failed"] = wl.reps_per_op
        rec["error"] = traceback.format_exc(limit=3)
        return rec
    for got, ref in zip(outputs, reference):
        why = workloads.mismatch(got, ref)
        if why is not None:
            rec["failed"] += 1
            rec["error"] = why
            continue
        tau, exp = wl.errors(got)
        rec["tau_err"] += tau
        rec["exp_err"] += exp
    return rec


def main(argv=None):
    args = parse_args(argv)
    src = (ROOT / "src").resolve()
    if src not in Path(scalebreak.__file__).resolve().parents:
        raise SystemExit(f"scalebreak imported from {scalebreak.__file__}, not {src}")

    workdir = OUT_DIR / f"{args.workload}-{args.size}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        wl = workloads.Workload(args.workload, args.size, workdir)
        keys = random.Random(args.seed).sample(range(wl.design.pool), wl.design.pool)
        wl.prepare(keys[0])
        setup_s = time.perf_counter() - T0
        setup_speed = hostspeed.speed(setup_s)
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_speed": setup_speed}))
            return 0
        reference = workloads.load_reference(args.size)[args.workload]
        tracer = tracing.Tracer() if args.trace else None
        ops = []
        speed = setup_speed

        def timed(rec):
            nonlocal speed
            after = hostspeed.speed(rec["seconds"])
            rec["speed"] = (speed + after) / 2
            speed = after
            ops.append(rec)

        if tracer is not None:
            # The first operation of a process also pays the package's
            # one-time work (on the FGLS workloads, the wavelet's Fourier
            # table, about 0.2 s), which would land in one half of the
            # overhead; it is checked and counted but timed in neither half.
            timed(dict(run_operation(wl, keys[0], reference[str(keys[0])]),
                       warmup=True))
        warmups = len(ops)
        loop_start = time.perf_counter()
        per_key = 1 if tracer is None else 2
        while (len(ops) == warmups or time.perf_counter() - loop_start < args.seconds
               or (len(ops) - warmups) % per_key):
            i = len(ops) - warmups
            key = keys[i // per_key % len(keys)]
            wl.prepare(key)
            traced = i % per_key == 1
            timed(run_operation(
                wl, key, reference[str(key)],
                tracer if traced else None, len(ops),
            ))
        report = {
            "setup_s": setup_s,
            "setup_speed": setup_speed,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
            "env": {
                "python": platform.python_version(),
                "numpy": numpy.__version__,
                "scipy": scipy.__version__,
            },
            "ops": ops,
        }
        if tracer is not None:
            report["layers"] = dict(tracer.layer_totals())
            trace_file = OUT_DIR / f"trace-{args.workload}-{args.size}-seed{args.seed}.json"
            tracer.dump(trace_file, {"workload": args.workload, "size": args.size,
                                     "seed": args.seed})
            report["trace_file"] = str(trace_file.relative_to(ROOT))
        print(json.dumps(report))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
