"""Record the benchmark of this checkout, alone or against a parent checkout.

    python3 scripts/bench_record.py --label <label> --parent ../parent

runs ``perfbench/run.py --workload all --trace 1`` once in each checkout on
the first seed, then ``--trace 0`` once per seed of SEEDS (0..9) in each,
alternating which side runs first (the parent first on even seeds), all for
the run length BENCHMARK.json sets.  Each side runs its own
``perfbench/run.py``, which imports the package from that side's ``src``;
the benchmark code itself must be the same on both sides: the recorder
takes a digest of ``perfbench/`` and ``BENCHMARK.json`` in each checkout
and refuses to run when they differ.  Without ``--parent`` only this
checkout runs.

The result goes to ``BENCH_<label>.json`` at the root of this checkout:
each side's commit, each run's end-to-end metrics and environment line, the
layer metrics of the traced runs, and per side, workload and metric the
median and quartiles over the seeds, with the number of seeds on which the
change beat the parent (ties count for neither side).  The file holds
measurements only; it states no claim.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FORMAT = "scalebreak-bench/1"
SEEDS = list(range(10))


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--label", required=True, help="the file is BENCH_<label>.json")
    p.add_argument("--parent", type=Path, help="root of the parent checkout")
    return p.parse_args(argv)


def digest(root, paths):
    """SHA-256 over the names and bytes of ``paths`` under ``root``, sorted."""
    sha = hashlib.sha256()
    for path in sorted(paths):
        sha.update(str(path.relative_to(root)).encode())
        sha.update(path.read_bytes())
    return sha.hexdigest()


def bench_files(root):
    """The benchmark's own files: BENCHMARK.json and every file under
    ``perfbench/`` but Python's bytecode caches."""
    files = [p for p in (root / "perfbench").rglob("*")
             if p.is_file() and "__pycache__" not in p.parts]
    return [root / "BENCHMARK.json", *files]


def checkout(root):
    """The commit of a checkout, whether its tree differs from it, a digest
    of its ``src`` files, which names the code measured either way, and a
    digest of its benchmark files."""
    def git(*args):
        proc = subprocess.run(["git", "-C", str(root), *args],
                              capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"),
            "dirty": None if status is None else bool(status),
            "src_sha256": digest(root, (root / "src").rglob("*.py")),
            "bench_sha256": digest(root, bench_files(root))}


def run_bench(root, seed, seconds, trace):
    """One ``perfbench/run.py`` run of every workload in ``root``."""
    cmd = [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "all",
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited with {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    metrics = {}
    for key, entry in result["metrics"].items():
        workload, metric = key.split(".", 1)
        metrics.setdefault(workload, {})[metric] = entry["value"]
    return {"seed": seed, "trace": trace, "correct": result["correct"],
            "attempted": result["attempted"], "failed": result["failed"],
            "metrics": metrics,
            "environment": json.loads(lines[-2])["environment"]}


def spread(values):
    """Median and quartiles (inclusive method) of a list of numbers."""
    if len(values) == 1:
        return {"n": 1, "median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"n": len(values), "median": median, "q1": q1, "q3": q3}


def summarize(runs, declared):
    """Per workload and metric: each side's spread over its runs and, where
    both sides ran a seed, how often the change beat the parent."""
    summary = {}
    for workload in sorted({w for r in runs for w in r["metrics"]}):
        for metric, better in declared.items():
            values = {side: {r["seed"]: r["metrics"][workload][metric]
                             for r in runs if r["side"] == side}
                      for side in ("parent", "change")}
            entry = {side: spread(list(v.values()))
                     for side, v in values.items() if v}
            seeds = sorted(values["parent"].keys() & values["change"].keys())
            if seeds:
                sign = 1.0 if better == "lower" else -1.0
                diffs = [sign * (values["parent"][s] - values["change"][s])
                         for s in seeds]
                entry["pairs"] = len(seeds)
                entry["change_wins"] = sum(d > 0 for d in diffs)
                entry["parent_wins"] = sum(d < 0 for d in diffs)
            entry["better"] = better
            summary.setdefault(workload, {})[metric] = entry
    return summary


def main(argv=None):
    args = parse_args(argv)
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    declared = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    sides = {"change": ROOT}
    if args.parent is not None:
        sides["parent"] = args.parent.resolve()
    checkouts = {side: checkout(root) for side, root in sides.items()}
    if len({c["bench_sha256"] for c in checkouts.values()}) > 1:
        print("perfbench/ or BENCHMARK.json differs between the checkouts; "
              "the two sides would not run the same benchmark", file=sys.stderr)
        return 2
    runs, traces = [], {}
    for side, root in sides.items():
        traced = run_bench(root, SEEDS[0], seconds, trace=1)
        traces[side] = {"seed": traced["seed"], "metrics": traced["metrics"],
                        "environment": traced["environment"]}
        print(f"traced {side}", file=sys.stderr)
    for seed in SEEDS:
        order = ["parent", "change"] if seed % 2 == 0 else ["change", "parent"]
        for side in (s for s in order if s in sides):
            run = run_bench(sides[side], seed, seconds, trace=0)
            runs.append({"side": side, **run})
            print(f"seed {seed} {side}: " + ", ".join(
                f"{w} {m['op_s_p50']:.4g} s" for w, m in run["metrics"].items()),
                file=sys.stderr)
    record = {
        "format": FORMAT,
        "label": args.label,
        "command": f"perfbench/run.py --workload all --seconds {seconds:g} "
                   "--trace 0|1",
        "seeds": SEEDS,
        "checkouts": checkouts,
        "runs": runs,
        "traces": traces,
        "summary": summarize(runs, declared),
    }
    out = ROOT / f"BENCH_{args.label}.json"
    with open(out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
