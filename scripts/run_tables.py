"""Run the reference simulation-table experiments and print their summaries.

Each table is a thin wrapper over the Monte Carlo harness with the design's
parameters baked in; use --reps/--seed to trade accuracy for time.
"""

import argparse
import time

import scalebreak as sb
from scalebreak.pipeline import run_montecarlo, summarize

DESIGNS = {
    "fgn": dict(
        spec=dict(family="fgn", tau_stars=(0.75,), exponents=(0.2, 0.8)),
        n=20000, ell=30, reps=50,
    ),
    "farima": dict(
        spec=dict(family="farima", tau_stars=(0.75,), exponents=(0.2, 0.8)),
        n=20000, ell=30, reps=50,
    ),
    "fbm": dict(
        spec=dict(family="fbm", tau_stars=(0.4,), exponents=(0.4, 0.8)),
        n=(5000, 10000), ell=(7, 15), reps=50,
    ),
    "fgls": dict(
        spec=dict(family="fgn", tau_stars=(0.75,), exponents=(0.2, 0.8)),
        n=20000, ell=20, reps=50, fgls=True,
    ),
    "fbm-gap": dict(  # documented failure regime: exponent gap 0.8
        spec=dict(family="fbm", tau_stars=(0.6,), exponents=(0.1, 0.9)),
        n=5000, ell=7, reps=50, profile="classic",
    ),
}


def run_one(name, design, reps, seed):
    spec = sb.PiecewiseSpec(**design["spec"])
    ns = design["n"] if isinstance(design["n"], tuple) else (design["n"],)
    ells = design["ell"] if isinstance(design["ell"], tuple) else (design["ell"],)
    spread = max(spec.exponents) - min(spec.exponents) if spec.m else None
    for n, ell in zip(ns, ells):
        params = sb.default_params(
            spec.family, n, m=spec.m, ell=ell,
            exponent_spread=spread,
            profile=design.get("profile", "tuned"),
        )
        t0 = time.time()
        recs = run_montecarlo(
            spec, n, params, reps=reps, seed=seed,
            with_fgls=design.get("fgls", False),
        )
        summary = summarize(recs, spec)
        print(f"\n== {name} (N={n}, ell={ell}, reps={reps}) "
              f"[{time.time() - t0:.0f}s] ==")
        for col, stats in summary.items():
            print(
                f"  {col:12s} mean={stats['mean']:8.4f} "
                f"sigma_hat={stats['sigma_hat']:7.4f} "
                f"sqrt_mse={stats['sqrt_mse']:7.4f} (true {stats['true']:.2f})"
            )


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--table", choices=[*DESIGNS, "all"], default="all")
    parser.add_argument("--reps", type=int)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    names = list(DESIGNS) if args.table == "all" else [args.table]
    for name in names:
        design = DESIGNS[name]
        run_one(name, design, args.reps or design["reps"], args.seed)


if __name__ == "__main__":
    main()
