"""Calibration of the goodness-of-fit statistic against chi-square(ell-2).

Simulates single-regime long-memory series, runs the full pipeline on each,
and compares the sample of GoF statistics with the asymptotic chi-square law
(Kolmogorov-Smirnov test plus the fraction below the 95% quantile).
It takes the quantile and the test from scipy, which only the ``test``
extra installs (``pip install -e '.[test]'``).
"""

import argparse
import time

import numpy as np
from scipy.special import chdtri
from scipy.stats import kstest

import scalebreak as sb


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=20000)
    parser.add_argument("--ell", type=int, default=20)
    parser.add_argument("--exponent", type=float, default=0.5)
    parser.add_argument("--reps", type=int, default=50)
    parser.add_argument("--seed", type=int, default=9000)
    args = parser.parse_args()

    params = sb.default_params("fgn", args.n, m=0, ell=args.ell)
    spec = sb.PiecewiseSpec(family="fgn", exponents=(args.exponent,))
    t0 = time.time()
    stats = []
    for i in range(args.reps):
        path = sb.simulate_piecewise(spec, args.n, seed=args.seed + i)
        stats.append(sb.analyze(path, params).segments[0].gof.statistic)
    stats = np.asarray(stats)
    df = args.ell - 2
    ks = kstest(stats, "chi2", args=(df,))
    q95 = float(chdtri(df, 0.05))
    print(f"{args.reps} replicates in {time.time() - t0:.0f}s")
    print(f"mean T = {stats.mean():.2f} (chi2({df}) mean = {df})")
    print(f"KS against chi2({df}): statistic={ks.statistic:.4f} "
          f"p={ks.pvalue:.4f}")
    print(f"fraction below the 95% quantile ({q95:.4f}): "
          f"{np.mean(stats < q95):.2%}")


if __name__ == "__main__":
    main()
