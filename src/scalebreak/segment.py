"""Change-point search: contrast minimization over m change instants.

The contrast of a candidate segmentation is the sum over segments of the
residual of the log-log regression of the segment's log-variances on log
scale, optionally in its precision-weighted, length-scaled form.  The
residual is computed from the raw log-sums log sum e^2
(:meth:`scalebreak.scalogram.ScalogramTable.log_variances`): they differ
from the log-variances by c1 * log a + c0, which a regression with an
intercept on log a leaves unchanged.  Minimization runs over a candidate
grid (segment costs only change where a boundary crosses some scale's
shift grid, so a stride equal to the base scale is exhaustive for
base-aligned grids) by a segment-neighbourhood dynamic program, the same
code for every m.  It evaluates pair costs one block of rows at a time
over the reachable band of pairs only (see :func:`_search`), so memory
stays O(P * m) plus one block for P candidates, and returns the exact
global minimizer on the grid, with ties broken toward the
lexicographically smallest instant vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import ValidationError
from .scalogram import ScalogramTable

__all__ = [
    "SegmentationConstraints",
    "ChangePointResult",
    "detect",
    "shrink",
]


@dataclass(frozen=True)
class SegmentationConstraints:
    """Known change count m, minimal segment length and candidate stride
    (both in sample-index units)."""

    m: int
    min_len: int
    candidate_stride: int

    def __post_init__(self):
        if self.m < 0:
            raise ValidationError("m must be nonnegative")
        if self.min_len < 2:
            raise ValidationError("min_len must be at least 2 samples")
        if self.candidate_stride < 1:
            raise ValidationError("candidate stride must be at least 1")


@dataclass(frozen=True)
class ChangePointResult:
    """Estimated change instants (sample indices), fractions, contrast value
    and, after :func:`shrink`, the margin-shrunk estimation windows."""

    k_hat: tuple
    tau_hat: tuple
    g_min: float
    n: int
    delta: float
    stride: int
    shrunk: tuple | None = None
    v_n: float | None = None

    @property
    def m(self):
        return len(self.k_hat)

    @property
    def k_hat_time(self):
        return tuple(k * self.delta for k in self.k_hat)


def _pair_costs(table, k_lo, k_hi, min_len, objective="plain"):
    """Per-segment costs for the segments [k_lo[i], k_hi[i]).

    ``objective="plain"`` is the unweighted regression residual summed by
    the contrast.  ``"stabilized"`` is its Gaussian quasi-likelihood form:
    residuals weighted by the leading-order precision 1/(2 * scale) of each
    log-variance and the whole residual scaled by the segment length, which
    removes the 1/length noise-floor imbalance between long and short
    candidate segments.  Vectorized over any broadcastable pair of bound
    arrays; infeasible segments (shorter than min_len, fewer than 2 shifts
    at some scale, or with vanishing variance) get +inf.

    The weighted sums q0, q1, q2 of the raw log-sums z accumulate in place
    in scale order; a zero sum makes z = -inf and the cost non-finite, and
    one final test masks it.
    """
    grid = table.grid
    x = grid.log_scales
    if objective == "plain":
        weights = np.ones(grid.ell)
    elif objective == "stabilized":
        weights = 1.0 / (2.0 * grid.scales)
    else:
        raise ValidationError(f"unknown objective {objective!r}")
    wsum = weights.sum()
    xc = x - (weights * x).sum() / wsum
    sxx = float(weights @ (xc * xc))
    length = np.asarray(k_hi, dtype=float) - np.asarray(k_lo, dtype=float)
    q0 = np.zeros(length.shape)
    q1 = np.zeros_like(q0)
    q2 = np.zeros_like(q0)
    wz = np.empty_like(q0)
    with np.errstate(invalid="ignore"):
        steps = table.log_variances(k_lo, k_hi)
        for (z, ok, *_), w, wx in zip(steps, weights, weights * xc):
            np.multiply(z, wx, out=wz)
            q1 += wz
            np.multiply(z, w, out=wz)
            q2 += wz
            wz *= z
            q0 += wz
        cost = q0 - q2 * q2 / wsum - q1 * q1 / sxx
        if objective == "stabilized":
            cost *= length
        ok &= (length >= min_len) & np.isfinite(cost)
    return np.where(ok, np.maximum(cost, 0.0), np.inf)


def _candidates(n, stride):
    interior = np.arange(stride, n, stride, dtype=np.int64)
    return np.concatenate([[0], interior, [n]])


def cost_matrix(table, constraints, objective="plain"):
    """Candidate grid and the full P x P pair-cost matrix.

    The search never builds this matrix; it is the exhaustive-search
    oracle's input, computed by the same :func:`_pair_costs`.
    """
    cands = _candidates(table.n, constraints.candidate_stride)
    cost = _pair_costs(
        table, cands[:, None].astype(float), cands[None, :].astype(float),
        constraints.min_len, objective,
    )
    return cands, cost


# Cells per block of pair costs (at least one row of P): each of a block's
# temporaries then takes 256 KB, small enough to stay in cache.
_BLOCK_CELLS = 1 << 15


def _search(table, cands, m, min_len, gap, objective):
    """Segment-neighbourhood DP over the candidate indices.

    ``suffix[j][i]`` is the least cost of splitting [cands[i], N) into j
    segments.  ``gap`` bounds the index distance of every feasible pair
    from below, and the search evaluates only the reachable band of pairs:

    * a segment that ends at N starts at most at index P-1-gap, so
      ``suffix`` is infinite from column P-gap on;
    * the first segment spans at least ``gap`` indices, so levels 2..m
      are read only from row ``gap`` on;
    * a row from P-2*gap on has no column to reach and stays infinite.

    Level 1 is the column of costs to N; levels 2..m walk the band's rows
    bottom-up in blocks of at most ``gap`` rows, so a block only reads
    rows below it and one pass fills every level.  Greedy-left
    reconstruction over the m rows on the optimal path gives the
    lexicographically smallest minimizer.
    """
    p = cands.size

    def costs(lo, hi):
        return _pair_costs(table, lo, hi, min_len, objective)

    if m == 0:
        return float(costs(cands[0], cands[-1])), []
    end = p - gap
    suffix = np.full((m + 1, p), np.inf)
    suffix[1, gap:end] = costs(cands[gap:end], cands[-1])
    rows = max(1, min(gap, _BLOCK_CELLS // p))
    r1 = end - gap if m >= 2 else gap
    while r1 > gap:
        r0 = max(r1 - rows, gap)
        c0 = r0 + gap
        block = costs(cands[r0:r1, None], cands[None, c0:end])
        for j in range(2, m + 1):
            suffix[j, r0:r1] = np.min(block + suffix[j - 1, c0:end], axis=1)
        r1 = r0
    picks = [0]
    for j in range(m, 0, -1):
        c0 = picks[-1] + gap
        totals = costs(cands[picks[-1]], cands[c0:end]) + suffix[j, c0:end]
        if totals.size == 0:
            return math.inf, []
        i = int(np.argmin(totals))
        if j == m:
            g = totals[i]
        picks.append(c0 + i)
    return float(g), picks[1:]


def detect(path, wavelet, grid, constraints, table=None, objective="plain"):
    """Globally minimize the contrast over the candidate grid.

    ``objective`` selects the segment cost ("plain" is the sum of
    unweighted regression residuals; "stabilized" the precision-weighted,
    length-scaled variant -- see :func:`_pair_costs`).  Returns the
    estimated instants (sample indices), the fractions tau_hat = k_hat / N
    and the attained cost.
    """
    if table is None:
        table = ScalogramTable(path, wavelet, grid)
    n = table.n
    m, min_len = constraints.m, constraints.min_len
    stride = constraints.candidate_stride
    if (m + 1) * min_len > n:
        raise ValidationError("(m+1) * min_len exceeds the series length")
    cands = _candidates(n, stride)
    if m > 0 and cands.size < 3:
        raise ValidationError("candidate grid is empty; reduce the stride")
    gap = -(-min_len // stride)
    g, picks = _search(table, cands.astype(float), m, min_len, gap, objective)
    if not np.isfinite(g):
        raise ValidationError("no feasible segmentation under the constraints")
    k_hat = tuple(int(cands[k]) for k in picks)
    return ChangePointResult(
        k_hat=k_hat,
        tau_hat=tuple(k / n for k in k_hat),
        g_min=g,
        n=n,
        delta=path.delta,
        stride=int(stride),
    )


def shrink(result, v_n):
    """Move every estimated boundary inward by N/v_n samples, so that the
    estimation windows fall inside the true segments with probability
    tending to one.  Fails if a margin swallows its segment."""
    if not v_n > 0.0:
        raise ValidationError("v_n must be positive")
    margin = result.n / v_n
    bounds = [0, *result.k_hat, result.n]
    intervals = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        # epsilon guards keep the v_n -> infinity limit at the full segment
        t_lo = int(math.ceil(lo + margin - 1e-9))
        t_hi = int(math.floor(hi - margin + 1e-9))
        if t_lo >= t_hi:
            raise ValidationError(
                f"margins swallow segment [{lo}, {hi}): margin {margin:.1f}"
            )
        intervals.append((t_lo, t_hi))
    return replace(result, shrunk=tuple(intervals), v_n=float(v_n))
