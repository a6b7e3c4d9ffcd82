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

Screen and confirm.  Every pair cost is a function of the sums
q1 = sum_a w_a xc_a z_a, q2 = sum_a w_a z_a and q0 = sum_a w_a z_a**2 over
the scales' log-sums z_a.  Along a row cost(k_lo, k) or the column
cost(k, N) of an untrimmed grid, z_a changes only where floor(k/a) steps
(:meth:`~scalebreak.scalogram.ScalogramTable.log_variance_steps`), so each
q is one cumulative sum of the terms' differences at those steps:
sum_a min(span/a, P) entries instead of P * ell cells
(:func:`_step_costs`).  Summed in another order, these costs differ from
:func:`_pair_costs` at rounding level, by at most a bound computed with
them from the summation lengths and the accumulated |differences|.  A
cell whose total cannot come within that bound of the least total cannot
hold the exact minimum, and :func:`_screen` drops it; one call of
:func:`_pair_costs` re-evaluates the cells left, and their first exact
argmin is the result.  So k_hat and g_min are bit for bit those of the
exhaustive evaluation.  The reconstruction rows take this path at every m,
and the column to N at m = 1.  At m >= 2 the blocks read the column and
every pair of the band as exact values in a minimum over rows, which a
screen of one row cannot stand in for, so they keep :func:`_pair_costs`.
So does a trimmed grid, whose shift ranges depend on both bounds, and a
grid whose scales step at most candidates, where a step would cost more
than the cells it saves (:func:`_steps_pay`).

Few cells, one pass.  A :func:`_pair_costs` call of at most
``_STEP_CELLS`` cells times scales, such as the confirmation of the few
cells a screen keeps, reads every scale's log-sums in one step
(``scale_axis`` of ``log_variances``) and sums each q along the scale
axis with one ``np.add.accumulate``.  Accumulation adds strictly left to
right, ((0 + t_1) + t_2) + ..., the order of the per-scale ``q += t``
that larger calls, the m >= 2 blocks among them, keep; ``sum``, ``matmul``
and ``einsum`` would pair or block the terms and round differently.  So
the two paths agree bit for bit, and on the 489-scale farima grid a
two-cell confirmation takes about 0.1 ms instead of 4-7 ms.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
# Not used here: the benchmark's tracer (perfbench/tracer.py) wraps this name.
from .scalogram import ScalogramTable  # noqa: F401

__all__ = [
    "SegmentationConstraints",
    "ChangePointResult",
    "detect",
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
    """Estimated change instants (sample indices) and contrast value."""

    k_hat: tuple
    g_min: float
    n: int

    @property
    def m(self):
        return len(self.k_hat)

    @property
    def tau_hat(self):
        """The change fractions k_hat / n."""
        return tuple(k / self.n for k in self.k_hat)


@functools.lru_cache(maxsize=8)
def _regression(grid, objective):
    """The objective's weights w per scale, w * xc with xc the w-centred log
    scales, sum(w) and sxx = sum(w * xc**2); computed once per grid and
    objective, and read-only."""
    x = grid.log_scales
    if objective == "plain":
        weights = np.ones(grid.ell)
    elif objective == "stabilized":
        weights = 1.0 / (2.0 * grid.scales)
    else:
        raise ValidationError(f"unknown objective {objective!r}")
    wsum = weights.sum()
    xc = x - (weights * x).sum() / wsum
    wx = weights * xc
    weights.flags.writeable = wx.flags.writeable = False
    return weights, wx, wsum, float(weights @ (xc * xc))


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

    The weighted sums q0, q1, q2 of the raw log-sums z accumulate in scale
    order, ((0 + t_1) + t_2) + ...; a zero sum makes z = -inf and the cost
    non-finite, and one final test masks it.  A call of at most
    ``_STEP_CELLS`` cells times scales takes every scale in one step and
    sums each q along the scale axis with one ``np.add.accumulate``, which
    adds in that same order; a larger call adds scale by scale in place.
    """
    weights, wx, wsum, sxx = _regression(table.grid, objective)
    length = np.asarray(k_hi, dtype=float) - np.asarray(k_lo, dtype=float)
    with np.errstate(invalid="ignore"):
        if length.size * table.grid.ell <= _STEP_CELLS:
            (z, ok, *_), = table.log_variances(k_lo, k_hi, scale_axis=True)
            wz = z * wx
            q1 = np.add.accumulate(wz, axis=-1)[..., -1]
            np.multiply(z, weights, out=wz)
            q2 = np.add.accumulate(wz, axis=-1)[..., -1]
            wz *= z
            q0 = np.add.accumulate(wz, axis=-1)[..., -1]
        else:
            q0 = np.zeros(length.shape)
            q1 = np.zeros_like(q0)
            q2 = np.zeros_like(q0)
            wz = np.empty_like(q0)
            steps = table.log_variances(k_lo, k_hi)
            for (z, ok, *_), w, w_xc in zip(steps, weights, wx):
                np.multiply(z, w_xc, out=wz)
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


# Unit roundoff of float64, and gamma_k = k u / (1 - k u): a sum evaluated
# in any order of depth k is off by at most gamma_k times the sum of the
# terms' magnitudes.
_U = np.finfo(float).eps / 2


def _gamma(k):
    return k * _U / (1.0 - k * _U)


def _differences(v, first):
    """v minus its predecessor within each scale; v itself at each scale's
    first step, at the indices ``first``."""
    d = np.empty_like(v)
    np.subtract(v[1:], v[:-1], out=d[1:])
    d[first] = v[first]
    return d


def _step_costs(table, fixed, k0, stride, count, fixed_is_hi, min_len, objective):
    """Screen costs of the segments between the bound ``fixed`` and each
    k_i = k0 + i * stride, i < count, with a bound on their distance from
    :func:`_pair_costs`.  Untrimmed grids only.

    Along the candidates, scale a's terms z * w * xc, z * w and z * w * z
    of q1, q2, q0 change only where the table's log-sum z steps
    (:meth:`ScalogramTable.log_variance_steps`).  So each q is one
    cumulative sum over the candidates of the terms' differences at the
    steps, every scale's added by one ``bincount``: sum_a min(span/a,
    count) entries instead of count * ell.  The feasibility mask comes from
    the same sum over the steps' 0/1 ``bad`` flags, in exact integers, and
    the length test; it equals :func:`_pair_costs`' mask.

    The bound.  The terms are the very products :func:`_pair_costs` forms,
    from the same prefix sums; only their summation differs.  Let A be the
    sum of every |difference| of the accumulator.  One scale's differences
    telescope to its term at any candidate i, so A bounds
    sum_a |term_a(i)|.  The screen's q_i sums the rounded differences in a
    tree of depth at most 2 * ell + count (one step per scale at a
    candidate, one ``bincount`` per chunk of scales, the cumulative sum),
    plus one rounding of each difference; :func:`_pair_costs` sums the
    terms in scale order, depth ell.  So the two q_i lie within gamma_n * A
    of each other, n = 3 * ell + count + 4 (Higham 2002, section 3.1), and
    e = 2 * gamma_n * A also covers the rounding of A itself.  The cost
    q0 - q2**2 / sum w - q1**2 / sxx then moves by at most
    e0 + (2|q2| + e2) e2 / sum w + (2|q1| + e1) e1 / sxx, plus gamma_4 of
    the sum of its terms' magnitudes for each side's own evaluation; the
    stabilized length factor adds one rounding per side, and the clamp at 0
    moves nothing.  Infeasible segments get cost +inf and bound 0.
    """
    weights, wx, wsum, sxx = _regression(table.grid, objective)
    # Rows: q1, q2, q0 and the count of bad scales; and sum |differences|.
    acc = np.zeros((4, count))
    total = np.zeros(3)
    steps = table.log_variance_steps(
        fixed, k0, stride, count, fixed_is_hi, _STEP_CELLS
    )
    for scales, runs, pos, z, bad in steps:
        first = np.cumsum(runs) - runs
        wz = z * np.repeat(weights[scales], runs)
        for row, v in enumerate((z * np.repeat(wx[scales], runs), wz, wz * z)):
            d = _differences(v, first)
            acc[row] += np.bincount(pos, d, count)
            total[row] += np.abs(d, out=d).sum()
        if bad.any():
            flags = _differences(bad.astype(float), first)
            acc[3] += np.bincount(pos, flags, count)
    np.cumsum(acc, axis=1, out=acc)
    q1, q2, q0, n_bad = acc
    cost = q0 - q2 * q2 / wsum - q1 * q1 / sxx
    # The bound, on the magnitudes |q| + e (in place).
    e1, e2, e0 = 2.0 * _gamma(3 * table.grid.ell + count + 4) * total
    a1, a2, a0 = np.abs(acc[:3], out=acc[:3])
    a0 += e0
    bound = a0 * (2.0 * _gamma(4))
    bound += e0
    for a, e, w in ((a1, e1, sxx), (a2, e2, wsum)):
        a += e
        bound += a * ((2.0 * _gamma(4) * a + 2.0 * e) / w)
    length = k0 - fixed + stride * np.arange(count, dtype=float)
    if fixed_is_hi:
        np.negative(length, out=length)
    if objective == "stabilized":
        bound += _U * (2.0 * np.abs(cost) + bound)
        bound *= length
        cost *= length
    bad = (n_bad > 0.5) | (length < min_len)
    np.maximum(cost, 0.0, out=cost)
    cost[bad] = np.inf
    bound[bad] = 0.0
    return cost, bound


def _screen(totals, bound):
    """Indices i that can hold the first least exact total, given that it
    lies within ``bound[i]`` of ``totals[i]``: every i whose least possible
    value reaches the least upper end.  Every exact minimizer passes, so
    the first exact argmin over the kept indices is the first over all.
    None is kept where every total is infinite."""
    top = np.min(totals + bound)
    return np.flatnonzero((totals - bound <= top) & (totals < np.inf))


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


# Cells per block of pair costs (or one row, if wider): each of a block's
# temporaries then takes at most 256 KB, small enough to stay in cache.
_BLOCK_CELLS = 1 << 15
# Steps per chunk of the step view (or one scale, if more), and the most
# cells times scales a _pair_costs call takes in one pass: about a dozen
# chunk-sized temporaries are live at once, 64 KB each.
_STEP_CELLS = _BLOCK_CELLS // 4
# A step costs about as much as four cells evaluated one by one (45-50 ns
# against 9-12 ns per cell and scale on a 2-vCPU VM).
_CELLS_PER_STEP = 4


def _steps_pay(grid, span, count):
    """Whether a stretch of ``count`` candidates over ``span`` samples is
    cheaper through its shift steps than cell by cell: on an untrimmed
    grid whose scales step, all told, at under 1/_CELLS_PER_STEP of the
    stretch's cells.  The benchmark's m = 1 searches step at 3.9 % of the
    cells on the farima grid (489 scales, 12..500, stride 5), at 1.1 % on
    the fbm grid (231 scales, 20..250, stride 1) and at 42 % on the fgn
    grid (30 scales, 2..31, stride 5), which keeps the cells.
    """
    if grid.trim:
        return False
    steps = np.minimum(span // grid.scales + 1, count).sum()
    return _CELLS_PER_STEP * steps < count * grid.ell


def _screened_min(table, cands, lo, c0, end, tail, min_len, objective):
    """First argmin and least value of cost(lo, k) + tail(k) over
    k = cands[c0:end], a uniform stretch of the grid, bit for bit as
    :func:`_pair_costs` gives them.  ``tail`` is a row of exact suffix
    costs, or None for the column cost(k, N).

    The row, and the column where ``tail`` is None, come from
    :func:`_step_costs`; :func:`_screen` keeps the cells whose exact total
    can be least, and one :func:`_pair_costs` call re-evaluates just those.
    """
    step = (cands[c0], cands[1], end - c0)  # cands[1] is the stride
    approx, bound = _step_costs(table, lo, *step, False, min_len, objective)
    if tail is None:
        column, column_bound = _step_costs(
            table, cands[-1], *step, True, min_len, objective
        )
        approx += column
        bound += column_bound
    else:
        approx += tail
    # One rounding of each sum, and of the screen's own differences.
    bound += 4.0 * _U * (approx + bound)
    keep = _screen(approx, np.where(approx < np.inf, bound, 0.0))
    if keep.size == 0:
        return 0, math.inf
    ks = cands[c0 + keep]
    if tail is None:
        k_lo = np.r_[np.full(ks.size, lo), ks]
        k_hi = np.r_[ks, np.full(ks.size, cands[-1])]
        both = _pair_costs(table, k_lo, k_hi, min_len, objective)
        totals = both[: ks.size] + both[ks.size :]
    else:
        totals = _pair_costs(table, lo, ks, min_len, objective) + tail[keep]
    best = int(np.argmin(totals))
    return int(keep[best]), totals[best]


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
    rows below it and one pass fills every level.  A block takes as many
    rows as keep it within ``_BLOCK_CELLS`` cells, at least one: its
    widest row is its top one, and the band narrows toward the bottom, so
    the blocks grow as the rows descend.  The block size changes no cost
    and no minimum.  Greedy-left reconstruction over the m rows on the
    optimal path gives the lexicographically smallest minimizer.  Where
    shift steps pay (:func:`_steps_pay`, judged on the widest row), each of
    those rows, and at m = 1 the column too, is screened by its steps and
    confirmed (:func:`_screened_min`).
    """
    p = cands.size

    def costs(lo, hi):
        return _pair_costs(table, lo, hi, min_len, objective)

    if m == 0:
        return float(costs(cands[0], cands[-1])), []
    end = p - gap
    steps = end > gap and _steps_pay(table.grid, cands[end - 1] - cands[gap], end - gap)
    suffix = np.full((m + 1, p), np.inf)
    if m >= 2 or not steps:
        suffix[1, gap:end] = costs(cands[gap:end], cands[-1])
    r1 = end - gap if m >= 2 else gap
    while r1 > gap:
        # The most rows r whose top row, of width w + r, keeps the block
        # within _BLOCK_CELLS: the largest r with r * (w + r) <= _BLOCK_CELLS.
        w = end - gap - r1
        rows = (math.isqrt(w * w + 4 * _BLOCK_CELLS) - w) // 2
        r0 = max(r1 - min(max(rows, 1), gap), gap)
        c0 = r0 + gap
        block = costs(cands[r0:r1, None], cands[None, c0:end])
        for j in range(2, m + 1):
            suffix[j, r0:r1] = np.min(block + suffix[j - 1, c0:end], axis=1)
        r1 = r0
    picks = [0]
    for j in range(m, 0, -1):
        lo, c0 = cands[picks[-1]], picks[-1] + gap
        if c0 >= end:
            return math.inf, []
        if steps:
            tail = suffix[j, c0:end] if m >= 2 else None
            i, least = _screened_min(
                table, cands, lo, c0, end, tail, min_len, objective
            )
        else:
            totals = costs(lo, cands[c0:end]) + suffix[j, c0:end]
            i = int(np.argmin(totals))
            least = totals[i]
        if j == m:
            g = least
        picks.append(c0 + i)
    return float(g), picks[1:]


def detect(table, constraints, objective="plain"):
    """Globally minimize the contrast over the candidate grid of ``table``,
    the scalogram of one path on the detection grid, which also gives N.

    ``objective`` selects the segment cost ("plain" is the sum of
    unweighted regression residuals; "stabilized" the precision-weighted,
    length-scaled variant -- see :func:`_pair_costs`).  Returns the
    estimated instants (sample indices) and the attained cost.
    """
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
    return ChangePointResult(k_hat=tuple(int(cands[k]) for k in picks), g_min=g, n=n)
