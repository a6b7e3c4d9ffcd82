"""Per-segment wavelet-variance statistics and their log-log regression form.

The variance statistic over a segment [k, k') of the sample-index axis is

    S(a) = a/(k'-k) * sum_{p=[k/a]}^{[k'/a]-1} e(a, a p)^2,

i.e. the average of squared coefficients over nonoverlapping shifts on the
scale's own grid.  Band-limited wavelets use the trimmed variant, which
drops a fraction ``w`` of the segment at each end where coefficients are
contaminated by edge truncation: shifts [(k + w L)/a] .. [(k' - w L)/a]-1
with L = k' - k, and the prefactor a/((1 - 2w) L).  Stacking log S over a
grid of scales gives a vector that is linear in log scale with slope equal
to the local scaling exponent.

:meth:`ScalogramTable.log_variances` is the only code that evaluates this
rule.  It runs over arrays of segment bounds, for the change-point search,
and :meth:`ScalogramTable.log_variance_vector` is the same call at one
segment, for the per-segment fits.

The search regresses the raw log-sums z = log sum e^2 instead of log S.
log S = z + log(a / (1 - 2w)) - log L, and a regression residual with an
intercept is unchanged when c1 * log a + c0 is added to every entry: the
first offset is a multiple of the design column log a, the rest is one
intercept shift per segment.  So the residual of z equals the residual of
log S, and only the fits add the offsets back.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .wavelet import coefficients_at_scale

__all__ = [
    "ScaleGrid",
    "LogVarianceVector",
    "ScalogramTable",
    "design_matrix",
]


@dataclass(frozen=True)
class ScaleGrid:
    """Integer base scale, integer scale ratios r_1 < ... < r_ell, and trim
    fraction.

    Integer scales keep the coefficients on the sample grid, and integer
    ratios keep the pairwise GCDs in the covariance formulas exact.
    ``trim`` must be 0 for compactly supported wavelets and lies in
    [0, 1/2) for band-limited ones.
    """

    base: int
    ratios: tuple
    trim: float = 0.0

    def __post_init__(self):
        bad = [x for x in (self.base, *self.ratios) if not float(x).is_integer()]
        if bad:
            raise ValidationError(f"scales must be integers, got {bad[0]}")
        object.__setattr__(self, "base", int(self.base))
        object.__setattr__(self, "ratios", tuple(int(r) for r in self.ratios))
        if self.base <= 0:
            raise ValidationError("base scale must be positive")
        if len(self.ratios) < 3:
            raise ValidationError("need at least 3 scale ratios")
        if self.ratios[0] < 1:
            raise ValidationError("scale ratios must be positive integers")
        if any(b <= a for a, b in zip(self.ratios, self.ratios[1:])):
            raise ValidationError("scale ratios must be strictly increasing")
        if not 0.0 <= self.trim < 0.5:
            raise ValidationError("trim fraction must lie in [0, 1/2)")

    @property
    def ell(self):
        return len(self.ratios)

    @property
    def scales(self):
        return self.base * np.asarray(self.ratios, dtype=float)

    @property
    def log_scales(self):
        return np.log(self.scales)


@dataclass(frozen=True)
class LogVarianceVector:
    """log S at each grid scale over the segment [k_lo, k_hi)."""

    y: np.ndarray
    k_lo: int
    k_hi: int
    n_eff: float
    log_scales: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "y", np.asarray(self.y, dtype=float))
        object.__setattr__(self, "log_scales", np.asarray(self.log_scales, dtype=float))
        if self.k_lo >= self.k_hi:
            raise ValidationError("need k_lo < k_hi")


# A scale whose RMS coefficient is below this many units of rounding of
# the largest term sum, eps * ||psi_a||_1 * max|x|, holds rounding noise.
# A dot product of a terms is off by at most a * eps times that sum, so the
# factor covers scales up to 4096 samples.  Constant paths measure 15
# (q = 3) to 300 (q = 5) units; simulated fgn, farima and fbm paths over
# 1e13.
_ROUNDING_UNITS = 4096.0


@functools.cache
def _filter_l1(wavelet, a):
    """sum_j |psi(j/a)| over the sampled filter of ``wavelet`` at scale a;
    cached, because evaluating the kernels of a dense grid again for every
    table would cost as much as the coefficients."""
    return float(np.abs(wavelet.kernel(a)[1]).sum())


class ScalogramTable:
    """Squared-coefficient prefix sums at every grid scale.

    Built once per path, the table answers any segment variance in O(1) per
    scale.  :meth:`log_variances` is the one place that maps segment bounds
    to shift ranges; the change-point search and the per-segment fits both
    read it.

    A scale whose squared coefficients overflow raises
    :class:`ValidationError`.  A scale whose RMS coefficient lies below
    c * eps * ||psi_a||_1 * max|x|, with c = 4096 and ||psi_a||_1 the l1
    norm of the sampled filter, holds nothing but rounding noise and raises
    :class:`NumericError`: a constant path does so under the compact
    wavelets of odd q, whose sampled filters sum to zero.
    """

    def __init__(self, path, wavelet, grid):
        if grid.trim > 0.0 and not wavelet.is_band_limited:
            raise ValidationError("trim applies to band-limited wavelets only")
        self.path = path
        self.wavelet = wavelet
        self.grid = grid
        self.trim = grid.trim
        self.n = path.n
        self.scales = grid.scales
        self.sq_prefix = []
        max_abs = float(np.max(np.abs(path.values)))
        for a in self.scales:
            with np.errstate(over="ignore", invalid="ignore"):
                e = coefficients_at_scale(path, wavelet, a)
                prefix = np.concatenate([[0.0], np.cumsum(e ** 2)])
            if not np.isfinite(prefix[-1]):
                raise ValidationError(
                    f"squared wavelet coefficients overflow at scale {a:g}; "
                    "rescale the series"
                )
            l1 = path.delta / math.sqrt(a) * _filter_l1(wavelet, int(a))
            noise = _ROUNDING_UNITS * np.finfo(float).eps * l1 * max_abs
            if math.sqrt(prefix[-1] / e.size) < noise:
                raise NumericError(
                    f"wavelet variance at scale {a:g} is at rounding level: "
                    "the series holds no fluctuations the wavelet sees"
                )
            self.sq_prefix.append(prefix)

    def log_variances(self, k_lo, k_hi):
        """Yield, scale by scale, the raw log-sum z = log sum e^2 over the
        shifts of the segments [k_lo, k_hi).

        The bounds broadcast against each other and lie in [0, N].  Each
        step yields z, the shift-count mask and the shift range
        [p_lo, p_hi) on the scale's grid.  z is one buffer, overwritten at
        every step; it is -inf where the sum is zero.  The mask is one
        array, updated in place: it is False where the segment has fewer
        than 2 shifts at this scale or an earlier one.  log S is z plus
        log(a / (1 - 2w)) - log(k_hi - k_lo), which only the per-segment
        fits need (see the module docstring).
        """
        k_lo = np.asarray(k_lo, dtype=float)
        k_hi = np.asarray(k_hi, dtype=float)
        trim = self.trim
        shape = np.broadcast_shapes(k_lo.shape, k_hi.shape)
        ok = np.ones(shape, dtype=bool)
        z = np.empty(shape)
        # Untrimmed shift ranges depend on one bound each, so they stay at the
        # bounds' own (unbroadcast) shapes until the prefix sums are differenced.
        if trim:
            length = k_hi - k_lo
            k_lo, k_hi = k_lo + trim * length, k_hi - trim * length
        for a, prefix in zip(self.scales, self.sq_prefix):
            p_lo = np.floor(k_lo / a).astype(np.int64)
            p_hi = np.floor(k_hi / a).astype(np.int64)
            # The broadcast test is skipped when even the least shift count
            # over the bounds' extremes reaches 2.
            if p_lo.size and p_hi.size and p_hi.min() < p_lo.max() + 2:
                ok &= p_hi >= p_lo + 2
            np.subtract(
                prefix.take(p_hi, mode="clip"), prefix.take(p_lo, mode="clip"), out=z
            )
            with np.errstate(divide="ignore", invalid="ignore"):
                np.log(z, out=z)
            yield z, ok, p_lo, p_hi

    def log_variance_vector(self, k_lo, k_hi):
        """Vector of log S over the scale grid for the segment [k_lo, k_hi),
        trimmed per the grid."""
        if not 0 <= k_lo < k_hi <= self.n:
            raise ValidationError("segment bounds fall outside the path")
        log_len = np.log(float(k_hi - k_lo))
        ys = []
        for a, (z, _, p_lo, p_hi) in zip(self.scales, self.log_variances(k_lo, k_hi)):
            if p_hi - p_lo < 2:
                raise ValidationError(
                    f"segment too short: {p_hi - p_lo} shifts at scale {a}"
                )
            ys.append(math.log(a / (1.0 - 2.0 * self.trim)) - log_len + float(z))
        y = np.array(ys)
        if not np.all(np.isfinite(y)):
            raise NumericError("nonpositive variance: degenerate segment")
        return LogVarianceVector(
            y=y,
            k_lo=int(k_lo),
            k_hi=int(k_hi),
            n_eff=(k_hi - k_lo) / self.grid.base,
            log_scales=self.grid.log_scales,
        )


def design_matrix(grid):
    """ell x 2 regression design: first column log(r_i * base), second 1."""
    x = grid.log_scales
    return np.column_stack([x, np.ones_like(x)])
