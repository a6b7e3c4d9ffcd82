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
"""

from __future__ import annotations

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


class ScalogramTable:
    """Squared-coefficient prefix sums at every grid scale.

    Built once per path, the table answers any segment variance in O(1) per
    scale.  :meth:`log_variances` is the one place that maps segment bounds
    to shift ranges and log-variances; the change-point search and the
    per-segment fits both read it.
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
        for a in self.scales:
            e = coefficients_at_scale(path, wavelet, a)
            self.sq_prefix.append(np.concatenate([[0.0], np.cumsum(e ** 2)]))

    def log_variances(self, k_lo, k_hi):
        """Yield, scale by scale, log S over the segments [k_lo, k_hi).

        The bounds broadcast against each other and lie in [0, N].  Each
        step yields the log-variances, the feasibility mask and the shift
        range [p_lo, p_hi) on the scale's grid.  The mask is one array,
        updated in place: it is False where the segment has fewer than 2
        shifts or zero variance at this scale or an earlier one, and the
        log-variance is 0 there.
        """
        k_lo = np.asarray(k_lo, dtype=float)
        k_hi = np.asarray(k_hi, dtype=float)
        trim = self.trim
        length = k_hi - k_lo
        ok = np.ones(length.shape, dtype=bool)
        with np.errstate(divide="ignore", invalid="ignore"):
            log_len = np.log(length)
        # Untrimmed shift ranges depend on one bound each, so they stay at the
        # bounds' own (unbroadcast) shapes until the prefix sums are differenced.
        lo, hi = (k_lo + trim * length, k_hi - trim * length) if trim else (k_lo, k_hi)
        for a, prefix in zip(self.scales, self.sq_prefix):
            p_lo = np.floor(lo / a).astype(np.int64)
            p_hi = np.floor(hi / a).astype(np.int64)
            ok &= p_hi - p_lo >= 2
            sums = prefix.take(p_hi, mode="clip") - prefix.take(p_lo, mode="clip")
            ok &= sums > 0.0
            with np.errstate(divide="ignore", invalid="ignore"):
                y = math.log(a / (1.0 - 2.0 * trim)) - log_len + np.log(sums)
            # Rebinding y frees the unmasked values before the caller runs.
            y = np.where(ok, y, 0.0)
            yield y, ok, p_lo, p_hi

    def log_variance_vector(self, k_lo, k_hi):
        """Vector of log S over the scale grid for the segment [k_lo, k_hi),
        trimmed per the grid."""
        if not 0 <= k_lo < k_hi <= self.n:
            raise ValidationError("segment bounds fall outside the path")
        ys = []
        for a, (y, ok, p_lo, p_hi) in zip(self.scales, self.log_variances(k_lo, k_hi)):
            if p_hi - p_lo < 2:
                raise ValidationError(
                    f"segment too short: {p_hi - p_lo} shifts at scale {a}"
                )
            ys.append(y)
        if not ok:
            raise NumericError("nonpositive variance: degenerate segment")
        return LogVarianceVector(
            y=np.array(ys),
            k_lo=int(k_lo),
            k_hi=int(k_hi),
            n_eff=(k_hi - k_lo) / self.grid.base,
            log_scales=self.grid.log_scales,
        )


def design_matrix(grid):
    """ell x 2 regression design: first column log(r_i * base), second 1."""
    x = grid.log_scales
    return np.column_stack([x, np.ones_like(x)])
