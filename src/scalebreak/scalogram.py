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

Two routines map segment bounds to shift ranges and evaluate this rule.
:meth:`ScalogramTable.log_variances` runs over arrays of segment bounds,
for the change-point search, and :meth:`ScalogramTable.log_variance_vector`
is the same call at one segment, for the per-segment fits.  It returns a
plain array of log S, one entry per grid scale; the fits take the
segment's effective size n_eff = (k' - k)/a, with a the grid's base scale,
from their caller.

The scale axis.  ``log_variances`` runs one step per scale, or, with
``scale_axis``, one step over every scale: the bounds take a trailing
axis, one floor divides them by all scales, and one ``take`` per bound
reads the flat prefix array at each scale's offset plus the shift index.
Where cells are few, as in the search's confirming calls and the fits,
numpy's fixed cost per call, not arithmetic, sets the time of a step, so
one step instead of ell (489 on the farima detection grid) is most of
the saving.  Each entry is the same subtraction of the same prefix sums
and the same log either way.

:meth:`ScalogramTable.log_variance_steps` serves the search's rows and
columns: one bound held fixed, the other running over a uniform stretch of
candidates.  On an untrimmed grid the running bound k enters scale a only
through its shift index floor(k/a), so along the stretch the log-sum at
scale a is piecewise constant and changes only where floor(k/a) steps:
about span/a times, or at every candidate when a is at most the stride.
The step view yields the log-sum once per step instead of once per
candidate.  A trimmed grid moves both ends of the shift range with the
segment length, so its ranges depend on both bounds, and it keeps
:meth:`~ScalogramTable.log_variances`.

The search regresses the raw log-sums z = log sum e^2 instead of log S.
log S = z + log(a / (1 - 2w)) - log L, and a regression residual with an
intercept is unchanged when c1 * log a + c0 is added to every entry: the
first offset is a multiple of the design column log a, the rest is one
intercept shift per segment.  So the residual of z equals the residual of
log S, and only the fits add the offsets back.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .wavelet import coefficients_at_scale

__all__ = [
    "ScaleGrid",
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


# A scale whose RMS coefficient is below this many units of rounding of
# the largest term sum, eps * ||psi_a||_1 * max|x|, holds rounding noise.
# A dot product of a terms is off by at most a * eps times that sum, so the
# factor covers scales up to 4096 samples.  Constant paths measure 15
# (q = 3) to 300 (q = 5) units; simulated fgn, farima and fbm paths over
# 1e13.
_ROUNDING_UNITS = 4096.0


class ScalogramTable:
    """Squared-coefficient prefix sums at every grid scale.

    Built once per path, the table answers any segment variance in O(1) per
    scale.  :meth:`log_variances` maps any segment bounds to shift ranges,
    for the change-point search and the per-segment fits, and
    :meth:`log_variance_steps` maps a stretch of bounds against a fixed one
    to the shift steps along it.  One flat array holds the prefix sums of
    every scale, and ``sq_prefix`` views it scale by scale.

    A scale whose sampled filter is zero, or whose squared coefficients
    overflow, raises :class:`ValidationError`.  A scale whose RMS coefficient lies below
    c * eps * ||psi_a||_1 * max|x|, with c = 4096 and ||psi_a||_1 the l1
    norm of the sampled filter, holds nothing but rounding noise and raises
    :class:`NumericError`: a constant path does so under the compact
    wavelets of odd q, whose sampled filters sum to zero.
    """

    def __init__(self, path, wavelet, grid):
        if grid.trim > 0.0 and not wavelet.is_band_limited:
            raise ValidationError("trim applies to band-limited wavelets only")
        kernel_l1 = np.array([wavelet.kernel_l1(a) for a in grid.scales])
        if not kernel_l1.all():
            raise ValidationError(
                f"the sampled wavelet is zero at scale "
                f"{grid.scales[np.argmax(kernel_l1 == 0.0)]:g}: its "
                "coefficients see nothing; start the grid at a larger scale"
            )
        self.grid = grid
        self.n = path.n
        self.scales = grid.scales
        # floor(N/a) + 1 prefix sums per scale, in one flat array.
        sizes = [int(math.floor(self.n / a)) + 1 for a in self.scales]
        self._offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        self._flat = np.empty(self._offsets[-1])
        self.sq_prefix = [
            self._flat[lo:hi] for lo, hi in zip(self._offsets, self._offsets[1:])
        ]
        # One call per scale through this module's name coefficients_at_scale,
        # which the benchmark's tracer (perfbench/tracer.py) wraps.  Each
        # prefix is written by np.add.accumulate, the ufunc np.cumsum calls,
        # without its wrapper's fixed cost per scale.
        self._flat[self._offsets[:-1]] = 0.0
        with np.errstate(over="ignore", invalid="ignore"):
            for a, prefix in zip(self.scales, self.sq_prefix):
                e = coefficients_at_scale(path, wavelet, a)
                np.add.accumulate(np.square(e, out=e), out=prefix[1:])
        # Both checks run over every scale's total at once; the first scale
        # that fails either raises, the overflow first, as a scale-by-scale
        # pass would.
        total = self._flat[self._offsets[1:] - 1]
        overflow = ~np.isfinite(total)
        l1 = path.delta / np.sqrt(self.scales) * kernel_l1
        noise = _ROUNDING_UNITS * np.finfo(float).eps * l1 * np.max(np.abs(path.values))
        with np.errstate(invalid="ignore"):
            rounding = np.sqrt(total / (np.asarray(sizes) - 1.0)) < noise
        failed = overflow | rounding
        if failed.any():
            s = int(np.argmax(failed))
            a = self.scales[s]
            if overflow[s]:
                raise ValidationError(
                    f"squared wavelet coefficients overflow at scale {a:g}; "
                    "rescale the series"
                )
            raise NumericError(
                f"wavelet variance at scale {a:g} is at rounding level: "
                "the series holds no fluctuations the wavelet sees"
            )

    def log_variances(self, k_lo, k_hi, scale_axis=False):
        """Yield the raw log-sums z = log sum e^2 over the shifts of the
        segments [k_lo, k_hi), scale by scale, or every scale in one step
        with ``scale_axis``.

        The bounds broadcast against each other and lie in [0, N].  Each
        step yields z, the shift-count mask and the shift range
        [p_lo, p_hi) on the scale's grid.  z is one buffer, overwritten at
        every step; it is -inf where the sum is zero.  The mask is one
        array, updated in place: it is False where the segment has fewer
        than 2 shifts at this scale or an earlier one.  With
        ``scale_axis`` the one step covers every scale: z, p_lo and p_hi
        carry the scales on a trailing axis, and the mask covers them all.
        log S is z plus log(a / (1 - 2w)) - log(k_hi - k_lo), which only
        the per-segment fits need (see the module docstring).
        Floating-point errors of the logs are ignored while the steps run,
        the caller's code between them included.
        """
        k_lo = np.asarray(k_lo, dtype=float)
        k_hi = np.asarray(k_hi, dtype=float)
        trim = self.grid.trim
        shape = np.broadcast_shapes(k_lo.shape, k_hi.shape)
        ok = np.ones(shape, dtype=bool)
        # Untrimmed shift ranges depend on one bound each, so they stay at the
        # bounds' own (unbroadcast) shapes until the prefix sums are differenced.
        if trim:
            length = k_hi - k_lo
            k_lo, k_hi = k_lo + trim * length, k_hi - trim * length
        if scale_axis:
            # One step: shift p of scale s is entry _offsets[s] + p of the
            # flat prefix array.
            k_lo, k_hi = k_lo[..., None], k_hi[..., None]
            steps = [(self.scales, self._flat, self._offsets[:-1])]
            z = np.empty(shape + self.scales.shape)
        else:
            steps = zip(self.scales, self.sq_prefix, itertools.repeat(None))
            z = np.empty(shape)
        # floor(k / a) is monotone in k, so the least shift count over the
        # bounds' extremes is floor(min k_hi / a) - floor(max k_lo / a); a scale
        # where it reaches 2 needs no broadcast test.
        hi_min, lo_max = (float(k_hi.min()), float(k_lo.max())) if ok.size else (0, 0)
        with np.errstate(divide="ignore", invalid="ignore"):
            for a, prefix, base in steps:
                p_lo = np.floor(k_lo / a).astype(np.int64)
                p_hi = np.floor(k_hi / a).astype(np.int64)
                if base is None:
                    i_lo, i_hi = p_lo, p_hi
                    if math.floor(hi_min / a) < math.floor(lo_max / a) + 2:
                        ok &= p_hi >= p_lo + 2
                else:
                    i_lo, i_hi = p_lo + base, p_hi + base
                    ok &= np.all(p_hi >= p_lo + 2, axis=-1)
                np.subtract(
                    prefix.take(i_hi, mode="clip"), prefix.take(i_lo, mode="clip"),
                    out=z,
                )
                np.log(z, out=z)
                yield z, ok, p_lo, p_hi

    def log_variance_steps(self, fixed, k0, stride, count, fixed_is_hi, cells):
        """Yield the raw log-sums z of the segments between the bound
        ``fixed`` and each bound k_i = k0 + i * stride, i < count, only at
        the candidates i where z changes.  Untrimmed grids only.

        ``fixed_is_hi`` says whether ``fixed`` is the upper bound; all
        bounds lie in [0, N].  The varying bound enters scale a only through
        its shift index floor(k_i / a), so scale a steps at every candidate
        when a <= stride and about (k_last - k0) / a times otherwise.  The
        steps come in chunks of whole scales, each of at most ``cells``
        steps (at least one scale).  A chunk yields the indices of its
        scales in the grid, their step counts, and per step, scale by
        scale: the candidate i where the step's run starts (increasing, 0
        first), z on the run, and ``bad``, True where the segment has fewer
        than 2 shifts or a zero sum at that scale.  z is 0 where bad.
        """
        if self.grid.trim:
            raise ValidationError("shift steps need an untrimmed grid")
        fixed, k0, stride = int(fixed), int(k0), int(stride)
        # Bounds and shift indices are integers below 2**53, so the float
        # floor and ceiling of their quotients are exact, as in log_variances.
        a = self.scales
        dense = int(np.searchsorted(a, stride, "right"))
        t_first = np.floor(k0 / a)
        sizes = np.floor((k0 + (count - 1) * stride) / a) - t_first + 1
        sizes[:dense] = count
        sizes = sizes.astype(np.int64)
        ends = np.cumsum(sizes)
        starts = ends - sizes
        offsets = self._offsets[:-1]
        held_index = offsets + np.floor(fixed / a).astype(np.int64)
        # A sparse scale's steps are its shift indices t_first, t_first + 1,
        # ...; step e of the whole list reads prefix entry e + moving_base.
        moving_base = offsets + t_first.astype(np.int64) - starts
        ks = k0 + stride * np.arange(count, dtype=float)
        s0 = 0
        while s0 < a.size:
            if s0 < dense:
                s1 = min(s0 + max(cells // count, 1), dense)
                t = np.floor(ks / a[s0:s1, None]).astype(np.int64)
                moving = (t + offsets[s0:s1, None]).ravel()
                pos = np.tile(np.arange(count), s1 - s0)
            else:
                s1 = int(np.searchsorted(ends, starts[s0] + cells, "right"))
                s1 = max(s1, s0 + 1)
                runs = sizes[s0:s1]
                moving = np.arange(starts[s0], ends[s1 - 1])
                moving += np.repeat(moving_base[s0:s1], runs)
                # Shift index t's run starts at the first k_i >= t * a.
                pos = moving * np.repeat(a[s0:s1], runs)
                pos -= np.repeat(offsets[s0:s1] * a[s0:s1] + k0, runs)
                pos /= stride
                pos = np.maximum(np.ceil(pos, out=pos), 0.0, out=pos).astype(np.intp)
            held = np.repeat(held_index[s0:s1], sizes[s0:s1])
            hi, lo = (held, moving) if fixed_is_hi else (moving, held)
            sums = self._flat.take(hi) - self._flat.take(lo)
            bad = (hi < lo + 2) | (sums <= 0.0)
            if bad.any():
                sums[bad] = 1.0
            yield np.arange(s0, s1), sizes[s0:s1], pos, np.log(sums, out=sums), bad
            s0 = s1

    def log_variance_vector(self, k_lo, k_hi):
        """Array of log S over the scale grid for the segment [k_lo, k_hi),
        trimmed per the grid, from one step of :meth:`log_variances` over
        every scale."""
        if not 0 <= k_lo < k_hi <= self.n:
            raise ValidationError("segment bounds fall outside the path")
        (z, _, p_lo, p_hi), = self.log_variances(k_lo, k_hi, scale_axis=True)
        shifts = p_hi - p_lo
        if np.any(shifts < 2):
            s = int(np.argmax(shifts < 2))
            raise ValidationError(
                f"segment too short: {shifts[s]} shifts at scale {self.scales[s]}"
            )
        # math.log, not np.log: the offsets are those of a scalar evaluation.
        offset = [math.log(a / (1.0 - 2.0 * self.grid.trim)) for a in self.scales]
        y = np.subtract(offset, np.log(float(k_hi - k_lo))) + z
        if not np.all(np.isfinite(y)):
            raise NumericError("nonpositive variance: degenerate segment")
        return y


def design_matrix(grid):
    """ell x 2 regression design: first column log(r_i * base), second 1."""
    x = grid.log_scales
    return np.column_stack([x, np.ones_like(x)])
