import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from oracles import segment_cost
from scalebreak import (
    NumericError,
    PiecewiseSpec,
    SampledPath,
    ScaleGrid,
    ValidationError,
    design_matrix,
    make_band_limited,
    make_compact_poly,
    simulate_piecewise,
)
from scalebreak.scalogram import ScalogramTable
from scalebreak.wavelet import coefficients_at_scale


def two_by_two_rss(y, x):
    """Normal-equation oracle for the best-line residual sum."""
    design = np.column_stack([x, np.ones_like(x)])
    theta, *_ = np.linalg.lstsq(design, y, rcond=None)
    r = y - design @ theta
    return float(r @ r)


def seg_variance(path, wavelet, a, k_lo, k_hi, trim=0.0):
    """S at scale ``a`` over [k_lo, k_hi), read off the table of a grid
    whose base scale is ``a``."""
    table = ScalogramTable(path, wavelet, ScaleGrid(a, (1, 2, 3), trim=trim))
    return math.exp(table.log_variance_vector(k_lo, k_hi)[0])


def direct_variance(path, wavelet, a, k_lo, k_hi, trim=0.0):
    """S from its definition: squared coefficients summed over the shifts
    [(k + w L)/a] .. [(k' - w L)/a]-1, times a/((1 - 2w) L)."""
    length = k_hi - k_lo
    e = coefficients_at_scale(path, wavelet, a)
    p_lo = math.floor((k_lo + trim * length) / a)
    p_hi = math.floor((k_hi - trim * length) / a)
    return a / ((1.0 - 2.0 * trim) * length) * float(np.sum(e[p_lo:p_hi] ** 2))


class TestScaleGrid:
    def test_requires_three_scales(self):
        with pytest.raises(ValidationError):
            ScaleGrid(8, (1, 2))

    def test_requires_increasing_integer_ratios(self):
        with pytest.raises(ValidationError):
            ScaleGrid(8, (1, 3, 2))

    def test_trim_range(self):
        with pytest.raises(ValidationError):
            ScaleGrid(8, (1, 2, 3), trim=0.5)

    def test_scales(self):
        g = ScaleGrid(8, (1, 2, 4))
        np.testing.assert_allclose(g.scales, [8.0, 16.0, 32.0])


# Tables on 600 samples, scales 16..96, one per trim fraction.
TRIM_TABLES = {
    trim: ScalogramTable(
        SampledPath(values=np.random.default_rng(14).normal(size=601)),
        make_band_limited(2.0, 3.0) if trim else make_compact_poly(3),
        ScaleGrid(16, (1, 2, 3, 5, 6), trim=trim),
    )
    for trim in (0.0, 0.1, 0.3)
}


class TestSegVariance:
    def test_prefactor_exact_for_constant_squares(self):
        # All e^2 equal v => S = v * (count * a) / (k' - k).
        rng = np.random.default_rng(0)
        path = SampledPath(values=rng.normal(size=513))
        w = make_compact_poly(3)
        a, k_lo, k_hi = 8, 0, 512
        e = coefficients_at_scale(path, w, a)
        count = 512 // 8
        s = seg_variance(path, w, a, k_lo, k_hi)
        assert s == pytest.approx(
            np.sum(e[:count] ** 2) * a / (k_hi - k_lo), rel=1e-12
        )

    def test_zero_path_gives_zero(self):
        # A zero path has a raw sum of 0, z = log 0 = -inf, at every scale;
        # the mask tracks shift counts only: True on [0, 512), False on
        # [0, 16), which has 1 shift at scale 16.
        path = SampledPath(values=np.zeros(513))
        table = ScalogramTable(path, make_compact_poly(3), ScaleGrid(8, (1, 2, 4)))
        steps = [
            (np.exp(z).tolist(), ok.tolist(), p_lo.tolist(), p_hi.tolist())
            for z, ok, p_lo, p_hi in table.log_variances(0, np.array([512, 16]))
        ]
        assert [(p_lo, p_hi) for *_, p_lo, p_hi in steps] == [
            (0, [64, 2]), (0, [32, 1]), (0, [16, 0])
        ]
        assert [ok for _, ok, *_ in steps] == [
            [True, True], [True, False], [True, False]
        ]
        assert all(raw == [0.0, 0.0] for raw, *_ in steps)

    def test_segment_too_short(self):
        rng = np.random.default_rng(1)
        path = SampledPath(values=rng.normal(size=513))
        w = make_compact_poly(3)
        with pytest.raises(ValidationError):
            seg_variance(path, w, 64, 0, 100)
        # The array form masks out [0, 200), 1 shift at scales 128 and 192,
        # and keeps [0, 512).
        table = ScalogramTable(path, w, ScaleGrid(64, (1, 2, 3)))
        *_, (_, ok, _, _) = table.log_variances(0, np.array([200, 512]))
        assert ok.tolist() == [False, True]

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        trim=st.sampled_from([0.0, 0.1, 0.3]),
        hi_from=st.sampled_from([301, 500]),
    )
    def test_mask_is_the_shift_count_rule(self, seed, trim, hi_from):
        # The mask after each scale against the definition on every pair.
        # With hi_from = 301 the bounds' least span, 1, falls below twice
        # every scale, so every pair is tested; with 500 it is 200, and
        # untrimmed no pair is short at scales up to 16 * 6.
        rng = np.random.default_rng(seed)
        table = TRIM_TABLES[trim]
        k_lo = np.sort(rng.integers(0, 301, size=(7, 1)), axis=0).astype(float)
        k_hi = rng.integers(hi_from, 601, size=(1, 9)).astype(float)
        k_lo[-1, 0], k_hi[0, 0] = 300.0, hi_from
        length = k_hi - k_lo
        lo, hi = k_lo + trim * length, k_hi - trim * length
        expected = np.ones((7, 9), dtype=bool)
        for a, (_, ok, _, _) in zip(table.scales, table.log_variances(k_lo, k_hi)):
            expected &= np.floor(hi / a) - np.floor(lo / a) >= 2
            np.testing.assert_array_equal(ok, expected)
        if not trim:
            assert expected.all() == (hi_from == 500)

    def test_shift_window_bounds_verbatim(self):
        # The shift set must be [k/a] .. [k'/a]-1 exactly.
        rng = np.random.default_rng(2)
        path = SampledPath(values=rng.normal(size=513))
        w = make_compact_poly(3)
        a = 8
        e = coefficients_at_scale(path, w, a)
        k_lo, k_hi = 37, 473
        p_lo, p_hi = int(37 // 8), int(473 // 8)
        expected = a / (k_hi - k_lo) * np.sum(e[p_lo:p_hi] ** 2)
        assert seg_variance(path, w, a, k_lo, k_hi) == pytest.approx(
            expected, rel=1e-12
        )
        assert p_hi - p_lo == 55  # counting audit: floor(473/8)-floor(37/8)

    def test_single_regime_slope(self):
        # log S versus log scale has slope ~ D for long-memory input.
        spec = PiecewiseSpec(family="fgn", exponents=(0.8,))
        w = make_compact_poly(3)
        grid = ScaleGrid(12, tuple(range(1, 31)))
        x = grid.log_scales
        slopes = []
        for seed in (77, 78, 79, 80):
            path = simulate_piecewise(spec, 20000, seed=seed)
            y = ScalogramTable(path, w, grid).log_variance_vector(0, 20000)
            slopes.append(np.polyfit(x, y, 1)[0])
        assert abs(np.mean(slopes) - 0.8) < 0.1


class TestShiftSteps:
    """:meth:`ScalogramTable.log_variance_steps` against the general
    :meth:`ScalogramTable.log_variances` on every candidate."""

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        stride=st.integers(1, 40),
        k0=st.integers(0, 599),
        gap=st.integers(1, 600),
        fixed_is_hi=st.booleans(),
        cells=st.integers(1, 400),
        hole=st.booleans(),
    )
    def test_steps_replay_every_candidate(
        self, seed, stride, k0, gap, fixed_is_hi, cells, hole
    ):
        # Scales 16..96 step at every candidate up to stride 16 and sparsely
        # beyond; a zeroed stretch gives zero sums, and bounds near the
        # fixed one give fewer than 2 shifts.
        fixed = k0 + gap if fixed_is_hi else k0 - gap
        assume(0 <= fixed <= 600)
        last = fixed - 1 if fixed_is_hi else 600
        count = (last - k0) // stride + 1
        vals = np.random.default_rng(seed).normal(size=601)
        if hole:
            vals[200:420] = 0.0
        grid = ScaleGrid(16, (1, 2, 3, 5, 6))
        table = ScalogramTable(SampledPath(values=vals), make_compact_poly(3), grid)
        z_at = np.zeros((grid.ell, count))
        bad_at = np.zeros((grid.ell, count), dtype=bool)
        seen = []
        steps = table.log_variance_steps(fixed, k0, stride, count, fixed_is_hi, cells)
        for scales, runs, pos, z, bad in steps:
            assert runs.sum() == pos.size and (pos.size <= cells or runs.size == 1)
            ends = np.cumsum(runs)
            for s, start, stop in zip(scales, ends - runs, ends):
                seen.append(s)
                p = pos[start:stop]
                assert p[0] == 0 and np.all(np.diff(p) > 0)
                # Each run holds from its start to the next one's.
                run_of = np.searchsorted(p, np.arange(count), "right") - 1
                z_at[s] = z[start:stop][run_of]
                bad_at[s] = bad[start:stop][run_of]
        assert seen == list(range(grid.ell))
        ks = k0 + stride * np.arange(count, dtype=float)
        k_lo, k_hi = (ks, fixed) if fixed_is_hi else (fixed, ks)
        for s, (z, _, p_lo, p_hi) in enumerate(table.log_variances(k_lo, k_hi)):
            own_bad = np.isneginf(z) | (p_hi - p_lo < 2)
            np.testing.assert_array_equal(bad_at[s], own_bad)
            np.testing.assert_array_equal(z_at[s], np.where(own_bad, 0.0, z))

    def test_trimmed_grid_refused(self):
        table = TRIM_TABLES[0.1]
        with pytest.raises(ValidationError, match="untrimmed"):
            next(table.log_variance_steps(600, 0, 8, 10, True, 100))


class TestTrimmedVariance:
    WBL = make_band_limited(2.0, 3.0)

    def test_zero_trim_equals_untrimmed(self):
        rng = np.random.default_rng(3)
        path = SampledPath(values=rng.normal(size=1025))
        assert seg_variance(path, self.WBL, 8, 0, 1024, trim=0.0) == pytest.approx(
            direct_variance(path, self.WBL, 8, 0, 1024), rel=1e-12
        )

    def test_trimmed_matches_direct_sum(self):
        # Every scale of a band-limited, trimmed table against the
        # definition evaluated from the coefficients themselves.
        rng = np.random.default_rng(9)
        path = SampledPath(values=rng.normal(size=2049))
        for trim in (0.1, 0.25):
            grid = ScaleGrid(4, (1, 2, 3, 5), trim=trim)
            table = ScalogramTable(path, self.WBL, grid)
            for k_lo, k_hi in [(0, 2048), (37, 1500), (301, 1999)]:
                y = table.log_variance_vector(k_lo, k_hi)
                direct = [
                    direct_variance(path, self.WBL, int(a), k_lo, k_hi, trim)
                    for a in grid.scales
                ]
                np.testing.assert_allclose(np.exp(y), direct, rtol=1e-12)

    def test_trim_domain(self):
        for trim in (-0.1, 0.6):
            with pytest.raises(ValidationError):
                ScaleGrid(8, (1, 2, 3), trim=trim)


class TestLogVarianceVector:
    def test_power_law_mock_is_linear(self):
        # If S_i = beta (r_i a)^alpha exactly, Y is exactly linear.
        grid = ScaleGrid(8, (1, 2, 4))
        x = grid.log_scales
        y = 0.7 * x + 0.3
        assert segment_cost(y, design_matrix(grid)) == pytest.approx(0.0, abs=1e-12)

    def test_zero_path_raises(self):
        path = SampledPath(values=np.zeros(1025))
        w = make_compact_poly(3)
        grid = ScaleGrid(8, (1, 2, 4))
        with pytest.raises(NumericError):
            ScalogramTable(path, w, grid).log_variance_vector(0, 1024)

    def test_plain_array_of_log_s(self):
        rng = np.random.default_rng(4)
        path = SampledPath(values=rng.normal(size=1025))
        w = make_compact_poly(3)
        grid = ScaleGrid(8, (1, 2, 4))
        y = ScalogramTable(path, w, grid).log_variance_vector(0, 1024)
        assert type(y) is np.ndarray and y.dtype == float and y.shape == (3,)

    def test_bounds_outside_path_rejected(self):
        rng = np.random.default_rng(6)
        path = SampledPath(values=rng.normal(size=1025))
        table = ScalogramTable(path, make_compact_poly(3), ScaleGrid(8, (1, 2, 4)))
        for k_lo, k_hi in [(-8, 512), (0, 1030), (600, 500)]:
            with pytest.raises(ValidationError):
                table.log_variance_vector(k_lo, k_hi)

    @pytest.mark.parametrize(
        "k_lo, k_hi, error, text",
        [
            (0, 200, ValidationError, "segment too short: 1 shifts at scale 128.0"),
            (0, 100, ValidationError, "segment too short: 1 shifts at scale 64.0"),
            (300, 512, ValidationError, "segment too short: 1 shifts at scale 192.0"),
            (-1, 5, ValidationError, "segment bounds fall outside the path"),
            (1100, 2900, NumericError, "nonpositive variance: degenerate segment"),
        ],
    )
    def test_error_texts(self, k_lo, k_hi, error, text):
        # The first scale with fewer than 2 shifts is named; a segment in a
        # zeroed stretch has zero sums.
        rng = np.random.default_rng(1)
        if error is NumericError:
            vals = rng.normal(size=4001)
            vals[1000:3000] = 0.0
            grid = ScaleGrid(8, (1, 2, 3))
        else:
            vals = rng.normal(size=513)
            grid = ScaleGrid(64, (1, 2, 3))
        table = ScalogramTable(SampledPath(values=vals), make_compact_poly(3), grid)
        with pytest.raises(error) as info:
            table.log_variance_vector(k_lo, k_hi)
        assert str(info.value) == text

    def test_trim_only_for_band_limited(self):
        rng = np.random.default_rng(5)
        path = SampledPath(values=rng.normal(size=1025))
        w = make_compact_poly(3)
        grid = ScaleGrid(8, (1, 2, 4), trim=0.1)
        with pytest.raises(ValidationError):
            ScalogramTable(path, w, grid)


class TestTableBuild:
    """The prefix arrays against a per-scale cumulative-sum oracle."""

    @pytest.mark.parametrize("wavelet, grid", [
        (make_compact_poly(3), ScaleGrid(2, tuple(range(1, 41)))),
        (make_band_limited(2.0, 3.0), ScaleGrid(16, (1, 2, 3, 5, 6, 9, 14), trim=0.2)),
    ], ids=["dense-compact", "trimmed-band-limited"])
    def test_prefixes_equal_per_scale_cumsum(self, wavelet, grid):
        path = SampledPath(values=np.random.default_rng(21).normal(size=3001))
        table = ScalogramTable(path, wavelet, grid)
        want = np.concatenate([
            np.concatenate([[0.0], np.cumsum(np.square(
                coefficients_at_scale(path, wavelet, a)))])
            for a in grid.scales
        ])
        assert table._flat.tobytes() == want.tobytes()
        for a, prefix in zip(grid.scales, table.sq_prefix):
            assert prefix.size == math.floor(path.n / a) + 1

    def test_one_coefficient_call_per_scale(self, monkeypatch):
        import scalebreak.scalogram as scalogram

        calls = []

        def counted(path, wavelet, a):
            calls.append(a)
            return coefficients_at_scale(path, wavelet, a)

        monkeypatch.setattr(scalogram, "coefficients_at_scale", counted)
        grid = ScaleGrid(4, (1, 2, 3, 5, 8, 13))
        path = SampledPath(values=np.random.default_rng(22).normal(size=1001))
        ScalogramTable(path, make_compact_poly(3), grid)
        assert calls == list(grid.scales)

    def test_scale_beyond_the_path_is_refused(self):
        path = SampledPath(values=np.random.default_rng(23).normal(size=101))
        with pytest.raises(ValidationError, match="path shorter than one scale window"):
            ScalogramTable(path, make_compact_poly(3), ScaleGrid(8, (1, 2, 13)))


class TestDesignMatrix:
    def test_first_column_log_scales(self):
        g = ScaleGrid(1, (1, 2, 4))
        L = design_matrix(g)
        np.testing.assert_allclose(L[:, 0], [0.0, math.log(2), math.log(4)])
        np.testing.assert_allclose(L[:, 1], 1.0)

    def test_rank_two(self):
        g = ScaleGrid(8, (1, 2, 3))
        assert np.linalg.matrix_rank(design_matrix(g)) == 2

    def test_rows_for_given_grid(self):
        g = ScaleGrid(8, (1, 2, 3))
        L = design_matrix(g)
        np.testing.assert_allclose(
            L[:, 0], [math.log(8), math.log(16), math.log(24)]
        )


class TestSegmentCost:
    def test_exactly_linear_is_zero(self):
        g = ScaleGrid(8, (1, 2, 4))
        y = 1.3 * g.log_scales - 0.4
        assert segment_cost(y, design_matrix(g)) == pytest.approx(0.0, abs=1e-22)

    def test_three_point_closed_form(self):
        # Equispaced log-scales; oracle is the direct normal-equation solve.
        g = ScaleGrid(8, (1, 2, 4))
        y = np.array([0.0, 1.0, 0.0])
        oracle = two_by_two_rss(y, g.log_scales)
        assert segment_cost(y, design_matrix(g)) == pytest.approx(oracle, rel=1e-12)

    def test_invariant_to_span_of_design(self):
        g = ScaleGrid(4, (1, 2, 3, 5, 9))
        rng = np.random.default_rng(6)
        y = rng.normal(size=5)
        shifted = y + 2.7 * g.log_scales - 11.0
        assert segment_cost(shifted, design_matrix(g)) == pytest.approx(
            segment_cost(y, design_matrix(g)), rel=1e-9
        )

    def test_beats_constant_fit(self):
        g = ScaleGrid(4, (1, 2, 3, 5, 9))
        rng = np.random.default_rng(7)
        y = rng.normal(size=5)
        assert segment_cost(y, design_matrix(g)) <= np.sum((y - y.mean()) ** 2)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-5, max_value=5, allow_nan=False),
            min_size=5,
            max_size=5,
        ),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
        st.floats(min_value=-3, max_value=3, allow_nan=False),
    )
    def test_projection_invariance_property(self, vals, c1, c2):
        g = ScaleGrid(4, (1, 2, 3, 5, 9))
        y = np.asarray(vals)
        shifted = y + c1 * g.log_scales + c2
        assert segment_cost(shifted, design_matrix(g)) == pytest.approx(
            segment_cost(y, design_matrix(g)), rel=1e-7, abs=1e-9
        )


def test_path_scaling_shifts_y_and_preserves_cost():
    rng = np.random.default_rng(8)
    vals = rng.normal(size=2049)
    w = make_compact_poly(3)
    grid = ScaleGrid(8, (1, 2, 4, 8))
    y1 = ScalogramTable(SampledPath(values=vals), w, grid).log_variance_vector(0, 2048)
    y2 = ScalogramTable(SampledPath(values=3.0 * vals), w, grid).log_variance_vector(
        0, 2048
    )
    np.testing.assert_allclose(y2 - y1, 2.0 * math.log(3.0), rtol=1e-10)
    L = design_matrix(grid)
    assert segment_cost(y2, L) == pytest.approx(segment_cost(y1, L), rel=1e-8)


class TestDegenerateInput:
    GRID = ScaleGrid(8, (1, 2, 3, 4, 5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_path_rejected(self, bad):
        vals = np.random.default_rng(10).normal(size=4001)
        vals[1234] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            SampledPath(values=vals)

    @pytest.mark.parametrize("amplitude", [1e160, 1e200, 1e300])
    def test_overflow_names_its_cause(self, amplitude):
        vals = amplitude * np.random.default_rng(11).normal(size=4001)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="overflow"):
                ScalogramTable(
                    SampledPath(values=vals), make_compact_poly(3), self.GRID
                )

    @pytest.mark.parametrize("q", [3, 5])
    @pytest.mark.parametrize("level", [1.0, -3.7e6, 2.5e-9])
    def test_constant_path_refused(self, q, level):
        # A polynomial of degree 0 < q: the odd-q sampled filters sum to
        # zero, so every coefficient is rounding noise, at any level.
        path = SampledPath(values=np.full(4001, level))
        with pytest.raises(NumericError, match="rounding level"):
            ScalogramTable(path, make_compact_poly(q), self.GRID)

    @pytest.mark.parametrize("extra", [None, 1])
    def test_first_failing_scale_raises(self, extra):
        # A spike at sample 4 meets psi(1/2), zero up to rounding, at scale
        # 8 and a tap of 0.16 at scale 16, whose squares overflow.  So
        # scale 8 is at rounding level and raises before scale 16's
        # overflow.  A second spike at sample 1 makes scale 8 overflow too,
        # and the overflow of the same scale comes first.
        vals = np.zeros(4001)
        vals[4] = 1e160
        if extra is not None:
            vals[extra] = 1e160
        path = SampledPath(values=vals)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises((ValidationError, NumericError)) as info:
                ScalogramTable(path, make_compact_poly(3), ScaleGrid(8, (1, 2, 3)))
        if extra is None:
            assert str(info.value) == (
                "wavelet variance at scale 8 is at rounding level: the series "
                "holds no fluctuations the wavelet sees"
            )
        else:
            assert str(info.value) == (
                "squared wavelet coefficients overflow at scale 8; rescale the series"
            )

    def test_rounding_floor_far_below_noise(self):
        # A unit-variance path clears the floor by many orders of magnitude,
        # also with a large offset that lifts max|x|.
        vals = 1e6 + np.random.default_rng(12).normal(size=4001)
        path = SampledPath(values=vals)
        table = ScalogramTable(path, make_compact_poly(3), self.GRID)
        assert np.isfinite(table.log_variance_vector(0, 4000)).all()
