import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scalebreak import (
    Family,
    NumericError,
    PiecewiseSpec,
    SampledPath,
    ValidationError,
    farima_autocov,
    fgn_autocov,
    simulate_piecewise,
    simulate_stationary,
)
from oracles import add_polynomial_trend, simulate_stationary_full_fft
from scalebreak import synth
from scalebreak.synth import _EXPM2, gaussian_draws, ndtri, segment_bounds
from scipy.special import gammaln
from scipy.special import ndtri as scipy_ndtri

WORDS = 1 << 53


def _ulps(a, b):
    """|a - b| in units of the last place of b, elementwise."""
    return np.abs(a - b) / np.spacing(np.abs(b))


class _Words:
    """A generator stub whose integers() hands out the given words."""

    def __init__(self, words):
        self.words = np.asarray(words, dtype=np.int64)

    def integers(self, lo, hi, size):
        assert (lo, hi, size) == (0, WORDS, self.words.size)
        return self.words.copy()


class TestNdtri:
    def test_matches_scipy_on_uniform_words(self):
        # The central branch is the same arithmetic as Cephes, bit for bit;
        # a tail can differ where numpy's log rounds differently from the C
        # library's (about 6e-5 of draws measured, by at most 5 ulp).
        u = (np.random.default_rng(0).integers(0, WORDS, size=10**6) + 0.5) / WORDS
        got, want = ndtri(u), scipy_ndtri(u)
        central = (u > _EXPM2) & (u <= 1.0 - _EXPM2)
        np.testing.assert_array_equal(got[central], want[central])
        assert _ulps(got[~central], want[~central]).max() <= 8
        assert np.count_nonzero(got != want) < 1e-3 * u.size

    def test_branch_edges(self):
        lo, hi = _EXPM2, 1.0 - _EXPM2
        u = np.array([
            np.nextafter(lo, 0), lo, np.nextafter(lo, 1),
            np.nextafter(hi, 0), hi, np.nextafter(hi, 1),
            0.5, 1e-14, math.exp(-32) * 1.01, math.exp(-32) * 0.99, 1e-20,
            1e-300, 2.0 ** -54, 1.0 - 2.0 ** -53, 1.0 - 1e-15,
        ])
        got, want = ndtri(u), scipy_ndtri(u)
        assert np.all(np.isfinite(got))
        assert _ulps(got, want).max() <= 8
        # Just above e^-2, and up to 1 - e^-2 itself, the central branch
        # runs, where the ports agree exactly; 1/2 maps to 0.
        np.testing.assert_array_equal(got[2:5], want[2:5])
        assert got[6] == 0.0


class TestGaussianDraws:
    def test_first_and_last_word_are_finite(self):
        # The last word gives (2^53 - 1/2) 2^-53, which rounds to 1.0,
        # where the inverse CDF is +inf; it is clamped to 1 - 2^-53.
        assert scipy_ndtri((WORDS - 1 + 0.5) * 2.0 ** -53) == math.inf
        z = gaussian_draws(_Words([0, WORDS - 1]), 2)
        assert np.all(np.isfinite(z))
        assert z[1] == pytest.approx(-scipy_ndtri(2.0 ** -53), rel=2e-15)
        assert z[0] == pytest.approx(scipy_ndtri(2.0 ** -54), rel=2e-15)

    def test_clamp_moves_no_other_word(self):
        words = np.array([0, 1, 12345, 1 << 52, (1 << 52) + 1, WORDS - 3, WORDS - 2])
        z = gaussian_draws(_Words(words), words.size)
        np.testing.assert_array_equal(z, ndtri((words + 0.5) * 2.0 ** -53))


class TestFgnAutocov:
    def test_brownian_increments_are_independent(self):
        assert fgn_autocov(0.5, 1.0, 1) == pytest.approx(0.0, abs=1e-15)

    def test_lag_zero_is_the_variance(self):
        assert fgn_autocov(0.5, 3.0, 0) == pytest.approx(3.0)

    def test_matches_monte_carlo_covariance(self):
        # Oracle: empirical covariance of exact increments over >= 1e5 pairs.
        h, lag = 0.8, 2
        rng_seed = 11
        n, reps = 512, 400  # 400 * 510 > 2e5 pairs
        acc = []
        for i in range(reps):
            x = simulate_stationary(
                lambda k: fgn_autocov(h, 1.0, k), n, seed=rng_seed + i
            )
            acc.append(np.mean(x[:-lag] * x[lag:]))
        est = np.mean(acc)
        se = np.std(acc, ddof=1) / math.sqrt(reps)
        assert abs(est - fgn_autocov(h, 1.0, lag)) < 3 * se

    def test_domain_errors(self):
        with pytest.raises(ValidationError):
            fgn_autocov(1.0, 1.0, 0)
        with pytest.raises(ValidationError):
            fgn_autocov(0.5, -1.0, 0)


class TestFarimaAutocov:
    def test_white_noise_limit(self):
        assert farima_autocov(1e-9, 1.0, 1) == pytest.approx(0.0, abs=1e-6)

    def test_base_case_against_loggamma(self):
        # r(0) = Gamma(1-2d) / Gamma(1-d)^2, evaluated directly.
        for d in (1e-6, 0.05, 0.1, 0.25, 0.4, 0.49, 0.499999):
            expected = math.exp(gammaln(1 - 2 * d) - 2 * gammaln(1 - d))
            assert farima_autocov(d, 1.0, 0) == pytest.approx(expected, rel=1e-12), d

    def test_slow_decay_ratio(self):
        d = 0.4
        r = farima_autocov(d, 1.0, np.arange(2001))
        ratio = r[2000] / r[1999]
        assert ratio == pytest.approx((1999 + d) / (2000 - d), rel=1e-10)
        assert 0.999 < ratio < 1.0

    def test_domain_error(self):
        with pytest.raises(ValidationError):
            farima_autocov(0.6, 1.0, 0)


class TestSimulateStationary:
    def test_white_noise_variance(self):
        n = 4096
        x = simulate_stationary(lambda k: (np.asarray(k) == 0) * 1.0, n, seed=0)
        assert abs(np.var(x) - 1.0) < 5 / math.sqrt(n)
        assert abs(np.mean(x)) < 5 / math.sqrt(n)

    def test_fgn_lag_one_correlation(self):
        h, n, reps = 0.8, 1024, 200
        target = fgn_autocov(h, 1.0, 1)
        acc = [
            np.mean(np.roll(x, 1)[1:] * x[1:])
            for x in (
                simulate_stationary(lambda k: fgn_autocov(h, 1.0, k), n, seed=3 + i)
                for i in range(reps)
            )
        ]
        se = np.std(acc, ddof=1) / math.sqrt(reps)
        assert abs(np.mean(acc) - target) < 3 * se

    def test_deterministic_given_seed(self):
        a = simulate_stationary(lambda k: fgn_autocov(0.7, 1.0, k), 512, seed=42)
        b = simulate_stationary(lambda k: fgn_autocov(0.7, 1.0, k), 512, seed=42)
        np.testing.assert_array_equal(a, b)
        # A generator passed as the seed is drawn from as it stands.
        c = simulate_stationary(
            lambda k: fgn_autocov(0.7, 1.0, k), 512, seed=np.random.default_rng(42)
        )
        np.testing.assert_array_equal(a, c)

    @pytest.mark.parametrize("seed, message", [
        (1.5, "seed must be an integer, got 1.5"),
        (-1, "seed must be nonnegative, got -1"),
        ("abc", "seed must be a number, got 'abc'"),
    ])
    def test_seed_that_is_not_a_nonnegative_integer_is_refused(self, seed, message):
        # As simulate_piecewise refuses its own seed; a Generator and None pass.
        with pytest.raises(ValidationError, match=re.escape(message)):
            simulate_stationary(lambda k: fgn_autocov(0.7, 1.0, k), 64, seed=seed)
        assert simulate_stationary(lambda k: fgn_autocov(0.7, 1.0, k), 64).shape == (64,)

    @pytest.mark.parametrize("n", [2, 3, 64, 1001, 4096])
    @pytest.mark.parametrize("autocov", [
        lambda k: fgn_autocov(0.7, 1.0, k),
        lambda k: fgn_autocov(0.2, 2.0, k),
        lambda k: farima_autocov(0.45, 1.0, k),
        lambda k: (np.asarray(k) == 0) * 1.0,
    ], ids=["fgn-0.7", "fgn-0.2", "farima-0.45", "white"])
    def test_half_size_ffts_match_the_full_fft(self, autocov, n):
        x = simulate_stationary(autocov, n, seed=n)
        want = simulate_stationary_full_fft(autocov, n, seed=n)
        assert x.shape == (n,)
        np.testing.assert_allclose(x, want, rtol=0, atol=1e-13 * np.abs(want).max())

    def test_invalid_covariance_raises(self):
        # A sequence that is not a covariance has no nonnegative embedding.
        with pytest.raises(NumericError, match="negative eigenvalue .* at n=64"):
            simulate_stationary(lambda k: -np.ones(np.shape(k)), 64, seed=0)

    @pytest.mark.parametrize("c", [1.0, 1e-9, 1e-30])
    def test_refusal_is_relative_to_the_largest_eigenvalue(self, c):
        # r = c (1, 0.9, 0, ...) has the embedding eigenvalues
        # c (1 + 1.8 cos w), down to -0.8 c: refused at every scale c.
        def autocov(k):
            return c * np.select([k == 0, k == 1], [1.0, 0.9], 0.0)

        with pytest.raises(NumericError, match="negative eigenvalue .* at n=64"):
            simulate_stationary(autocov, 64, seed=0)
        # White noise of the same variance is drawn, its path scaled by sqrt(c).
        x = simulate_stationary(lambda k: c * (k == 0), 64, seed=0)
        unit = simulate_stationary(lambda k: 1.0 * (k == 0), 64, seed=0)
        np.testing.assert_allclose(x, math.sqrt(c) * unit, rtol=1e-12, atol=0)

    def test_zero_covariance_raises(self):
        with pytest.raises(NumericError, match="largest eigenvalue 0 at n=64"):
            simulate_stationary(lambda k: np.zeros(np.shape(k)), 64, seed=0)

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_determinism_property(self, seed):
        a = simulate_stationary(lambda k: fgn_autocov(0.6, 1.0, k), 128, seed=seed)
        b = simulate_stationary(lambda k: fgn_autocov(0.6, 1.0, k), 128, seed=seed)
        np.testing.assert_array_equal(a, b)


# Empirical lag-covariance invariant: analytic autocovariance within 4
# standard errors for every family at lags {0, 1, 5, 20}.
@pytest.mark.parametrize(
    "autocov",
    [
        lambda k: fgn_autocov(0.7, 1.0, k),
        lambda k: farima_autocov(0.2, 1.0, k),
    ],
    ids=["fgn", "farima"],
)
def test_covariance_invariant(autocov):
    n, reps = 512, 2000
    paths = np.stack(
        [simulate_stationary(autocov, n, seed=1000 + i) for i in range(reps)]
    )
    for lag in (0, 1, 5, 20):
        prods = paths[:, : n - lag] * paths[:, lag:] if lag else paths * paths
        per_rep = prods.mean(axis=1)
        se = per_rep.std(ddof=1) / math.sqrt(reps)
        assert abs(per_rep.mean() - autocov(lag)) < 4 * se, f"lag {lag}"


class TestSimulatePiecewise:
    def test_single_regime_has_no_structure(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        path = simulate_piecewise(spec, 1000, seed=1)
        assert path.n == 1000
        assert path.values.size == 1001

    def test_fbm_self_similarity(self):
        # Var(X_t) = sigma^2 t^(2H) at t = 10 and t = 100.
        h, reps = 0.7, 4000
        spec = PiecewiseSpec(family="fbm", exponents=(h,))
        vals = np.stack(
            [simulate_piecewise(spec, 128, seed=50_000 + i).values for i in range(reps)]
        )
        for t in (10, 100):
            target = float(t) ** (2 * h)
            sample_var = np.mean(vals[:, t] ** 2)
            se = np.std(vals[:, t] ** 2, ddof=1) / math.sqrt(reps)
            assert abs(sample_var - target) < 4 * se

    def test_fbm_segments_restart_at_zero(self):
        spec = PiecewiseSpec(family="fbm", tau_stars=(0.5,), exponents=(0.4, 0.8))
        path = simulate_piecewise(spec, 1000, seed=2)
        assert path.values[0] == 0.0
        assert path.values[500] == 0.0

    def test_segment_independence(self):
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.5,), exponents=(0.3, 0.7))
        reps = 2000
        left, right = [], []
        for i in range(reps):
            v = simulate_piecewise(spec, 200, seed=7_000 + i).values
            left.append(v[99])
            right.append(v[100])
        r = np.corrcoef(left, right)[0, 1]
        assert abs(r) < 4 / math.sqrt(reps)

    def test_bitwise_determinism(self):
        spec = PiecewiseSpec(
            family="farima", tau_stars=(0.6,), exponents=(0.2, 0.8)
        )
        a = simulate_piecewise(spec, 512, seed=9)
        b = simulate_piecewise(spec, 512, seed=9)
        np.testing.assert_array_equal(a.values, b.values)

    def test_locfrac_runs_and_starts_at_zero(self):
        spec = PiecewiseSpec(
            family="locfrac", exponents=(0.6,), freq_band=(0.3, 1.2)
        )
        path = simulate_piecewise(spec, 2000, delta=0.25, seed=4)
        assert path.values[0] == 0.0
        assert np.all(np.isfinite(path.values))

    def test_unit_step_families_reject_other_delta(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        with pytest.raises(ValidationError):
            simulate_piecewise(spec, 100, delta=0.5, seed=0)

    @pytest.mark.parametrize("delta", [0.0, -0.25, math.nan, math.inf, "abc"])
    def test_step_must_be_finite_and_positive(self, delta):
        spec = PiecewiseSpec(family="locfrac", exponents=(0.6,), freq_band=(0.3, 1.2))
        with pytest.raises(ValidationError, match="delta"):
            simulate_piecewise(spec, 400, delta=delta, seed=0)

    def test_too_short_segment_rejected(self):
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.001,), exponents=(0.2, 0.8))
        with pytest.raises(ValidationError):
            simulate_piecewise(spec, 100, seed=0)

    @pytest.mark.parametrize("call, message", [
        (lambda spec: simulate_piecewise(spec, 100.7), "n must be an integer, got 100.7"),
        (lambda spec: simulate_piecewise(spec, math.inf), "n must be a number, got inf"),
        (lambda spec: simulate_piecewise(spec, 100, seed=1.5),
         "seed must be an integer, got 1.5"),
        (lambda spec: simulate_piecewise(spec, None), "n must be a number, got None"),
        (lambda spec: PiecewiseSpec("fgn", tau_stars=("abc",), exponents=(0.5, 0.5)),
         "tau_stars must be a number, got 'abc'"),
        (lambda spec: PiecewiseSpec("fgn", exponents=0.5),
         "exponents must be a sequence of numbers, got 0.5"),
    ], ids=["fractional-n", "infinite-n", "fractional-seed", "missing-n", "word-tau",
            "scalar-exponents"])
    def test_value_that_is_not_a_number_is_refused(self, call, message):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        with pytest.raises(ValidationError, match=re.escape(message)):
            call(spec)

    def test_segment_bounds_cover_all_slots(self):
        bounds = segment_bounds(100, (0.3, 0.7))
        assert bounds[0][0] == 0 and bounds[-1][1] == 101
        assert all(b[1] == c[0] for b, c in zip(bounds, bounds[1:]))


def _per_segment_draws(spec, n, seed):
    """A piecewise path from simulate_stationary, segment by segment, on
    one generator."""
    rng = np.random.default_rng(seed)
    parts = []
    for (lo, hi), expo, sig in zip(
        segment_bounds(n, spec.tau_stars), spec.exponents, spec.sigmas
    ):
        if spec.family is Family.FBM:
            inc = simulate_stationary(
                lambda k: fgn_autocov(expo, sig ** 2, k), hi - lo - 1, rng)
            parts.append(np.concatenate([[0.0], np.cumsum(inc)]))
        elif spec.family is Family.FGN:
            parts.append(simulate_stationary(
                lambda k: fgn_autocov(0.5 * (1.0 + expo), sig ** 2, k), hi - lo, rng))
        else:
            parts.append(simulate_stationary(
                lambda k: farima_autocov(0.5 * expo, sig ** 2, k), hi - lo, rng))
    return np.concatenate(parts)


class TestSpectrumCache:
    """simulate_piecewise factors each segment design's circulant once."""

    @pytest.fixture(autouse=True)
    def empty_cache(self):
        synth._segment_factor.cache_clear()
        yield
        synth._segment_factor.cache_clear()

    @pytest.mark.parametrize("family, exponents, sigmas", [
        ("fgn", (0.2, 0.8, 0.5), (1.0, 2.5, 0.3)),
        ("farima", (0.2, 0.8, 0.5), (1.0, 2.5, 0.3)),
        ("fbm", (0.3, 0.7, 0.01), (1.0, 2.5, 0.3)),
    ])
    def test_paths_equal_per_segment_draws_on_miss_and_hit(
        self, family, exponents, sigmas
    ):
        spec = PiecewiseSpec(family, (0.3, 0.75), exponents, sigmas)
        miss = simulate_piecewise(spec, 1001, seed=5).values
        assert synth._segment_factor.cache_info().misses == 3
        hit = simulate_piecewise(spec, 1001, seed=5).values
        other = simulate_piecewise(spec, 1001, seed=6).values
        info = synth._segment_factor.cache_info()
        assert (info.hits, info.misses) == (6, 3)
        want = _per_segment_draws(spec, 1001, 5)
        assert miss.tobytes() == want.tobytes()
        assert hit.tobytes() == want.tobytes()
        assert other.tobytes() == _per_segment_draws(spec, 1001, 6).tobytes()

    def test_cached_factor_is_read_only(self):
        simulate_piecewise(PiecewiseSpec("farima", exponents=(0.4,)), 200, seed=0)
        amp = synth._segment_factor(Family.FARIMA, 0.4, 1.0, 201)
        assert synth._segment_factor.cache_info().hits == 1
        assert not amp.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            amp[0] = 0.0

    def test_cache_stays_within_its_bound(self):
        for i in range(3 * synth._FACTORS_CACHED):
            spec = PiecewiseSpec("fgn", exponents=(0.05 + 0.03 * i,))
            simulate_piecewise(spec, 64, seed=i)
            info = synth._segment_factor.cache_info()
            assert info.currsize <= info.maxsize == synth._FACTORS_CACHED
        assert info.currsize == synth._FACTORS_CACHED

    def test_refused_design_raises_every_time_and_is_not_cached(self, monkeypatch):
        def not_a_covariance(h, sigma2, k):
            return -sigma2 * np.ones(np.shape(k))

        monkeypatch.setattr(synth, "fgn_autocov", not_a_covariance)
        spec = PiecewiseSpec("fgn", exponents=(0.5,))
        for _ in range(2):
            with pytest.raises(NumericError, match="negative eigenvalue"):
                simulate_piecewise(spec, 64, seed=0)
        info = synth._segment_factor.cache_info()
        assert (info.currsize, info.misses) == (0, 2)


class TestSpecValidation:
    def test_tau_ordering(self):
        with pytest.raises(ValidationError):
            PiecewiseSpec(family="fgn", tau_stars=(0.7, 0.3), exponents=(0.1,) * 3)

    def test_exponent_count(self):
        with pytest.raises(ValidationError):
            PiecewiseSpec(family="fgn", tau_stars=(0.5,), exponents=(0.5,))

    def test_fbm_exponent_range(self):
        with pytest.raises(ValidationError):
            PiecewiseSpec(family="fbm", exponents=(1.5,))

    def test_locfrac_requires_band(self):
        with pytest.raises(ValidationError):
            PiecewiseSpec(family="locfrac", exponents=(0.5,))

    def test_locfrac_allows_any_real_exponent(self):
        spec = PiecewiseSpec(
            family="locfrac", exponents=(1.4,), freq_band=(0.3, 1.2)
        )
        assert spec.family is Family.LOCFRAC


class TestAddPolynomialTrend:
    def test_zero_coeff_is_identity(self):
        path = SampledPath(values=np.arange(10.0))
        out = add_polynomial_trend(path, [0.0])
        np.testing.assert_array_equal(out.values, path.values)

    def test_constant_shift(self):
        path = SampledPath(values=np.zeros(10))
        out = add_polynomial_trend(path, [2.5])
        np.testing.assert_array_equal(out.values, np.full(10, 2.5))

    def test_quadratic_on_zero_path(self):
        path = SampledPath(values=np.zeros(8), delta=2.0)
        out = add_polynomial_trend(path, [0.0, 0.0, 1.0])
        np.testing.assert_allclose(out.values, (2.0 * np.arange(8)) ** 2)
