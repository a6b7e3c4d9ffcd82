import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

import scalebreak.estimate as estimate
from scalebreak import (
    LogVarianceVector,
    NumericError,
    ScaleGrid,
    ValidationError,
    alpha_from_exponent,
    chi2_quantile,
    chi2_sf,
    confidence_interval,
    design_matrix,
    exponent_from_alpha,
    fgls_theta,
    gamma_fbm,
    gamma_locfrac,
    gamma_lrd,
    gof,
    hurst_from_alpha,
    make_band_limited,
    make_compact_poly,
    ols_theta,
)

W3 = make_compact_poly(3)
WBL = make_band_limited(2.0, 3.0)


def make_logvar(y, grid, n_eff=100.0):
    return LogVarianceVector(
        y=np.asarray(y, dtype=float),
        k_lo=0,
        k_hi=int(n_eff * grid.base),
        n_eff=n_eff,
        log_scales=grid.log_scales,
    )


class TestOls:
    def test_exact_recovery_on_linear_input(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        y = make_logvar(0.6 * grid.log_scales + 1.2, grid)
        est = ols_theta(y, L)
        assert est.alpha == pytest.approx(0.6, rel=1e-12)
        assert est.log_beta == pytest.approx(1.2, rel=1e-12)
        assert est.method == "ols"

    def test_orthogonal_noise_leaves_slope(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        x = grid.log_scales
        xc = x - x.mean()
        noise = np.array([1.0, -1.0, -1.0, 1.0])
        noise = noise - noise.mean()
        noise -= (noise @ xc) / (xc @ xc) * xc  # orthogonalize to the design
        est = ols_theta(make_logvar(x + noise, grid), L)
        assert est.alpha == pytest.approx(1.0, rel=1e-9)

    def test_plugin_covariance_scaling(self):
        grid = ScaleGrid(8, (1, 2, 4))
        L = design_matrix(grid)
        gam = np.eye(3)
        y = make_logvar([0.1, 0.2, 0.3], grid, n_eff=50.0)
        est = ols_theta(y, L, gamma=gam)
        ltl_inv = np.linalg.inv(L.T @ L)
        np.testing.assert_allclose(est.cov, ltl_inv / 50.0, rtol=1e-12)


class TestGammaLrd:
    def test_symmetry(self):
        grid = ScaleGrid(8, (1, 2, 3, 4))
        g = gamma_lrd(0.5, grid, W3)
        np.testing.assert_allclose(g, g.T, atol=1e-8)

    def test_diagonal_positive_and_near_2r(self):
        grid = ScaleGrid(8, (1, 2, 3, 4))
        g = gamma_lrd(0.5, grid, W3)
        for i, r in enumerate(grid.ratios):
            assert g[i, i] > 0
            # lag-0 term alone contributes 2 r; extra lags add little for
            # a wavelet with three vanishing moments
            assert g[i, i] == pytest.approx(2.0 * r, rel=0.02)

    @pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
    def test_diagonal_against_quad_oracle(self):
        # Independent adaptive-quadrature evaluation of the same integrals.
        d_exp = 0.4
        grid = ScaleGrid(8, (1, 2, 3))
        g = gamma_lrd(d_exp, grid, W3)

        def integrand_num(u, s):
            val = W3.psi_hat(u) * np.conj(W3.psi_hat(u))
            return (val.real * math.cos(s * u)) * u ** (-d_exp)

        j_norm = quad(lambda u: abs(W3.psi_hat(u)) ** 2 * u ** (-d_exp),
                      0, 120, limit=400)[0]
        total = 0.0
        for m in range(0, 40):
            i_m = quad(integrand_num, 0, 120, args=(float(m),), limit=400)[0]
            total += (2 if m else 1) * (i_m / j_norm) ** 2
        oracle = 2.0 * 1.0 * total
        assert g[0, 0] == pytest.approx(oracle, rel=1e-4)

    def test_domain_error(self):
        grid = ScaleGrid(8, (1, 2, 3))
        with pytest.raises(ValidationError):
            gamma_lrd(1.2, grid, W3)

    def test_continuity_in_exponent(self):
        grid = ScaleGrid(8, (1, 2, 3, 5))
        for alpha in (0.2, 0.5, 0.8):
            g0 = gamma_lrd(alpha, grid, W3)
            g1 = gamma_lrd(alpha + 1e-3, grid, W3)
            assert np.linalg.norm(g1 - g0) <= 0.1 * np.linalg.norm(g0)


def oracle_pair_sum(wavelet, d_exp, r_p, r_q, j_norm, cutoff):
    """sum_m [I_pq(d m)/J]^2 for one scale pair by the serial lag loop:
    the pair's own Simpson grid, one complex phase step per lag, and the
    same stop rules and 16-lag blocks as the batched sums."""
    d = math.gcd(r_p, r_q)
    if wavelet.is_band_limited:
        lo = wavelet.lam / min(r_p, r_q)
        hi = wavelet.mu / max(r_p, r_q)
        if hi <= lo:
            return d, 0.0
    else:
        lo = 0.0
        hi = cutoff / max(r_p, r_q)
    eta, w = estimate._simpson_rule(lo, hi)
    g = wavelet.psi_hat(r_p * eta) * np.conj(wavelet.psi_hat(r_q * eta))
    with np.errstate(divide="ignore"):
        power = np.where(eta > 0.0, eta ** (-d_exp), 0.0)
    gc = g.real * power * w
    gs = g.imag * power * w
    total = (float(np.sum(gc)) / j_norm) ** 2
    phase_step = np.exp(1j * d * eta)
    phase = phase_step.copy()
    block_sum = 0.0
    prev_block = np.inf
    for m in range(1, estimate._MAX_LAG_TERMS + 1):
        cg = float(phase.real @ gc)
        sg = float(phase.imag @ gs)
        block_sum += ((cg - sg) / j_norm) ** 2 + ((cg + sg) / j_norm) ** 2
        if m % 16 == 0:
            total += block_sum
            if block_sum < estimate._REL_TOL * total:
                return d, total
            if block_sum >= 0.5 * prev_block and block_sum < 1e-7 * total:
                return d, total
            prev_block = block_sum
            block_sum = 0.0
        phase *= phase_step
    raise NumericError(f"lag sum for scale pair ({r_p}, {r_q}) did not converge")


def oracle_spectral_gamma(d_exp, grid, wavelet, trim):
    """Spectral-form Gamma with one serial lag sum per scale pair."""
    ratios = grid.ratios
    ell = len(ratios)
    if wavelet.is_band_limited:
        cutoff = None
        j_eta, jw = estimate._simpson_rule(wavelet.lam, wavelet.mu)
    else:
        cutoff = estimate._effective_cutoff(wavelet, d_exp)
        j_eta, jw = estimate._simpson_rule(0.0, cutoff)
    with np.errstate(divide="ignore"):
        power = np.where(j_eta > 0.0, j_eta ** (-d_exp), 0.0)
    j_norm = float(np.sum(np.abs(wavelet.psi_hat(j_eta)) ** 2 * power * jw))
    gam = np.empty((ell, ell))
    for p in range(ell):
        for q in range(p, ell):
            r_p, r_q = ratios[p], ratios[q]
            d, lag_sum = oracle_pair_sum(wavelet, d_exp, r_p, r_q, j_norm, cutoff)
            val = 2.0 * d * (r_p * r_q) ** (1.0 - d_exp) / (1.0 - 2.0 * trim) * lag_sum
            gam[p, q] = gam[q, p] = val
    return gam


class TestBatchedGamma:
    """The batched lag sums against the serial oracle, element by element."""

    @pytest.mark.parametrize("d_exp, grid, wavelet, trim", [
        (0.2, ScaleGrid(1, tuple(range(1, 31))), W3, 0.0),
        (0.5, ScaleGrid(1, tuple(range(1, 31))), W3, 0.0),
        (0.8, ScaleGrid(1, tuple(range(1, 31))), W3, 0.0),
        (1.6, ScaleGrid(1, tuple(range(1, 8))), W3, 0.0),  # fbm route, H = 0.3
        (2.4, ScaleGrid(1, tuple(range(1, 8))), W3, 0.0),  # fbm route, H = 0.7
        (2.2, ScaleGrid(1, (10, 13, 16)), WBL, 0.1),
        (0.4, ScaleGrid(2, (2, 4, 6, 9, 12)), W3, 0.0),  # gcd > 1 off the diagonal
        (2.2, ScaleGrid(1, (4, 10, 40)), WBL, 0.1),  # disjoint bands
    ], ids=["lrd-0.2", "lrd-0.5", "lrd-0.8", "fbm-0.3", "fbm-0.7",
            "band-limited", "gcd", "disjoint"])
    def test_matches_serial_oracle(self, d_exp, grid, wavelet, trim):
        g = estimate._spectral_gamma(d_exp, grid, wavelet, trim)
        ref = oracle_spectral_gamma(d_exp, grid, wavelet, trim)
        np.testing.assert_array_equal(g == 0.0, ref == 0.0)
        assert np.all(np.abs(g - ref) <= 1e-12 * np.abs(ref))

    def test_memory_stays_below_an_all_pairs_array(self):
        import tracemalloc

        # One complex array over 465 pairs x 8 193 nodes would take 61 MB.
        grid = ScaleGrid(1, tuple(range(1, 31)))
        W3.psi_hat(1.0)  # the table is built once per process
        tracemalloc.start()
        try:
            gamma_lrd(0.8, grid, W3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 465 * (estimate._N_QUAD + 1) * 16 / 3

    def test_non_convergence_names_the_pair(self, monkeypatch):
        monkeypatch.setattr(estimate, "_MAX_LAG_TERMS", 16)
        with pytest.raises(NumericError, match=r"scale pair \(\d+, \d+\)"):
            gamma_lrd(0.5, ScaleGrid(8, (1, 2, 3, 4)), W3)

    def test_convergence_summary_at_debug_level(self, caplog):
        grid = ScaleGrid(8, (1, 2, 3, 4, 6))
        caplog.set_level(logging.INFO, logger="scalebreak")
        gamma_lrd(0.5, grid, W3)
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="scalebreak")
        gamma_lrd(0.5, grid, W3)
        (record,) = caplog.records
        terms, n_pairs, n_tol, n_floor, most, pair = record.args
        # Coprime pairs of (1, 2, 3, 4, 6): (1,1) (1,2) (1,3) (1,4) (1,6)
        # (2,3) (3,4).
        assert n_pairs == 7 and n_tol + n_floor == n_pairs
        assert terms % 16 == 0 and 16 <= most <= terms
        assert set(pair) <= set(grid.ratios)
        assert "lag terms" in record.getMessage()


class TestGammaFbm:
    def test_symmetry_and_diagonal(self):
        grid = ScaleGrid(8, (1, 2, 3))
        g = gamma_fbm(0.6, grid, W3)
        np.testing.assert_allclose(g, g.T, atol=1e-10)
        assert np.all(np.diag(g) > 0)

    def test_denominator_sign_audit(self):
        # int int psi psi' |t-t'|^{2H} < 0, so the variance prefactor
        # -sigma^2/2 * (that integral) is positive; gamma_fbm asserts this
        # internally -- just exercise it across H.
        grid = ScaleGrid(8, (1, 2, 3))
        for h in (0.2, 0.5, 0.8):
            g = gamma_fbm(h, grid, W3)
            assert np.all(np.isfinite(g))

    def test_kernel_against_dblquad(self):
        from scipy.integrate import dblquad
        from scalebreak.estimate import _SelfSimilarKernel

        kern = _SelfSimilarKernel(W3, 1.2)
        for rp, rq, c in [(1, 1, 0.0), (2, 3, 1.0)]:
            oracle = dblquad(
                lambda t, tp: float(
                    W3.evaluate(np.asarray(t))
                    * W3.evaluate(np.asarray(tp))
                    * abs(c + rp * t - rq * tp) ** 1.2
                ),
                0, 1, 0, 1, epsabs=1e-12, epsrel=1e-10,
            )[0]
            assert kern.w_pq(c, rp, rq) == pytest.approx(oracle, rel=1e-6)

    def test_requires_compact_wavelet(self):
        grid = ScaleGrid(8, (1, 2, 3))
        with pytest.raises(ValidationError):
            gamma_fbm(0.5, grid, WBL)


class TestGammaLocfrac:
    GRID = ScaleGrid(1, (10, 13, 16, 20))

    def test_symmetry_positive_diagonal(self):
        g = gamma_locfrac(0.6, self.GRID, WBL, trim=0.1)
        np.testing.assert_allclose(g, g.T, atol=1e-10)
        assert np.all(np.diag(g) > 0)

    def test_disjoint_bands_give_zero(self):
        # r_p lam > r_q mu: no spectral overlap.
        grid = ScaleGrid(1, (4, 10, 40))
        g = gamma_locfrac(0.6, grid, WBL, trim=0.1)
        assert g[0, 2] == 0.0  # 40 * 2.0 > 4 * 3.0 -> dilated supports disjoint
        assert g[0, 1] == 0.0  # 10 * 2 = 20 > 4 * 3 = 12
        assert g[1, 2] == 0.0  # (10, 40) reduces to (1, 4): eta in [2, 0.75] is empty
        # Scales 10 and 13 overlap on eta in [0.2, 0.231].
        assert gamma_locfrac(0.6, self.GRID, WBL, trim=0.1)[0, 1] != 0.0

    def test_trim_inflates_variance(self):
        g0 = gamma_locfrac(0.6, self.GRID, WBL, trim=0.0)
        g2 = gamma_locfrac(0.6, self.GRID, WBL, trim=0.2)
        np.testing.assert_allclose(g2, g0 / 0.6, rtol=1e-10)

    def test_any_real_exponent(self):
        g = gamma_locfrac(1.4, self.GRID, WBL, trim=0.1)
        assert np.all(np.isfinite(g)) and np.all(np.diag(g) > 0)

    def test_band_condition(self):
        with pytest.raises(ValidationError):
            gamma_locfrac(0.6, self.GRID, WBL, trim=0.1, freq_band=(1.0, 1.2))


class TestFgls:
    def test_identity_weight_equals_ols(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        rng = np.random.default_rng(0)
        y = make_logvar(rng.normal(size=4), grid)
        a = ols_theta(y, L)
        b = fgls_theta(y, L, np.eye(4))
        assert b.alpha == pytest.approx(a.alpha, rel=1e-9)
        assert b.log_beta == pytest.approx(a.log_beta, rel=1e-9)
        assert b.method == "fgls" and not b.fallback_to_ols

    def test_scalar_multiple_of_identity_equals_ols(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        rng = np.random.default_rng(1)
        y = make_logvar(rng.normal(size=4), grid)
        a = ols_theta(y, L)
        b = fgls_theta(y, L, 7.3 * np.eye(4))
        assert b.alpha == pytest.approx(a.alpha, rel=1e-9)

    @pytest.mark.parametrize("family,expo", [
        ("fgn", 0.2), ("fgn", 0.5), ("fgn", 0.8),
        ("fbm", 0.2), ("fbm", 0.5), ("fbm", 0.8),
        ("locfrac", 0.2), ("locfrac", 0.5), ("locfrac", 0.8),
    ])
    def test_fgls_beats_ols_in_psd_order(self, family, expo):
        # M = (L' G^-1 L)^-1 <= Sigma = (L'L)^-1 L' G L (L'L)^-1.
        if family == "locfrac":
            grid = ScaleGrid(1, (10, 13, 16, 20))
            gam = gamma_locfrac(expo, grid, WBL, trim=0.1)
        else:
            grid = ScaleGrid(8, (1, 2, 3, 4))
            gam = (
                gamma_lrd(expo, grid, W3)
                if family == "fgn"
                else gamma_fbm(expo, grid, W3)
            )
        L = design_matrix(grid)
        gi = np.linalg.inv(gam)
        m_cov = np.linalg.inv(L.T @ gi @ L)
        ltl_inv = np.linalg.inv(L.T @ L)
        sigma = ltl_inv @ L.T @ gam @ L @ ltl_inv
        eig = np.linalg.eigvalsh(sigma - m_cov)
        assert eig.min() >= -1e-10

    def test_regularized_gamma_keeps_eigenvalue_floor(self):
        from scalebreak.estimate import _regularize, _RIDGE

        grid = ScaleGrid(8, (1, 2, 3, 4))
        gam = gamma_lrd(0.5, grid, W3)
        floor = _RIDGE * np.trace(gam) / 4
        assert np.linalg.eigvalsh(_regularize(gam)).min() >= floor * (1 - 1e-9)

    def test_singular_gamma_falls_back(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        y = make_logvar([1.0, 2.0, 3.0, 4.0], grid)
        bad = np.full((4, 4), np.nan)
        est = fgls_theta(y, L, bad)
        assert est.fallback_to_ols
        ref = ols_theta(y, L)
        assert est.alpha == pytest.approx(ref.alpha)


class TestGof:
    def test_exactly_linear_gives_zero(self):
        grid = ScaleGrid(8, (1, 2, 4, 8, 16))
        L = design_matrix(grid)
        y = make_logvar(0.5 * grid.log_scales - 0.2, grid)
        gam = np.eye(5)
        theta = fgls_theta(y, L, gam)
        res = gof(y, L, theta, gam, y.n_eff)
        assert res.statistic == pytest.approx(0.0, abs=1e-18)
        assert res.p_value == pytest.approx(1.0)
        assert res.df == 3

    def test_chi2_quantile_reference_value(self):
        assert chi2_quantile(0.95, 5) == pytest.approx(11.0705, abs=5e-5)

    def test_chi2_sf_complements(self):
        x = chi2_quantile(0.95, 18)
        assert chi2_sf(x, 18) == pytest.approx(0.05, rel=1e-10)

    def test_intercept_absorbs_path_scaling(self):
        # Multiplying the path by c > 0 shifts Y by a constant vector,
        # leaving the statistic unchanged.
        grid = ScaleGrid(8, (1, 2, 4, 8, 16))
        L = design_matrix(grid)
        rng = np.random.default_rng(2)
        base = rng.normal(size=5)
        gam = np.diag([1.0, 2.0, 3.0, 4.0, 5.0])
        y1 = make_logvar(base, grid)
        y2 = make_logvar(base + 2 * math.log(3.0), grid)
        t1 = fgls_theta(y1, L, gam)
        t2 = fgls_theta(y2, L, gam)
        g1 = gof(y1, L, t1, gam, y1.n_eff)
        g2 = gof(y2, L, t2, gam, y2.n_eff)
        assert g1.statistic == pytest.approx(g2.statistic, rel=1e-9, abs=1e-12)


class TestConfidenceInterval:
    def _est(self):
        grid = ScaleGrid(8, (1, 2, 4))
        L = design_matrix(grid)
        y = make_logvar([0.1, 0.5, 0.9], grid, n_eff=100.0)
        return ols_theta(y, L, gamma=np.eye(3))

    def test_level_zero_degenerates(self):
        est = self._est()
        (lo, hi), _ = confidence_interval(est, 0.0)
        assert lo == pytest.approx(est.alpha)
        assert hi == pytest.approx(est.alpha)

    def test_zero_covariance_gives_zero_width(self):
        est = self._est()
        zero = type(est)(est.alpha, est.log_beta, est.method, np.zeros((2, 2)),
                         est.n_eff)
        (lo, hi), _ = confidence_interval(zero, 0.95)
        assert lo == hi == pytest.approx(est.alpha)

    def test_width_grows_with_level(self):
        est = self._est()
        w90 = np.diff(confidence_interval(est, 0.90)[0])[0]
        w99 = np.diff(confidence_interval(est, 0.99)[0])[0]
        assert w99 > w90 > 0

    def test_requires_covariance(self):
        grid = ScaleGrid(8, (1, 2, 4))
        est = ols_theta(make_logvar([0.0, 1.0, 2.0], grid), design_matrix(grid))
        with pytest.raises(ValidationError):
            confidence_interval(est, 0.95)


class TestConversions:
    @settings(max_examples=40, deadline=None)
    @given(
        st.sampled_from(["fgn", "farima", "fbm", "locfrac"]),
        st.floats(min_value=-2.0, max_value=3.0, allow_nan=False),
    )
    def test_round_trip(self, family, expo):
        alpha = alpha_from_exponent(expo, family)
        back = exponent_from_alpha(alpha, family)
        assert back == pytest.approx(expo, rel=1e-12, abs=1e-12)

    def test_lrd_hurst_reading(self):
        assert hurst_from_alpha(0.2, "fgn") == pytest.approx(0.6)
        assert hurst_from_alpha(0.8, "farima") == pytest.approx(0.9)

    def test_selfsim_hurst_reading(self):
        assert hurst_from_alpha(2.6, "fbm") == pytest.approx(0.8)
        assert hurst_from_alpha(2.2, "locfrac") == pytest.approx(0.6)
