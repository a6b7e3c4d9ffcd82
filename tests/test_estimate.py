import functools
import logging
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gammaincc, ndtri

import scalebreak.estimate as estimate
from oracles import chi2_quantile, fbm_gamma, spectral_gamma
from scalebreak import (
    NumericError,
    ScaleGrid,
    ValidationError,
    chi2_sf,
    confidence_interval,
    design_matrix,
    exponent_from_alpha,
    fgls_theta,
    gamma_fbm,
    gamma_locfrac,
    gamma_lrd,
    gof,
    make_band_limited,
    make_compact_poly,
    make_gamma,
    ols_theta,
)

W3 = make_compact_poly(3)
WBL = make_band_limited(2.0, 3.0)


@functools.cache
def _fbm_oracle(q, hurst, ratios):
    return fbm_gamma(hurst, ScaleGrid(8, ratios), make_compact_poly(q))


class TestOls:
    def test_exact_recovery_on_linear_input(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        est = ols_theta(0.6 * grid.log_scales + 1.2, L)
        assert est.alpha == pytest.approx(0.6, rel=1e-12)
        assert est.log_beta == pytest.approx(1.2, rel=1e-12)

    def test_orthogonal_noise_leaves_slope(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        x = grid.log_scales
        xc = x - x.mean()
        noise = np.array([1.0, -1.0, -1.0, 1.0])
        noise = noise - noise.mean()
        noise -= (noise @ xc) / (xc @ xc) * xc  # orthogonalize to the design
        est = ols_theta(x + noise, L)
        assert est.alpha == pytest.approx(1.0, rel=1e-9)

    def test_rank_deficient_design_rejected(self):
        flat = np.column_stack([np.full(3, 2.0), np.ones(3)])
        with pytest.raises(ValidationError, match="rank deficient"):
            ols_theta(np.array([0.1, 0.2, 0.3]), flat)

    def test_plugin_covariance_scaling(self):
        grid = ScaleGrid(8, (1, 2, 4))
        L = design_matrix(grid)
        gam = np.eye(3)
        est = ols_theta([0.1, 0.2, 0.3], L, gamma=gam, n_eff=50.0)
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
        # Independent adaptive-quadrature evaluation of the same integrals,
        # with psi_hat from Gauss-Legendre quadrature of psi itself.
        d_exp = 0.4
        grid = ScaleGrid(8, (1, 2, 3))
        g = gamma_lrd(d_exp, grid, W3)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        t = 0.5 * (nodes + 1.0)
        psi_w = 0.5 * weights * W3.evaluate(t)

        def psi_hat_sq(u):
            return abs(np.sum(psi_w * np.exp(-1j * u * t))) ** 2

        def integrand_num(u, s):
            return psi_hat_sq(u) * math.cos(s * u) * u ** (-d_exp)

        j_norm = quad(lambda u: psi_hat_sq(u) * u ** (-d_exp), 0, 120, limit=400)[0]
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


class TestBatchedGamma:
    """The lattice and band pair sums against the serial lag-sum oracle."""

    @pytest.mark.parametrize("d_exp, grid, wavelet", [
        (0.2, ScaleGrid(1, tuple(range(1, 31))), W3),
        (0.5, ScaleGrid(1, tuple(range(1, 31))), W3),
        (0.8, ScaleGrid(1, tuple(range(1, 31))), W3),
        (1.6, ScaleGrid(1, tuple(range(1, 8))), W3),  # fbm route, H = 0.3
        (2.4, ScaleGrid(1, tuple(range(1, 8))), W3),  # fbm route, H = 0.7
        (2.2, ScaleGrid(1, (10, 13, 16), trim=0.1), WBL),
        (0.4, ScaleGrid(2, (2, 4, 6, 9, 12)), W3),  # gcd > 1 off the diagonal
        (2.2, ScaleGrid(1, (4, 10, 40), trim=0.1), WBL),  # disjoint bands
        (1e-3, ScaleGrid(1, (1, 2, 3)), W3),  # nearly the whole shared table
    ], ids=["lrd-0.2", "lrd-0.5", "lrd-0.8", "fbm-0.3", "fbm-0.7",
            "band-limited", "gcd", "disjoint", "lrd-0.001"])
    def test_matches_serial_oracle(self, d_exp, grid, wavelet):
        if wavelet.is_band_limited:
            sums = estimate._band_sums(wavelet, d_exp)
        else:
            size = estimate.lattice_size(grid.ratios)
            sums = estimate._lattice_sums(wavelet, d_exp, size)
        g = estimate._gamma(d_exp, grid, sums)
        ref = spectral_gamma(d_exp, grid, wavelet, grid.trim)
        np.testing.assert_array_equal(g == 0.0, ref == 0.0)
        tol = 1e-8 if wavelet.is_band_limited else 1e-11
        assert np.max(np.abs(g - ref)) <= tol * np.max(np.abs(ref))

    @pytest.mark.parametrize("d_exp", [0.2, 0.5, 0.8])
    def test_doubling_the_lattice_leaves_gamma(self, d_exp, monkeypatch):
        grid = ScaleGrid(1, tuple(range(1, 31)))
        g = gamma_lrd(d_exp, grid, W3)
        monkeypatch.setattr(estimate, "_LATTICE", 2 * estimate._LATTICE)
        g2 = gamma_lrd(d_exp, grid, W3)
        assert np.max(np.abs(g2 - g)) < 1e-10 * np.max(np.abs(g))

    @pytest.mark.parametrize("r_max, size", [
        (30, 1024), (204, 1024), (205, 2048), (409, 2048), (410, 4096), (820, 8192),
    ])
    def test_lattice_size_follows_the_largest_ratio(self, r_max, size):
        grid = ScaleGrid(1, (1, r_max - 1, r_max))
        assert estimate.lattice_size(grid.ratios) == size
        assert estimate.quadrature_meta(grid) == {
            "simpson_intervals": estimate._N_QUAD, "lattice_size": size
        }

    def test_doubling_the_lattice_leaves_gamma_at_large_ratios(
        self, monkeypatch, caplog
    ):
        # M = 1024 misses Gamma here by about 1e-6 of max|Gamma|; the rule's
        # M = 4096 stays within 1e-10 of a run at twice that.
        grid = ScaleGrid(1, (1, 499, 500))
        caplog.set_level(logging.DEBUG, logger="scalebreak")
        g = gamma_lrd(0.8, grid, W3)
        assert caplog.records[-1].args[0] == 4096
        fixed = estimate._gamma(0.8, grid, estimate._lattice_sums(W3, 0.8, 1024))
        assert np.max(np.abs(fixed - g)) > 1e-7 * np.max(np.abs(g))
        monkeypatch.setattr(estimate, "lattice_size", lambda ratios: 8192)
        g2 = gamma_lrd(0.8, grid, W3)
        assert np.max(np.abs(g2 - g)) < 1e-10 * np.max(np.abs(g))

    def test_one_table_serves_every_exponent(self, monkeypatch):
        # After the first call builds the psi_hat table, a call at any D
        # evaluates psi_hat only at _effective_cutoff's Simpson nodes.
        grid = ScaleGrid(1, tuple(range(1, 31)))
        points = []
        psi_hat = type(W3).psi_hat

        def counted(wavelet, xi):
            points.append(np.size(xi))
            return psi_hat(wavelet, xi)

        monkeypatch.setattr(type(W3), "psi_hat", counted)
        estimate._psi_hat_table.cache_clear()
        gamma_lrd(0.5, grid, W3)
        assert sum(points) > 2 * (estimate._N_QUAD + 1)
        for d_exp in (1e-6, 1e-3, 0.2, 0.5, 0.999):
            points.clear()
            gamma_lrd(d_exp, grid, W3)
            assert points == [estimate._N_QUAD + 1]

    @settings(max_examples=40, deadline=None)
    @given(
        q=st.integers(min_value=2, max_value=6),
        d_lo=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
        d_hi=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
    )
    def test_cutoff_does_not_grow_with_the_exponent(self, q, d_lo, d_hi):
        # What lets the table sized at D = 0 serve every D in (0, 1).
        d_lo, d_hi = sorted((d_lo, d_hi))
        wavelet = make_compact_poly(q)
        assert estimate._effective_cutoff(wavelet, d_lo) >= estimate._effective_cutoff(
            wavelet, d_hi
        )

    @pytest.mark.parametrize("d_exp", [0.2, 0.8, 2.4])
    def test_cutoff_drops_less_than_the_stated_tail(self, d_exp):
        # Dense Gauss-Legendre over [X, 40 X] with the closed-form psi_hat,
        # and the integration-by-parts bound beyond 40 X.
        cutoff = estimate._effective_cutoff(W3, d_exp)
        nodes, weights = np.polynomial.legendre.leggauss(16)

        def integral(lo, hi):
            edges = np.linspace(lo, hi, int(hi - lo) + 1)
            half = 0.5 * np.diff(edges)[:, None]
            u = (0.5 * (edges[:-1] + edges[1:]))[:, None] + half * nodes
            f = np.abs(W3.psi_hat(u)) ** 2 * u ** (-d_exp)
            return float(np.sum(f * half * weights))

        # Past 40 X the k = 2 term dominates the bound; 4 c_2^2 covers the rest.
        c2 = np.abs(W3.end_derivatives[:, 2]).sum()
        far = 40.0 * cutoff
        beyond = 4.0 * c2**2 * far ** (-5.0 - d_exp) / (5.0 + d_exp)
        j_norm = integral(1e-9, cutoff)
        tail = integral(cutoff, far) + beyond
        assert 0.0 < tail <= estimate._TAIL * j_norm

    def test_memory_stays_below_an_all_pairs_array(self):
        import tracemalloc

        # One complex array over 465 pairs x 8 193 nodes would take 61 MB.
        grid = ScaleGrid(1, tuple(range(1, 31)))
        tracemalloc.start()
        try:
            gamma_lrd(0.8, grid, W3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 465 * (estimate._N_QUAD + 1) * 16 / 3

    def test_non_convergence_names_the_pair(self, monkeypatch):
        # The time-domain gamma_fbm is the one lag loop left.
        monkeypatch.setattr(estimate, "_MAX_LAG_TERMS", 16)
        with pytest.raises(NumericError, match=r"scale pair \(1, 4\)"):
            gamma_fbm(0.9, ScaleGrid(8, (1, 2, 3, 4)), W3)

    def test_convergence_summary_at_debug_level(self, caplog):
        grid = ScaleGrid(8, (1, 2, 3, 4, 6))
        caplog.set_level(logging.INFO, logger="scalebreak")
        gamma_lrd(0.5, grid, W3)
        assert not caplog.records
        caplog.set_level(logging.DEBUG, logger="scalebreak")
        gamma_lrd(0.5, grid, W3)
        (record,) = caplog.records
        lattice, cutoff = record.args
        assert lattice == estimate._LATTICE
        assert cutoff == estimate._effective_cutoff(W3, 0.5)
        assert "lattice" in record.getMessage()


class TestGammaFbm:
    def test_symmetry_and_diagonal(self):
        grid = ScaleGrid(8, (1, 2, 3))
        g = gamma_fbm(0.6, grid, W3)
        np.testing.assert_allclose(g, g.T, atol=1e-10)
        assert np.all(np.diag(g) > 0)

    def test_denominator_sign_audit(self):
        # int int psi psi' |t-t'|^{2H} < 0, so the normalization N = -W_11(0)
        # is positive; the assembly refuses N <= 0 -- just exercise it
        # across H.
        grid = ScaleGrid(8, (1, 2, 3))
        for h in (0.2, 0.5, 0.8):
            g = gamma_fbm(h, grid, W3)
            assert np.all(np.isfinite(g))

    def test_kernel_against_dblquad(self):
        from scipy.integrate import dblquad

        # (2, 3) at lag 1 carries its own kink panels.  (2, 4) has no
        # table: W_24(-6) = 2^{2H} W_12(-3), a lag on (1, 2)'s shared panels.
        for rp, rq, c, d in [(1, 1, 0.0, 1), (2, 3, 1.0, 1), (2, 4, -6.0, 2)]:
            oracle = dblquad(
                lambda t, tp: float(
                    W3.evaluate(np.asarray(t))
                    * W3.evaluate(np.asarray(tp))
                    * abs(c + rp * t - rq * tp) ** 1.2
                ),
                0, 1, 0, 1, epsabs=1e-12, epsrel=1e-10,
            )[0]
            p, q = rp // d, rq // d
            table = estimate._pair_table(W3, p, q)
            got = d**1.2 * estimate._kernel_w(table, np.array([c / d]), 1.2, p, q)[0]
            assert got == pytest.approx(oracle, rel=1e-6)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    @pytest.mark.parametrize("hurst", [0.01, 0.3, 0.5, 0.7, 0.99])
    @pytest.mark.parametrize("ratios", [(1, 2, 3, 4, 6), (2, 3, 4)])
    def test_matches_serial_oracle(self, q, hurst, ratios):
        wavelet = make_compact_poly(q)
        grid = ScaleGrid(8, ratios)
        if q == 6 and hurst == 0.99 and 6 in ratios:
            # Both lag sums stall above _LAG_RTOL for (1, 6).
            for gamma in (gamma_fbm, fbm_gamma):
                with pytest.raises(NumericError, match=r"scale pair \(1, 6\)"):
                    gamma(hurst, grid, wavelet)
            return
        g = gamma_fbm(hurst, grid, wavelet)
        ref = _fbm_oracle(q, hurst, ratios)
        # Entries with gcd 1 are computed the same way on both sides.  At
        # q = 2, H = 0.99 every W is a near-cancellation (it vanishes at
        # H = 1): listing the oracle's Gauss nodes in reverse order moves
        # it by 4.5e-13 of max|Gamma|.
        gcd = np.gcd.outer(ratios, ratios)
        tol = 1e-12 if (q, hurst) == (2, 0.99) else 1e-13
        assert np.max(np.abs(g - ref)[gcd == 1]) <= tol * np.max(np.abs(ref))
        # An entry with gcd d > 1 is exactly d times its coprime entry.
        full = gamma_fbm(hurst, ScaleGrid(8, tuple(range(1, ratios[-1] + 1))), wavelet)
        for (i, k), d in np.ndenumerate(gcd):
            assert g[i, k] == d * full[ratios[i] // d - 1, ratios[k] // d - 1]

    @pytest.mark.parametrize("q, tol", [
        (2, 1e-11), (3, 1e-13), (4, 5e-12), (5, 3e-11), (6, 3e-10)])
    @pytest.mark.parametrize("hurst", [0.01, 0.3, 0.5, 0.7, 0.99])
    def test_serial_oracle_obeys_the_identity(self, q, tol, hurst):
        # The oracle evaluates every (dp, dq) entry directly, at lags d k
        # of its own panels; in exact arithmetic that is d times its (p, q)
        # entry.  Measured worst gaps over H, in max|Gamma|: 2.5e-12 (q = 2,
        # at H = 0.99 only; 2.4e-15 otherwise), 5.0e-14, 1.9e-12, 1.4e-11 and
        # 1.0e-10 (q = 6, H = 0.99); they grow with q.  The package's
        # gcd-1 entries sit within 5.0e-14 of the oracle's.
        ratios = (1, 2, 3, 4) if (q, hurst) == (6, 0.99) else (1, 2, 3, 4, 6)
        ref = _fbm_oracle(q, hurst, ratios)
        at = {r: i for i, r in enumerate(ratios)}
        for (i, k), d in np.ndenumerate(np.gcd.outer(ratios, ratios)):
            coprime = ref[at[ratios[i] // d], at[ratios[k] // d]]
            assert abs(ref[i, k] - d * coprime) <= tol * np.max(np.abs(ref))

    def test_tables_serve_every_hurst_and_one_grid(self):
        import gc
        import weakref

        gamma_fbm(0.3, ScaleGrid(8, (1, 2, 3)), W3)
        tables = estimate._fbm_tables(W3, (1, 2, 3))
        gamma_fbm(0.8, ScaleGrid(4, (1, 2, 3)), W3)
        assert estimate._fbm_tables(W3, (1, 2, 3)) is tables  # H and base: no rebuild
        first = weakref.ref(tables[2, 3][0][1])
        del tables
        gamma_fbm(0.3, ScaleGrid(8, (2, 3, 5)), W3)
        gc.collect()
        assert first() is None

    def test_peak_memory_is_the_tables(self):
        import tracemalloc

        # About 1 KiB per panel (s and h at 64 nodes, and a half-width):
        # 2 panels for (1, 1) and 3 + 2 (p + q - 3) per coprime p < q.
        ratios = tuple(range(1, 13))
        panels = 2 + sum(
            3 + 2 * (p + q - 3)
            for p in ratios for q in ratios if p < q and math.gcd(p, q) == 1
        )
        table_bytes = panels * (2 * estimate._GL_PANEL + 1) * 8
        estimate._fbm_tables.cache_clear()
        tracemalloc.start()
        try:
            gamma_fbm(0.7, ScaleGrid(8, ratios), W3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # The rest is the ~1 MB of a batched h evaluation, a lag block and
        # the array headers.
        assert table_bytes < peak < table_bytes + (2 << 20)

    def test_requires_compact_wavelet(self):
        grid = ScaleGrid(8, (1, 2, 3))
        with pytest.raises(ValidationError):
            gamma_fbm(0.5, grid, WBL)


class TestGammaLocfrac:
    GRID = ScaleGrid(1, (10, 13, 16, 20), trim=0.1)

    def test_symmetry_positive_diagonal(self):
        g = gamma_locfrac(0.6, self.GRID, WBL)
        np.testing.assert_allclose(g, g.T, atol=1e-10)
        assert np.all(np.diag(g) > 0)

    def test_disjoint_bands_give_zero(self):
        # r_p lam > r_q mu: no spectral overlap.
        grid = ScaleGrid(1, (4, 10, 40), trim=0.1)
        g = gamma_locfrac(0.6, grid, WBL)
        assert g[0, 2] == 0.0  # 40 * 2.0 > 4 * 3.0 -> dilated supports disjoint
        assert g[0, 1] == 0.0  # 10 * 2 = 20 > 4 * 3 = 12
        assert g[1, 2] == 0.0  # (10, 40) reduces to (1, 4): eta in [2, 0.75] is empty
        # Scales 10 and 13 overlap on eta in [0.2, 0.231].
        assert gamma_locfrac(0.6, self.GRID, WBL)[0, 1] != 0.0

    def test_trim_inflates_variance(self):
        g0 = gamma_locfrac(0.6, replace(self.GRID, trim=0.0), WBL)
        g2 = gamma_locfrac(0.6, replace(self.GRID, trim=0.2), WBL)
        np.testing.assert_allclose(g2, g0 / 0.6, rtol=1e-10)
        # The plug-in closure reads the same trim: alpha = 2.2 is H = 0.6.
        closure = make_gamma("locfrac", replace(self.GRID, trim=0.2), WBL)
        np.testing.assert_array_equal(closure(2.2), g2)

    def test_any_real_exponent(self):
        g = gamma_locfrac(1.4, self.GRID, WBL)
        assert np.all(np.isfinite(g)) and np.all(np.diag(g) > 0)

    def test_band_above_pi_rejected(self):
        # Past pi the Hermitian extension folds onto itself.  The band is
        # all the check reads, so a stand-in spares building the wavelet.
        wide = SimpleNamespace(is_band_limited=True, lam=2.0, mu=3.2)
        with pytest.raises(ValidationError, match="pi"):
            gamma_locfrac(0.6, self.GRID, wide)

    @pytest.mark.parametrize("gamma", [gamma_locfrac, gamma_lrd])
    def test_both_routes_refuse_a_band_above_pi(self, gamma):
        # The check sits in the one band-limited pair-sum builder.
        with pytest.raises(ValidationError, match="pi"):
            gamma(0.5, ScaleGrid(1, (4, 5, 6), trim=0.1), make_band_limited(2.0, 4.0))


class TestFgls:
    def test_identity_weight_equals_ols(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        rng = np.random.default_rng(0)
        y = rng.normal(size=4)
        a = ols_theta(y, L)
        b = fgls_theta(y, L, np.eye(4))
        assert b.alpha == pytest.approx(a.alpha, rel=1e-9)
        assert b.log_beta == pytest.approx(a.log_beta, rel=1e-9)
        assert not b.fallback_to_ols

    def test_scalar_multiple_of_identity_equals_ols(self):
        grid = ScaleGrid(8, (1, 2, 4, 8))
        L = design_matrix(grid)
        rng = np.random.default_rng(1)
        y = rng.normal(size=4)
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
            grid = ScaleGrid(1, (10, 13, 16, 20), trim=0.1)
            gam = gamma_locfrac(expo, grid, WBL)
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
        y = np.array([1.0, 2.0, 3.0, 4.0])
        bad = np.full((4, 4), np.nan)
        est = fgls_theta(y, L, bad)
        assert est.fallback_to_ols
        ref = ols_theta(y, L)
        assert est.alpha == pytest.approx(ref.alpha)


class TestGof:
    def test_exactly_linear_gives_zero(self):
        grid = ScaleGrid(8, (1, 2, 4, 8, 16))
        L = design_matrix(grid)
        y = 0.5 * grid.log_scales - 0.2
        gam = np.eye(5)
        theta = fgls_theta(y, L, gam)
        res = gof(y, L, theta, gam, 100.0)
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
        y1 = base
        y2 = base + 2 * math.log(3.0)
        t1 = fgls_theta(y1, L, gam)
        t2 = fgls_theta(y2, L, gam)
        g1 = gof(y1, L, t1, gam, 100.0)
        g2 = gof(y2, L, t2, gam, 100.0)
        assert g1.statistic == pytest.approx(g2.statistic, rel=1e-9, abs=1e-12)


class TestChi2Sf:
    # Every df from 1 to 60, then a spread up to 10^4, each at x below, at
    # and above its mean; the largest relative gap measured was 1.1e-11,
    # at df = 10^4 and a tail value of 1e-285.
    DFS = [*range(1, 61), 99, 100, 101, 487, 488, 999, 1000, 1500, 1501,
           3001, 9999, 10000]

    @pytest.mark.parametrize("df", DFS)
    def test_matches_gammaincc(self, df):
        for x in (1e-8, 0.25 * df, 0.8 * df, df, 1.3 * df, 2.0 * df + 20, 5.0 * df + 100):
            expected = gammaincc(0.5 * df, 0.5 * x)
            assert chi2_sf(x, df) == pytest.approx(expected, rel=1e-10, abs=1e-300)

    def test_large_df_at_its_mean_does_not_underflow(self):
        # e^-750 underflows, so a plain Poisson sum reads 0 here.
        value = chi2_sf(1500.0, 1500)
        assert value == pytest.approx(0.4951441933357679, rel=1e-12)
        assert value == pytest.approx(gammaincc(750.0, 750.0), rel=1e-12)

    def test_edges(self):
        assert chi2_sf(0.0, 3) == 1.0
        assert chi2_sf(-1.0, 4) == 1.0
        assert chi2_sf(math.inf, 5) == 0.0
        assert math.isnan(chi2_sf(math.nan, 5))
        assert chi2_sf(1e6, 18) == 0.0

    @pytest.mark.parametrize("df", [0, -2, 2.5, True])
    def test_df_must_be_a_positive_integer(self, df):
        with pytest.raises(ValidationError, match="df must be an integer >= 1"):
            chi2_sf(1.0, df)


class TestConfidenceInterval:
    def _est(self):
        grid = ScaleGrid(8, (1, 2, 4))
        L = design_matrix(grid)
        return ols_theta([0.1, 0.5, 0.9], L, gamma=np.eye(3), n_eff=100.0)

    def test_level_zero_degenerates(self):
        est = self._est()
        (lo, hi), _ = confidence_interval(est, 0.0)
        assert lo == pytest.approx(est.alpha)
        assert hi == pytest.approx(est.alpha)

    def test_zero_covariance_gives_zero_width(self):
        est = self._est()
        zero = replace(est, cov=np.zeros((2, 2)))
        (lo, hi), _ = confidence_interval(zero, 0.95)
        assert lo == hi == pytest.approx(est.alpha)

    def test_width_grows_with_level(self):
        est = self._est()
        w90 = np.diff(confidence_interval(est, 0.90)[0])[0]
        w99 = np.diff(confidence_interval(est, 0.99)[0])[0]
        assert w99 > w90 > 0

    @pytest.mark.parametrize("level", [0.5, 0.9, 0.95, 0.99, 0.999999])
    def test_z_is_the_normal_quantile(self, level):
        est = self._est()
        (lo, hi), _ = confidence_interval(est, level)
        z = ndtri(0.5 * (1.0 + level))
        half = z * math.sqrt(est.cov[0, 0])
        assert (hi - lo) / 2 == pytest.approx(half, rel=1e-14)
        assert estimate._normal_quantile(0.5 * (1.0 + level)) == pytest.approx(z, rel=2e-15)

    def test_requires_covariance(self):
        grid = ScaleGrid(8, (1, 2, 4))
        est = ols_theta([0.0, 1.0, 2.0], design_matrix(grid))
        with pytest.raises(ValidationError):
            confidence_interval(est, 0.95)


class TestConversions:
    @pytest.mark.parametrize("family,alpha,expo", [
        ("fgn", 0.2, 0.2),
        ("farima", 0.8, 0.8),
        ("fbm", 2.6, 0.8),
        ("locfrac", -1.8, -1.4),
    ])
    def test_exponent_from_alpha(self, family, alpha, expo):
        assert exponent_from_alpha(alpha, family) == pytest.approx(expo, rel=1e-12)
