import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import coeff
from scalebreak import wavelet as wavelet_module
from scalebreak import (
    SampledPath,
    ScaleGrid,
    ValidationError,
    coefficients_at_scale,
    default_params,
    make_band_limited,
    make_compact_poly,
)


def gl_moment(wavelet, r, order=200):
    """High-order quadrature oracle for int t^r psi(t) dt on [0, 1]."""
    nodes, weights = np.polynomial.legendre.leggauss(order)
    t = 0.5 * (nodes + 1.0)
    w = 0.5 * weights
    return float(np.sum(w * t**r * wavelet.evaluate(t)))


class TestCompactPoly:
    @pytest.mark.parametrize("q", [2, 3, 4])
    def test_vanishing_moments(self, q):
        w = make_compact_poly(q)
        for r in range(q):
            assert abs(w.moment(r)) <= 1e-12

    def test_q2_has_exactly_two_moments(self):
        w = make_compact_poly(2)
        assert abs(gl_moment(w, 2)) > 1e-6

    def test_q3_third_moment_nonzero(self):
        w = make_compact_poly(3)
        assert abs(gl_moment(w, 3)) > 1e-6
        assert abs(gl_moment(w, 2)) <= 1e-12

    def test_moment_matches_quadrature_oracle(self):
        w = make_compact_poly(3)
        for r in range(6):
            assert w.moment(r) == pytest.approx(gl_moment(w, r), abs=1e-12)

    def test_unit_l2_norm(self):
        w = make_compact_poly(3)
        nodes, wts = np.polynomial.legendre.leggauss(200)
        t = 0.5 * (nodes + 1.0)
        norm = float(np.sum(0.5 * wts * w.evaluate(t) ** 2))
        assert norm == pytest.approx(1.0, rel=1e-12)

    def test_boundary_zeros(self):
        w = make_compact_poly(3)
        assert w.evaluate(0.0) == 0.0
        assert w.evaluate(1.0) == pytest.approx(0.0, abs=1e-14)
        assert w.evaluate(-0.5) == 0.0 and w.evaluate(1.5) == 0.0

    def test_q_below_two_rejected(self):
        with pytest.raises(ValidationError):
            make_compact_poly(1)


class TestPsiHat:
    def test_zero_frequency_vanishes(self):
        w = make_compact_poly(3)
        assert abs(w.psi_hat(0.0)) <= 1e-12

    def test_derivatives_vanish_up_to_q(self):
        # psi_hat(xi) ~ (-i)^q m_q xi^q / q! near 0, so |psi_hat| at small xi
        # scales like xi^q.
        w = make_compact_poly(3)
        assert abs(w.psi_hat(0.1)) / abs(w.psi_hat(0.05)) == pytest.approx(
            2.0**3, rel=0.05
        )

    def test_conjugate_symmetry(self):
        w = make_compact_poly(3)
        xi = np.array([0.5, 1.7, 12.0, 80.0])
        np.testing.assert_allclose(
            np.abs(w.psi_hat(-xi)), np.abs(w.psi_hat(xi)), rtol=1e-10
        )

    def test_against_direct_quadrature(self):
        w = make_compact_poly(3)
        nodes, wts = np.polynomial.legendre.leggauss(400)
        t = 0.5 * (nodes + 1.0)
        xi = np.concatenate([np.linspace(-20.0, 20.0, 401), [33.3, 150.0, 599.0, 1e3]])
        direct = np.exp(-1j * np.outer(xi, t)) @ (0.5 * wts * w.evaluate(t))
        err = np.abs(w.psi_hat(xi) - direct)
        assert np.max(err) <= 1e-10 * np.max(np.abs(direct))


class TestBandLimited:
    def test_hat_vanishes_at_zero(self):
        w = make_band_limited(2.0, 3.0)
        assert w.psi_hat(0.0) == 0.0
        assert w.psi_hat(1.99) == 0.0
        assert w.psi_hat(3.01) == 0.0

    def test_hat_is_even(self):
        w = make_band_limited(2.0, 3.0)
        xi = np.linspace(-4, 4, 41)
        np.testing.assert_allclose(w.psi_hat(xi), w.psi_hat(-xi))

    def test_quadrature_rule_computed_once_per_process(self):
        # A new band reuses the Gauss-Legendre rule: the same read-only
        # arrays, so every band's nodes are bit-identical maps of one rule.
        make_band_limited(2.0, 3.0)
        rule = wavelet_module._legendre_rule
        before = rule.cache_info()
        w = wavelet_module.BandLimitedWavelet(2.0, 3.3)
        after = rule.cache_info()
        assert after.misses == before.misses and after.hits == before.hits + 1
        nodes, weights = rule(w._N_FREQ_NODES)
        assert not nodes.flags.writeable and not weights.flags.writeable
        expected = 2.0 + 0.5 * (3.3 - 2.0) * (nodes + 1.0)
        np.testing.assert_array_equal(w._xi_nodes, expected)
        small = rule(16)
        ref = np.polynomial.legendre.leggauss(16)
        assert all(np.array_equal(a, b) for a, b in zip(small, ref))

    def test_integral_of_psi_vanishes(self):
        w = make_band_limited(2.0, 3.0)
        t = np.arange(-400.0, 400.0, 0.25)
        assert abs(np.sum(w.evaluate(t)) * 0.25) < 1e-6

    def test_band_ordering_rejected(self):
        with pytest.raises(ValidationError):
            make_band_limited(3.0, 2.0)

    def test_effective_support_is_finite(self):
        w = make_band_limited(2.0, 3.0)
        assert 0 < w.support_radius < 800


class TestCoeff:
    def test_zero_path(self):
        path = SampledPath(values=np.zeros(100))
        w = make_compact_poly(3)
        assert np.all(coefficients_at_scale(path, w, 8) == 0.0)

    def test_impulse(self):
        n, p0 = 64, 20
        vals = np.zeros(n + 1)
        vals[p0] = 1.0
        path = SampledPath(values=vals)
        w = make_compact_poly(3)
        a, p = 8, 2
        expected = 1.0 / math.sqrt(a) * w.evaluate((p0 - a * p) / a)
        e = coefficients_at_scale(path, w, a)
        assert e[p] == pytest.approx(expected, rel=1e-12)
        assert np.count_nonzero(e) == 1

    def test_constant_path_residual_bounded(self):
        # Discrete vanishing-moment residual obeys |e| <= C / a; the double
        # endpoint zeros make the Riemann sum superconvergent, so the
        # residual here is rounding noise far below that bound.
        n = 4096
        path = SampledPath(values=np.ones(n + 1))
        w = make_compact_poly(3)
        for a in (8, 16, 32, 64):
            e = coefficients_at_scale(path, w, a)
            assert np.max(np.abs(e)) <= 1e-10 / a + 1e-12

    def test_linearity_exact(self):
        rng = np.random.default_rng(5)
        x = rng.normal(size=129)
        y = rng.normal(size=129)
        px, py = SampledPath(values=x), SampledPath(values=y)
        pxy = SampledPath(values=x + y)
        for w in (make_compact_poly(3), make_band_limited(2.0, 3.0)):
            np.testing.assert_allclose(
                coefficients_at_scale(pxy, w, 8),
                coefficients_at_scale(px, w, 8) + coefficients_at_scale(py, w, 8),
                rtol=1e-12,
                atol=1e-14,
            )

    def test_scale_below_minimum_rejected(self):
        path = SampledPath(values=np.zeros(50))
        w = make_compact_poly(3)
        with pytest.raises(ValidationError):
            coefficients_at_scale(path, w, 0.5)

    def test_window_out_of_range(self):
        path = SampledPath(values=np.zeros(50))
        w = make_compact_poly(3)
        with pytest.raises(ValidationError):
            coeff(path, w, 8.0, 45.0)
        with pytest.raises(ValidationError):
            coeff(path, w, 8.0, -1.0)

    def test_delta_prefactor(self):
        vals = np.arange(101, dtype=float)
        p1 = SampledPath(values=vals, delta=1.0)
        p2 = SampledPath(values=vals, delta=0.5)
        w = make_band_limited(2.0, 3.0)
        np.testing.assert_allclose(
            coefficients_at_scale(p2, w, 8),
            0.5 * coefficients_at_scale(p1, w, 8),
            rtol=1e-12,
        )


class TestCoefficientsAtScale:
    def test_matches_single_coefficient_compact(self):
        rng = np.random.default_rng(7)
        path = SampledPath(values=rng.normal(size=257))
        w = make_compact_poly(3)
        a = 8
        all_coeffs = coefficients_at_scale(path, w, float(a))
        assert all_coeffs.size == 256 // 8
        for p in (0, 3, 17, 31):
            assert all_coeffs[p] == pytest.approx(
                coeff(path, w, float(a), float(a * p)), rel=1e-10, abs=1e-12
            )

    def test_matches_single_coefficient_band_limited(self):
        rng = np.random.default_rng(8)
        path = SampledPath(values=rng.normal(size=2001))
        w = make_band_limited(2.0, 3.0)
        a = 10
        all_coeffs = coefficients_at_scale(path, w, float(a))
        for p in (40, 100, 160):
            assert all_coeffs[p] == pytest.approx(
                coeff(path, w, float(a), float(a * p)), rel=1e-6, abs=1e-10
            )

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=2, max_value=12))
    def test_count_matches_floor(self, a):
        path = SampledPath(values=np.zeros(101))
        w = make_compact_poly(2)
        assert coefficients_at_scale(path, w, float(a)).size == 100 // a

    def test_non_integer_scale_rejected(self):
        path = SampledPath(values=np.zeros(101))
        for w in (make_compact_poly(3), make_band_limited(2.0, 3.0)):
            with pytest.raises(ValidationError):
                coefficients_at_scale(path, w, 8.5)
        with pytest.raises(ValidationError):
            ScaleGrid(2.5, (1, 2, 3))
        assert ScaleGrid(8.0, (1, 2, 3)).base == 8
        with pytest.raises(ValidationError):
            ScaleGrid(8, (1, 2.5, 3))
        assert ScaleGrid(8, (1.0, 2.0, 3.0)).ratios == (1, 2, 3)
        with pytest.raises(ValidationError):
            default_params("fgn", 20000, a_base=8.7)
        assert default_params("fgn", 20000, a_base=8.0).grid.base == 8
