import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.fft import next_fast_len
from scipy.integrate import quad
from scipy.signal import fftconvolve

from oracles import coeff
from scalebreak import (
    SampledPath,
    ScaleGrid,
    ValidationError,
    coefficients_at_scale,
    default_params,
    make_band_limited,
    make_compact_poly,
)
from scalebreak.wavelet import _fft_length


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

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_jacobi_coefficients_solve_moment_system_exactly(self, q):
        # The 2F1(-q, q+5; 3; t) recurrence the construction uses, checked
        # against int_0^1 t^(r+j+2) (1-t)^2 dt = B(r+j+3, 3) in rationals.
        c = [Fraction(1)]
        for k in range(q):
            c.append(c[-1] * Fraction((k - q) * (k + q + 5), (k + 3) * (k + 1)))

        def beta(x, y):
            return Fraction(
                math.factorial(x - 1) * math.factorial(y - 1),
                math.factorial(x + y - 1),
            )

        for r in range(q):
            assert sum(beta(r + j + 3, 3) * cj for j, cj in enumerate(c)) == 0
        monic = np.array([float(cj / c[-1]) for cj in c])
        q_coeffs = make_compact_poly(q).q_coeffs
        np.testing.assert_allclose(monic * q_coeffs[-1], q_coeffs, rtol=1e-14)

    def test_q_below_two_rejected(self):
        with pytest.raises(ValidationError):
            make_compact_poly(1)

    @pytest.mark.parametrize("q", [2, 3, 4, 5, 6])
    def test_cached_kernel_is_evaluate_and_read_only(self, q):
        w = make_compact_poly(q)
        for a in range(1, 601):
            j_zero, taps = w.kernel(a)
            assert j_zero == 0 and not taps.flags.writeable
            np.testing.assert_array_equal(taps, w.evaluate(np.arange(a) / a))
            assert w.kernel(float(a))[1] is taps
            assert w.kernel_l1(a) == float(np.abs(taps).sum())


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

    @pytest.mark.parametrize("lam, mu", [(2.0, 3.0), (0.5, 0.9)])
    def test_closed_form_matches_cosine_quadrature(self, lam, mu):
        # QUADPACK's cosine-weighted rule integrates the bump directly:
        # psi(t) = (1/pi) int_lam^mu psi_hat(xi) cos(xi t) dxi.  The points
        # include t = 0, the removable points of the sinc sum and the edge
        # of the effective support.
        w = make_band_limited(lam, mu)
        width = mu - lam
        radius = w.support_radius
        special = [0.0, radius - 0.25, radius, -radius]
        special += [s * 2.0 * math.pi * k / width for k in (1, 2) for s in (1, -1)]
        t = np.concatenate([special, np.linspace(-radius, radius, 41)])

        def bump(xi):
            return w.amplitude * math.sin(math.pi * (xi - lam) / width) ** 4

        ref = np.array([
            quad(bump, lam, mu, weight="cos", wvar=ti, epsabs=1e-14, epsrel=1e-13)[0]
            for ti in t
        ]) / math.pi
        assert np.max(np.abs(w.evaluate(t) - ref)) <= 1e-12 * np.max(np.abs(ref))

    def test_integral_of_psi_vanishes(self):
        w = make_band_limited(2.0, 3.0)
        t = np.arange(-400.0, 400.0, 0.25)
        assert abs(np.sum(w.evaluate(t)) * 0.25) < 1e-6

    def test_band_ordering_rejected(self):
        with pytest.raises(ValidationError):
            make_band_limited(3.0, 2.0)

    def test_effective_support_is_finite(self):
        # Where |psi| last exceeds 1e-8 of its peak on the 0.25 scan grid;
        # the kernel lengths of every scale follow from it.
        assert make_band_limited(2.0, 3.0).support_radius == 255.25

    def test_cached_kernel_is_evaluate_and_read_only(self):
        w = make_band_limited(2.0, 3.0)
        for a in (1, 4, 10, 97):
            j_zero, taps = w.kernel(a)
            j = np.arange(taps.size) - j_zero
            assert j[-1] == -j[0] and not taps.flags.writeable
            np.testing.assert_array_equal(taps, w.evaluate(j / a))
            assert w.kernel(float(a))[1] is taps
            assert w.kernel_l1(a) == float(np.abs(taps).sum())


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
        # Every shift at three scales.  The oracle keeps taps
        # |j| <= a * support_radius, the kernel up to the ceiling of it:
        # the taps in between bound the gap (1.1e-8 at a = 1), plus 1e-13
        # for FFT rounding (measured 1.8e-15 at a = 4 and 10, where
        # a * support_radius is an integer).
        rng = np.random.default_rng(8)
        path = SampledPath(values=rng.normal(size=2001))
        w = make_band_limited(2.0, 3.0)
        for a in (1, 4, 10):
            all_coeffs = coefficients_at_scale(path, w, float(a))
            oracle = [
                coeff(path, w, float(a), float(a * p)) for p in range(all_coeffs.size)
            ]
            j_zero, kernel = w.kernel(a)
            beyond = np.abs(np.arange(kernel.size) - j_zero) > a * w.support_radius
            tol = np.abs(kernel[beyond]).sum() * np.abs(path.values).max() / math.sqrt(a)
            assert np.max(np.abs(all_coeffs - oracle)) <= tol + 1e-13

    @pytest.mark.parametrize("n, a", [(600, 4), (999, 3), (2000, 1), (16000, 20)])
    def test_band_limited_equals_fftconvolve(self, n, a):
        # Bit-identical to scipy's fftconvolve, including a kernel longer
        # than the path (2 043 taps on 601 samples at n = 600, a = 4).
        rng = np.random.default_rng(n)
        path = SampledPath(values=rng.normal(size=n + 1))
        w = make_band_limited(2.0, 3.0)
        j_zero, kernel = w.kernel(a)
        x = path.values.copy()
        x[0] = 0.0
        conv = fftconvolve(x, kernel[::-1])
        expected = (1.0 / math.sqrt(a)) * conv[a * np.arange(n // a) + j_zero]
        np.testing.assert_array_equal(coefficients_at_scale(path, w, a), expected)

    def test_fft_length_is_next_fast_len(self):
        lengths = [_fft_length(n) for n in range(1, 50_001)]
        assert lengths == [next_fast_len(n, real=True) for n in range(1, 50_001)]

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
