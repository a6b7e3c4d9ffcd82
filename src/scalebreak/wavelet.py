"""Analyzing wavelets and the discretized wavelet coefficient.

Two closed-form constructions cover the families handled by the package:

* ``make_compact_poly(q)`` -- a polynomial bump on [0,1] with exactly ``q``
  vanishing moments, psi(t) = t^2 (1-t)^2 Q(t), suited to unit-step series.
  Q is the degree-q orthogonal polynomial for the weight t^2 (1-t)^2, the
  shifted Jacobi polynomial 2F1(-q, q+5; 3; t);
* ``make_band_limited(lam, mu)`` -- a wavelet whose Fourier transform is an
  even squared-Hann bump supported on [-mu,-lam] u [lam,mu], required for
  band-limited processes (all polynomial moments vanish).  Its inverse
  transform is a sum of five sinc functions.

The coefficient of a sampled path at scale ``a`` and shift ``b`` is the
Riemann sum

    e(a, b) = delta/sqrt(a) * sum_{p=1..N} psi((p - b)/a) X_{p delta},

with ``a`` and ``b`` expressed in sample-index units.  The package
evaluates it at integer scales ``a`` and on each scale's own shift grid
b = a p: a compact kernel spans one block of ``a`` samples, so the
coefficients are one matrix-vector product; a band-limited kernel spans
many blocks, so the path is convolved with it through numpy's real FFT at
the smallest 5-smooth length (2^i 3^j 5^k) that holds the full linear
convolution.

Each wavelet keeps the sampled kernel of every scale it has been asked
for, read-only, with its l1 norm, for its own lifetime: a dense detection
grid asks for hundreds of scales on every path, and the taps of a grid up
to scale 500 take about 1 MB.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from .errors import ValidationError

__all__ = [
    "CompactPolyWavelet",
    "BandLimitedWavelet",
    "make_compact_poly",
    "make_band_limited",
    "coefficients_at_scale",
]

# psi_hat of the compact wavelet: Taylor series below this radius, where
# integration by parts cancels; 64 terms reach 8^64/64! < 1e-30.
_TAYLOR_RADIUS = 8.0
_TAYLOR_TERMS = 64


def _beta3(n):
    # int_0^1 t^n (1-t)^2 dt
    return 2.0 / ((n + 1.0) * (n + 2.0) * (n + 3.0))


def _beta5(n):
    # int_0^1 t^n (1-t)^4 dt
    return 24.0 / ((n + 1.0) * (n + 2.0) * (n + 3.0) * (n + 4.0) * (n + 5.0))


class _SampledKernels:
    """Sampled kernels cached per integer scale; a subclass gives the sample
    offsets j of its kernel in ``_offsets(a)``."""

    def kernel(self, a):
        """Sampled kernel psi(j/a) at integer scale a, and the index of
        j = 0 in it (cached, read-only)."""
        return self._sampled(a)[:2]

    def kernel_l1(self, a):
        """sum_j |psi(j/a)| over the sampled kernel at integer scale a
        (cached with the kernel)."""
        return self._sampled(a)[2]

    def _sampled(self, a):
        a = int(a)
        if a not in self._kernel_cache:
            j_zero, j = self._offsets(a)
            taps = self.evaluate(j / a)
            taps.flags.writeable = False
            self._kernel_cache[a] = (j_zero, taps, float(np.abs(taps).sum()))
        return self._kernel_cache[a]


class CompactPolyWavelet(_SampledKernels):
    """psi(t) = t^2 (1-t)^2 Q(t) on [0,1] with q vanishing moments, unit L2 norm.

    Q is proportional to the shifted Jacobi polynomial
    2F1(-q, q+5; 3; t) = sum_k c_k t^k, with c_0 = 1 and
    c_{k+1} = c_k (k-q)(k+q+5) / ((k+3)(k+1)).
    """

    is_band_limited = False

    def __init__(self, q_coeffs, q):
        self.q = int(q)
        self.q_coeffs = np.asarray(q_coeffs, dtype=float)
        self._kernel_cache = {}
        # Full polynomial coefficients of psi in the monomial basis:
        # t^2 (1-t)^2 = t^2 - 2 t^3 + t^4.
        window = np.array([0.0, 0.0, 1.0, -2.0, 1.0])
        self.poly_coeffs = np.polynomial.polynomial.polymul(window, self.q_coeffs)
        # Rows P^(k)(0) and P^(k)(1), k = 0..deg, for the integration-by-parts
        # form of psi_hat and its tail bound.
        poly = np.polynomial.Polynomial(self.poly_coeffs)
        self.end_derivatives = np.array(
            [[poly.deriv(k)(t) for k in range(poly.coef.size)] for t in (0.0, 1.0)]
        )
        # Taylor coefficients m_k / k!; the first q moments vanish by
        # construction.
        self._taylor = np.array([
            self.moment(k) / math.factorial(k) if k >= self.q else 0.0
            for k in range(_TAYLOR_TERMS)
        ])

    def evaluate(self, t):
        """psi(t), zero outside [0,1]; the factored form keeps the double
        zeros at both endpoints exact."""
        t = np.asarray(t, dtype=float)
        inside = (t >= 0.0) & (t <= 1.0)
        out = np.zeros_like(t)
        ts = t[inside]
        window = (ts * (1.0 - ts)) ** 2
        out[inside] = window * np.polynomial.polynomial.polyval(ts, self.q_coeffs)
        return out if out.ndim else float(out)

    def _offsets(self, a):
        """j = 0..a-1, and the index 0 of j = 0."""
        return 0, np.arange(a)

    def moment(self, r):
        """int_0^1 t^r psi(t) dt, exact from the Beta-function table."""
        j = np.arange(self.q_coeffs.size)
        return float(np.dot(self.q_coeffs, _beta3(r + j + 2.0)))

    def psi_hat(self, xi):
        """Fourier transform psi_hat(xi) = int_0^1 psi(t) exp(-i xi t) dt,
        in closed form.

        Below |xi| = _TAYLOR_RADIUS it is the Taylor series
        sum_k m_k (-i xi)^k / k! over the exact moments m_k; beyond, the
        integration-by-parts sum, finite because psi is a polynomial P:
        sum_k (i xi)^-(k+1) [P^(k)(0) - P^(k)(1) exp(-i xi)].
        """
        xi = np.asarray(xi, dtype=float)
        out = np.empty(xi.shape, dtype=complex)
        near = np.abs(xi) < _TAYLOR_RADIUS
        out[near] = np.polynomial.polynomial.polyval(-1j * xi[near], self._taylor)
        far = xi[~near]
        z = 1.0 / (1j * far)
        at0, at1 = self.end_derivatives
        out[~near] = z * (
            np.polynomial.polynomial.polyval(z, at0)
            - np.exp(-1j * far) * np.polynomial.polynomial.polyval(z, at1)
        )
        return out if out.ndim else out[()]


class BandLimitedWavelet(_SampledKernels):
    """Real even wavelet with psi_hat supported on [-mu,-lam] u [lam,mu].

    psi_hat is the squared-Hann taper A sin^4(pi (|xi|-lam)/w), w = mu - lam.
    Measured from the band centre m = (lam + mu)/2, with s = |xi| - m, the
    taper is A cos^4(pi s/w) = A [3/8 + cos(2 pi s/w)/2 + cos(4 pi s/w)/8],
    and each term integrates against cos(xi t) over the band to a shifted
    sinc.  With u = t w / (2 pi)

        psi(t) = (A w / pi) cos(m t) [3/8 sinc(u) + (sinc(u-1) + sinc(u+1))/4
                                      + (sinc(u-2) + sinc(u+2))/16],

    sinc being the normalised sinc.  psi is truncated, where needed, to the
    radius where |psi| exceeds 1e-8 of its peak.  All polynomial moments
    vanish because psi_hat is flat zero near 0.
    """

    is_band_limited = True

    _T_CAP = 800.0

    def __init__(self, lam, mu):
        if not 0.0 < lam < mu:
            raise ValidationError("need 0 < lam < mu")
        self.lam = float(lam)
        self.mu = float(mu)
        # Unit L2 norm: ||psi||^2 = (1/pi) int_lam^mu psi_hat^2, and
        # int_0^1 sin^8(pi u) du = 35/128.
        self.amplitude = math.sqrt(math.pi / ((mu - lam) * 35.0 / 128.0))
        self._kernel_cache = {}
        # Effective support radius from a scan of |psi|.
        t = np.arange(0.0, self._T_CAP, 0.25)
        vals = np.abs(self.evaluate(t))
        thresh = 1e-8 * vals.max()
        above = np.nonzero(vals > thresh)[0]
        self.support_radius = float(t[above[-1]]) + 0.25

    def _bump(self, x):
        out = np.zeros_like(x)
        inside = (x >= self.lam) & (x <= self.mu)
        u = (x[inside] - self.lam) / (self.mu - self.lam)
        out[inside] = self.amplitude * np.sin(math.pi * u) ** 4
        return out

    def evaluate(self, t):
        """psi(t) = (1/pi) int_lam^mu psi_hat(xi) cos(xi t) dxi, from the
        sinc sum of the class docstring."""
        t = np.asarray(t, dtype=float)
        w = self.mu - self.lam
        u = t * (w / (2.0 * math.pi))
        taper = (
            0.375 * np.sinc(u)
            + 0.25 * (np.sinc(u - 1.0) + np.sinc(u + 1.0))
            + 0.0625 * (np.sinc(u - 2.0) + np.sinc(u + 2.0))
        )
        carrier = np.cos(0.5 * (self.lam + self.mu) * t)
        out = self.amplitude * w / math.pi * carrier * taper
        return out if out.ndim else float(out)

    def psi_hat(self, xi):
        """The defining bump, evaluated exactly (real and even)."""
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        out = self._bump(np.abs(np.atleast_1d(xi))).astype(complex)
        return out[0] if scalar else out

    def _offsets(self, a):
        """j = -J..J over the support radius, and the index J of j = 0."""
        j_half = int(math.ceil(a * self.support_radius))
        return j_half, np.arange(-j_half, j_half + 1)


def make_compact_poly(q):
    """Construct the compact polynomial wavelet with exactly ``q`` vanishing
    moments.

    int_0^1 t^r psi(t) dt = 0 for r < q makes Q orthogonal to every
    polynomial of degree < q under the weight t^2 (1-t)^2, so Q is the
    shifted Jacobi polynomial 2F1(-q, q+5; 3; t).  Its coefficients are
    exact rationals; Q is taken monic, then normalized to unit L2 norm with
    the q-th moment positive.
    """
    q = int(q)
    if q < 2:
        raise ValidationError("need q >= 2 vanishing moments")
    if q > 6:
        # Beyond q = 6 the polynomial coefficients grow enough that double
        # precision cannot hold the residual moments below 1e-12.
        raise ValidationError("polynomial construction supports q <= 6")
    return _compact_poly(q)


@functools.cache
def _compact_poly(q):
    # Exact Jacobi coefficients (class docstring), made monic.
    coeffs = [Fraction(1)]
    for k in range(q):
        ratio = Fraction((k - q) * (k + q + 5), (k + 3) * (k + 1))
        coeffs.append(coeffs[-1] * ratio)
    c = np.array([float(x / coeffs[-1]) for x in coeffs])
    w = CompactPolyWavelet(c, q)
    if w.moment(q) < 0.0:
        c = -c
    cols = np.arange(q + 1, dtype=float)[None, :]
    gram = _beta5(cols + cols.T + 4.0)
    c = c / math.sqrt(c @ gram @ c)
    w = CompactPolyWavelet(c, q)
    for r in range(q):
        assert abs(w.moment(r)) <= 1e-12, f"moment {r} fails to vanish"
    return w


_band_limited = functools.cache(BandLimitedWavelet)


def make_band_limited(lam, mu):
    """Construct the band-limited wavelet for the band ``[lam, mu]``."""
    return _band_limited(float(lam), float(mu))


def _fft_length(n):
    """Smallest 2^i 3^j 5^k >= n, the length scipy.fft.next_fast_len(n,
    real=True) picks; a power of two can be nearly twice as long."""
    best = 1 << (n - 1).bit_length()
    f5 = 1
    while f5 < best:
        f35 = f5
        while f35 < best:
            # f35 times the smallest power of two reaching n
            best = min(best, f35 << (-(-n // f35) - 1).bit_length())
            f35 *= 3
        f5 *= 5
    return best


def coefficients_at_scale(path, wavelet, a):
    """All coefficients e(a, a*p), p = 0..floor(N/a)-1, at the integer scale
    ``a``, in one pass.

    Compact wavelets: one block of ``a`` samples per shift, summed in a
    fixed order so results do not depend on evaluation strategy.
    Band-limited wavelets: the full linear convolution of the path with the
    reversed kernel, by ``numpy.fft.rfft``/``irfft`` at the length
    ``_fft_length(N + len(kernel))`` (the path holds N + 1 samples), read
    at the shifts a*p.
    """
    a = float(a)
    if a < 1.0:
        raise ValidationError(f"scale {a} below the minimum 1")
    if not a.is_integer():
        raise ValidationError(f"scale {a} is not an integer")
    n = path.n
    n_shifts = int(math.floor(n / a))
    if n_shifts < 1:
        raise ValidationError("path shorter than one scale window")
    scale_factor = path.delta / math.sqrt(a)
    ai = int(a)
    j_zero, kernel = wavelet.kernel(ai)
    if not wavelet.is_band_limited:
        blocks = path.values[: n_shifts * ai].reshape(n_shifts, ai)
        return scale_factor * (blocks @ kernel)
    x = path.values.copy()
    x[0] = 0.0  # the coefficient sum starts at p = 1
    size = _fft_length(x.size + kernel.size - 1)
    conv = np.fft.irfft(
        np.fft.rfft(x, size) * np.fft.rfft(kernel[::-1], size), size
    )
    shifts = ai * np.arange(n_shifts)
    return scale_factor * conv[shifts + j_zero]
