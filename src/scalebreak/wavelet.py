"""Analyzing wavelets and the discretized wavelet coefficient.

Two constructions cover the families handled by the package:

* ``make_compact_poly(q)`` -- a polynomial bump on [0,1] with exactly ``q``
  vanishing moments, psi(t) = t^2 (1-t)^2 Q(t), suited to unit-step series;
* ``make_band_limited(lam, mu)`` -- a wavelet whose Fourier transform is an
  even cosine-taper bump supported on [-mu,-lam] u [lam,mu], required for
  band-limited processes (all polynomial moments vanish).

The coefficient of a sampled path at scale ``a`` and shift ``b`` is the
Riemann sum

    e(a, b) = delta/sqrt(a) * sum_{p=1..N} psi((p - b)/a) X_{p delta},

with ``a`` and ``b`` expressed in sample-index units.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.signal import fftconvolve

from .errors import ValidationError

__all__ = [
    "CompactPolyWavelet",
    "BandLimitedWavelet",
    "make_compact_poly",
    "make_band_limited",
    "coeff",
    "psi_hat",
    "coefficients_at_scale",
]

# Dense tabulation of psi_hat for the compact wavelet (used heavily by the
# covariance quadratures): one zero-padded FFT gives the exact transform on
# a uniform grid up to aliasing images below 1e-11.
_FT_SAMPLES = 4096
_FT_NFFT = 1 << 22
_FT_PHASES = 32
_FT_XMAX = 600.0


def _beta3(n):
    # int_0^1 t^n (1-t)^2 dt
    return 2.0 / ((n + 1.0) * (n + 2.0) * (n + 3.0))


def _beta5(n):
    # int_0^1 t^n (1-t)^4 dt
    return 24.0 / ((n + 1.0) * (n + 2.0) * (n + 3.0) * (n + 4.0) * (n + 5.0))


class CompactPolyWavelet:
    """psi(t) = t^2 (1-t)^2 Q(t) on [0,1] with q vanishing moments, unit L2 norm."""

    is_band_limited = False
    a_min = 1.0

    def __init__(self, q_coeffs, q):
        self.q = int(q)
        self.q_coeffs = np.asarray(q_coeffs, dtype=float)
        # Full polynomial coefficients of psi in the monomial basis:
        # t^2 (1-t)^2 = t^2 - 2 t^3 + t^4.
        window = np.array([0.0, 0.0, 1.0, -2.0, 1.0])
        self.poly_coeffs = np.polynomial.polynomial.polymul(window, self.q_coeffs)
        self.support = (0.0, 1.0)
        self._ft_table = None

    def __call__(self, t):
        return self.evaluate(t)

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

    def moment(self, r):
        """int_0^1 t^r psi(t) dt, exact from the Beta-function table."""
        j = np.arange(self.q_coeffs.size)
        return float(np.dot(self.q_coeffs, _beta3(r + j + 2.0)))

    def _build_ft_table(self):
        """Bins k = 0..kmax of the _FT_NFFT-point DFT of the samples.

        Bin k = P j + r (P = _FT_PHASES) is bin j of the (_FT_NFFT / P)-point
        DFT of the samples twiddled by exp(-2 pi i r n / _FT_NFFT), so P
        short transforms give the same bins as the long one.  The grid
        reaches past _FT_XMAX, so interpolation never extrapolates.
        """
        m = _FT_SAMPLES
        samples = self.evaluate(np.arange(m) / m)
        dx = 2.0 * math.pi * m / _FT_NFFT
        kmax = int(_FT_XMAX / dx) + 1
        n_low = kmax // _FT_PHASES + 1
        spec = np.empty(n_low * _FT_PHASES, dtype=complex)
        n = np.arange(m)
        for r in range(_FT_PHASES):
            twiddled = samples * np.exp(-2j * math.pi * r * n / _FT_NFFT)
            spec[r::_FT_PHASES] = np.fft.fft(twiddled, _FT_NFFT // _FT_PHASES)[:n_low]
        table = spec[: kmax + 1] / m
        self._ft_table = (dx * np.arange(table.size), table)

    def psi_hat(self, xi):
        """Fourier transform psi_hat(xi) = int psi(t) exp(-i xi t) dt."""
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        xi = np.atleast_1d(xi)
        if self._ft_table is None:
            self._build_ft_table()
        nodes, table = self._ft_table
        ax = np.abs(xi)
        out = np.interp(ax, nodes, table)
        far = ax > _FT_XMAX
        if np.any(far):
            out[far] = self._quad_psi_hat(ax[far])
        neg = xi < 0.0
        out[neg] = np.conj(out[neg])
        return out[0] if scalar else out

    def _quad_psi_hat(self, xi_abs):
        # Composite Gauss-Legendre fallback for |xi| beyond the table.
        panels = int(np.ceil(np.max(xi_abs) / 40.0)) + 1
        nodes, weights = np.polynomial.legendre.leggauss(24)
        edges = np.linspace(0.0, 1.0, panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        t = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        wts = (half[:, None] * weights[None, :]).ravel()
        vals = self.evaluate(t) * wts
        return np.exp(-1j * np.outer(xi_abs, t)) @ vals


class BandLimitedWavelet:
    """Real even wavelet with psi_hat supported on [-mu,-lam] u [lam,mu].

    psi_hat is the squared-Hann taper A sin^4(pi (|xi|-lam)/(mu-lam)); the
    time-domain wavelet is obtained by numeric inverse transform and is
    truncated, where needed, to the radius where |psi| exceeds 1e-8 of its
    peak.  All polynomial moments vanish because psi_hat is flat zero near 0.
    """

    is_band_limited = True
    a_min = 1.0

    _N_FREQ_NODES = 4096
    _T_CAP = 800.0

    def __init__(self, lam, mu):
        if not 0.0 < lam < mu:
            raise ValidationError("need 0 < lam < mu")
        self.lam = float(lam)
        self.mu = float(mu)
        # Unit L2 norm: ||psi||^2 = (1/pi) int_lam^mu psi_hat^2, and
        # int_0^1 sin^8(pi u) du = 35/128.
        self.amplitude = math.sqrt(math.pi / ((mu - lam) * 35.0 / 128.0))
        nodes, weights = np.polynomial.legendre.leggauss(self._N_FREQ_NODES)
        self._xi_nodes = lam + 0.5 * (mu - lam) * (nodes + 1.0)
        self._xi_weights = 0.5 * (mu - lam) * weights
        self._bump_nodes = self._bump(self._xi_nodes)
        self._kernel_cache = {}
        # Effective support radius from a scan of |psi|.
        t = np.arange(0.0, self._T_CAP, 0.25)
        vals = np.abs(self.evaluate(t))
        thresh = 1e-8 * vals.max()
        above = np.nonzero(vals > thresh)[0]
        self.support_radius = float(t[above[-1]]) + 0.25
        self.support = (-self.support_radius, self.support_radius)

    def _bump(self, x):
        out = np.zeros_like(x)
        inside = (x >= self.lam) & (x <= self.mu)
        u = (x[inside] - self.lam) / (self.mu - self.lam)
        out[inside] = self.amplitude * np.sin(math.pi * u) ** 4
        return out

    def __call__(self, t):
        return self.evaluate(t)

    def evaluate(self, t):
        """psi(t) = (1/pi) int_lam^mu psi_hat(xi) cos(xi t) dxi."""
        t = np.asarray(t, dtype=float)
        scalar = t.ndim == 0
        t = np.atleast_1d(t)
        out = np.empty(t.shape)
        block = 65536 // self._N_FREQ_NODES * 64 or 64
        w = self._xi_weights * self._bump_nodes / math.pi
        for start in range(0, t.size, block):
            ts = t[start : start + block]
            out[start : start + block] = np.cos(np.outer(ts, self._xi_nodes)) @ w
        return out[0] if scalar else out

    def psi_hat(self, xi):
        """The defining bump, evaluated exactly (real and even)."""
        xi = np.asarray(xi, dtype=float)
        scalar = xi.ndim == 0
        out = self._bump(np.abs(np.atleast_1d(xi))).astype(complex)
        return out[0] if scalar else out

    def kernel(self, a):
        """Sampled kernel psi(j/a) for j = -J..J at integer scale a (cached)."""
        a = int(a)
        if a not in self._kernel_cache:
            j_half = int(math.ceil(a * self.support_radius))
            j = np.arange(-j_half, j_half + 1)
            self._kernel_cache[a] = (j_half, self.evaluate(j / a))
        return self._kernel_cache[a]


_compact_cache = {}
_band_cache = {}


def make_compact_poly(q):
    """Construct the compact polynomial wavelet with exactly ``q`` vanishing
    moments.

    The coefficients of Q solve the q * (q+1) homogeneous moment system
    int_0^1 t^r psi(t) dt = 0, r = 0..q-1; the one-dimensional nullspace is
    normalized to unit L2 norm with the q-th moment positive.
    """
    q = int(q)
    if q < 2:
        raise ValidationError("need q >= 2 vanishing moments")
    if q > 6:
        # Beyond q = 6 the polynomial coefficients grow enough that double
        # precision cannot hold the residual moments below 1e-12.
        raise ValidationError("polynomial construction supports q <= 6")
    if q in _compact_cache:
        return _compact_cache[q]
    # The moment system is Hilbert-like and exactly rational, so the
    # nullspace is found by exact elimination over the rationals; float
    # conversion then leaves residual moments at rounding level for any q.
    from fractions import Fraction

    def beta3_frac(n):
        return Fraction(2, (n + 1) * (n + 2) * (n + 3))

    system = [
        [beta3_frac(r + j + 2) for j in range(q + 1)] for r in range(q)
    ]
    pivot_cols = []
    row = 0
    for col in range(q + 1):
        pivot = next(
            (r for r in range(row, q) if system[r][col] != 0), None
        )
        if pivot is None:
            continue
        system[row], system[pivot] = system[pivot], system[row]
        lead = system[row][col]
        system[row] = [x / lead for x in system[row]]
        for r in range(q):
            if r != row and system[r][col] != 0:
                factor = system[r][col]
                system[r] = [a - factor * b for a, b in zip(system[r], system[row])]
        pivot_cols.append(col)
        row += 1
    assert row == q, "moment system unexpectedly singular"
    free = next(j for j in range(q + 1) if j not in pivot_cols)
    null = [Fraction(0)] * (q + 1)
    null[free] = Fraction(1)
    for r, col in enumerate(pivot_cols):
        null[col] = -system[r][free]
    c = np.array([float(x) for x in null])
    w = CompactPolyWavelet(c, q)
    if w.moment(q) < 0.0:
        c = -c
    cols = np.arange(q + 1, dtype=float)[None, :]
    gram = _beta5(cols + cols.T + 4.0)
    c = c / math.sqrt(c @ gram @ c)
    w = CompactPolyWavelet(c, q)
    for r in range(q):
        assert abs(w.moment(r)) <= 1e-12, f"moment {r} fails to vanish"
    _compact_cache[q] = w
    return w


def make_band_limited(lam, mu):
    """Construct the band-limited wavelet for the band ``[lam, mu]``."""
    key = (float(lam), float(mu))
    if key not in _band_cache:
        _band_cache[key] = BandLimitedWavelet(lam, mu)
    return _band_cache[key]


def psi_hat(wavelet, xi):
    """Fourier transform of the analyzing wavelet at ``xi``."""
    return wavelet.psi_hat(xi)


def coeff(path, wavelet, a, b):
    """Wavelet coefficient e(a, b) of the sampled path (see module docs).

    For the compact wavelet the support window [b, b+a] must lie inside
    [0, N]; band-limited evaluation is truncated to the effective support
    and the caller is expected to trim shifts near the path edges.
    """
    a = float(a)
    if a < wavelet.a_min:
        raise ValidationError(f"scale {a} below the minimum {wavelet.a_min}")
    n = path.n
    vals = path.values
    if not wavelet.is_band_limited:
        if b < 0.0 or b + a > n:
            raise ValidationError(
                f"support window [{b}, {b + a}] falls outside the path"
            )
        p_lo = max(1, int(math.ceil(b)))
        p_hi = int(math.floor(b + a))
    else:
        p_lo = max(1, int(math.ceil(b - a * wavelet.support_radius)))
        p_hi = min(n, int(math.floor(b + a * wavelet.support_radius)))
    if p_hi < p_lo:
        return 0.0
    p = np.arange(p_lo, p_hi + 1)
    w = wavelet.evaluate((p - b) / a)
    return float(path.delta / math.sqrt(a) * np.dot(w, vals[p]))


def coefficients_at_scale(path, wavelet, a):
    """All coefficients e(a, a*p), p = 0..floor(N/a)-1, in one pass.

    Matches :func:`coeff` exactly; the sum order over samples is fixed
    (ascending p) so results do not depend on evaluation strategy.
    """
    a = float(a)
    if a < wavelet.a_min:
        raise ValidationError(f"scale {a} below the minimum {wavelet.a_min}")
    n = path.n
    n_shifts = int(math.floor(n / a))
    if n_shifts < 1:
        raise ValidationError("path shorter than one scale window")
    scale_factor = path.delta / math.sqrt(a)
    if not wavelet.is_band_limited and float(a).is_integer():
        ai = int(a)
        kernel = wavelet.evaluate(np.arange(ai) / a)
        blocks = path.values[: n_shifts * ai].reshape(n_shifts, ai)
        return scale_factor * (blocks @ kernel)
    if wavelet.is_band_limited and float(a).is_integer():
        ai = int(a)
        j_half, kernel = wavelet.kernel(ai)
        x = path.values.copy()
        x[0] = 0.0  # the coefficient sum starts at p = 1
        conv = fftconvolve(x, kernel[::-1])
        shifts = ai * np.arange(n_shifts)
        return scale_factor * conv[shifts + j_half]
    return np.array([coeff(path, wavelet, a, a * p) for p in range(n_shifts)])
