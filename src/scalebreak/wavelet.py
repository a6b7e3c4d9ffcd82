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

with ``a`` and ``b`` expressed in sample-index units.  The package
evaluates it at integer scales ``a`` and on each scale's own shift grid
b = a p.
"""

from __future__ import annotations

import functools
import math

import numpy as np
from scipy.signal import fftconvolve

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


@functools.cache
def _legendre_rule(n):
    """Gauss-Legendre nodes and weights on [-1, 1], computed once per
    process: the eigenproblem of order n takes seconds at n = 4096."""
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = False
    weights.flags.writeable = False
    return nodes, weights


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

    def kernel(self, a):
        """Sampled kernel psi(j/a) for j = 0..a-1 at integer scale a, and
        the index of j = 0 in it."""
        a = int(a)
        return 0, self.evaluate(np.arange(a) / a)

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
        nodes, weights = _legendre_rule(self._N_FREQ_NODES)
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
        """Sampled kernel psi(j/a) for j = -J..J at integer scale a, and
        the index J of j = 0 in it (cached)."""
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


def coefficients_at_scale(path, wavelet, a):
    """All coefficients e(a, a*p), p = 0..floor(N/a)-1, at the integer scale
    ``a``, in one pass.

    The sum order over samples is fixed (ascending p) so results do not
    depend on evaluation strategy.
    """
    a = float(a)
    if a < wavelet.a_min:
        raise ValidationError(f"scale {a} below the minimum {wavelet.a_min}")
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
    conv = fftconvolve(x, kernel[::-1])
    shifts = ai * np.arange(n_shifts)
    return scale_factor * conv[shifts + j_zero]
