"""Exact simulators for piecewise Gaussian processes.

Four families are supported, each with a per-segment scaling exponent that
jumps at prescribed fractions of the observation window:

* fractional Gaussian noise (``fgn``), spectral pole exponent ``D in (0,1)``;
* Gaussian FARIMA(0,d,0) (``farima``), parametrised here by ``D = 2d``;
* fractional Brownian motion (``fbm``), Hurst exponent ``H in (0,1)``;
* band-limited "locally fractional" processes (``locfrac``), exponent
  ``H`` real, power-law spectrum on a frequency band ``[f_min, f_max]``.

Stationary families are sampled exactly by circulant embedding, which is
nonnegative for every fgn and farima exponent (Craigmile 2003); an
autocovariance whose embedding is not is refused.  The band-limited family
is sampled by spectral synthesis on a frequency grid fine enough that no
aliasing occurs over the observation window.  All draws pass through an
inverse-CDF transform so a given seed reproduces the same path bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.special import gammaln, ndtri

from .errors import NumericError, ValidationError

__all__ = [
    "Family",
    "PiecewiseSpec",
    "SampledPath",
    "fgn_autocov",
    "farima_autocov",
    "simulate_stationary",
    "simulate_piecewise",
    "add_polynomial_trend",
    "gaussian_draws",
]


class Family(str, Enum):
    FGN = "fgn"
    FARIMA = "farima"
    FBM = "fbm"
    LOCFRAC = "locfrac"


# Everything except locfrac is observed on the unit-step time grid.
UNIT_STEP_FAMILIES = (Family.FGN, Family.FARIMA, Family.FBM)


def _family(value):
    """``value`` as a Family; otherwise ValidationError naming the families."""
    try:
        return Family(value)
    except ValueError:
        names = ", ".join(f.value for f in Family)
        raise ValidationError(f"family must be one of {names}, got {value!r}") from None


def gaussian_draws(rng, size):
    """Standard normal draws through the inverse CDF (no rejection step).

    53-bit uniforms are mapped through ``ndtri`` so that a stream of
    generator words produces the same Gaussians on any platform.
    """
    u = (rng.integers(0, 1 << 53, size=size) + 0.5) * 2.0 ** -53
    return ndtri(u)


def _number(name, value, kind=float):
    """``value`` as ``kind``, None kept; otherwise ValidationError naming
    ``name``.  A string is read as a float first, and an int option takes
    an integer-valued number (3.0 or "3.0") and refuses a fraction.  A
    boolean is not a number here."""
    if value is None:
        return None
    try:
        if isinstance(value, bool):
            raise TypeError
        read = float(value) if isinstance(value, str) else value
        number = kind(read)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"{name} must be a number, got {value!r}") from None
    if kind is int and number != read:
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    return number


def _step(delta, family):
    """The sampling step of ``family``: a finite, positive float, and 1 for
    the unit-step families."""
    delta = _number("delta", delta)
    if not 0.0 < delta < math.inf:
        raise ValidationError(f"delta must be finite and positive, got {delta}")
    if family in UNIT_STEP_FAMILIES and delta != 1.0:
        raise ValidationError(f"family {family.value} is sampled at delta = 1")
    return delta


def _band(name, band):
    """(lo, hi) as floats; a band must be two finite numbers with
    0 < lo < hi."""
    try:
        lo, hi = (float(x) for x in band)
    except (TypeError, ValueError):
        raise ValidationError(f"{name} must be two numbers, got {band!r}") from None
    if not (math.isfinite(hi) and 0.0 < lo < hi):
        raise ValidationError(f"{name} needs finite 0 < lo < hi, got {band!r}")
    return lo, hi


@dataclass(frozen=True)
class PiecewiseSpec:
    """Parameters of a piecewise process: segment fractions, exponents, scales.

    ``tau_stars`` are the m change fractions, strictly increasing in (0,1);
    ``exponents`` holds the m+1 per-segment exponents (D for fgn/farima,
    H for fbm/locfrac); ``sigmas`` the per-segment scale parameters.
    ``freq_band = (f_min, f_max)`` is required for locfrac only.
    """

    family: Family
    tau_stars: tuple = ()
    exponents: tuple = (0.5,)
    sigmas: tuple | None = None
    freq_band: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", _family(self.family))
        object.__setattr__(self, "tau_stars", tuple(float(t) for t in self.tau_stars))
        object.__setattr__(self, "exponents", tuple(float(e) for e in self.exponents))
        sigmas = self.sigmas if self.sigmas is not None else (1.0,) * len(self.exponents)
        object.__setattr__(self, "sigmas", tuple(float(s) for s in sigmas))
        taus = self.tau_stars
        if any(not 0.0 < t < 1.0 for t in taus):
            raise ValidationError("change fractions must lie strictly inside (0,1)")
        if any(b <= a for a, b in zip(taus, taus[1:])):
            raise ValidationError("change fractions must be strictly increasing")
        if len(self.exponents) != len(taus) + 1:
            raise ValidationError(
                f"need {len(taus) + 1} exponents for {len(taus)} change points, "
                f"got {len(self.exponents)}"
            )
        if len(self.sigmas) != len(self.exponents):
            raise ValidationError("sigmas and exponents must have equal length")
        if any(not (s > 0.0 and 0.0 < s * s < math.inf) for s in self.sigmas):
            raise ValidationError("sigmas must be positive with a finite, nonzero square")
        if self.family in (Family.FGN, Family.FARIMA):
            if any(not 0.0 < d < 1.0 for d in self.exponents):
                raise ValidationError("fgn/farima exponent D must lie in (0,1)")
        elif self.family is Family.FBM:
            if any(not 0.0 < h < 1.0 for h in self.exponents):
                raise ValidationError("fbm Hurst exponent must lie in (0,1)")
        if self.family is Family.LOCFRAC:
            if self.freq_band is None:
                raise ValidationError("locfrac requires freq_band=(f_min, f_max)")
            object.__setattr__(self, "freq_band", _band("freq_band", self.freq_band))
        elif self.freq_band is not None:
            raise ValidationError("freq_band only applies to the locfrac family")

    @property
    def m(self):
        return len(self.tau_stars)


@dataclass(frozen=True)
class SampledPath:
    """A finite sample ``(X_0, X_delta, ..., X_{N delta})`` of the process."""

    values: np.ndarray
    delta: float = 1.0

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 3:
            raise ValidationError("path must be a 1-d array with N >= 2")
        if not np.all(np.isfinite(vals)):
            raise ValidationError("path contains non-finite values")
        if not self.delta > 0.0:
            raise ValidationError("sampling step delta must be positive")

    @property
    def n(self):
        """Number of sampling steps N (the array holds N+1 values)."""
        return self.values.size - 1


def fgn_autocov(H, sigma2, k):
    """Autocovariance of unit-step fractional Gaussian noise at lag ``k``.

    r(k) = sigma2/2 * (|k+1|^{2H} - 2|k|^{2H} + |k-1|^{2H}); r(0) = sigma2.
    """
    if not 0.0 < H < 1.0:
        raise ValidationError("Hurst exponent must lie in (0,1)")
    if not sigma2 > 0.0:
        raise ValidationError("sigma2 must be positive")
    k = np.abs(np.asarray(k, dtype=float))
    two_h = 2.0 * H
    r = 0.5 * sigma2 * ((k + 1.0) ** two_h - 2.0 * k ** two_h + np.abs(k - 1.0) ** two_h)
    return r if r.ndim else float(r)


def farima_autocov(d, sigma2, k):
    """Autocovariance of Gaussian FARIMA(0,d,0) at lag ``k``.

    Base case r(0) = sigma2 * Gamma(1-2d)/Gamma(1-d)^2, then the ratio
    recursion r(k+1) = r(k) * (k+d)/(k+1-d).  ``d`` must lie in (0, 1/2);
    the spectral pole exponent is D = 2d.
    """
    if not 0.0 < d < 0.5:
        raise ValidationError("memory parameter d must lie in (0, 1/2)")
    if not sigma2 > 0.0:
        raise ValidationError("sigma2 must be positive")
    k = np.asarray(k)
    if np.any(k < 0):
        raise ValidationError("lags must be nonnegative")
    kmax = int(np.max(k)) if k.size else 0
    r = np.empty(kmax + 1)
    r[0] = sigma2 * math.exp(gammaln(1.0 - 2.0 * d) - 2.0 * gammaln(1.0 - d))
    if kmax > 0:
        j = np.arange(kmax, dtype=float)
        r[1:] = r[0] * np.cumprod((j + d) / (j + 1.0 - d))
    out = r[k]
    return out if out.ndim else float(out)


def simulate_stationary(autocov, n, seed=None, *, rng=None):
    """Draw an exact zero-mean stationary Gaussian vector of length ``n``.

    ``autocov`` maps an array of lags to covariances.  The sample is built
    by circulant embedding of the covariance (Davies-Harte).  An embedding
    with an eigenvalue below -1e-8 of the largest raises ``NumericError``.

    Parameters
    ----------
    autocov : callable
        Lag -> covariance, evaluated on 0..n.
    n : int
        Output length, at least 2.
    seed : int, optional
        Ignored when an explicit generator ``rng`` is supplied.
    """
    n = int(n)
    if n < 2:
        raise ValidationError("need n >= 2")
    if rng is None:
        rng = np.random.Generator(np.random.PCG64(seed))
    r = np.asarray(autocov(np.arange(n + 1)), dtype=float)
    if r.shape != (n + 1,) or not np.all(np.isfinite(r)):
        raise ValidationError("autocov must return finite values for lags 0..n")
    # First row of the 2n circulant: r_0 .. r_n, r_{n-1} .. r_1.
    first_row = np.concatenate([r, r[-2:0:-1]])
    eigs = np.fft.fft(first_row).real
    tol = 1e-8 * max(eigs.max(), 1.0)
    if eigs.min() < -tol:
        raise NumericError(
            f"circulant embedding of the autocovariance has the negative "
            f"eigenvalue {eigs.min():.3g} at n={n}"
        )
    eigs = np.clip(eigs, 0.0, None)
    m = 2 * n
    z = gaussian_draws(rng, m)
    v = np.empty(m, dtype=complex)
    v[0] = math.sqrt(eigs[0]) * z[0]
    v[n] = math.sqrt(eigs[n]) * z[1]
    half = np.sqrt(eigs[1:n] / 2.0)
    v[1:n] = half * (z[2 : n + 1] + 1j * z[n + 1 :])
    v[n + 1 :] = np.conj(v[1:n][::-1])
    return np.fft.fft(v).real[:n] / math.sqrt(m)


def _locfrac_inv_rho_sq(xi, H, sigma, fmin, fmax):
    """1/rho^2 on the synthesis grid: in-band power law, Gaussian-tapered
    continuation of the boundary value outside the band (keeps the
    integrability condition while leaving in-band statistics untouched)."""
    # c is xi inside the band and the nearest band edge outside it, where the
    # taper's width is half the edge.  The edges' powers stay scalars: numpy's
    # array power can differ from the scalar one in the last bit.  The power
    # is taken on c, so the out-of-band values np.where drops cannot overflow.
    p = -(2.0 * H + 1.0)
    c = np.clip(xi, fmin, fmax)
    power = np.where(xi < fmin, fmin**p, np.where(xi > fmax, fmax**p, c**p))
    return sigma**2 * power * np.exp(-(((xi - c) / (0.5 * c)) ** 2))


def _locfrac_segment(n_points, delta, H, sigma, band, rng):
    """Spectral synthesis of one locally fractional segment from its origin.

    Riemann sum of the harmonizable representation on a uniform frequency
    grid with step 2*pi/(Nfft*delta) < 2*pi/(segment span), evaluated at the
    sample times through one FFT.  X(0) = 0 exactly.
    """
    fmin, fmax = band
    xi_cap = 3.0 * fmax
    if xi_cap * delta > math.pi:
        raise ValidationError(
            "sampling step too coarse for the requested frequency band"
        )
    nfft = 1 << max(int(math.ceil(math.log2(4.0 * n_points))), 8)
    dxi = 2.0 * math.pi / (nfft * delta)
    if dxi >= fmax:
        raise ValidationError(
            "segment too short at this sampling step: its frequency grid "
            "steps past the band"
        )
    jmax = min(nfft // 2 - 1, int(math.ceil(xi_cap / dxi)))
    xi = dxi * np.arange(1, jmax + 1)
    z = gaussian_draws(rng, 2 * jmax)
    with np.errstate(over="raise"):
        try:
            amp = np.sqrt(2.0 * dxi * _locfrac_inv_rho_sq(xi, H, sigma, fmin, fmax))
            w = np.zeros(nfft, dtype=complex)
            w[1 : jmax + 1] = amp * (z[:jmax] - 1j * z[jmax:])
            f = np.fft.ifft(w).real * nfft
            return f[:n_points] - f[0]
        except (OverflowError, FloatingPointError):
            raise ValidationError(
                f"exponent {H} with scale {sigma} overflows the spectrum on the band"
            ) from None


def segment_bounds(n, tau_stars):
    """Index boundaries of the m+1 segments over n+1 sample slots."""
    cuts = [0] + [int(math.floor(n * t)) for t in tau_stars] + [n + 1]
    return list(zip(cuts[:-1], cuts[1:]))


def simulate_piecewise(spec, n, delta=1.0, seed=None):
    """Simulate a piecewise path: independent segments, each restarted at
    its own origin, concatenated at the change indices [n*tau_j].

    fgn/farima segments are stationary; fbm segments are cumulative sums of
    exact fGn increments starting from 0; locfrac segments come from
    spectral synthesis.  Returns a :class:`SampledPath` with n+1 values.
    """
    spec = spec if isinstance(spec, PiecewiseSpec) else PiecewiseSpec(**spec)
    n = int(n)
    delta = _step(delta, spec.family)
    bounds = segment_bounds(n, spec.tau_stars)
    if any(hi - lo < 2 for lo, hi in bounds):
        raise ValidationError("every segment must contain at least 2 points")
    if seed is not None and not seed >= 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    values = np.empty(n + 1)
    for (lo, hi), expo, sig in zip(bounds, spec.exponents, spec.sigmas):
        length = hi - lo
        if spec.family is Family.FGN:
            h = 0.5 * (1.0 + expo)  # D = 2H - 1
            seg = simulate_stationary(
                lambda k: fgn_autocov(h, sig ** 2, k), length, rng=rng
            )
        elif spec.family is Family.FARIMA:
            d = 0.5 * expo  # D = 2d
            seg = simulate_stationary(
                lambda k: farima_autocov(d, sig ** 2, k), length, rng=rng
            )
        elif spec.family is Family.FBM:
            inc = simulate_stationary(
                lambda k: fgn_autocov(expo, sig ** 2, k), length - 1, rng=rng
            )
            seg = np.concatenate([[0.0], np.cumsum(inc)])
        else:
            seg = _locfrac_segment(length, delta, expo, sig, spec.freq_band, rng)
        values[lo:hi] = seg
    return SampledPath(values=values, delta=delta)


def add_polynomial_trend(path, coeffs):
    """Add the polynomial trend sum_r coeffs[r] * (i*delta)^r to the path."""
    coeffs = np.asarray(coeffs, dtype=float)
    t = path.delta * np.arange(path.values.size)
    trend = np.polynomial.polynomial.polyval(t, coeffs)
    return SampledPath(values=path.values + trend, delta=path.delta)
