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
inverse-CDF transform, a numpy port of the Cephes ``ndtri`` (Moshier
1989), so a given seed reproduces the same path bit for bit on one
machine.  Across CPUs a path can move in its last bits: numpy's ``log``
and FFT may round differently from one instruction set to another.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NumericError, ValidationError

__all__ = [
    "Family",
    "PiecewiseSpec",
    "SampledPath",
    "fgn_autocov",
    "farima_autocov",
    "simulate_stationary",
    "simulate_piecewise",
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


# Cephes ndtri (Moshier 1989): sqrt(2 pi), exp(-2) and the rational
# approximations of the central branch (P0/Q0) and of the tails for
# sqrt(-2 log y) below 8 (P1/Q1) and from 8 on (P2/Q2).  Q0, Q1 and Q2 are
# monic: their leading coefficient 1 is implicit.
_S2PI = 2.50662827463100050242e0
_EXPM2 = 0.13533528323661269189
_P0 = (-5.99633501014107895267e1, 9.80010754185999661536e1,
       -5.66762857469070293439e1, 1.39312609387279679503e1,
       -1.23916583867381258016e0)
_Q0 = (1.95448858338141759834e0, 4.67627912898881538453e0,
       8.63602421390890590575e1, -2.25462687854119370527e2,
       2.00260212380060660359e2, -8.20372256168333339912e1,
       1.59056225126211695515e1, -1.18331621121330003142e0)
_P1 = (4.05544892305962419923e0, 3.15251094599893866154e1,
       5.71628192246421288162e1, 4.40805073893200834700e1,
       1.46849561928858024014e1, 2.18663306850790267539e0,
       -1.40256079171354495875e-1, -3.50424626827848203418e-2,
       -8.57456785154685413611e-4)
_Q1 = (1.57799883256466749731e1, 4.53907635128879210584e1,
       4.13172038254672030440e1, 1.50425385692907503408e1,
       2.50464946208309415979e0, -1.42182922854787788574e-1,
       -3.80806407691578277194e-2, -9.33259480895457427372e-4)
_P2 = (3.23774891776946035970e0, 6.91522889068984211695e0,
       3.93881025292474443415e0, 1.33303460815807542389e0,
       2.01485389549179081538e-1, 1.23716634817820021358e-2,
       3.01581553508235416007e-4, 2.65806974686737550832e-6,
       6.23974539184983293730e-9)
_Q2 = (6.02427039364742014255e0, 3.67983563856160859403e0,
       1.37702099489081330271e0, 2.16236993594496635890e-1,
       1.34204006088543189037e-2, 3.28014464682127739104e-4,
       2.89247864745380683936e-6, 6.79019408009981274425e-9)


def _polevl(x, coef):
    """Cephes ``polevl``: Horner's rule from coef[0], in place."""
    ans = x * coef[0]
    ans += coef[1]
    for c in coef[2:]:
        ans *= x
        ans += c
    return ans


def _p1evl(x, coef):
    """Cephes ``p1evl``: Horner's rule for a monic polynomial, from
    x + coef[0], in place."""
    ans = x + coef[0]
    for c in coef[1:]:
        ans *= x
        ans += c
    return ans


def ndtri(u):
    """Inverse of the standard normal CDF on (0, 1), elementwise over a
    1-d array.

    A port of Cephes ``ndtri`` in its branch order: u above 1 - e^-2 is
    flipped to y = 1 - u, a rational form in y - 1/2 serves y > e^-2, and
    the tails use x = sqrt(-2 log y).  The central branch, about 73 % of
    uniform draws, equals ``scipy.special.ndtri`` bit for bit; the tails
    can differ by a few ulp where numpy's ``log`` rounds differently from
    the C library's.  Values at or outside 0 and 1 are not defined here.
    """
    # A flipped y = 1 - u is exact and below e^-2, so every flipped value
    # takes a tail: the central form runs on u itself, over the whole array.
    c = u - 0.5
    c2 = c * c
    x = c2 * _polevl(c2, _P0)
    x /= _p1evl(c2, _Q0)
    x *= c
    x += c
    x *= _S2PI
    upper = 1.0 - _EXPM2
    tail = np.flatnonzero((u <= _EXPM2) | (u > upper))
    if tail.size:
        y = u.take(tail)
        flip = y > upper
        np.subtract(1.0, y, out=y, where=flip)
        t = np.sqrt(-2.0 * np.log(y))
        x0 = t - np.log(t) / t
        z = 1.0 / t
        x1 = z * _polevl(z, _P1) / _p1evl(z, _Q1)
        far = np.flatnonzero(t >= 8.0)
        if far.size:
            zf = z.take(far)
            x1.put(far, zf * _polevl(zf, _P2) / _p1evl(zf, _Q2))
        x0 -= x1
        np.negative(x0, out=x0, where=~flip)
        x.put(tail, x0)
    return x


def gaussian_draws(rng, size):
    """Standard normal draws through the inverse CDF (no rejection step).

    Each 53-bit generator word w gives u = (w + 1/2) 2^-53, clamped below
    1 so that the last word stays finite, and :func:`ndtri` maps u to a
    Gaussian.  A stream of words gives the same Gaussians on every run of
    one machine.  On another CPU a draw in a tail of :func:`ndtri` (about
    a quarter of all draws) can move by a few ulp, where numpy's ``log``
    rounds differently there.
    """
    u = (rng.integers(0, 1 << 53, size=size) + 0.5) * 2.0 ** -53
    np.minimum(u, 1.0 - 2.0 ** -53, out=u)
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


def _seed(seed):
    """``seed`` as a nonnegative int or None; otherwise ValidationError
    naming ``seed``."""
    seed = _number("seed", seed, int)
    if seed is not None and seed < 0:
        raise ValidationError(f"seed must be nonnegative, got {seed}")
    return seed


def _step(delta, family):
    """The sampling step of ``family``: a finite, positive float, and 1 for
    the unit-step families."""
    delta = _number("delta", delta)
    if not 0.0 < delta < math.inf:
        raise ValidationError(f"delta must be finite and positive, got {delta}")
    if family in UNIT_STEP_FAMILIES and delta != 1.0:
        raise ValidationError(f"family {family.value} is sampled at delta = 1")
    return delta


def _numbers(name, values):
    """``values`` as a tuple of floats, each read by :func:`_number`;
    otherwise ValidationError naming ``name``."""
    try:
        return tuple(float(_number(name, v)) for v in values)
    except TypeError:  # not a sequence, or a None in it
        raise ValidationError(
            f"{name} must be a sequence of numbers, got {values!r}") from None


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
        object.__setattr__(self, "tau_stars", _numbers("tau_stars", self.tau_stars))
        object.__setattr__(self, "exponents", _numbers("exponents", self.exponents))
        sigmas = self.sigmas if self.sigmas is not None else (1.0,) * len(self.exponents)
        object.__setattr__(self, "sigmas", _numbers("sigmas", sigmas))
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
    r[0] = sigma2 * math.exp(math.lgamma(1.0 - 2.0 * d) - 2.0 * math.lgamma(1.0 - d))
    if kmax > 0:
        j = np.arange(kmax, dtype=float)
        r[1:] = r[0] * np.cumprod((j + d) / (j + 1.0 - d))
    out = r[k]
    return out if out.ndim else float(out)


def _circulant_factor(autocov, n):
    """The synthesis amplitudes of the circulant embedding of ``autocov``
    at length ``n``, as one read-only array of n + 1 floats.

    The 2n circulant's first row is r_0 .. r_n, r_{n-1} .. r_1.  Its
    eigenvalues e are real and symmetric, so e_0 .. e_n from one ``rfft``
    hold them all.  An eigenvalue below -1e-8 of the largest raises
    ``NumericError``, and so does a largest eigenvalue that is not
    positive and finite; the test is relative, so scaling the
    autocovariance does not change it.  The rest are clipped at 0, and
    the amplitudes are sqrt(e_0), sqrt(e_k / 2) for 0 < k < n, and
    sqrt(e_n).
    """
    if n < 2:
        raise ValidationError("need n >= 2")
    r = np.asarray(autocov(np.arange(n + 1)), dtype=float)
    if r.shape != (n + 1,) or not np.all(np.isfinite(r)):
        raise ValidationError("autocov must return finite values for lags 0..n")
    eigs = np.fft.rfft(np.concatenate([r, r[-2:0:-1]])).real
    top = eigs.max()
    if eigs.min() < -1e-8 * top:
        raise NumericError(
            f"circulant embedding of the autocovariance has the negative "
            f"eigenvalue {eigs.min():.3g} at n={n}"
        )
    if not 0.0 < top < math.inf:
        raise NumericError(
            f"circulant embedding of the autocovariance has the largest "
            f"eigenvalue {top:.3g} at n={n}; it must be positive and finite"
        )
    eigs = np.clip(eigs, 0.0, None)
    amp = np.empty(n + 1)
    amp[0] = math.sqrt(eigs[0])
    amp[n] = math.sqrt(eigs[n])
    np.sqrt(eigs[1:n] / 2.0, out=amp[1:n])
    amp.flags.writeable = False
    return amp


def _circulant_draw(amp, rng):
    """One stationary vector of length n from the amplitudes of
    :func:`_circulant_factor` and 2n Gaussian draws z from ``rng``.

    The Hermitian spectrum v has v_0 = amp_0 z_0, v_n = amp_n z_1 and
    v_k = amp_k (z_{k+1} + i z_{n+k}) for 0 < k < n.  Its FFT is real and
    equals 2n times the inverse real FFT of conj(v_0 .. v_n).
    """
    n = amp.size - 1
    m = 2 * n
    z = gaussian_draws(rng, m)
    w = np.empty(n + 1, dtype=complex)
    w[0] = amp[0] * z[0]
    w[n] = amp[n] * z[1]
    half = amp[1:n]
    w.real[1:n] = half * z[2 : n + 1]
    w.imag[1:n] = half * -z[n + 1 :]
    return np.fft.irfft(w, m)[:n] * math.sqrt(m)


def simulate_stationary(autocov, n, seed=None):
    """Draw an exact zero-mean stationary Gaussian vector of length ``n``.

    ``autocov`` maps an array of lags to covariances.  The sample is built
    by circulant embedding of the covariance (Davies-Harte), in two steps:
    the embedding's spectrum is factored once (an eigenvalue below -1e-8
    of the largest, or a largest one that is not positive and finite,
    raises ``NumericError``), and then 2n Gaussian draws are shaped by it through
    one inverse real FFT.  :func:`simulate_piecewise` caches the first
    step per segment design and draws exactly as this function does.

    Parameters
    ----------
    autocov : callable
        Lag -> covariance, evaluated on 0..n.
    n : int
        Output length, at least 2.
    seed : int, numpy.random.Generator or None
        The seed of a new generator, or the generator to draw from.
    """
    n = _number("n", n, int)
    if n is None:
        raise ValidationError("need n >= 2")
    if not isinstance(seed, np.random.Generator):
        seed = _seed(seed)
    rng = np.random.default_rng(seed)
    return _circulant_draw(_circulant_factor(autocov, n), rng)


# Segment designs whose circulant factor stays cached.  An entry holds
# L + 1 floats for a segment of L points: the segments of one N = 20 000
# path take about 160 KB, and 8 entries of at most N + 1 floats each
# bound the cache (1.3 MB at N = 20 000).
_FACTORS_CACHED = 8


@functools.lru_cache(maxsize=_FACTORS_CACHED)
def _segment_factor(family, exponent, sigma, length):
    """The read-only :func:`_circulant_factor` of one fgn or farima
    segment of ``length`` points, or of the ``length - 1`` increments of
    an fbm segment, cached per (family, exponent, sigma, length): it does
    not depend on the seed, so replicates of one design share it."""
    if family is Family.FGN:
        h = 0.5 * (1.0 + exponent)  # D = 2H - 1
        return _circulant_factor(lambda k: fgn_autocov(h, sigma ** 2, k), length)
    if family is Family.FARIMA:
        d = 0.5 * exponent  # D = 2d
        return _circulant_factor(lambda k: farima_autocov(d, sigma ** 2, k), length)
    return _circulant_factor(lambda k: fgn_autocov(exponent, sigma ** 2, k), length - 1)


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

    The circulant spectrum of an fgn, farima or fbm segment depends on its
    design, not on the seed, so it is computed once per (family, exponent,
    sigma, length) and cached for the last 8 such designs: replicates of
    one design only draw.  Each segment's draws and their arithmetic are
    those of :func:`simulate_stationary` on one generator, so a cached
    spectrum gives the same path bit for bit.
    """
    n = _number("n", n, int)
    if n is None:
        raise ValidationError("n must be a number, got None")
    delta = _step(delta, spec.family)
    bounds = segment_bounds(n, spec.tau_stars)
    if any(hi - lo < 2 for lo, hi in bounds):
        raise ValidationError("every segment must contain at least 2 points")
    rng = np.random.default_rng(_seed(seed))
    values = np.empty(n + 1)
    for (lo, hi), expo, sig in zip(bounds, spec.exponents, spec.sigmas):
        length = hi - lo
        if spec.family is Family.LOCFRAC:
            seg = _locfrac_segment(length, delta, expo, sig, spec.freq_band, rng)
        else:
            seg = _circulant_draw(_segment_factor(spec.family, expo, sig, length), rng)
            if spec.family is Family.FBM:
                seg = np.concatenate([[0.0], np.cumsum(seg)])
        values[lo:hi] = seg
    return SampledPath(values=values, delta=delta)
