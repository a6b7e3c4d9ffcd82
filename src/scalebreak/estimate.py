"""Per-segment exponent estimation and goodness of fit.

Ordinary least squares on the log-variance vector gives the slope/intercept
pair; feasible generalized least squares reweights with a plug-in estimate
of the asymptotic covariance of the normalized log-variances,

    eps_i = sqrt((k'-k)/a) * (log S_i - log E S_i)  ->  N(0, Gamma),

and the Gamma-weighted residual of the FGLS fit is asymptotically
chi-square with ell-2 degrees of freedom.  The fits take y = log S as a
plain array and the segment's effective size n_eff = (k'-k)/a from their
caller.

The Gamma matrices implemented here follow from the covariance structure
of nonoverlapping-shift wavelet variances with integer scale ratios
(d = gcd(r_p, r_q), (p, q) = (r_p, r_q) / d coprime):

* spectral form (stationary long-memory series, exponent alpha = D; and
  band-limited processes, alpha = 2H+1 with spectral exponent D = 2H+1):

    gamma_{r_p r_q} = 2 d (p q)^(1-D) / (1-2w) * sum_m [ Re A(m) / J ]^2,
    A(m) = int_0^inf psi_hat(p eta) conj(psi_hat(q eta)) eta^{-D} e^{i m eta} d eta,
    J    = int_0^inf |psi_hat(u)|^2 u^{-D} du.

  By Parseval the lag sum is (pi/2) int_0^{2 pi} |F|^2 / J^2, with F the
  2 pi-periodization of A's integrand g extended to eta < 0 as conj(g).
  Compact wavelets sample F on the lattice 2 pi n / M (M = 1024) from one
  closed-form psi_hat table, cut where an integration-by-parts bound
  leaves at most 1e-10 of J.  Band-limited wavelets need mu <= pi: g then
  lies in (0, pi], nothing folds, and the sum is pi int |g|^2 / J^2.
  w is the trim fraction of the scale grid (0 for compact wavelets);

* time-domain form (piecewise self-similar paths, alpha = 2H+1):

    gamma_pq = 2 d / (r_p r_q)^{2H} * sum_k [ W_pq(d k) / W_11(0) ]^2,
    W_pq(c)  = int_0^1 int_0^1 psi(t) psi(t') |c + r_p t - r_q t'|^{2H} dt dt'.

  r_p r_q W_pq(c) integrates |c+s|^{2H} against the cross-correlation h
  of the two dilated wavelets, which depends on neither H nor c.  Each
  pair's Gauss-Legendre panels and h values are tabulated once per grid,
  and Gamma(H) evaluates W at a whole block of lags from them.

Both reduce to 2 r sum (corr_m)^2 on the diagonal.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import chdtri, gammaincc, ndtri

from .errors import NumericError, ValidationError
from .synth import Family

__all__ = [
    "ThetaEstimate",
    "GofResult",
    "ols_theta",
    "fgls_theta",
    "gof",
    "confidence_interval",
    "gamma_lrd",
    "gamma_fbm",
    "gamma_locfrac",
    "make_gamma",
    "exponent_from_alpha",
    "chi2_sf",
    "chi2_quantile",
]

_RIDGE = 1e-8
_LAG_RTOL = 1e-10
_MAX_LAG_TERMS = 4096

_log = logging.getLogger("scalebreak")


@dataclass(frozen=True)
class ThetaEstimate:
    """Slope/intercept estimate with its asymptotic covariance.

    ``alpha`` is the scaling exponent of the family's power law (D for
    stationary long-memory series, 2H+1 for self-similar and band-limited
    processes); ``cov`` is the 2x2 covariance of (alpha, log beta), already
    divided by the effective sample count.
    """

    alpha: float
    log_beta: float
    cov: np.ndarray | None
    n_eff: float | None
    fallback_to_ols: bool = False


@dataclass(frozen=True)
class GofResult:
    statistic: float
    df: int
    p_value: float


def chi2_sf(x, df):
    """Upper tail of the chi-square distribution via the regularized
    incomplete gamma function."""
    return float(gammaincc(df / 2.0, x / 2.0))


def chi2_quantile(level, df):
    """Chi-square quantile: chi2_sf(chi2_quantile(q, df), df) = 1 - q."""
    if not 0.0 < level < 1.0:
        raise ValidationError("quantile level must lie in (0,1)")
    return float(chdtri(df, 1.0 - level))


def exponent_from_alpha(alpha, family):
    """The family's natural exponent: D = alpha for stationary long-memory
    series, H = (alpha-1)/2 for self-similar and band-limited processes."""
    family = Family(family)
    if family in (Family.FGN, Family.FARIMA):
        return float(alpha)
    return 0.5 * (float(alpha) - 1.0)


def ols_theta(y, design, gamma=None, n_eff=None):
    """Closed-form least squares for (alpha, log beta).

    When the covariance matrix ``gamma`` is supplied, the estimate carries
    cov = (L'L)^-1 L' Gamma L (L'L)^-1 / n_eff.
    """
    y = np.asarray(y, dtype=float)
    x = design[:, 0]
    if y.shape != x.shape:
        raise ValidationError("y and design have mismatched lengths")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    if not sxx > 0.0:
        raise ValidationError("design matrix is rank deficient")
    alpha = float(xc @ y) / sxx
    log_beta = float(y.mean() - alpha * x.mean())
    cov = None
    if gamma is not None:
        g = np.asarray(gamma, dtype=float)
        if n_eff is None:
            raise ValidationError("covariance scaling requires n_eff")
        ltl_inv = np.linalg.inv(design.T @ design)
        cov = ltl_inv @ (design.T @ g @ design) @ ltl_inv / n_eff
    return ThetaEstimate(alpha, log_beta, cov, n_eff)


def _regularize(gamma):
    gamma = np.asarray(gamma, dtype=float)
    ell = gamma.shape[0]
    return gamma + (_RIDGE * np.trace(gamma) / ell) * np.eye(ell)


def fgls_theta(y, design, gamma_tilde, n_eff=None):
    """Feasible GLS with the plug-in weight matrix ``gamma_tilde``.

    The matrix is ridge-regularized before inversion; if it is still
    numerically singular the OLS estimate is returned with
    ``fallback_to_ols`` set.
    """
    greg = _regularize(gamma_tilde)
    try:
        gi_l = np.linalg.solve(greg, design)
        gi_y = np.linalg.solve(greg, np.asarray(y, dtype=float))
        a = design.T @ gi_l
        theta = np.linalg.solve(a, design.T @ gi_y)
        m = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        theta = None
    if theta is None or not np.all(np.isfinite(theta)):
        base = ols_theta(y, design, n_eff=n_eff)
        return ThetaEstimate(
            base.alpha, base.log_beta, base.cov, n_eff, fallback_to_ols=True
        )
    cov = m / n_eff if n_eff is not None else None
    return ThetaEstimate(float(theta[0]), float(theta[1]), cov, n_eff)


def gof(y, design, theta, gamma_tilde, n_eff):
    """Goodness-of-fit statistic T = n_eff * ||y - L theta||^2_{Gamma^-1},
    asymptotically chi-square with ell-2 degrees of freedom."""
    y = np.asarray(y, dtype=float)
    resid = y - design @ np.array([theta.alpha, theta.log_beta])
    greg = _regularize(gamma_tilde)
    t_stat = float(n_eff) * float(resid @ np.linalg.solve(greg, resid))
    t_stat = max(t_stat, 0.0)
    df = y.size - 2
    return GofResult(statistic=t_stat, df=df, p_value=chi2_sf(t_stat, df))


def confidence_interval(estimate, level):
    """Gaussian confidence intervals for (alpha, log beta) at ``level``."""
    if not 0.0 <= level < 1.0:
        raise ValidationError("confidence level must lie in [0, 1)")
    if estimate.cov is None:
        raise ValidationError("estimate carries no covariance")
    z = float(ndtri(0.5 * (1.0 + level)))
    half = z * np.sqrt(np.clip(np.diag(estimate.cov), 0.0, None))
    return (
        (estimate.alpha - half[0], estimate.alpha + half[0]),
        (estimate.log_beta - half[1], estimate.log_beta + half[1]),
    )


# ---------------------------------------------------------------------------
# Asymptotic covariance matrices
# ---------------------------------------------------------------------------

_N_QUAD = 8192  # Simpson intervals per integral
_LATTICE = 1024  # M, frequency lattice points per period 2 pi
_TAIL = 1e-10  # bound on the part of J beyond the compact wavelet's cutoff

# Recorded in result metadata so runs are reproducible bit for bit.
QUADRATURE_META = {"simpson_intervals": _N_QUAD, "lattice_size": _LATTICE}


def _simpson_rule(lo, hi):
    """Nodes and weights of composite Simpson with _N_QUAD intervals on
    [lo, hi].  The step is (hi - lo) / _N_QUAD: the difference of two nodes
    loses about 12 bits when lo is far from 0."""
    w = np.ones(_N_QUAD + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.linspace(lo, hi, _N_QUAD + 1), w * ((hi - lo) / _N_QUAD / 3.0)


def _power(eta, d_exp):
    """eta^-D, taken as 0 at eta = 0, where psi_hat's zero of order q wins."""
    out = np.zeros_like(eta)
    np.power(eta, -d_exp, out=out, where=eta > 0.0)
    return out


def _effective_cutoff(wavelet, d_exp):
    """Radius X with int_X^inf |psi_hat|^2 u^-D du at most _TAIL J.

    psi vanishes to second order at 0 and 1, so integration by parts gives
    |psi_hat(u)| <= sum_{k>=2} c_k u^-(k+1), c_k = |P^(k)(0)| + |P^(k)(1)|,
    and the tail is at most sum_{k,l} c_k c_l X^-e / e, e = k + l + 1 + D.
    J is at least its part on [0, 8 pi].  X is the first point of a
    geometric grid (ratio 1.0034) where the bound falls below _TAIL J.
    """
    c = np.abs(wavelet.end_derivatives).sum(axis=0)[2:]
    k = np.arange(2, c.size + 2)
    e = k[:, None] + k + 1.0 + d_exp
    u, w = _simpson_rule(0.0, 8.0 * math.pi)
    target = _TAIL * float(np.abs(wavelet.psi_hat(u)) ** 2 @ (_power(u, d_exp) * w))
    x = np.geomspace(1.0, 1e6, 4097)
    bound = np.sum(np.outer(c, c) / e * x[:, None, None] ** -e, axis=(1, 2))
    return float(x[np.argmax(bound <= target)])


def _lattice_sums(wavelet, d_exp):
    """Unnormalized pair sums of a compact wavelet, and J, on the lattice
    eta_n = n h, h = 2 pi / M.

    psi_hat is tabulated once at n h up to the cutoff, so psi_hat(p eta_n)
    is entry p n.  The samples of g at n and of conj(g) at -n fold mod M
    into F, and the pair sum is (pi/2) h sum_j |F_j|^2.
    """
    cutoff = _effective_cutoff(wavelet, d_exp)
    _log.debug("spectral gamma: lattice M = %d, cutoff %.6g", _LATTICE, cutoff)
    h = 2.0 * math.pi / _LATTICE
    eta = h * np.arange(int(cutoff / h) + 1)
    power = _power(eta, d_exp)
    table = np.empty(eta.size, dtype=complex)
    for s in range(0, eta.size, 1 << 14):  # psi_hat's temporaries scale with its input
        table[s : s + (1 << 14)] = wavelet.psi_hat(eta[s : s + (1 << 14)])

    def pair_sum(p, q):
        count = (eta.size - 1) // q + 1
        folded = np.zeros(-(-count // _LATTICE) * _LATTICE, dtype=complex)
        folded[:count] = table[: p * count : p] * np.conj(table[: q * count : q])
        folded[:count] *= power[:count]
        folded = folded.reshape(-1, _LATTICE).sum(axis=0)
        f = folded + np.conj(folded[-np.arange(_LATTICE)])
        return 0.5 * math.pi * h * float(np.vdot(f, f).real)

    return pair_sum, h * float(np.abs(table) ** 2 @ power)


def _band_sums(wavelet, d_exp):
    """Unnormalized pair sums of a band-limited wavelet with mu <= pi, and J.

    The pair's g lives on [lam/p, mu/q], inside (0, pi], so nothing folds
    and the pair sum is pi int |g|^2, one Simpson integral.
    """

    def pair_sum(p, q):
        lo, hi = wavelet.lam / p, wavelet.mu / q
        if hi <= lo:
            return 0.0
        eta, w = _simpson_rule(lo, hi)
        g = np.abs(wavelet.psi_hat(p * eta) * wavelet.psi_hat(q * eta)) ** 2
        return math.pi * float(g @ (_power(eta, 2.0 * d_exp) * w))

    eta, w = _simpson_rule(wavelet.lam, wavelet.mu)
    return pair_sum, float(np.abs(wavelet.psi_hat(eta)) ** 2 @ (_power(eta, d_exp) * w))


def _spectral_gamma(d_exp, grid, wavelet):
    """Spectral-form Gamma, one pair sum per coprime ratio pair, for the
    variance statistic trimmed by ``grid.trim``.

    With d = gcd(r_p, r_q) and (p, q) = (r_p, r_q) / d, substituting
    u = d eta gives gamma_{r_p r_q} = d gamma_{p q}.
    """
    sums = _band_sums if wavelet.is_band_limited else _lattice_sums
    pair_sum, j_norm = sums(wavelet, d_exp)
    if not j_norm > 0.0:
        raise NumericError("normalizing integral vanished")
    scale = 2.0 / ((1.0 - 2.0 * grid.trim) * j_norm**2)
    ratios = grid.ratios
    ell = len(ratios)
    gam = np.empty((ell, ell))
    coprime = {}
    for i in range(ell):
        for k in range(i, ell):
            d = math.gcd(ratios[i], ratios[k])
            p, q = ratios[i] // d, ratios[k] // d
            if (p, q) not in coprime:
                coprime[p, q] = scale * (p * q) ** (1.0 - d_exp) * pair_sum(p, q)
            gam[i, k] = gam[k, i] = d * coprime[p, q]
    return gam


def gamma_lrd(d_exp, grid, wavelet):
    """Asymptotic covariance for stationary long-memory series with spectral
    pole exponent ``d_exp`` in (0,1)."""
    if not 0.0 < d_exp < 1.0:
        raise ValidationError("long-memory exponent must lie in (0,1)")
    return _spectral_gamma(float(d_exp), grid, wavelet)


def gamma_locfrac(hurst, grid, wavelet):
    """Asymptotic covariance for band-limited processes at exponent
    ``hurst`` (any real), for the variance statistic trimmed by
    ``grid.trim``: trimming a fraction w at each end divides Gamma by
    1 - 2w."""
    if not wavelet.is_band_limited:
        raise ValidationError("band-limited wavelet required")
    if wavelet.mu > math.pi:
        raise ValidationError("wavelet band must end at or below pi")
    return _spectral_gamma(2.0 * float(hurst) + 1.0, grid, wavelet)


# Gauss-Legendre nodes per panel of the lag integral and per value of h,
# nodes per batched h evaluation (temporaries near 1 MB), largest lag block.
_GL_PANEL, _GL_INNER, _H_CHUNK, _LAG_BLOCK = 64, 16, 1024, 128
_gauss = functools.cache(np.polynomial.legendre.leggauss)


def _cross_correlation(wavelet, s, r_p, r_q):
    """h(s) = int psi(u/r_p) psi((u-s)/r_q) du at the points ``s``."""
    x, wx = _gauss(_GL_INNER)
    lo = np.maximum(0.0, s)
    hi = np.minimum(float(r_p), s + r_q)
    half = 0.5 * (hi - lo)
    u = (0.5 * (lo + hi))[:, None] + half[:, None] * x
    vals = wavelet.evaluate(u / r_p) * wavelet.evaluate((u - s[:, None]) / r_q)
    return np.where(hi > lo, (vals @ wx) * half, 0.0)


def _pair_table(wavelet, r_p, r_q):
    """Panels (s, h(s), half-width) of r_p r_q W_pq(c) = int h(s) |c+s|^{2H} ds.

    h is a piecewise polynomial with breakpoints -r_q, 0, r_p-r_q and r_p,
    which cut the panels every lag shares.  A lag c = d k in (-r_p, r_q)
    puts the kink of |c+s|^{2H} inside one of them, which it splits in two
    at -c.  Panels stop at every break because the lag decay of W rests on
    cancellations of order 2q.  Returns (shared, kink_lags, split, halves):
    per kink lag, the index of the panel it splits and the two halves.
    """
    d = math.gcd(r_p, r_q)
    cuts = sorted({-r_q, r_p, min(0, r_p - r_q), max(0, r_p - r_q)})
    kinks = [c for c in range(1 - r_p, r_q) if c % d == 0 and -c not in cuts]
    split = np.searchsorted(cuts, [-c for c in kinks]) - 1
    lo, hi = np.array(list(zip(cuts, cuts[1:])) + [
        pair for c, j in zip(kinks, split) for pair in ((cuts[j], -c), (-c, cuts[j + 1]))
    ], dtype=float).T
    half = 0.5 * (hi - lo)
    s = (0.5 * (lo + hi))[:, None] + half[:, None] * _gauss(_GL_PANEL)[0]
    h = np.concatenate([
        _cross_correlation(wavelet, chunk, r_p, r_q)
        for chunk in np.array_split(s.ravel(), -(-s.size // _H_CHUNK))
    ]).reshape(s.shape)
    n = len(cuts) - 1
    halves = tuple(a[n:].reshape(len(kinks), 2, *a.shape[1:]) for a in (s, h, half))
    return (s[:n], h[:n], half[:n]), np.array(kinks, dtype=float), split, halves


@functools.lru_cache(maxsize=1)
def _fbm_tables(wavelet, ratios):
    """Pair tables for (1, 1) and every scale pair of ``ratios``, kept for
    the latest (wavelet, ratios) only.  With d = gcd(r_p, r_q) they hold
    about 1 KiB per panel: 2 panels on the diagonal, 3 + 2 ((r_p + r_q) / d
    - 3) above it."""
    pairs = [(1, 1)] + [(a, b) for i, a in enumerate(ratios) for b in ratios[i:]]
    return {pair: _pair_table(wavelet, *pair) for pair in pairs}


def _kernel_w(table, lags, two_h, r_p, r_q):
    """W_pq at ``lags``, float multiples of gcd(r_p, r_q)."""
    shared, kink_lags, split, halves = table
    _, wx = _gauss(_GL_PANEL)

    def panel_sums(panels, c):
        s, h, half = panels
        return ((h * np.abs(c[..., None, None] + s) ** two_h) @ wx) * half

    terms = panel_sums(shared, lags)
    hit = np.flatnonzero(np.isin(lags, kink_lags))
    if hit.size:
        rows = np.searchsorted(kink_lags, lags[hit])
        terms[hit, split[rows]] = panel_sums([a[rows] for a in halves], lags[hit]).sum(-1)
    return terms.sum(-1) / (r_p * r_q)


def _gamma_entry(table, two_h, w0, r_p, r_q):
    """gamma_pq = 2 d / (r_p r_q)^{2H} sum_k [W_pq(d k) / w0]^2, the lags
    taken in growing blocks.  The running total is taken in lag order and
    stops at the first k >= 8 (W can cross zero early) whose two terms add
    less than _LAG_RTOL of it, as a serial loop would."""
    d = math.gcd(r_p, r_q)
    total = (_kernel_w(table, np.zeros(1), two_h, r_p, r_q)[0] / w0) ** 2
    k0, size = 1, 16
    while k0 <= _MAX_LAG_TERMS:
        k = np.arange(k0, min(k0 + size, _MAX_LAG_TERMS + 1), dtype=float)
        w = _kernel_w(table, d * np.concatenate([k, -k]), two_h, r_p, r_q) / w0
        inc = w[: k.size] ** 2 + w[k.size :] ** 2
        run = np.cumsum(np.concatenate([[total], inc]))[1:]
        done = np.flatnonzero((k >= 8) & (inc < _LAG_RTOL * run))
        if done.size:
            return 2.0 * d / (r_p * r_q) ** two_h * float(run[done[0]])
        total, k0, size = run[-1], k0 + k.size, min(2 * size, _LAG_BLOCK)
    raise NumericError(f"lag sum for scale pair ({r_p}, {r_q}) did not converge")


def gamma_fbm(hurst, grid, wavelet):
    """Asymptotic covariance for piecewise self-similar paths at Hurst
    exponent ``hurst`` in (0,1); requires a compactly supported wavelet
    with at least two vanishing moments."""
    if not 0.0 < hurst < 1.0:
        raise ValidationError("Hurst exponent must lie in (0,1)")
    if wavelet.is_band_limited or getattr(wavelet, "q", 0) < 2:
        raise ValidationError(
            "self-similar covariance needs a compact wavelet with q >= 2"
        )
    two_h = 2.0 * float(hurst)
    ratios = grid.ratios
    tables = _fbm_tables(wavelet, ratios)
    w0 = _kernel_w(tables[1, 1], np.zeros(1), two_h, 1, 1)[0]
    # Sign audit: the double integral against |t-t'|^{2H} is negative, and
    # the power-law prefactor of the variance is -w0/2 > 0.
    if not w0 < 0.0:
        raise NumericError("unit-scale kernel lost its sign; quadrature failure")
    ell = len(ratios)
    gam = np.empty((ell, ell))
    for p in range(ell):
        for q in range(p, ell):
            r_p, r_q = ratios[p], ratios[q]
            gam[p, q] = gam[q, p] = _gamma_entry(tables[r_p, r_q], two_h, w0, r_p, r_q)
    return gam


def make_gamma(family, grid, wavelet):
    """Plug-in covariance closure: maps a fitted slope to Gamma(alpha).

    Slopes are converted to the family's exponent and, for families with a
    bounded parameter range, clipped just inside it so that a noisy fit
    still yields a usable weight matrix.
    """
    family = Family(family)
    if family is Family.LOCFRAC:
        return lambda alpha: gamma_locfrac(
            exponent_from_alpha(alpha, family), grid, wavelet
        )
    gamma = gamma_fbm if family is Family.FBM else gamma_lrd
    return lambda alpha: gamma(
        float(np.clip(exponent_from_alpha(alpha, family), 0.01, 0.99)), grid, wavelet
    )
