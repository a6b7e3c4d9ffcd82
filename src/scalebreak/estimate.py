"""Per-segment exponent estimation and goodness of fit.

Ordinary least squares on the log-variance vector gives the slope/intercept
pair; feasible generalized least squares reweights with a plug-in estimate
of the asymptotic covariance of the normalized log-variances,

    eps_i = sqrt((k'-k)/a) * (log S_i - log E S_i)  ->  N(0, Gamma),

and the Gamma-weighted residual of the FGLS fit is asymptotically
chi-square with ell-2 degrees of freedom.  The fits take y = log S as a
plain array and the segment's effective size n_eff = (k'-k)/a from their
caller.

Every Gamma is assembled by one function from one pair sum per coprime
ratio pair (p, q): with d = gcd(r_p, r_q) and (r_p, r_q) = d (p, q),

    gamma_{r_p r_q} = d gamma_pq,  gamma_pq = 2 (p q)^(1-D) / (1-2w) * S_pq / N^2,

w the trim fraction of the scale grid (0 for compact wavelets).  The
routes differ only in S_pq and the normalization N:

* spectral form (stationary long-memory series, D the pole exponent;
  band-limited processes, D = 2H+1):

    S_pq = sum_m [ Re A(m) ]^2,  N = J = int_0^inf |psi_hat(u)|^2 u^{-D} du,
    A(m) = int_0^inf psi_hat(p eta) conj(psi_hat(q eta)) eta^{-D} e^{i m eta} d eta.

  By Parseval S_pq = (pi/2) int_0^{2 pi} |F|^2, with F the 2 pi-
  periodization of A's integrand g extended to eta < 0 as conj(g).
  Compact wavelets sample F on the lattice 2 pi n / M (M from
  :func:`lattice_size`: 1024, or more for a large scale ratio) from one
  closed-form psi_hat table that every D shares, each D cutting it where
  an integration-by-parts bound leaves at most 1e-10 of J.  Band-limited
  wavelets need mu <= pi: g then lies in (0, pi], nothing folds, and
  S_pq = pi int |g|^2.  Substituting u = d eta gives the identity;

* time-domain form (piecewise self-similar paths, D = 2H+1):

    S_pq = sum_k W_pq(k)^2,  N = -W_11(0),
    W_pq(c) = int_0^1 int_0^1 psi(t) psi(t') |c + p t - q t'|^{2H} dt dt'.

  W_{dp,dq}(d k) = d^{2H} W_pq(k) gives the identity (Bardet 2002 covers
  the fBm case).  p q W_pq(c) integrates |c+s|^{2H} against the
  cross-correlation h of the two dilated wavelets, which depends on
  neither H nor c.  Each coprime pair's Gauss-Legendre panels and h values
  are tabulated once per grid, and Gamma(H) evaluates W at a whole block
  of lags from them.

Both reduce to 2 r sum (corr_m)^2 on the diagonal.
"""

from __future__ import annotations

import functools
import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ValidationError
from .synth import Family, _family, ndtri

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
    """Upper tail P(X > x) of the chi-square law with an integer df >= 1.

    The closed forms of Abramowitz & Stegun 26.4.4-26.4.5, with y = x/2
    and k = floor(df/2):

        df = 2k:      sum_{j<k} e^-y y^j / j!
        df = 2k + 1:  erfc(sqrt y) + sum_{j<k} e^-y y^(j+1/2) / Gamma(j+3/2)

    Each term is formed from its logarithm, so a term stays finite where
    e^-y alone would underflow (df = x = 1500 gives 0.495, not 0).
    """
    if isinstance(df, bool) or int(df) != df or df < 1:
        raise ValidationError(f"chi-square df must be an integer >= 1, got {df!r}")
    x = float(x)
    if not x > 0.0:
        return math.nan if math.isnan(x) else 1.0
    if x == math.inf:
        return 0.0
    y = 0.5 * x
    log_y = math.log(y)
    odd = int(df) % 2
    h = 0.5 * odd
    terms = [math.exp((j + h) * log_y - y - math.lgamma(j + h + 1.0))
             for j in range(int(df) // 2)]
    if odd:
        terms.append(math.erfc(math.sqrt(y)))
    return min(math.fsum(terms), 1.0)


def exponent_from_alpha(alpha, family):
    """The family's natural exponent: D = alpha for stationary long-memory
    series, H = (alpha-1)/2 for self-similar and band-limited processes."""
    family = _family(family)
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
    z = _normal_quantile(0.5 * (1.0 + level))
    half = z * np.sqrt(np.clip(np.diag(estimate.cov), 0.0, None))
    return (
        (estimate.alpha - half[0], estimate.alpha + half[0]),
        (estimate.log_beta - half[1], estimate.log_beta + half[1]),
    )


@functools.lru_cache(maxsize=64)
def _normal_quantile(p):
    """The standard normal quantile at p in (0, 1), cached per p."""
    return float(ndtri(np.array([p]))[0])


# ---------------------------------------------------------------------------
# Asymptotic covariance matrices
# ---------------------------------------------------------------------------

_N_QUAD = 8192  # Simpson intervals per integral
_LATTICE = 1024  # smallest M, frequency lattice points per period 2 pi
_PER_RATIO = 5  # lattice points per unit of the largest scale ratio
_TAIL = 1e-10  # bound on the part of J beyond the compact wavelet's cutoff


def lattice_size(ratios):
    """M for a Gamma over ``ratios``: the smallest power of two at least
    _LATTICE and _PER_RATIO times the largest ratio.  psi_hat(r eta)
    oscillates r times faster than psi_hat(eta), so a fixed M loses
    accuracy as r grows (4e-3 of max|Gamma| at r = 702 under M = 1024)."""
    return max(_LATTICE, 1 << (_PER_RATIO * max(ratios) - 1).bit_length())


def quadrature_meta(grid):
    """The quadrature sizes for ``grid``, recorded in result metadata so
    runs are reproducible bit for bit."""
    return {"simpson_intervals": _N_QUAD, "lattice_size": lattice_size(grid.ratios)}


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


@functools.lru_cache(maxsize=1)
def _psi_hat_table(wavelet, size):
    """psi_hat at the lattice points 2 pi n / ``size`` up to the cutoff of
    D -> 0, the largest any D in (0, 1) needs (the cutoff does not grow
    with D), kept for the latest (wavelet, size) only: 162 426 entries,
    2.6 MB, at q = 3 and size 1024."""
    h = 2.0 * math.pi / size
    eta = h * np.arange(int(_effective_cutoff(wavelet, 0.0) / h) + 1)
    table = np.empty(eta.size, dtype=complex)
    for s in range(0, eta.size, 1 << 14):  # psi_hat's temporaries scale with its input
        table[s : s + (1 << 14)] = wavelet.psi_hat(eta[s : s + (1 << 14)])
    table.flags.writeable = False  # every caller shares it
    return table


def _lattice_sums(wavelet, d_exp, size):
    """S_pq and J of a compact wavelet on the lattice eta_n = n h,
    h = 2 pi / M, M = ``size``.

    psi_hat(p eta_n) is entry p n of the shared table, cut at this D's
    cutoff.  With cw_n = conj(psi_hat(eta_n)) eta_n^-D, the pair's samples
    are g_n = q^D psi_hat(p eta_n) cw_(q n); they and conj(g) at -n fold
    mod M into F, and S_pq = (pi/2) h sum_j |F_j|^2.
    """
    cutoff = _effective_cutoff(wavelet, d_exp)
    _log.debug("spectral gamma: lattice M = %d, cutoff %.6g", size, cutoff)
    h = 2.0 * math.pi / size
    table = _psi_hat_table(wavelet, size)[: int(cutoff / h) + 1]
    power = _power(h * np.arange(table.size), d_exp)
    cw = np.conj(table) * power
    mirror = -np.arange(size)

    def pair_sum(p, q):
        count = (table.size - 1) // q + 1
        g = table[: p * count : p] * cw[: q * count : q]
        whole = count - count % size
        folded = g[:whole].reshape(-1, size).sum(axis=0)
        folded[: count - whole] += g[whole:]
        f = folded + np.conj(folded[mirror])
        return 0.5 * math.pi * h * q ** (2.0 * d_exp) * float(np.vdot(f, f).real)

    return pair_sum, h * float(np.abs(table) ** 2 @ power)


def _band_sums(wavelet, d_exp):
    """S_pq and J of a band-limited wavelet with mu <= pi: the pair's g
    lives on [lam/p, mu/q], and S_pq is one Simpson integral.  A band
    past pi would fold onto its Hermitian extension and is refused."""
    if wavelet.mu > math.pi:
        raise ValidationError("wavelet band must end at or below pi")

    def pair_sum(p, q):
        lo, hi = wavelet.lam / p, wavelet.mu / q
        if hi <= lo:
            return 0.0
        eta, w = _simpson_rule(lo, hi)
        g = np.abs(wavelet.psi_hat(p * eta) * wavelet.psi_hat(q * eta)) ** 2
        return math.pi * float(g @ (_power(eta, 2.0 * d_exp) * w))

    eta, w = _simpson_rule(wavelet.lam, wavelet.mu)
    return pair_sum, float(np.abs(wavelet.psi_hat(eta)) ** 2 @ (_power(eta, d_exp) * w))


def _reduced(ratios):
    """Every entry (i, k), i <= k, of a Gamma over ``ratios``, with
    d = gcd(r_i, r_k) and the coprime pair (p, q) = (r_i, r_k) / d."""
    for i, a in enumerate(ratios):
        for k in range(i, len(ratios)):
            d = math.gcd(a, ratios[k])
            yield i, k, d, (a // d, ratios[k] // d)


def _gamma(d_exp, grid, sums):
    """The one Gamma assembly (module docstring) at exponent D = ``d_exp``
    from ``sums`` = (pair_sum, norm), S_pq and N of one route."""
    pair_sum, norm = sums
    if not norm > 0.0:
        raise NumericError("normalizing integral vanished")
    scale = 2.0 / ((1.0 - 2.0 * grid.trim) * norm**2)
    ell = len(grid.ratios)
    gam = np.empty((ell, ell))
    coprime = {}
    for i, k, d, (p, q) in _reduced(grid.ratios):
        if (p, q) not in coprime:
            coprime[p, q] = scale * (p * q) ** (1.0 - d_exp) * pair_sum(p, q)
        gam[i, k] = gam[k, i] = d * coprime[p, q]
    return gam


def gamma_lrd(d_exp, grid, wavelet):
    """Asymptotic covariance for stationary long-memory series with spectral
    pole exponent ``d_exp`` in (0,1)."""
    if not 0.0 < d_exp < 1.0:
        raise ValidationError("long-memory exponent must lie in (0,1)")
    d_exp = float(d_exp)
    if wavelet.is_band_limited:
        return _gamma(d_exp, grid, _band_sums(wavelet, d_exp))
    return _gamma(d_exp, grid, _lattice_sums(wavelet, d_exp, lattice_size(grid.ratios)))


def gamma_locfrac(hurst, grid, wavelet):
    """Asymptotic covariance for band-limited processes at exponent
    ``hurst`` (any real), for the variance statistic trimmed by
    ``grid.trim``: trimming a fraction w at each end divides Gamma by
    1 - 2w."""
    if not wavelet.is_band_limited:
        raise ValidationError("band-limited wavelet required")
    d_exp = 2.0 * float(hurst) + 1.0
    return _gamma(d_exp, grid, _band_sums(wavelet, d_exp))


# Gauss-Legendre nodes per panel of the lag integral and per value of h,
# nodes per batched h evaluation (temporaries near 1 MB), largest lag block.
_GL_PANEL, _GL_INNER, _H_CHUNK, _LAG_BLOCK = 64, 16, 1024, 128
_gauss = functools.cache(np.polynomial.legendre.leggauss)


def _cross_correlation(wavelet, s, p, q):
    """h(s) = int psi(u/p) psi((u-s)/q) du at the points ``s``."""
    x, wx = _gauss(_GL_INNER)
    lo = np.maximum(0.0, s)
    hi = np.minimum(float(p), s + q)
    half = 0.5 * (hi - lo)
    u = (0.5 * (lo + hi))[:, None] + half[:, None] * x
    vals = wavelet.evaluate(u / p) * wavelet.evaluate((u - s[:, None]) / q)
    return np.where(hi > lo, (vals @ wx) * half, 0.0)


def _pair_table(wavelet, p, q):
    """Panels (s, h(s), half-width) of p q W_pq(c) = int h(s) |c+s|^{2H} ds
    for a coprime pair (p, q).

    h is a piecewise polynomial with breakpoints -q, 0, p-q and p, which
    cut the panels every lag shares.  An integer lag c in (-p, q) puts the
    kink of |c+s|^{2H} inside one of them, which it splits in two at -c.
    Panels stop at every break because the lag decay of W rests on
    cancellations of order 2q.  Returns (shared, kink_lags, split, halves):
    per kink lag, the index of the panel it splits and the two halves.
    """
    cuts = sorted({-q, p, min(0, p - q), max(0, p - q)})
    kinks = [c for c in range(1 - p, q) if -c not in cuts]
    split = np.searchsorted(cuts, [-c for c in kinks]) - 1
    lo, hi = np.array(list(zip(cuts, cuts[1:])) + [
        pair for c, j in zip(kinks, split) for pair in ((cuts[j], -c), (-c, cuts[j + 1]))
    ], dtype=float).T
    half = 0.5 * (hi - lo)
    s = (0.5 * (lo + hi))[:, None] + half[:, None] * _gauss(_GL_PANEL)[0]
    h = np.concatenate([
        _cross_correlation(wavelet, chunk, p, q)
        for chunk in np.array_split(s.ravel(), -(-s.size // _H_CHUNK))
    ]).reshape(s.shape)
    n = len(cuts) - 1
    halves = tuple(a[n:].reshape(len(kinks), 2, *a.shape[1:]) for a in (s, h, half))
    return (s[:n], h[:n], half[:n]), np.array(kinks, dtype=float), split, halves


@functools.lru_cache(maxsize=1)
def _fbm_tables(wavelet, ratios):
    """Pair tables for every coprime pair a Gamma over ``ratios`` reduces
    to, (1, 1) among them, kept for the latest (wavelet, ratios) only.
    They hold about 1 KiB per panel: 2 panels for (1, 1), 3 + 2 (p + q - 3)
    for p < q."""
    pairs = sorted({pair for *_, pair in _reduced(ratios)})
    return {pair: _pair_table(wavelet, *pair) for pair in pairs}


def _kernel_w(table, lags, two_h, p, q):
    """W_pq at the integer ``lags`` (as floats)."""
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
    return terms.sum(-1) / (p * q)


def _fbm_sums(wavelet, ratios, two_h):
    """S_pq = sum_k W_pq(k)^2 and N = -W_11(0) > 0 (the integral against
    |t-t'|^{2H} is negative).  S_pq takes the lags in growing blocks, with
    the running total in lag order; it stops at the first k >= 8 (W can
    cross zero early) whose two terms add less than _LAG_RTOL of it."""
    tables = _fbm_tables(wavelet, ratios)

    def pair_sum(p, q):
        total = _kernel_w(tables[p, q], np.zeros(1), two_h, p, q)[0] ** 2
        k0, size = 1, 16
        while k0 <= _MAX_LAG_TERMS:
            k = np.arange(k0, min(k0 + size, _MAX_LAG_TERMS + 1), dtype=float)
            w = _kernel_w(tables[p, q], np.concatenate([k, -k]), two_h, p, q)
            inc = w[: k.size] ** 2 + w[k.size :] ** 2
            run = np.cumsum(np.concatenate([[total], inc]))[1:]
            done = np.flatnonzero((k >= 8) & (inc < _LAG_RTOL * run))
            if done.size:
                return float(run[done[0]])
            total, k0, size = run[-1], k0 + k.size, min(2 * size, _LAG_BLOCK)
        raise NumericError(
            f"lag sum for scale pair ({p}, {q}) did not converge; it stands "
            f"for every pair d*({p}, {q}) of the grid"
        )

    return pair_sum, -_kernel_w(tables[1, 1], np.zeros(1), two_h, 1, 1)[0]


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
    return _gamma(two_h + 1.0, grid, _fbm_sums(wavelet, grid.ratios, two_h))


def make_gamma(family, grid, wavelet):
    """Plug-in covariance closure: maps a fitted slope to Gamma(alpha).

    Slopes are converted to the family's exponent and, for families with a
    bounded parameter range, clipped just inside it so that a noisy fit
    still yields a usable weight matrix.
    """
    family = _family(family)
    if family is Family.LOCFRAC:
        return lambda alpha: gamma_locfrac(
            exponent_from_alpha(alpha, family), grid, wavelet
        )
    gamma = gamma_fbm if family is Family.FBM else gamma_lrd
    return lambda alpha: gamma(
        float(np.clip(exponent_from_alpha(alpha, family), 0.01, 0.99)), grid, wavelet
    )
