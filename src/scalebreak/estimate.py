"""Per-segment exponent estimation and goodness of fit.

Ordinary least squares on the log-variance vector gives the slope/intercept
pair; feasible generalized least squares reweights with a plug-in estimate
of the asymptotic covariance of the normalized log-variances,

    eps_i = sqrt((k'-k)/a) * (log S_i - log E S_i)  ->  N(0, Gamma),

and the Gamma-weighted residual of the FGLS fit is asymptotically
chi-square with ell-2 degrees of freedom.

The Gamma matrices implemented here follow from the covariance structure
of nonoverlapping-shift wavelet variances with integer scale ratios
(d = gcd(r_p, r_q)):

* spectral form (stationary long-memory series, exponent alpha = D; and
  band-limited processes, alpha = 2H+1 with spectral exponent D = 2H+1):

    gamma_pq = 2 d (r_p r_q)^(1-D) / (1-2w) * sum_m [ I_pq(d m) / J ]^2,
    I_pq(s)  = int_0^inf Re[ psi_hat(r_p u) conj(psi_hat(r_q u)) e^{i s u} ]
               u^{-D} du,
    J        = int_0^inf |psi_hat(u)|^2 u^{-D} du;

* time-domain form (piecewise self-similar paths, alpha = 2H+1):

    gamma_pq = 2 d / (r_p r_q)^{2H} * sum_k [ W_pq(d k) / W(0) ]^2,
    W_pq(c)  = int_0^1 int_0^1 psi(t) psi(t') |c + r_p t - r_q t'|^{2H} dt dt'.

Both reduce to 2 r sum (corr_m)^2 on the diagonal.
"""

from __future__ import annotations

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
    "alpha_from_exponent",
    "hurst_from_alpha",
    "chi2_sf",
    "chi2_quantile",
]

_RIDGE = 1e-8
_REL_TOL = 1e-10
_MAX_LAG_TERMS = 4096
_LAG_BLOCK = 16
_TOL, _FLOOR = 1, 2  # lag-sum stop reasons

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
    method: str
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


def alpha_from_exponent(exponent, family):
    family = Family(family)
    if family in (Family.FGN, Family.FARIMA):
        return float(exponent)
    return 2.0 * float(exponent) + 1.0


def hurst_from_alpha(alpha, family):
    """Hurst reading of the slope: (1+D)/2 for stationary long-memory
    series, (alpha-1)/2 otherwise."""
    family = Family(family)
    if family in (Family.FGN, Family.FARIMA):
        return 0.5 * (1.0 + float(alpha))
    return 0.5 * (float(alpha) - 1.0)


def _as_y(y):
    return np.asarray(getattr(y, "y", y), dtype=float)


def _n_eff(y, n_eff):
    if n_eff is not None:
        return float(n_eff)
    return getattr(y, "n_eff", None)


def ols_theta(y, design, gamma=None, n_eff=None):
    """Closed-form least squares for (alpha, log beta).

    When the covariance matrix ``gamma`` is supplied, the estimate carries
    cov = (L'L)^-1 L' Gamma L (L'L)^-1 / n_eff.
    """
    yv = _as_y(y)
    x = design[:, 0]
    if yv.shape != x.shape:
        raise ValidationError("y and design have mismatched lengths")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    assert sxx > 0.0, "design matrix is rank deficient"
    alpha = float(xc @ yv) / sxx
    log_beta = float(yv.mean() - alpha * x.mean())
    neff = _n_eff(y, n_eff)
    cov = None
    if gamma is not None:
        g = np.asarray(gamma, dtype=float)
        if neff is None:
            raise ValidationError("covariance scaling requires n_eff")
        ltl_inv = np.linalg.inv(design.T @ design)
        cov = ltl_inv @ (design.T @ g @ design) @ ltl_inv / neff
    return ThetaEstimate(alpha, log_beta, "ols", cov, neff)


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
    yv = _as_y(y)
    neff = _n_eff(y, n_eff)
    greg = _regularize(gamma_tilde)
    try:
        gi_l = np.linalg.solve(greg, design)
        gi_y = np.linalg.solve(greg, yv)
        a = design.T @ gi_l
        theta = np.linalg.solve(a, design.T @ gi_y)
        m = np.linalg.inv(a)
    except np.linalg.LinAlgError:
        theta = None
    if theta is None or not np.all(np.isfinite(theta)):
        base = ols_theta(y, design, n_eff=neff)
        return ThetaEstimate(
            base.alpha, base.log_beta, "fgls", base.cov, neff, fallback_to_ols=True
        )
    cov = m / neff if neff is not None else None
    return ThetaEstimate(float(theta[0]), float(theta[1]), "fgls", cov, neff)


def gof(y, design, theta, gamma_tilde, n_eff):
    """Goodness-of-fit statistic T = n_eff * ||y - L theta||^2_{Gamma^-1},
    asymptotically chi-square with ell-2 degrees of freedom."""
    yv = _as_y(y)
    resid = yv - design @ np.array([theta.alpha, theta.log_beta])
    greg = _regularize(gamma_tilde)
    t_stat = float(n_eff) * float(resid @ np.linalg.solve(greg, resid))
    t_stat = max(t_stat, 0.0)
    df = yv.size - 2
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

_N_QUAD = 8192  # Simpson intervals per pair integral

# Recorded in result metadata so runs are reproducible bit for bit.
QUADRATURE_META = {"simpson_intervals": _N_QUAD, "lag_rel_tol": _REL_TOL}


def _simpson_rule(lo, hi):
    """Nodes and weights of composite Simpson with _N_QUAD intervals on
    [lo, hi].  The step is (hi - lo) / _N_QUAD: the difference of two nodes
    loses about 12 bits when lo is far from 0."""
    w = np.ones(_N_QUAD + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.linspace(lo, hi, _N_QUAD + 1), w * ((hi - lo) / _N_QUAD / 3.0)


def _effective_cutoff(wavelet, d_exp):
    """Radius holding all but 1e-12 of int |psi_hat|^2 u^-D du."""
    x = np.linspace(0.0, 600.0, 1 << 16)
    g = np.abs(wavelet.psi_hat(x)) ** 2
    with np.errstate(divide="ignore"):
        g = np.where(x > 0.0, g * x ** (-d_exp), 0.0)
    csum = np.cumsum(g)
    total = csum[-1]
    idx = int(np.searchsorted(csum, (1.0 - 1e-12) * total))
    return float(x[min(idx + 1, x.size - 1)])


def _lag_sums(wavelet, d_exp, pairs, names, j_norm, cutoff):
    """sum_m [I_pq(m)/J]^2 for coprime ratio pairs (p, q) on one eta grid.

    The lags m = 1, 2, ... are taken _LAG_BLOCK at a time, for every pair
    at once: one matrix product meets the first block's phases exp(i m eta)
    with the integrands, which are rotated by exp(i _LAG_BLOCK eta) after
    each block.  Each pair stops at the first block end where the block
    adds less than _REL_TOL of its total, or where tiny blocks stop
    decreasing (the quadrature noise floor, not the true tail, is being
    summed).  Returns the sums, the lag terms each pair used and its stop
    reason (_TOL, _FLOOR, or 0 for disjoint bands); ``names`` are the scale
    pairs that a convergence failure reports.
    """
    n_pairs = len(pairs)
    sums = np.zeros(n_pairs)
    lags = np.zeros(n_pairs, dtype=int)
    reason = np.zeros(n_pairs, dtype=int)
    p_ratios = np.array([p for p, _ in pairs], dtype=float)
    q = pairs[0][1]
    if wavelet.is_band_limited:
        lo = wavelet.lam / pairs[0][0]
        hi = wavelet.mu / q
        if hi <= lo:
            return sums, lags, reason
    else:
        lo = 0.0
        hi = cutoff / q
    eta, w = _simpson_rule(lo, hi)
    with np.errstate(divide="ignore"):
        power = np.where(eta > 0.0, eta ** (-d_exp), 0.0)
    g = wavelet.psi_hat(np.outer(p_ratios, eta)) * np.conj(wavelet.psi_hat(q * eta))
    g *= power * w
    sums[:] = (g.real.sum(axis=1) / j_norm) ** 2
    # Phases exp(i m eta) of the first block by recurrence, one complex
    # multiply per lag; later blocks rotate the integrands instead.
    phase = np.empty((_LAG_BLOCK, eta.size), dtype=complex)
    phase[0] = np.exp(1j * eta)
    for m in range(1, _LAG_BLOCK):
        phase[m] = phase[m - 1] * phase[0]
    rotation = phase[-1].copy()
    # As real rows, conj(phase) interleaves (cos, -sin) and an integrand h
    # interleaves (Re, Im), so one product gives Re sum exp(i m eta) h, that
    # is cg - sg for h = g and cg + sg for h = conj(g), where
    # cg = sum cos(m eta) Re g and sg = sum sin(m eta) Im g.
    base = np.conj(phase).view(np.float64)
    shifted = np.concatenate([g, np.conj(g)])
    active = np.arange(n_pairs)
    prev_block = np.full(n_pairs, np.inf)
    for n_blocks in range(1, _MAX_LAG_TERMS // _LAG_BLOCK + 1):
        terms = base @ shifted.view(np.float64).T
        block = ((terms / j_norm) ** 2).reshape(_LAG_BLOCK, 2, -1).sum(axis=(0, 1))
        total = sums[active] + block
        sums[active] = total
        tol = block < _REL_TOL * total
        floor = ~tol & (block >= 0.5 * prev_block) & (block < 1e-7 * total)
        done = tol | floor
        reason[active[tol]] = _TOL
        reason[active[floor]] = _FLOOR
        lags[active[done]] = n_blocks * _LAG_BLOCK
        if done.all():
            return sums, lags, reason
        if done.any():
            active, prev_block = active[~done], block[~done]
            shifted = shifted[np.tile(~done, 2)]
        else:
            prev_block = block
        shifted *= rotation
    raise NumericError(
        f"lag sum for scale pair {names[active[0]]} did not converge "
        f"within {_MAX_LAG_TERMS} terms"
    )


def _spectral_gamma(d_exp, grid, wavelet, trim):
    """Spectral-form Gamma, one lag sum per coprime ratio pair.

    With d = gcd(r_p, r_q) and (p, q) = (r_p, r_q) / d, the Simpson grid of
    (r_p, r_q) is that of (p, q) divided by d, so I_pq(d m) equals
    d^(D-1) I_{p q}(m) node for node and gamma_{r_p r_q} = d gamma_{p q}.
    Compact wavelets put every pair with the same q on one grid; for
    band-limited wavelets the grid depends on p too.
    """
    ratios = grid.ratios
    ell = len(ratios)
    if wavelet.is_band_limited:
        cutoff = None
        j_eta, jw = _simpson_rule(wavelet.lam, wavelet.mu)
    else:
        cutoff = _effective_cutoff(wavelet, d_exp)
        j_eta, jw = _simpson_rule(0.0, cutoff)
    with np.errstate(divide="ignore"):
        power = np.where(j_eta > 0.0, j_eta ** (-d_exp), 0.0)
    j_norm = float(np.sum(np.abs(wavelet.psi_hat(j_eta)) ** 2 * power * jw))
    if not j_norm > 0.0:
        raise NumericError("normalizing integral vanished")
    cells = {}
    for i in range(ell):
        for k in range(i, ell):
            d = math.gcd(ratios[i], ratios[k])
            cells.setdefault((ratios[i] // d, ratios[k] // d), []).append((i, k, d))
    # Each coprime pair is named by its first scale pair in the grid.
    names = {pair: (ratios[i], ratios[k]) for pair, ((i, k, _), *_) in cells.items()}
    groups = {}
    for pair in cells:
        groups.setdefault(pair if wavelet.is_band_limited else pair[1], []).append(pair)
    # A chunk's integrands and their conjugates fill at most ell complex
    # rows of _N_QUAD + 1 nodes.
    size = max(1, ell // 2)
    sums, lags, reason = {}, {}, {}
    for pairs in groups.values():
        for start in range(0, len(pairs), size):
            chunk = pairs[start : start + size]
            out = _lag_sums(
                wavelet, d_exp, chunk, [names[pair] for pair in chunk], j_norm, cutoff
            )
            for pair, s, n, why in zip(chunk, *out):
                sums[pair], lags[pair], reason[pair] = s, n, why
    gam = np.empty((ell, ell))
    for (p, q), members in cells.items():
        val = 2.0 * (p * q) ** (1.0 - d_exp) / (1.0 - 2.0 * trim) * sums[p, q]
        for i, k, d in members:
            gam[i, k] = gam[k, i] = d * val
    if _log.isEnabledFor(logging.DEBUG):
        worst = max(lags, key=lags.get)
        _log.debug(
            "gamma lag sums: %d lag terms over %d coprime ratio pairs; "
            "%d stopped on tolerance, %d on the noise floor; "
            "most lags %d, for scale pair %s",
            sum(lags.values()), len(lags),
            sum(r == _TOL for r in reason.values()),
            sum(r == _FLOOR for r in reason.values()),
            lags[worst], names[worst],
        )
    return gam


def gamma_lrd(d_exp, grid, wavelet):
    """Asymptotic covariance for stationary long-memory series with spectral
    pole exponent ``d_exp`` in (0,1)."""
    if not 0.0 < d_exp < 1.0:
        raise ValidationError("long-memory exponent must lie in (0,1)")
    return _spectral_gamma(float(d_exp), grid, wavelet, 0.0)


def gamma_locfrac(hurst, grid, wavelet, trim, freq_band=None):
    """Asymptotic covariance for band-limited processes at exponent
    ``hurst`` (any real); ``trim`` is the edge fraction dropped by the
    trimmed variance statistic."""
    if not wavelet.is_band_limited:
        raise ValidationError("band-limited wavelet required")
    if not 0.0 <= trim < 0.5:
        raise ValidationError("trim fraction must lie in [0, 1/2)")
    if freq_band is not None:
        fmin, fmax = freq_band
        if wavelet.mu / wavelet.lam >= fmax / fmin:
            raise ValidationError(
                "wavelet band too wide for the process band: need mu/lam < fmax/fmin"
            )
    return _spectral_gamma(2.0 * float(hurst) + 1.0, grid, wavelet, float(trim))


class _SelfSimilarKernel:
    """W_pq(c) = int int psi(t) psi(t') |c + r_p t - r_q t'|^{2H} dt dt'.

    Reduced to a single integral of |c+s|^{2H} against the dilated-wavelet
    cross-correlation h(s), a piecewise polynomial on [-r_q, r_p].  The
    s-range is split at h's polynomial breakpoints and at the kink of
    |c+s|^{2H}; each panel is then smooth and Gauss-Legendre converges to
    machine precision, which matters because the lag decay of W rests on
    cancellations of order 2q.
    """

    def __init__(self, wavelet, two_h):
        self.w = wavelet
        self.two_h = two_h
        self.u16, self.w16 = np.polynomial.legendre.leggauss(16)
        self.s64, self.sw64 = np.polynomial.legendre.leggauss(64)

    def _h(self, s, r_p, r_q):
        """Cross-correlation int g_p(u) g_q(u - s) du at the points ``s``."""
        lo = np.maximum(0.0, s)
        hi = np.minimum(float(r_p), s + r_q)
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        u = mid[:, None] + half[:, None] * self.u16[None, :]
        vals = self.w.evaluate(u / r_p) * self.w.evaluate((u - s[:, None]) / r_q)
        out = (vals @ self.w16) * half
        return np.where(hi > lo, out, 0.0)

    def _integrate(self, lo, hi, c, r_p, r_q):
        mid = 0.5 * (lo + hi)
        half = 0.5 * (hi - lo)
        s = mid + half * self.s64
        vals = self._h(s, r_p, r_q) * np.abs(c + s) ** self.two_h
        return half * float(vals @ self.sw64)

    def w_pq(self, c, r_p, r_q):
        edges = {-float(r_q), float(r_p), min(0.0, float(r_p - r_q)),
                 max(0.0, float(r_p - r_q))}
        if -float(r_q) < -c < float(r_p):
            edges.add(-float(c))
        cuts = sorted(edges)
        total = 0.0
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                total += self._integrate(lo, hi, c, r_p, r_q)
        return total / (r_p * r_q)


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
    kern = _SelfSimilarKernel(wavelet, 2.0 * float(hurst))
    w0 = kern.w_pq(0.0, 1, 1)
    # Sign audit: the double integral against |t-t'|^{2H} is negative, and
    # the power-law prefactor of the variance is -w0/2 > 0.
    if not w0 < 0.0:
        raise NumericError("unit-scale kernel lost its sign; quadrature failure")
    ratios = grid.ratios
    ell = len(ratios)
    gam = np.empty((ell, ell))
    for p in range(ell):
        for q in range(p, ell):
            r_p, r_q = ratios[p], ratios[q]
            d = math.gcd(r_p, r_q)
            total = (kern.w_pq(0.0, r_p, r_q) / w0) ** 2
            k = 1
            while k <= _MAX_LAG_TERMS:
                inc = (kern.w_pq(float(d * k), r_p, r_q) / w0) ** 2 + (
                    kern.w_pq(-float(d * k), r_p, r_q) / w0
                ) ** 2
                total += inc
                # k >= 8 before trusting the tail: W can cross zero early.
                if k >= 8 and inc < _REL_TOL * total:
                    break
                k += 1
            else:
                raise NumericError(
                    f"lag sum for scale pair ({r_p}, {r_q}) did not converge"
                )
            val = 2.0 * d / (r_p * r_q) ** (2.0 * hurst) * total
            gam[p, q] = val
            gam[q, p] = val
    return gam


def make_gamma(family, grid, wavelet, trim=0.0, freq_band=None):
    """Plug-in covariance closure: maps a fitted slope to Gamma(alpha).

    Slopes are converted to the family's exponent and, for families with a
    bounded parameter range, clipped just inside it so that a noisy fit
    still yields a usable weight matrix.
    """
    family = Family(family)
    if family in (Family.FGN, Family.FARIMA):
        return lambda alpha: gamma_lrd(float(np.clip(alpha, 0.01, 0.99)), grid, wavelet)
    if family is Family.FBM:
        return lambda alpha: gamma_fbm(
            float(np.clip(0.5 * (alpha - 1.0), 0.01, 0.99)), grid, wavelet
        )
    return lambda alpha: gamma_locfrac(
        0.5 * (alpha - 1.0), grid, wavelet, trim, freq_band=freq_band
    )
