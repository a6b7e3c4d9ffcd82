"""Scalar reference implementations that the tests compare package code against.

``coeff`` evaluates one wavelet coefficient straight from its Riemann sum,
``segment_cost`` fits one regression line through the centered normal
equations, and ``contrast`` sums those fits over a fixed segmentation.  The
package computes the same quantities in batch: ``coefficients_at_scale``
and the pair costs of the change-point search.  ``spectral_gamma`` sums the
spectral covariance lag by lag, where the package folds it on a frequency
lattice.  ``fbm_gamma`` builds the time-domain kernel afresh for every
scale pair and lag and sums it one lag at a time, where the package reuses
per-pair tables and sums lags in blocks.  ``read_series_csv`` parses a
series CSV row by row and cell by cell, where the package's reader makes
each pass over all cells at once.  ``chi2_quantile`` inverts the chi-square
law for the tests' thresholds; the package itself needs only its upper tail
(``chi2_sf``).  ``simulate_stationary_full_fft`` synthesizes a circulant
embedding from the whole 2n-point spectrum with complex FFTs, where the
package takes half-size real FFTs.  ``add_polynomial_trend`` adds a
polynomial to a path for the trend-robustness tests.
"""

import csv
import math

import numpy as np
from scipy.special import chdtri

import scalebreak.estimate as estimate
from scalebreak import NumericError, SampledPath, ValidationError, design_matrix, synth
from scalebreak.scalogram import ScalogramTable

LAG_BLOCK = 16
LAG_REL_TOL = 1e-10
MAX_LAG_TERMS = 4096
# Simpson intervals per pair.  Simpson's weights alias lag m onto
# m - pi/step, so the step must keep pi/step beyond the lags the sum needs:
# 16 384 intervals on [0, 850] put the first alias past lag 60.
QUAD_INTERVALS = 1 << 14


def coeff(path, wavelet, a, b):
    """Wavelet coefficient e(a, b) of the sampled path.

    For the compact wavelet the support window [b, b+a] must lie inside
    [0, N]; band-limited evaluation is truncated to the effective support
    and the caller is expected to trim shifts near the path edges.
    """
    a = float(a)
    if a < 1.0:
        raise ValidationError(f"scale {a} below the minimum 1")
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


def segment_cost(y, design):
    """Residual sum of squares of the best line through (log scale, y).

    Equals ||(I - P_L) y||^2 for the two-column design L; computed through
    the centered normal equations.
    """
    y = np.asarray(y, dtype=float)
    x = design[:, 0]
    if y.shape != x.shape:
        raise ValidationError("y and design have mismatched lengths")
    xc = x - x.mean()
    sxx = float(xc @ xc)
    assert sxx > 0.0, "design matrix is rank deficient"
    yc = y - y.mean()
    rss = float(yc @ yc) - float(xc @ yc) ** 2 / sxx
    return max(rss, 0.0)


def contrast(path, wavelet, grid, ks, min_len=None):
    """Contrast value of a fixed segmentation: the sum of per-segment
    regression residuals over [0, k_1), ..., [k_m, N)."""
    ks = [int(k) for k in ks]
    n = path.n
    bounds = [0] + ks + [n]
    if any(b <= a for a, b in zip(bounds, bounds[1:])):
        raise ValidationError("change instants must be strictly increasing in (0, N)")
    if min_len is not None and any(
        b - a < min_len for a, b in zip(bounds, bounds[1:])
    ):
        raise ValidationError("a segment is shorter than min_len")
    table = ScalogramTable(path, wavelet, grid)
    design = design_matrix(grid)
    return sum(
        segment_cost(table.log_variance_vector(a, b), design)
        for a, b in zip(bounds, bounds[1:])
    )


def chi2_quantile(level, df):
    """Chi-square quantile: chi2_sf(chi2_quantile(q, df), df) = 1 - q."""
    if not 0.0 < level < 1.0:
        raise ValidationError("quantile level must lie in (0,1)")
    return float(chdtri(df, 1.0 - level))


def simulate_stationary_full_fft(autocov, n, seed):
    """Davies-Harte synthesis through full complex FFTs of the 2n
    circulant and of its Hermitian spectrum, from the same draws as
    ``synth.simulate_stationary``."""
    rng = np.random.default_rng(seed)
    r = np.asarray(autocov(np.arange(n + 1)), dtype=float)
    eigs = np.clip(np.fft.fft(np.concatenate([r, r[-2:0:-1]])).real, 0.0, None)
    m = 2 * n
    z = synth.gaussian_draws(rng, m)
    v = np.empty(m, dtype=complex)
    v[0] = math.sqrt(eigs[0]) * z[0]
    v[n] = math.sqrt(eigs[n]) * z[1]
    v[1:n] = np.sqrt(eigs[1:n] / 2.0) * (z[2 : n + 1] + 1j * z[n + 1 :])
    v[n + 1 :] = np.conj(v[1:n][::-1])
    return np.fft.fft(v).real[:n] / math.sqrt(m)


def add_polynomial_trend(path, coeffs):
    """Add the polynomial trend sum_r coeffs[r] * (i*delta)^r to the path."""
    coeffs = np.asarray(coeffs, dtype=float)
    t = path.delta * np.arange(path.values.size)
    trend = np.polynomial.polynomial.polyval(t, coeffs)
    return SampledPath(values=path.values + trend, delta=path.delta)


def simpson_rule(lo, hi):
    """Composite Simpson with QUAD_INTERVALS intervals on [lo, hi]."""
    w = np.ones(QUAD_INTERVALS + 1)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return np.linspace(lo, hi, QUAD_INTERVALS + 1), w * ((hi - lo) / QUAD_INTERVALS / 3.0)


def pair_sum(wavelet, d_exp, r_p, r_q, j_norm, cutoff):
    """sum_m [I_pq(d m)/J]^2 for one scale pair by the serial lag loop.

    The pair's own Simpson grid, one complex phase step per lag, taken in
    blocks of LAG_BLOCK lags.  It stops at the first block that adds less
    than LAG_REL_TOL of the total, or where tiny blocks stop decreasing
    (the quadrature noise floor, not the true tail, is being summed).
    """
    d = math.gcd(r_p, r_q)
    if wavelet.is_band_limited:
        lo = wavelet.lam / min(r_p, r_q)
        hi = wavelet.mu / max(r_p, r_q)
        if hi <= lo:
            return d, 0.0
    else:
        lo = 0.0
        hi = cutoff / max(r_p, r_q)
    eta, w = simpson_rule(lo, hi)
    g = wavelet.psi_hat(r_p * eta) * np.conj(wavelet.psi_hat(r_q * eta))
    with np.errstate(divide="ignore"):
        power = np.where(eta > 0.0, eta ** (-d_exp), 0.0)
    gc = g.real * power * w
    gs = g.imag * power * w
    total = (float(np.sum(gc)) / j_norm) ** 2
    phase_step = np.exp(1j * d * eta)
    phase = phase_step.copy()
    block_sum = 0.0
    prev_block = np.inf
    for m in range(1, MAX_LAG_TERMS + 1):
        cg = float(phase.real @ gc)
        sg = float(phase.imag @ gs)
        block_sum += ((cg - sg) / j_norm) ** 2 + ((cg + sg) / j_norm) ** 2
        if m % LAG_BLOCK == 0:
            total += block_sum
            if block_sum < LAG_REL_TOL * total:
                return d, total
            if block_sum >= 0.5 * prev_block and block_sum < 1e-7 * total:
                return d, total
            prev_block = block_sum
            block_sum = 0.0
        phase *= phase_step
    raise NumericError(f"lag sum for scale pair ({r_p}, {r_q}) did not converge")


def spectral_gamma(d_exp, grid, wavelet, trim):
    """Spectral-form Gamma with one serial lag sum per scale pair, on the
    package's cutoff."""
    ratios = grid.ratios
    ell = len(ratios)
    if wavelet.is_band_limited:
        cutoff = None
        j_eta, jw = simpson_rule(wavelet.lam, wavelet.mu)
    else:
        cutoff = estimate._effective_cutoff(wavelet, d_exp)
        j_eta, jw = simpson_rule(0.0, cutoff)
    with np.errstate(divide="ignore"):
        power = np.where(j_eta > 0.0, j_eta ** (-d_exp), 0.0)
    j_norm = float(np.sum(np.abs(wavelet.psi_hat(j_eta)) ** 2 * power * jw))
    gam = np.empty((ell, ell))
    for p in range(ell):
        for q in range(p, ell):
            r_p, r_q = ratios[p], ratios[q]
            d, lag_sum = pair_sum(wavelet, d_exp, r_p, r_q, j_norm, cutoff)
            val = 2.0 * d * (r_p * r_q) ** (1.0 - d_exp) / (1.0 - 2.0 * trim) * lag_sum
            gam[p, q] = gam[q, p] = val
    return gam


class SelfSimilarKernel:
    """W_pq(c) = int int psi(t) psi(t') |c + r_p t - r_q t'|^{2H} dt dt'.

    Reduced to a single integral of |c+s|^{2H} against the dilated-wavelet
    cross-correlation h(s), a piecewise polynomial on [-r_q, r_p].  The
    s-range is split at h's polynomial breakpoints and at the kink of
    |c+s|^{2H}; each panel then gets 64-point Gauss-Legendre, and h at each
    node 16-point Gauss-Legendre.
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


def fbm_gamma(hurst, grid, wavelet):
    """Time-domain Gamma, one serial lag loop per scale pair,
    gamma_pq = 2 d / (r_p r_q)^{2H} sum_k [W_pq(d k) / W_11(0)]^2.

    It stops at the first lag k >= 8 whose two terms add less than
    LAG_REL_TOL of the total."""
    kern = SelfSimilarKernel(wavelet, 2.0 * float(hurst))
    w0 = kern.w_pq(0.0, 1, 1)
    ratios = grid.ratios
    ell = len(ratios)
    gam = np.empty((ell, ell))
    for p in range(ell):
        for q in range(p, ell):
            r_p, r_q = ratios[p], ratios[q]
            d = math.gcd(r_p, r_q)
            total = (kern.w_pq(0.0, r_p, r_q) / w0) ** 2
            for k in range(1, MAX_LAG_TERMS + 1):
                inc = (kern.w_pq(float(d * k), r_p, r_q) / w0) ** 2 + (
                    kern.w_pq(-float(d * k), r_p, r_q) / w0
                ) ** 2
                total += inc
                if k >= 8 and inc < LAG_REL_TOL * total:
                    break
            else:
                raise NumericError(
                    f"lag sum for scale pair ({r_p}, {r_q}) did not converge"
                )
            gam[p, q] = gam[q, p] = 2.0 * d / (r_p * r_q) ** (2.0 * hurst) * total
    return gam


def read_series_csv(path_name, delta=None):
    """One value per line, or two columns (t, x) with uniform spacing.

    The file is UTF-8, with or without a byte order mark; bytes that are
    not UTF-8 and a cell past the csv field limit are refused.  The
    one-column form takes the sampling step ``delta`` (default 1); the
    two-column form reads it from the time column, and a given ``delta``
    that disagrees with it is refused.  A non-numeric cell is reported with
    its row and column.
    """
    try:
        return _read_rows(path_name, delta)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"input CSV cannot be read: {exc}") from None


def _read_rows(path_name, delta):
    rows = []
    with open(path_name, newline="", encoding="utf-8-sig") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or row[0].lstrip().startswith("#"):
                continue
            if lineno == 1 and any(_non_numeric(c) for c in row):
                continue  # header
            parsed = []
            for colno, cell in enumerate(row, start=1):
                cell = cell.strip()
                if cell == "":
                    continue
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValidationError(
                        f"non-numeric value {cell!r} at row {lineno}, column {colno}"
                    ) from None
            if parsed:
                rows.append(parsed)
    if not rows:
        raise ValidationError("input CSV holds no data rows")
    widths = {len(r) for r in rows}
    if widths == {1}:
        values = np.array([r[0] for r in rows])
        return SampledPath(values=values, delta=1.0 if delta is None else float(delta))
    if widths == {2}:
        t = np.array([r[0] for r in rows])
        x = np.array([r[1] for r in rows])
        with np.errstate(over="ignore", invalid="ignore"):  # refused below
            steps = np.diff(t)
            uneven = np.abs(steps - steps[:1])
        if steps.size == 0 or not 0.0 < steps[0] < np.inf:
            raise ValidationError("time column must be increasing by a finite step")
        if not np.all(uneven <= 1e-9 * steps[0]):
            raise ValidationError("time column is not uniformly spaced")
        if delta is not None and not abs(delta - steps[0]) <= 1e-9 * steps[0]:
            raise ValidationError(
                f"delta={delta} but the time column steps by {steps[0]:g}"
            )
        return SampledPath(values=x, delta=float(steps[0]))
    raise ValidationError("rows must have one value or two columns (t, x)")


def _non_numeric(cell):
    try:
        float(cell)
        return False
    except ValueError:
        return True
