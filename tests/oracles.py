"""Scalar reference implementations that the tests compare package code against.

``coeff`` evaluates one wavelet coefficient straight from its Riemann sum,
``segment_cost`` fits one regression line through the centered normal
equations, and ``contrast`` sums those fits over a fixed segmentation.  The
package computes the same quantities in batch: ``coefficients_at_scale``
and the pair costs of the change-point search.
"""

import math

import numpy as np

from scalebreak import ValidationError, design_matrix
from scalebreak.scalogram import ScalogramTable


def coeff(path, wavelet, a, b):
    """Wavelet coefficient e(a, b) of the sampled path.

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


def segment_cost(y, design):
    """Residual sum of squares of the best line through (log scale, y).

    Equals ||(I - P_L) y||^2 for the two-column design L; computed through
    the centered normal equations.
    """
    y = np.asarray(getattr(y, "y", y), dtype=float)
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
