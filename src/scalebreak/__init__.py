"""scalebreak: change points in the scaling exponent of Gaussian series.

Detection of multiple abrupt changes of the long-memory / self-similarity /
band-limited fractality exponent of a sampled Gaussian process, through the
log-log regression of wavelet variances on scale: contrast minimization for
the change instants, OLS and feasible-GLS per-segment exponent estimates
with asymptotic confidence intervals, and a chi-square goodness-of-fit test
per segment.  Exact simulators and a Monte Carlo harness round out the
package.
"""

from .errors import NumericError, ValidationError
from .estimate import (
    GofResult,
    ThetaEstimate,
    alpha_from_exponent,
    chi2_quantile,
    chi2_sf,
    confidence_interval,
    exponent_from_alpha,
    fgls_theta,
    gamma_fbm,
    gamma_locfrac,
    gamma_lrd,
    gof,
    hurst_from_alpha,
    make_gamma,
    ols_theta,
)
from .pipeline import (
    DetectionReport,
    RunParams,
    SegmentFit,
    analyze,
    default_params,
    run_montecarlo,
    summarize,
)
from .scalogram import (
    LogVarianceVector,
    ScaleGrid,
    ScalogramTable,
    design_matrix,
)
from .segment import (
    ChangePointResult,
    SegmentationConstraints,
    detect,
    shrink,
)
from .synth import (
    Family,
    PiecewiseSpec,
    SampledPath,
    add_polynomial_trend,
    farima_autocov,
    fgn_autocov,
    simulate_piecewise,
    simulate_stationary,
)
from .wavelet import (
    BandLimitedWavelet,
    CompactPolyWavelet,
    coefficients_at_scale,
    make_band_limited,
    make_compact_poly,
)

__version__ = "0.1.0"
