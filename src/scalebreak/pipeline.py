"""End-to-end analysis: detection, estimation windows, per-segment fits.

Detection and estimation use separate scale grids.  Estimation follows the
a_N = N^(exponent + kappa) schedules of the convergence results, which the
covariance matrices and the goodness-of-fit test are built around.  The
detection grid is family-tuned (see :func:`default_params`): the change
instants only need a cost whose minimum sits at the true split, and the
grid geometry that achieves this reliably differs between process
families.  Every option a family reads can be set, and an option it never
reads is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .estimate import (
    confidence_interval,
    exponent_from_alpha,
    fgls_theta,
    gof,
    make_gamma,
    ols_theta,
)
from .scalogram import ScaleGrid, ScalogramTable, design_matrix
from .segment import SegmentationConstraints, detect
from .synth import Family, _band, _family, _number, _step, simulate_piecewise
from .wavelet import make_band_limited, make_compact_poly

__all__ = [
    "RunParams",
    "SegmentFit",
    "DetectionReport",
    "default_params",
    "analyze",
    "run_montecarlo",
    "columns",
    "summarize",
]

DEFAULT_KAPPA = 0.05
DEFAULT_BAND_WAVELET = (2.0, 3.0)
# The families that read each family-specific option; default_params refuses
# it, when set, for any other family.
_READERS = {
    "q": (Family.FGN, Family.FARIMA, Family.FBM),
    "min_det_scale": (Family.FGN, Family.FARIMA),
    **dict.fromkeys(("freq_band", "wavelet_band", "trim"), (Family.LOCFRAC,)),
}


@dataclass(frozen=True)
class RunParams:
    """Everything the pipeline needs besides the data itself.

    ``grid`` is the estimation grid (exponents, covariances, GoF);
    ``det_grid`` with ``det_objective`` drives the change-point search.
    ``n`` and ``delta`` are the length and sampling step the grids were
    chosen for; :func:`analyze` refuses a path of another length or step.
    """

    family: Family
    wavelet: object
    grid: ScaleGrid
    det_grid: ScaleGrid
    det_objective: str
    constraints: SegmentationConstraints
    v_n: float
    n: int
    delta: float
    notes: tuple = ()


def _stationary_det_grid(ell, min_scale):
    """Consecutive integer scales from ``min_scale``; the smallest scales
    carry the most shifts and anchor the per-segment fits."""
    return ScaleGrid(1, tuple(range(min_scale, min_scale + ell)))


def _dense_det_grid(lo, hi):
    """Every integer scale in [lo, hi]: the regression over many scales
    averages out the raggedness of the sparse large-scale variances that
    otherwise produces stray cost minima."""
    hi = max(hi, lo + 60)
    return ScaleGrid(1, tuple(range(int(lo), int(hi) + 1)))


def default_params(
    family,
    n,
    m=None,
    delta=None,
    ell=None,
    kappa=None,
    q=None,
    a_base=None,
    v_n=None,
    min_len=None,
    stride=None,
    exponent_spread=None,
    freq_band=None,
    wavelet_band=None,
    trim=None,
    min_det_scale=None,
    profile=None,
):
    """Family defaults for wavelet, grids, margins and search constraints.

    Every keyword defaults to None, which means its default (m=0, delta=1,
    kappa=0.05, q=3, trim=0.1, wavelet_band=(2, 3), profile="tuned"; ell,
    a_base, v_n, min_len and stride follow from N and the grids).  A set
    value is always read: 0 is not the default.  ``q`` is read by the
    compact-wavelet families fgn, farima and fbm, ``min_det_scale`` by fgn
    and farima under the tuned profile, and ``freq_band``, ``wavelet_band``
    and ``trim`` by locfrac; any other family or profile refuses them when
    set.  Every family takes ``exponent_spread``, which describes the
    process, but only fbm reads it.  The unit-step families fgn, farima and
    fbm refuse a ``delta`` other than 1.

    Estimation scales follow a_N = N^(1/5+kappa) (long memory, kappa in
    (0, 2/15)) or N^(1/3+kappa) (self-similar, kappa in (0, 2/3), the
    zero-spread limit of the admissible 1/(1+4A) - 1/3) with ratios 1..ell,
    and band-limited processes get integer scales whose dilated spectral
    support stays inside the process band.  ``ell`` defaults to 0.15% of N.

    Detection grids are family-tuned unless ``profile="classic"``, which
    searches on the estimation grid with the plain contrast.  For fgn and
    farima ``min_det_scale`` sets the smallest scale of a consecutive
    detection grid; fgn's default of 2 maximizes resolution, and farima
    searches a dense grid unless it is set.  The sampled compact
    filters cancel a constant only for odd q (to rounding) and no trend of
    higher degree at any scale; a trend of degree below q that they do not
    cancel leaves a deterministic coefficient that shrinks as the scale
    grows (x = t under q = 3 gives -0.153 at every shift of scale 8,
    -0.029 at scale 16).  A larger ``min_det_scale`` damps a trend's pull
    on detection but does not remove it.

    ``exponent_spread`` is the largest exponent gap A for self-similar
    paths; when A >= 1/2 the margin schedule has no admissible kappa and
    the run is flagged rather than refused (the documented failure
    regime).
    """
    family = _family(family)
    given = dict(q=q, min_det_scale=min_det_scale, freq_band=freq_band,
                 wavelet_band=wavelet_band, trim=trim)
    for name, readers in _READERS.items():
        if given[name] is not None and family not in readers:
            raise ValidationError(f"{family.value} runs do not read {name}")
    n = _number("n", n, int)
    m = _number("m", 0 if m is None else m, int)
    ell = _number("ell", ell, int)
    q = _number("q", q, int)
    min_len = _number("min_len", min_len, int)
    stride = _number("stride", stride, int)
    min_det_scale = _number("min_det_scale", min_det_scale, int)
    # ScaleGrid refuses a base below 1 or not an integer, so a_base stays a
    # float here and only its top is checked.
    a_base = _number("a_base", a_base)
    if a_base is not None and not a_base <= n:
        raise ValidationError(f"a_base must be at most N={n}, got {a_base}")
    kappa = _number("kappa", DEFAULT_KAPPA if kappa is None else kappa)
    v_n = _number("v_n", v_n)
    if v_n is not None and not v_n > 0.0:
        raise ValidationError(f"v_n must be positive (inf for no margin), got {v_n}")
    trim = _number("trim", trim)
    exponent_spread = _number("exponent_spread", exponent_spread)
    delta = _step(1.0 if delta is None else delta, family)
    notes = []
    if profile not in (None, "tuned", "classic"):
        raise ValidationError("profile must be 'tuned' or 'classic'")
    if profile == "classic" and min_det_scale is not None:
        # Classic runs search on the estimation grid.
        raise ValidationError("classic runs do not read min_det_scale")
    if ell is None:
        ell = max(3, round(0.0015 * n))
    if ell < 3:
        raise ValidationError("need at least 3 scales")
    if family in (Family.FGN, Family.FARIMA):
        if not 0.0 < kappa < 2.0 / 15.0:
            raise ValidationError("kappa must lie in (0, 2/15) for long-memory runs")
        a = a_base if a_base is not None else max(2, round(n ** (0.2 + kappa)))
        wavelet = make_compact_poly(3 if q is None else q)
        grid = ScaleGrid(a, tuple(range(1, ell + 1)), trim=0.0)
        v = v_n if v_n is not None else n ** (0.4 - 3.0 * kappa)
        if family is Family.FGN or min_det_scale is not None:
            lowest = 2 if min_det_scale is None else min_det_scale
            det_grid = _stationary_det_grid(ell, lowest)
        else:
            # FARIMA spectra have matched low-frequency intercepts, which
            # makes the variance-anchored small-scale grid misleading; a
            # wide dense grid localizes well.
            det_grid = _dense_det_grid(a, round(n / 40))
    elif family is Family.FBM:
        if not 0.0 < kappa < 2.0 / 3.0:
            raise ValidationError("kappa must lie in (0, 2/3) for self-similar runs")
        a = a_base if a_base is not None else max(2, round(n ** (1.0 / 3.0 + kappa)))
        wavelet = make_compact_poly(3 if q is None else q)
        grid = ScaleGrid(a, tuple(range(1, ell + 1)), trim=0.0)
        spread = exponent_spread
        if spread is not None and spread < 0.5:
            kappa_max = 1.0 / (1.0 + 4.0 * spread) - 1.0 / 3.0
            if kappa >= kappa_max:
                notes.append(
                    f"kappa {kappa} above the admissible {kappa_max:.4f} for "
                    f"exponent spread {spread}"
                )
            v_exp = 2.0 / 3.0 * (1.0 - 2.0 * spread) - kappa * (2.0 + 4.0 * spread)
        else:
            if spread is not None:
                notes.append("exponent spread >= 1/2: outside the convergence regime")
            v_exp = 1.0 / 3.0
        v = v_n if v_n is not None else n ** max(v_exp, 0.05)
        det_grid = _dense_det_grid(20, round(n / 20))
    elif family is Family.LOCFRAC:
        if freq_band is None:
            raise ValidationError("locfrac defaults require freq_band=(fmin, fmax)")
        if not 0.0 < kappa < 0.5:
            raise ValidationError("kappa must lie in (0, 1/2) for band-limited runs")
        fmin, fmax = _band("freq_band", freq_band)
        band = DEFAULT_BAND_WAVELET if wavelet_band is None else wavelet_band
        lam, mu = _band("wavelet_band", band)
        if mu / lam >= fmax / fmin:
            raise ValidationError(
                "wavelet band too wide for the process band: need mu/lam < fmax/fmin"
            )
        wavelet = make_band_limited(lam, mu)
        # Integer scales a (in samples) with [lam/(a delta), mu/(a delta)]
        # inside [fmin, fmax]; the largest may not exceed the series.
        if not fmin * delta * n >= lam:
            raise ValidationError(
                f"band puts scales past N={n} at delta={delta}; raise fmin or delta"
            )
        r_lo = int(math.ceil(mu / (fmax * delta)))
        r_hi = int(math.floor(lam / (fmin * delta)))
        if r_hi - r_lo + 1 < ell:
            raise ValidationError(
                f"band supports only {max(r_hi - r_lo + 1, 0)} integer scales "
                f"at delta={delta}; need ell={ell} (reduce ell or delta)"
            )
        ratios = tuple(int(round(x)) for x in np.linspace(r_lo, r_hi, ell))
        if len(set(ratios)) != ell:
            raise ValidationError("scale grid collapsed; reduce ell")
        a = a_base if a_base is not None else 1
        v = v_n if v_n is not None else n ** (0.5 - kappa)
        grid = ScaleGrid(a, ratios, trim=0.1 if trim is None else trim)
        det_grid = grid
    else:  # pragma: no cover
        raise ValidationError(f"unknown family {family}")
    det_objective = "stabilized"
    if profile == "classic":
        det_grid, det_objective = grid, "plain"
    det_top = det_grid.base * det_grid.ratios[-1]
    if min_len is None:
        min_len = int(max(4 * det_top, _keep(grid), 0.05 * n))
    if stride is None:
        if det_grid.base >= 4:
            stride = int(det_grid.base)
        else:
            stride = max(1, round(n / 4000))
    constraints = SegmentationConstraints(
        m=m, min_len=min_len, candidate_stride=stride
    )
    return RunParams(
        family=family,
        wavelet=wavelet,
        grid=grid,
        det_grid=det_grid,
        det_objective=det_objective,
        constraints=constraints,
        v_n=v,
        n=n,
        delta=delta,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class SegmentFit:
    """Per-segment estimates over the estimation window [k_lo, k_hi); ``logvar``
    holds log S at each scale of the estimation grid."""

    k_lo: int
    k_hi: int
    logvar: np.ndarray
    ols: object
    fgls: object | None
    gof: object | None
    exponent_ols: float
    exponent_fgls: float | None
    ci_alpha: tuple | None


@dataclass(frozen=True)
class DetectionReport:
    result: object
    segments: tuple
    margin: float
    margin_clamped: bool = False


def _keep(grid):
    """Fewest samples a window needs for 2 shifts at every scale of ``grid``
    after trim; the +2 covers the rounding of the window bounds."""
    return math.ceil(2 * grid.base * grid.ratios[-1] / (1.0 - 2.0 * grid.trim)) + 2


def _windows(k_hat, n, v_n, keep):
    """Estimation windows: each detected segment with both ends moved inward
    by the margin N/v_n, so that the windows fall inside the true segments
    with probability tending to one.  The margin is capped at a quarter of
    the shortest segment and so that every window keeps ``keep`` samples;
    ``clamped`` says that a cap bound."""
    bounds = [0, *k_hat, n]
    min_seg = min(b - a for a, b in zip(bounds, bounds[1:]))
    if min_seg < keep:
        raise ValidationError(
            f"min_len admits a {min_seg}-sample segment; a window needs {keep}"
        )
    cap = min(0.25 * min_seg, 0.5 * (min_seg - keep))
    margin = min(n / v_n, cap)
    # epsilon guards keep the v_n -> infinity limit at the full segment
    windows = [
        (math.ceil(lo + margin - 1e-9), math.floor(hi - margin + 1e-9))
        for lo, hi in zip(bounds, bounds[1:])
    ]
    return windows, margin, cap <= n / v_n


def analyze(path, params, with_fgls=True, ci_level=0.95):
    """Detect the change instants, shrink the estimation windows, and fit
    every segment (OLS always; FGLS and the goodness-of-fit test when the
    plug-in covariance is available)."""
    if not 0.0 <= ci_level < 1.0:
        raise ValidationError("confidence level must lie in [0, 1)")
    if path.n != params.n:
        raise ValidationError(
            f"path has N={path.n} steps but the parameters were chosen for "
            f"N={params.n}"
        )
    # The relative tolerance read_series_csv allows a CSV time column.
    if abs(path.delta - params.delta) > 1e-9 * abs(params.delta):
        raise ValidationError(
            f"path sampled at delta={path.delta:g} but the parameters were "
            f"chosen for delta={params.delta:g}"
        )
    shared = params.det_grid == params.grid  # locfrac, profile="classic"
    table = ScalogramTable(path, params.wavelet, params.grid) if shared else None
    result = detect(
        path,
        params.wavelet,
        params.det_grid,
        params.constraints,
        table=table,
        objective=params.det_objective,
    )
    windows, margin, clamped = _windows(
        result.k_hat, result.n, params.v_n, _keep(params.grid)
    )
    if table is None:
        table = ScalogramTable(path, params.wavelet, params.grid)
    design = design_matrix(params.grid)
    gamma_fn = make_gamma(params.family, params.grid, params.wavelet)
    fits = []
    for k_lo, k_hi in windows:
        y = table.log_variance_vector(k_lo, k_hi)
        n_eff = (k_hi - k_lo) / params.grid.base
        theta_ols = ols_theta(y, design, n_eff=n_eff)
        theta_fgls = gof_res = None
        exponent_fgls = None
        if with_fgls:
            # One plug-in covariance at the OLS slope serves the OLS
            # covariance, the FGLS weights and the goodness-of-fit test.
            gamma_tilde = gamma_fn(theta_ols.alpha)
            theta_ols = ols_theta(y, design, gamma=gamma_tilde, n_eff=n_eff)
            theta_fgls = fgls_theta(y, design, gamma_tilde, n_eff=n_eff)
            gof_res = gof(y, design, theta_fgls, gamma_tilde, n_eff)
            exponent_fgls = exponent_from_alpha(theta_fgls.alpha, params.family)
        ci = (
            confidence_interval(theta_ols, ci_level)[0]
            if theta_ols.cov is not None
            else None
        )
        fits.append(
            SegmentFit(
                k_lo=k_lo,
                k_hi=k_hi,
                logvar=y,
                ols=theta_ols,
                fgls=theta_fgls,
                gof=gof_res,
                exponent_ols=exponent_from_alpha(theta_ols.alpha, params.family),
                exponent_fgls=exponent_fgls,
                ci_alpha=ci,
            )
        )
    return DetectionReport(
        result=result,
        segments=tuple(fits),
        margin=margin,
        margin_clamped=clamped,
    )


def _replicate(spec, params, seed, with_fgls):
    path = simulate_piecewise(spec, params.n, delta=params.delta, seed=seed)
    report = analyze(path, params, with_fgls=with_fgls)
    rec = {"seed": seed, "tau_hat": report.result.tau_hat}
    rec["exponent_ols"] = tuple(s.exponent_ols for s in report.segments)
    if with_fgls:
        rec["exponent_fgls"] = tuple(s.exponent_fgls for s in report.segments)
        rec["gof_stat"] = tuple(s.gof.statistic for s in report.segments)
        rec["gof_p"] = tuple(s.gof.p_value for s in report.segments)
    return rec


def run_montecarlo(spec, n, params, reps, seed=0, with_fgls=False):
    """Replicate simulate-and-detect ``reps`` times at ``params.n`` and
    ``params.delta``, with per-replicate seeds seed+i, in replicate order.
    ``n`` must equal ``params.n``."""
    if reps < 2:
        raise ValidationError("need at least 2 replicates")
    if n != params.n:
        raise ValidationError(f"n={n} but the parameters were chosen for N={params.n}")
    return [_replicate(spec, params, seed + i, with_fgls) for i in range(reps)]


def columns(records, spec):
    """Column name -> (per-replicate values, true value) in the order of the
    Monte Carlo CSV: every tau_j, every exp_j_ols, then every exp_j_fgls
    when the records carry FGLS."""
    cols = {}
    for j, tau in enumerate(spec.tau_stars):
        cols[f"tau_{j + 1}"] = ([r["tau_hat"][j] for r in records], tau)
    for method in ("ols", "fgls"):
        key = f"exponent_{method}"
        if key in records[0]:
            for j, truth in enumerate(spec.exponents):
                cols[f"exp_{j}_{method}"] = ([r[key][j] for r in records], truth)
    return cols


def summarize(records, spec):
    """Per-column mean, sample sd, and root mean squared error against the
    true parameters (the column set of a simulation summary table), keyed
    in the order of :func:`columns`."""
    summary = {}
    for name, (vals, truth) in columns(records, spec).items():
        arr = np.asarray(vals, dtype=float)
        summary[name] = {
            "mean": float(arr.mean()),
            "sigma_hat": float(arr.std(ddof=1)),
            "sqrt_mse": float(np.sqrt(np.mean((arr - truth) ** 2))),
            "true": float(truth),
        }
    return summary
