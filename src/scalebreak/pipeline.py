"""End-to-end analysis: detection, margin shrinking, per-segment fits.

Detection and estimation use separate scale grids.  Estimation follows the
a_N = N^(exponent + kappa) schedules of the convergence results, which the
covariance matrices and the goodness-of-fit test are built around.  The
detection grid is family-tuned (see :func:`default_params`): the change
instants only need a cost whose minimum sits at the true split, and the
grid geometry that achieves this reliably differs between process
families.  Every choice is overridable.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
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
from .segment import SegmentationConstraints, detect, shrink
from .synth import Family, simulate_piecewise
from .wavelet import make_band_limited, make_compact_poly

__all__ = [
    "RunParams",
    "SegmentFit",
    "DetectionReport",
    "default_params",
    "analyze",
    "run_montecarlo",
    "summarize",
]

DEFAULT_KAPPA = 0.05
DEFAULT_BAND_WAVELET = (2.0, 3.0)


@dataclass(frozen=True)
class RunParams:
    """Everything the pipeline needs besides the data itself.

    ``grid`` is the estimation grid (exponents, covariances, GoF);
    ``det_grid`` with ``det_objective`` drives the change-point search.
    """

    family: Family
    wavelet: object
    grid: ScaleGrid
    det_grid: ScaleGrid
    det_objective: str
    constraints: SegmentationConstraints
    v_n: float
    kappa: float
    freq_band: tuple | None = None
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
    m=0,
    delta=1.0,
    ell=None,
    kappa=DEFAULT_KAPPA,
    q=3,
    a_base=None,
    v_n=None,
    min_len=None,
    stride=None,
    exponent_spread=None,
    freq_band=None,
    wavelet_band=DEFAULT_BAND_WAVELET,
    trim=0.1,
    min_det_scale=None,
    profile="tuned",
):
    """Family defaults for wavelet, grids, margins and search constraints.

    Estimation scales follow a_N = N^(1/5+kappa) (long memory, kappa in
    (0, 2/15)) or N^(1/3+kappa) (self-similar) with ratios 1..ell, and
    band-limited processes get integer scales whose dilated spectral
    support stays inside the process band.  ``ell`` defaults to 0.15% of N.

    Detection grids are family-tuned unless ``profile="classic"``, which
    searches on the estimation grid with the plain contrast.  For
    stationary families ``min_det_scale`` lifts the smallest detection
    scale (scales >= degree+... are immune to polynomial trends; the
    default of 2 maximizes resolution but offers no trend protection).

    ``exponent_spread`` is the largest exponent gap A for self-similar
    paths; when A >= 1/2 the margin schedule has no admissible kappa and
    the run is flagged rather than refused (the documented failure
    regime).
    """
    family = Family(family)
    n = int(n)
    notes = []
    if profile not in ("tuned", "classic"):
        raise ValidationError("profile must be 'tuned' or 'classic'")
    if ell is None:
        ell = max(3, round(0.0015 * n))
    ell = int(ell)
    if ell < 3:
        raise ValidationError("need at least 3 scales")
    if family in (Family.FGN, Family.FARIMA):
        if not 0.0 < kappa < 2.0 / 15.0:
            raise ValidationError("kappa must lie in (0, 2/15) for long-memory runs")
        a = int(a_base) if a_base else max(2, round(n ** (0.2 + kappa)))
        wavelet = make_compact_poly(q)
        grid = ScaleGrid(a, tuple(range(1, ell + 1)), trim=0.0)
        v = float(v_n) if v_n else n ** (0.4 - 3.0 * kappa)
        if profile == "classic":
            det_grid, det_objective = grid, "plain"
        elif family is Family.FGN:
            det_grid = _stationary_det_grid(ell, int(min_det_scale or 2))
            det_objective = "stabilized"
        else:
            # FARIMA spectra have matched low-frequency intercepts, which
            # makes the variance-anchored small-scale grid misleading; a
            # wide dense grid localizes well.
            det_grid = (
                _stationary_det_grid(ell, int(min_det_scale))
                if min_det_scale
                else _dense_det_grid(a, round(n / 40))
            )
            det_objective = "stabilized"
    elif family is Family.FBM:
        a = int(a_base) if a_base else max(2, round(n ** (1.0 / 3.0 + kappa)))
        wavelet = make_compact_poly(q)
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
        v = float(v_n) if v_n else n ** max(v_exp, 0.05)
        if profile == "classic":
            det_grid, det_objective = grid, "plain"
        else:
            det_grid, det_objective = _dense_det_grid(20, round(n / 20)), "stabilized"
    elif family is Family.LOCFRAC:
        if freq_band is None:
            raise ValidationError("locfrac defaults require freq_band=(fmin, fmax)")
        if not 0.0 < kappa < 0.5:
            raise ValidationError("kappa must lie in (0, 1/2) for band-limited runs")
        fmin, fmax = (float(f) for f in freq_band)
        lam, mu = (float(x) for x in wavelet_band)
        if mu / lam >= fmax / fmin:
            raise ValidationError(
                "wavelet band too wide for the process band: need mu/lam < fmax/fmin"
            )
        wavelet = make_band_limited(lam, mu)
        # Integer scales a (in samples) with [lam/(a delta), mu/(a delta)]
        # inside [fmin, fmax].
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
        a = int(a_base) if a_base else 1
        v = float(v_n) if v_n else n ** (0.5 - kappa)
        grid = ScaleGrid(a, ratios, trim=trim)
        det_grid, det_objective = grid, "stabilized" if profile == "tuned" else "plain"
    else:  # pragma: no cover
        raise ValidationError(f"unknown family {family}")
    det_top = det_grid.base * det_grid.ratios[-1]
    est_top = grid.base * grid.ratios[-1]
    if min_len is None:
        min_len = int(max(4 * det_top, 2 * est_top, 0.05 * n))
    if stride is None:
        if det_grid.base >= 4:
            stride = int(det_grid.base)
        else:
            stride = max(1, round(n / 4000))
    constraints = SegmentationConstraints(
        m=int(m), min_len=int(min_len), candidate_stride=int(stride)
    )
    return RunParams(
        family=family,
        wavelet=wavelet,
        grid=grid,
        det_grid=det_grid,
        det_objective=det_objective,
        constraints=constraints,
        v_n=v,
        kappa=float(kappa),
        freq_band=freq_band,
        notes=tuple(notes),
    )


@dataclass(frozen=True)
class SegmentFit:
    """Per-segment estimates over the shrunk window [k_lo, k_hi)."""

    k_lo: int
    k_hi: int
    logvar: object
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
    family: Family
    margin: float
    margin_clamped: bool = False


def _clamped_margin(result, v_n):
    """Margin N/v_n capped at a quarter of the smallest estimated segment."""
    bounds = [0, *result.k_hat, result.n]
    min_seg = min(b - a for a, b in zip(bounds, bounds[1:]))
    margin = result.n / v_n
    if margin >= 0.25 * min_seg:
        return 0.25 * min_seg, True
    return margin, False


def analyze(path, params, with_fgls=True, ci_level=0.95):
    """Detect the change instants, shrink the estimation windows, and fit
    every segment (OLS always; FGLS and the goodness-of-fit test when the
    plug-in covariance is available)."""
    result = detect(
        path,
        params.wavelet,
        params.det_grid,
        params.constraints,
        objective=params.det_objective,
    )
    margin, clamped = _clamped_margin(result, params.v_n)
    result = shrink(result, result.n / margin)
    table = ScalogramTable(path, params.wavelet, params.grid)
    design = design_matrix(params.grid)
    gamma_fn = make_gamma(
        params.family,
        params.grid,
        params.wavelet,
        trim=params.grid.trim,
        freq_band=params.freq_band,
    )
    fits = []
    for k_lo, k_hi in result.shrunk:
        y = table.log_variance_vector(k_lo, k_hi)
        theta_ols = ols_theta(y, design)
        theta_fgls = gof_res = None
        exponent_fgls = None
        if with_fgls:
            # One plug-in covariance at the OLS slope serves the OLS
            # covariance, the FGLS weights and the goodness-of-fit test.
            gamma_tilde = gamma_fn(theta_ols.alpha)
            theta_ols = ols_theta(y, design, gamma=gamma_tilde)
            theta_fgls = fgls_theta(y, design, gamma_tilde)
            gof_res = gof(y, design, theta_fgls, gamma_tilde, y.n_eff)
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
        family=params.family,
        margin=margin,
        margin_clamped=clamped,
    )


def _replicate(spec, n, delta, params, seed, with_fgls):
    path = simulate_piecewise(spec, n, delta=delta, seed=seed)
    report = analyze(path, params, with_fgls=with_fgls)
    rec = {"seed": seed, "tau_hat": report.result.tau_hat}
    rec["exponent_ols"] = tuple(s.exponent_ols for s in report.segments)
    if with_fgls:
        rec["exponent_fgls"] = tuple(s.exponent_fgls for s in report.segments)
        rec["gof_stat"] = tuple(s.gof.statistic for s in report.segments)
        rec["gof_p"] = tuple(s.gof.p_value for s in report.segments)
    return rec


def run_montecarlo(spec, n, params, reps, seed=0, delta=1.0, with_fgls=False, workers=1):
    """Replicate simulate-and-detect ``reps`` times with per-replicate seeds
    seed+i, in the calling thread or a thread pool; results are collected
    in replicate order either way."""
    if reps < 2:
        raise ValidationError("need at least 2 replicates")
    seeds = [seed + i for i in range(reps)]
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            records = list(
                pool.map(
                    lambda s: _replicate(spec, n, delta, params, s, with_fgls), seeds
                )
            )
    else:
        records = [_replicate(spec, n, delta, params, s, with_fgls) for s in seeds]
    return records


def summarize(records, spec):
    """Per-column mean, sample sd, and root mean squared error against the
    true parameters (the column set of a simulation summary table)."""
    m = spec.m
    true_vals = {}
    cols = {}
    for j in range(m):
        cols[f"tau_{j + 1}"] = [r["tau_hat"][j] for r in records]
        true_vals[f"tau_{j + 1}"] = spec.tau_stars[j]
    for j in range(m + 1):
        cols[f"exp_{j}_ols"] = [r["exponent_ols"][j] for r in records]
        true_vals[f"exp_{j}_ols"] = spec.exponents[j]
        if "exponent_fgls" in records[0]:
            cols[f"exp_{j}_fgls"] = [r["exponent_fgls"][j] for r in records]
            true_vals[f"exp_{j}_fgls"] = spec.exponents[j]
    summary = {}
    for name, vals in cols.items():
        arr = np.asarray(vals, dtype=float)
        truth = true_vals[name]
        summary[name] = {
            "mean": float(arr.mean()),
            "sigma_hat": float(arr.std(ddof=1)),
            "sqrt_mse": float(np.sqrt(np.mean((arr - truth) ** 2))),
            "true": float(truth),
        }
    return summary
