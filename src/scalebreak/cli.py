"""Command-line front end: simulate paths, detect change points in CSV
series, and run Monte Carlo replications.

Exit codes: 0 success, 2 validation error, 3 numeric failure, 4 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys

import numpy as np

from .errors import NumericError, ValidationError
from .estimate import quadrature_meta
from .pipeline import analyze, columns, default_params, run_montecarlo, summarize
from .synth import Family, PiecewiseSpec, SampledPath, _number, simulate_piecewise

__all__ = ["main", "build_parser"]

SCHEMA = "scalebreak/1"


_FILES = ("input", "out")


def config_hash(config):
    """Hash of the options the run used; the input and output file names are
    left out, so one configuration keeps one hash whichever files it reads
    and writes."""
    options = {k: v for k, v in config.items() if k not in _FILES}
    payload = json.dumps(options, sort_keys=True, default=str).encode()
    return hashlib.sha256(payload).hexdigest()[:12]


def _spec_from_config(cfg):
    return PiecewiseSpec(
        family=cfg["family"],
        tau_stars=cfg.get("tau", ()),
        exponents=cfg["exponents"],
        sigmas=cfg.get("sigmas") or None,
        freq_band=cfg.get("band") or None,
    )


# Config keys forwarded to default_params when set; "band" is its freq_band.
_PARAM_KEYS = (
    "m", "delta", "ell", "kappa", "q", "a_base", "v_n", "min_len", "stride",
    "band", "wavelet_band", "trim", "min_det_scale", "profile",
)


def _params_from_config(cfg):
    """default_params for the run; it alone holds the defaults, so only the
    keys the config sets are forwarded, with the exponents' spread."""
    kwargs = {}
    for key in _PARAM_KEYS:
        val = cfg.get(key)
        if val is not None:
            name = "freq_band" if key == "band" else key
            kwargs[name] = tuple(val) if isinstance(val, list) else val
    exps = cfg.get("exponents") or ()
    spread = max(exps) - min(exps) if len(exps) > 1 else None
    return default_params(cfg["family"], cfg["n"], exponent_spread=spread, **kwargs)


def read_series_csv(path_name, delta=None):
    """One value per line, or two columns (t, x) with uniform spacing.

    The file is read as UTF-8, and a leading byte order mark is dropped;
    bytes that are not UTF-8, or a cell past the csv module's field limit,
    are refused.  Rows whose first cell starts with '#', blank rows and
    empty cells are skipped; cells may be quoted and padded with
    whitespace, and a first row with a non-numeric cell is a header.  The
    one-column form takes the sampling step ``delta`` (default 1); the
    two-column form reads it from the time column, which must step by a
    finite, uniform amount, and a given ``delta`` that disagrees with it is
    refused.  A non-numeric cell is reported with its row and column.
    """
    try:
        with open(path_name, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (UnicodeDecodeError, csv.Error) as exc:
        raise ValidationError(f"input CSV cannot be read: {exc}") from None
    # Past the tokenizer, every pass over the cells runs in C; Python walks
    # cells only to name a bad one.
    width = np.fromiter(map(len, rows), np.intp, len(rows))
    cells = list(map(str.strip, itertools.chain.from_iterable(rows)))
    row = np.repeat(np.arange(width.size), width)
    first = np.cumsum(width) - width
    skip = np.zeros(width.size, dtype=bool)  # comment rows, then the header
    skip[width > 0] = np.array(cells, dtype="U1")[first[width > 0]] == "#"
    if width.size and any(map(_non_numeric, cells[: width[0]])):
        skip[0] = True
    keep = np.fromiter(map(bool, cells), bool, len(cells)) & ~skip[row]
    kept = list(itertools.compress(cells, keep))
    try:
        values = np.fromiter(map(float, kept), float, len(kept))
    except ValueError:
        bad = next(i for i in np.flatnonzero(keep) if _non_numeric(cells[i]))
        raise ValidationError(
            f"non-numeric value {cells[bad]!r} at row {row[bad] + 1}, "
            f"column {bad - first[row[bad]] + 1}"
        ) from None
    count = np.bincount(row[keep], minlength=width.size)
    widths = set(count[count > 0].tolist())
    if not widths:
        raise ValidationError("input CSV holds no data rows")
    if widths == {1}:
        return SampledPath(values=values, delta=1.0 if delta is None else float(delta))
    if widths == {2}:
        t, x = values.reshape(-1, 2).T.copy()
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


def _write_series_csv(fname, path, header_lines):
    with open(fname, "w", newline="") as fh:
        for line in header_lines:
            fh.write(f"# {line}\n")
        for v in path.values:
            fh.write(format(float(v), ".17g") + "\n")


def cmd_simulate(cfg):
    spec = _spec_from_config(cfg)
    chash = config_hash(cfg)
    path = simulate_piecewise(spec, cfg["n"], delta=cfg.get("delta", 1.0), seed=cfg["seed"])
    out = cfg["out"]
    _write_series_csv(out, path, [f"config_hash={chash}", f"seed={cfg['seed']}"])
    meta = {
        "schema": SCHEMA,
        "command": "simulate",
        "config_hash": chash,
        "seed": cfg["seed"],
        "config": cfg,
        "delta": path.delta,
        "n": path.n,
    }
    with open(out + ".meta.json", "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True, default=str)
    print(f"wrote {out} ({path.n + 1} rows) and {out}.meta.json")
    return 0


def _segment_dict(fit, ci_level):
    seg = {
        "k_lo": fit.k_lo,
        "k_hi": fit.k_hi,
        "alpha_ols": fit.ols.alpha,
        "log_beta_ols": fit.ols.log_beta,
        "exponent_ols": fit.exponent_ols,
        "ci_level": ci_level,
        "ci_alpha": list(fit.ci_alpha) if fit.ci_alpha else None,
        "n_eff": fit.ols.n_eff,
    }
    if fit.fgls is not None:
        seg.update(
            alpha_fgls=fit.fgls.alpha,
            log_beta_fgls=fit.fgls.log_beta,
            exponent_fgls=fit.exponent_fgls,
            fgls_fallback=fit.fgls.fallback_to_ols,
            gof_stat=fit.gof.statistic,
            gof_df=fit.gof.df,
            gof_p=fit.gof.p_value,
        )
    return seg


def cmd_detect(cfg):
    path = read_series_csv(cfg["input"], cfg.get("delta"))
    cfg = dict(cfg, n=path.n, delta=path.delta)
    chash = config_hash(cfg)
    params = _params_from_config(cfg)
    report = analyze(path, params, ci_level=cfg.get("ci_level", 0.95))
    res = report.result
    out = cfg["out"]
    payload = {
        "schema": SCHEMA,
        "command": "detect",
        "config_hash": chash,
        "n": res.n,
        "delta": path.delta,
        "m": res.m,
        "k_hat": list(res.k_hat),
        "tau_hat": list(res.tau_hat),
        "g_min": res.g_min,
        "margin": report.margin,
        "margin_clamped": report.margin_clamped,
        "v_n": res.n / report.margin if report.margin else float("inf"),
        "quadrature": quadrature_meta(params.grid),
        "segments": [_segment_dict(f, cfg.get("ci_level", 0.95)) for f in report.segments],
    }
    with open(out, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
    plot_name = out.rsplit(".", 1)[0] + "_scalogram.csv"
    with open(plot_name, "w", newline="") as fh:
        fh.write(f"# config_hash={chash}\n")
        writer = csv.writer(fh)
        writer.writerow(
            ["segment", "scale_index", "log_scale", "log_variance", "fitted"]
        )
        log_scales = params.grid.log_scales
        for j, fit in enumerate(report.segments):
            fitted = fit.ols.alpha * log_scales + fit.ols.log_beta
            for i, (ls, y, fv) in enumerate(zip(log_scales, fit.logvar, fitted), 1):
                writer.writerow(
                    [j, i] + [format(float(v), ".17g") for v in (ls, y, fv)]
                )
    print(f"wrote {out} and {plot_name}")
    print(f"tau_hat = {list(res.tau_hat)}")
    return 0


def cmd_montecarlo(cfg):
    spec = _spec_from_config(cfg)
    chash = config_hash(cfg)
    params = _params_from_config(cfg)
    records = run_montecarlo(
        spec,
        cfg["n"],
        params,
        reps=cfg["reps"],
        seed=cfg["seed"],
        with_fgls=cfg.get("fgls", False),
    )
    cols = columns(records, spec)
    summary = summarize(records, spec)
    out = cfg["out"]
    with open(out, "w", newline="") as fh:
        fh.write(f"# config_hash={chash} seed={cfg['seed']}\n")
        writer = csv.writer(fh)
        writer.writerow(["rep", "seed", *cols])
        for i, rec in enumerate(records):
            writer.writerow([i, rec["seed"], *(vals[i] for vals, _ in cols.values())])
        for stat in ("mean", "sigma_hat", "sqrt_mse"):
            writer.writerow(
                [stat, ""] + [summary[c][stat] for c in cols]
            )
    print(f"wrote {out} ({len(records)} replicates)")
    for c in cols:
        s = summary[c]
        print(
            f"{c}: mean={s['mean']:.4f} sigma_hat={s['sigma_hat']:.4f} "
            f"sqrt_mse={s['sqrt_mse']:.4f}"
        )
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="scalebreak",
        description="Change points in the scaling exponent of Gaussian series",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Each command takes only the flags it reads: the common ones, the
    # simulated process (simulate, montecarlo) and the run parameters (detect,
    # montecarlo).  detect reads N from its input, and the others m from tau.
    common, process, run = (argparse.ArgumentParser(add_help=False) for _ in range(3))
    common.add_argument("--config", help="JSON config file; flags override it")
    common.add_argument("--family", choices=[f.value for f in Family])
    common.add_argument("--out")
    common.add_argument("--delta", type=float)
    common.add_argument("--exponents", type=float, nargs="*")
    common.add_argument("--band", type=float, nargs=2, metavar=("FMIN", "FMAX"))
    process.add_argument("--n", type=int)
    process.add_argument("--seed", type=int)
    process.add_argument("--tau", type=float, nargs="*")
    process.add_argument("--sigmas", type=float, nargs="*")
    run.add_argument("--ell", type=int)
    run.add_argument("--kappa", type=float)
    run.add_argument("--wavelet", dest="q", type=int, metavar="Q",
                     help="vanishing moments of the compact wavelet")
    run.add_argument("--wavelet-band", dest="wavelet_band", type=float, nargs=2,
                     metavar=("LAM", "MU"))
    run.add_argument("--trim", type=float)
    run.add_argument("--a-base", dest="a_base", type=int)
    run.add_argument("--v-n", dest="v_n", type=float)
    run.add_argument("--min-len", dest="min_len", type=int)
    run.add_argument("--stride", type=int)
    run.add_argument("--min-det-scale", dest="min_det_scale", type=int,
                     help="smallest detection scale (use >= trend degree"
                          " protection, e.g. 20, for trended data)")
    run.add_argument("--profile", choices=["tuned", "classic"])

    # No abbreviations: a flag that a command does not take exits 2 by its
    # own name instead of matching another flag's prefix (--m, --min-len).
    sub.add_parser("simulate", parents=[common, process], allow_abbrev=False,
                   help="simulate a piecewise path to CSV")
    p_det = sub.add_parser("detect", parents=[common, run], allow_abbrev=False,
                           help="detect change points in a CSV series")
    p_det.add_argument("--m", type=int)
    p_det.add_argument("--input", help="input CSV (one value/line or t,x)")
    p_det.add_argument("--ci-level", dest="ci_level", type=float)
    p_mc = sub.add_parser("montecarlo", parents=[common, process, run],
                          allow_abbrev=False, help="replicate simulate+detect")
    p_mc.add_argument("--reps", type=int)
    p_mc.add_argument("--fgls", action="store_true", default=None)
    return parser


_DEFAULTS = {"seed": 0, "reps": 10}
# Numeric options the commands read themselves; default_params converts
# its own.
_NUMBERS = {"m": int, "n": int, "delta": float, "ci_level": float, "reps": int,
            "seed": int}
_NUMBER_LISTS = ("tau", "exponents", "sigmas")
_REQUIRED = {
    "simulate": ("family", "n", "exponents", "out"),
    "detect": ("family", "input", "out"),
    "montecarlo": ("family", "n", "exponents", "out"),
}


def _merge_config(args):
    """Flags over the config file over the defaults.  A null means the default,
    and a key the command has no flag for is dropped: one file serves all."""
    flags = {k: v for k, v in vars(args).items() if k not in ("config", "command")}
    cfg = dict(_DEFAULTS)
    if args.config:
        with open(args.config) as fh:
            try:
                loaded = json.load(fh)
            except ValueError as exc:  # not UTF-8, or not JSON
                raise ValidationError(f"config is not JSON: {exc}") from None
        if not isinstance(loaded, dict):
            kind = type(loaded).__name__
            raise ValidationError(f"config must be a JSON object, not {kind}")
        cfg.update((k, v) for k, v in loaded.items() if v is not None)
    cfg.update((k, v) for k, v in flags.items() if v is not None)
    cfg = {k: v for k, v in cfg.items() if k in flags}
    missing = [k for k in _REQUIRED[args.command] if not cfg.get(k)]
    if missing:
        raise ValidationError(f"missing required options: {', '.join(missing)}")
    for key, kind in _NUMBERS.items():
        if key in cfg:
            cfg[key] = _number(key, cfg[key], kind)
    for key in _NUMBER_LISTS:
        if key in cfg:
            if not isinstance(cfg[key], list):
                raise ValidationError(f"{key} must be a list, got {cfg[key]!r}")
            cfg[key] = [_number(key, v) for v in cfg[key]]
    for key in _FILES:
        if not isinstance(cfg.get(key, ""), str):
            raise ValidationError(f"{key} must be a file name, got {cfg[key]!r}")
    if not isinstance(cfg.get("fgls", False), bool):
        raise ValidationError(f"fgls must be true or false, got {cfg['fgls']!r}")
    if "tau" in flags:  # simulate and montecarlo
        cfg["m"] = len(cfg.get("tau", ()))
    return cfg


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "simulate":
            return cmd_simulate(cfg)
        if args.command == "detect":
            return cmd_detect(cfg)
        return cmd_montecarlo(cfg)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
