import numpy as np
import pytest

from scalebreak import (
    PiecewiseSpec,
    SampledPath,
    ScalogramTable,
    ValidationError,
    analyze,
    default_params,
    run_montecarlo,
    simulate_piecewise,
    summarize,
)
from scalebreak.pipeline import columns


class TestDefaultParams:
    def test_lrd_schedule(self):
        p = default_params("fgn", 20000, m=1, ell=30)
        assert p.grid.base == pytest.approx(round(20000 ** 0.25))
        assert p.grid.ratios == tuple(range(1, 31))
        assert p.det_grid.ratios == tuple(range(2, 32))
        assert p.det_objective == "stabilized"
        assert p.v_n == pytest.approx(20000 ** 0.25)

    def test_ell_heuristic(self):
        p = default_params("fgn", 20000)
        assert p.grid.ell == 30
        p = default_params("fgn", 10000)
        assert p.grid.ell == 15

    def test_fbm_schedule(self):
        p = default_params("fbm", 10000, m=1, ell=15, exponent_spread=0.4)
        assert p.grid.base == pytest.approx(round(10000 ** (1 / 3 + 0.05)))
        assert p.det_grid.ratios[0] == 20
        assert p.det_grid.ratios[-1] == 500

    def test_kappa_ranges(self):
        with pytest.raises(ValidationError):
            default_params("fgn", 1000, kappa=0.2)
        with pytest.raises(ValidationError):
            default_params(
                "locfrac", 1000, kappa=0.7, freq_band=(0.3, 1.2), delta=0.25
            )
        for kappa in (-0.5, 0.9):
            with pytest.raises(ValidationError, match="2/3"):
                default_params("fbm", 5000, m=1, ell=7, kappa=kappa)

    def test_fbm_invalid_kappa_for_spread_flagged(self):
        p = default_params("fbm", 5000, exponent_spread=0.45, kappa=0.1)
        assert any("admissible" in note for note in p.notes)

    def test_fbm_wide_gap_is_flagged_not_refused(self):
        p = default_params("fbm", 5000, exponent_spread=0.8)
        assert any("outside the convergence regime" in n for n in p.notes)

    @pytest.mark.parametrize("key, value", [("m", 1.5), ("ell", 6.7)])
    def test_integer_option_refuses_a_fraction(self, key, value):
        with pytest.raises(ValidationError, match=f"{key} must be an integer"):
            default_params("fgn", 4000, **{key: value})

    def test_integer_option_takes_an_integer_float(self):
        p = default_params("fgn", 4000, m=1.0, ell=6.0)
        assert p.constraints.m == 1 and p.grid.ratios == tuple(range(1, 7))

    def test_classic_profile_uses_plain_objective(self):
        p = default_params("fgn", 20000, profile="classic")
        assert p.det_objective == "plain"
        assert p.det_grid == p.grid

    def test_locfrac_grid_stays_in_band(self):
        delta = 0.25
        p = default_params(
            "locfrac", 8000, ell=7, delta=delta, freq_band=(0.3, 1.2)
        )
        lam, mu = 2.0, 3.0
        for r in p.grid.ratios:
            assert lam / (r * delta) >= 0.3 - 1e-9
            assert mu / (r * delta) <= 1.2 + 1e-9

    def test_locfrac_band_condition(self):
        # The one home of the rule mu/lam < fmax/fmin.
        with pytest.raises(ValidationError, match="too wide"):
            default_params(
                "locfrac", 8000, delta=0.25, freq_band=(0.5, 0.6),
                wavelet_band=(2.0, 3.0),
            )

    @pytest.mark.parametrize(
        "band", [(0.3,), 0.3, (0.3, 1.2, 2.0), (0.3, "x"), (0.3, float("nan")),
                 (0.3, float("inf")), (0.0, 1.2), (1.2, 0.3)],
    )
    @pytest.mark.parametrize("key", ["freq_band", "wavelet_band", "spec"])
    def test_malformed_band_rejected(self, key, band):
        # PiecewiseSpec validates its freq_band as default_params does.
        if key == "spec":
            with pytest.raises(ValidationError, match="freq_band"):
                PiecewiseSpec(family="locfrac", exponents=(0.6,), freq_band=band)
            return
        kwargs = {"freq_band": (0.3, 1.2), key: band}
        with pytest.raises(ValidationError, match=key):
            default_params("locfrac", 16000, m=1, delta=0.25, **kwargs)

    @pytest.mark.parametrize("delta", [0.0, -0.25, float("nan"), float("inf")])
    @pytest.mark.parametrize("family", ["fgn", "locfrac"])
    def test_delta_must_be_finite_and_positive(self, family, delta):
        band = (0.3, 1.2) if family == "locfrac" else None
        with pytest.raises(ValidationError, match="delta must be finite"):
            default_params(family, 16000, m=1, delta=delta, freq_band=band)

    @pytest.mark.parametrize("v_n", [0.0, -5.0, float("nan"), "abc"])
    def test_v_n_must_be_positive(self, v_n):
        with pytest.raises(ValidationError, match="v_n must be"):
            default_params("fgn", 4096, v_n=v_n)

    def test_zero_a_base_is_refused_not_the_default(self):
        with pytest.raises(ValidationError, match="base scale must be positive"):
            default_params("fgn", 4096, a_base=0)

    def test_infinite_v_n_means_no_margin(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        params = default_params("fgn", 4096, ell=6, v_n=float("inf"))
        path = simulate_piecewise(spec, 4096, seed=2)
        rep = analyze(path, params, with_fgls=False)
        assert (rep.margin, rep.margin_clamped) == (0.0, False)
        assert (rep.segments[0].k_lo, rep.segments[0].k_hi) == (0, 4096)

    def test_trend_safe_detection_scales(self):
        p = default_params("fgn", 20000, ell=30, min_det_scale=20)
        assert p.det_grid.ratios[0] == 20


class TestAnalyze:
    def test_single_regime_report(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        path = simulate_piecewise(spec, 8192, seed=0)
        params = default_params("fgn", 8192, m=0, ell=10)
        rep = analyze(path, params)
        assert rep.result.m == 0
        assert len(rep.segments) == 1
        seg = rep.segments[0]
        assert 0.2 < seg.exponent_ols < 0.8
        assert seg.gof.df == 8
        assert 0.0 <= seg.gof.p_value <= 1.0
        assert seg.ci_alpha[0] < seg.ols.alpha < seg.ci_alpha[1]

    def test_detected_change_and_fits(self):
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.75,), exponents=(0.2, 0.8))
        path = simulate_piecewise(spec, 20000, seed=1)
        params = default_params("fgn", 20000, m=1, ell=30)
        rep = analyze(path, params)
        assert abs(rep.result.tau_hat[0] - 0.75) < 0.05
        assert len(rep.segments) == 2
        assert rep.segments[0].exponent_ols < rep.segments[1].exponent_ols
        assert rep.segments[0].fgls is not None

    def test_without_fgls(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        path = simulate_piecewise(spec, 4096, seed=2)
        params = default_params("fgn", 4096, m=0, ell=6)
        rep = analyze(path, params, with_fgls=False)
        assert rep.segments[0].fgls is None
        assert rep.segments[0].gof is None

    def test_refuses_path_at_another_delta(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        params = default_params("fgn", 4096, m=0, ell=6)
        path = simulate_piecewise(spec, 4096, seed=2)
        with pytest.raises(ValidationError, match="delta=0.5"):
            analyze(SampledPath(values=path.values, delta=0.5), params)
        # Within the 1e-9 relative tolerance of a CSV time column.
        near = SampledPath(values=path.values, delta=1.0 + 1e-12)
        assert len(analyze(near, params, with_fgls=False).segments) == 1

    @pytest.mark.parametrize("with_fgls", [True, False])
    @pytest.mark.parametrize("ci_level", [1.5, 1.0, -0.1, float("nan")])
    def test_bad_ci_level_fails_before_detection(
        self, monkeypatch, ci_level, with_fgls
    ):
        import scalebreak.pipeline as pipeline

        def no_detect(*args, **kwargs):
            raise AssertionError("detection ran")

        monkeypatch.setattr(pipeline, "detect", no_detect)
        params = default_params("fgn", 4096, ell=6)
        path = SampledPath(values=np.zeros(4097))
        with pytest.raises(ValidationError, match="confidence level"):
            analyze(path, params, with_fgls=with_fgls, ci_level=ci_level)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_change_near_the_end_is_fitted(self, seed):
        # A change at tau* = 0.95 puts k_hat at the min_len edge; the margin
        # cap still leaves the last window 2 shifts at scale 360.
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.95,), exponents=(0.2, 0.8))
        params = default_params("fgn", 20000, m=1, ell=30)
        path = simulate_piecewise(spec, 20000, seed=seed)
        rep = analyze(path, params, with_fgls=False)
        assert len(rep.segments) == 2
        assert all(s.k_hi - s.k_lo >= 720 for s in rep.segments)

    @pytest.mark.parametrize("family, kwargs", [
        ("locfrac", dict(ell=7, delta=0.25, freq_band=(0.3, 1.2))),
        ("fgn", dict(ell=6, profile="classic")),
        ("fgn", dict(ell=6)),  # tuned: a detection grid of its own
    ], ids=["locfrac", "classic", "tuned"])
    def test_one_table_per_grid(self, monkeypatch, family, kwargs):
        import scalebreak.pipeline as pipeline

        built = []

        class CountingTable(ScalogramTable):
            def __init__(self, path, wavelet, grid):
                built.append(grid)
                super().__init__(path, wavelet, grid)

        monkeypatch.setattr(pipeline, "ScalogramTable", CountingTable)
        params = default_params(family, 8000, **kwargs)
        spec = PiecewiseSpec(
            family=family, exponents=(0.6,), freq_band=kwargs.get("freq_band")
        )
        path = simulate_piecewise(spec, 8000, delta=params.delta, seed=3)
        analyze(path, params, with_fgls=False)
        assert sorted(map(repr, built)) == sorted(
            map(repr, {params.grid, params.det_grid})
        )

    @pytest.mark.parametrize("family, name, exponents", [
        ("fbm", "gamma_fbm", (0.3, 0.7)),
        ("fgn", "gamma_lrd", (0.2, 0.8)),
    ])
    def test_gamma_is_looked_up_when_analyze_runs(
        self, monkeypatch, family, name, exponents
    ):
        # The benchmark's tracer counts Gamma calls by wrapping these module
        # attributes; a route bound before analyze runs would bypass it.
        import scalebreak.estimate as estimate

        calls = []
        real = getattr(estimate, name)

        def counted(*args):
            calls.append(args[0])
            return real(*args)

        monkeypatch.setattr(estimate, name, counted)
        spec = PiecewiseSpec(family=family, tau_stars=(0.5,), exponents=exponents)
        params = default_params(family, 5000, m=1, ell=7, exponent_spread=0.4)
        rep = analyze(simulate_piecewise(spec, 5000, seed=0), params)
        assert len(calls) == params.constraints.m + 1 == len(rep.segments)

    def test_refuses_path_of_another_length(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        params = default_params("fgn", 4096, m=0, ell=6)
        path = simulate_piecewise(spec, 3000, seed=2)
        with pytest.raises(ValidationError, match="N=3000.*N=4096"):
            analyze(path, params)

    def test_locfrac_pipeline_end_to_end(self):
        spec = PiecewiseSpec(
            family="locfrac", exponents=(0.6,), freq_band=(0.3, 1.2)
        )
        path = simulate_piecewise(spec, 8000, delta=0.25, seed=3)
        params = default_params(
            "locfrac", 8000, m=0, ell=7, delta=0.25, freq_band=(0.3, 1.2)
        )
        rep = analyze(path, params)
        seg = rep.segments[0]
        assert abs(seg.exponent_ols - 0.6) < 0.25
        assert np.isfinite(seg.gof.statistic)

    def test_locfrac_change_point_smoke(self):
        # Band-limited wavelets have effective supports of thousands of
        # samples at in-band scales, so the change is localized only
        # coarsely; the exponent ordering across the split is the robust
        # signature.
        spec = PiecewiseSpec(
            family="locfrac", tau_stars=(0.5,), exponents=(0.3, 1.0),
            freq_band=(0.3, 1.2),
        )
        path = simulate_piecewise(spec, 16000, delta=0.25, seed=11)
        params = default_params(
            "locfrac", 16000, m=1, ell=7, delta=0.25, freq_band=(0.3, 1.2)
        )
        rep = analyze(path, params, with_fgls=False)
        assert abs(rep.result.tau_hat[0] - 0.5) < 0.25
        assert rep.segments[0].exponent_ols < rep.segments[1].exponent_ols


def test_confidence_interval_coverage():
    # 95% intervals for the slope cover the truth for a sane fraction of
    # single-regime replicates.
    spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
    params = default_params("fgn", 8192, m=0, ell=10)
    hits = 0
    reps = 100
    for i in range(reps):
        path = simulate_piecewise(spec, 8192, seed=30_000 + i)
        rep = analyze(path, params)
        lo, hi = rep.segments[0].ci_alpha
        hits += lo <= 0.5 <= hi
    assert 85 <= hits <= 100


class TestMonteCarlo:
    def test_deterministic_summary(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        params = default_params("fgn", 4096, m=0, ell=6)
        a = run_montecarlo(spec, 4096, params, reps=2, seed=5)
        b = run_montecarlo(spec, 4096, params, reps=2, seed=5)
        assert a == b

    def test_summary_columns(self):
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.5,), exponents=(0.3, 0.7))
        params = default_params("fgn", 4096, m=1, ell=6)
        recs = run_montecarlo(spec, 4096, params, reps=3, seed=11, with_fgls=True)
        summ = summarize(recs, spec)
        assert set(summ) == {
            "tau_1", "exp_0_ols", "exp_1_ols", "exp_0_fgls", "exp_1_fgls"
        }
        for stats in summ.values():
            assert {"mean", "sigma_hat", "sqrt_mse", "true"} <= set(stats)

    def test_locfrac_simulates_at_params_delta(self):
        spec = PiecewiseSpec(
            family="locfrac", exponents=(0.6,), freq_band=(0.3, 1.2)
        )
        params = default_params(
            "locfrac", 8000, m=0, ell=7, delta=0.25, freq_band=(0.3, 1.2)
        )
        recs = run_montecarlo(spec, 8000, params, reps=2, seed=3, with_fgls=True)
        for i, rec in enumerate(recs):
            path = simulate_piecewise(spec, 8000, delta=params.delta, seed=3 + i)
            rep = analyze(path, params)
            assert rec["tau_hat"] == rep.result.tau_hat
            assert rec["exponent_ols"] == tuple(s.exponent_ols for s in rep.segments)
            assert rec["exponent_fgls"] == tuple(
                s.exponent_fgls for s in rep.segments
            )

    def test_summary_keys_in_csv_order(self):
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.5,), exponents=(0.3, 0.7))
        recs = [
            {"tau_hat": (0.5 + i,), "exponent_ols": (i, 2 * i),
             "exponent_fgls": (3 * i, 4 * i)}
            for i in range(2)
        ]
        names = ["tau_1", "exp_0_ols", "exp_1_ols", "exp_0_fgls", "exp_1_fgls"]
        assert list(columns(recs, spec)) == names
        assert list(summarize(recs, spec)) == names
        assert columns(recs, spec)["exp_1_fgls"] == ([0, 4], 0.7)
        ols_only = [{k: r[k] for k in ("tau_hat", "exponent_ols")} for r in recs]
        assert list(summarize(ols_only, spec)) == names[:3]

    def test_refuses_n_other_than_params(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        params = default_params("fgn", 4096, m=0, ell=6)
        with pytest.raises(ValidationError, match="n=3000.*N=4096"):
            run_montecarlo(spec, 3000, params, reps=2, seed=0)

    def test_rejects_single_replicate(self):
        spec = PiecewiseSpec(family="fgn", exponents=(0.5,))
        params = default_params("fgn", 4096, m=0, ell=6)
        with pytest.raises(ValidationError):
            run_montecarlo(spec, 4096, params, reps=1, seed=0)
