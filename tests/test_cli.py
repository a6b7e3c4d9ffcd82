import json

import numpy as np
import pytest

from scalebreak.cli import main, read_series_csv
from scalebreak.errors import ValidationError


def run_cli(*args):
    return main([str(a) for a in args])


class TestSimulate:
    def test_row_count_and_determinism(self, tmp_path):
        out = tmp_path / "path.csv"
        code = run_cli(
            "simulate", "--family", "fgn", "--n", "500", "--exponents", "0.5",
            "--seed", "7", "--out", out,
        )
        assert code == 0
        data = np.loadtxt(out, comments="#")
        assert data.size == 501
        first = out.read_bytes()
        run_cli(
            "simulate", "--family", "fgn", "--n", "500", "--exponents", "0.5",
            "--seed", "7", "--out", out,
        )
        assert out.read_bytes() == first

    def test_metadata_sidecar(self, tmp_path):
        out = tmp_path / "path.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "300", "--exponents", "0.5",
            "--seed", "3", "--out", out,
        )
        meta = json.loads((out.parent / "path.csv.meta.json").read_text())
        assert meta["schema"] == "scalebreak/1"
        assert meta["seed"] == 3
        assert meta["n"] == 300
        assert "config_hash" in meta

    def test_missing_required_returns_2(self, capsys):
        assert run_cli("simulate", "--family", "fgn") == 2
        assert "missing required" in capsys.readouterr().err


class TestDetect:
    def test_round_trip_with_simulate(self, tmp_path):
        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "8192", "--m", "1",
            "--tau", "0.5", "--exponents", "0.3", "0.7", "--seed", "12",
            "--out", series,
        )
        out = tmp_path / "result.json"
        code = run_cli(
            "detect", "--family", "fgn", "--m", "1", "--ell", "8",
            "--input", series, "--out", out,
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["m"] == 1
        assert 0.3 < payload["tau_hat"][0] < 0.7
        assert len(payload["segments"]) == 2
        seg = payload["segments"][0]
        assert {"alpha_ols", "alpha_fgls", "gof_stat", "gof_p", "ci_alpha"} <= set(seg)

    @pytest.mark.parametrize(
        "values, code, message",
        [
            (np.ones(4001), 3, "rounding level"),
            (1e200 * np.random.default_rng(5).normal(size=4001), 2, "overflow"),
        ],
    )
    def test_degenerate_series_fail_with_their_cause(
        self, tmp_path, capsys, values, code, message
    ):
        series = tmp_path / "series.csv"
        np.savetxt(series, values)
        out = tmp_path / "result.json"
        assert run_cli(
            "detect", "--family", "fgn", "--m", "1", "--ell", "5",
            "--input", series, "--out", out,
        ) == code
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_plot_csv_columns(self, tmp_path):
        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "4096", "--exponents", "0.5",
            "--seed", "4", "--out", series,
        )
        out = tmp_path / "res.json"
        run_cli(
            "detect", "--family", "fgn", "--ell", "6", "--input", series,
            "--out", out,
        )
        plot = tmp_path / "res_scalogram.csv"
        lines = [l for l in plot.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "segment,scale_index,log_scale,log_variance,fitted"
        assert len(lines) == 1 + 6  # header + ell rows for the single segment

    def test_m0_single_segment_report(self, tmp_path):
        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "4096", "--exponents", "0.5",
            "--seed", "5", "--out", series,
        )
        out = tmp_path / "res.json"
        assert run_cli(
            "detect", "--family", "fgn", "--ell", "6", "--input", series,
            "--out", out,
        ) == 0
        payload = json.loads(out.read_text())
        assert payload["tau_hat"] == []
        assert len(payload["segments"]) == 1

    def test_gamma_non_convergence_exits_3(self, tmp_path, monkeypatch, capsys):
        import scalebreak.estimate as estimate

        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fbm", "--n", "4096", "--exponents", "0.5",
            "--seed", "5", "--out", series,
        )
        # gamma_fbm trusts its lag tail only from lag 8 on, so a cap of 7
        # fails at the first scale pair whatever H the fit returns.
        monkeypatch.setattr(estimate, "_MAX_LAG_TERMS", 7)
        code = run_cli(
            "detect", "--family", "fbm", "--ell", "6", "--input", series,
            "--out", tmp_path / "res.json",
        )
        assert code == 3
        assert "scale pair" in capsys.readouterr().err

    def test_non_numeric_cell_names_row_and_column(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0\n2.0\nnope\n3.0\n")
        out = tmp_path / "res.json"
        code = run_cli(
            "detect", "--family", "fgn", "--input", bad, "--out", out
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "row 3" in err and "column 1" in err

    def test_two_column_form_sets_delta(self, tmp_path):
        f = tmp_path / "tx.csv"
        t = 0.25 * np.arange(101)
        x = np.sin(t)
        f.write_text("\n".join(f"{a},{b}" for a, b in zip(t, x)))
        path = read_series_csv(str(f))
        assert path.delta == pytest.approx(0.25)
        assert path.n == 100

    def test_nonuniform_spacing_rejected(self, tmp_path):
        f = tmp_path / "tx.csv"
        f.write_text("0.0,1.0\n1.0,2.0\n2.5,3.0\n")
        with pytest.raises(ValidationError):
            read_series_csv(str(f))

    def test_config_n_mismatch_rejected(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "4096", "--exponents", "0.5",
            "--seed", "2", "--out", series,
        )
        out = tmp_path / "res.json"
        code = run_cli(
            "detect", "--family", "fgn", "--n", "5000", "--ell", "6",
            "--input", series, "--out", out,
        )
        assert code == 2
        assert "N=4096" in capsys.readouterr().err

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = run_cli(
            "detect", "--family", "fgn", "--input", tmp_path / "nope.csv",
            "--out", out,
        )
        assert code == 4


class TestMonteCarloCmd:
    def test_two_reps_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "montecarlo", "--family", "fgn", "--n", "4096", "--m", "1",
            "--tau", "0.5", "--exponents", "0.3", "0.7", "--ell", "6",
            "--reps", "2", "--seed", "21",
        ]
        assert run_cli(*args, "--out", out1) == 0
        assert run_cli(*args, "--out", out2) == 0
        strip = lambda p: [l for l in p.read_text().splitlines()[1:]]
        assert strip(out1) == strip(out2)

    def test_summary_rows_present(self, tmp_path):
        out = tmp_path / "mc.csv"
        run_cli(
            "montecarlo", "--family", "fgn", "--n", "4096", "--m", "1",
            "--tau", "0.5", "--exponents", "0.3", "0.7", "--ell", "6",
            "--reps", "3", "--seed", "1", "--out", out,
        )
        rows = [l.split(",") for l in out.read_text().splitlines()
                if not l.startswith("#")]
        header = rows[0]
        assert header[:2] == ["rep", "seed"]
        assert "tau_1" in header
        labels = [r[0] for r in rows[1:]]
        assert labels[-3:] == ["mean", "sigma_hat", "sqrt_mse"]

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "fgn", "n": 4096, "m": 1, "tau": [0.5],
            "exponents": [0.3, 0.7], "ell": 6, "reps": 2, "seed": 1,
        }))
        out = tmp_path / "mc.csv"
        code = run_cli("montecarlo", "--config", cfg, "--reps", "3",
                       "--out", out)
        assert code == 0
        rows = [l for l in out.read_text().splitlines()
                if not l.startswith("#") and not l.startswith(("rep", "mean",
                                                               "sigma", "sqrt"))]
        assert len(rows) == 3  # flag overrode the config's reps=2

    def test_config_hash_embedded_everywhere(self, tmp_path):
        out = tmp_path / "mc.csv"
        run_cli(
            "montecarlo", "--family", "fgn", "--n", "4096", "--exponents",
            "0.5", "--ell", "6", "--reps", "2", "--seed", "1", "--out", out,
        )
        first = out.read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
