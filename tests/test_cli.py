import json
import logging

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import scalebreak.estimate as estimate
from scalebreak import PiecewiseSpec, default_params, run_montecarlo
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

    def test_zero_delta_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "simulate", "--family", "locfrac", "--n", "4000", "--exponents", "0.6",
            "--band", "0.3", "1.2", "--delta", "0", "--out", tmp_path / "path.csv",
        )
        assert code == 2
        assert "delta must be finite and positive" in capsys.readouterr().err


class TestDetect:
    def test_round_trip_with_simulate(self, tmp_path):
        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "8192",
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

    def test_locfrac_one_column_takes_delta(self, tmp_path):
        # The README's band-limited example: at delta = 1 the band holds
        # only 4 integer scales and ell = 5 would be refused.
        series = tmp_path / "series.csv"
        band = ["--band", "0.3", "1.2", "--delta", "0.25"]
        assert run_cli(
            "simulate", "--family", "locfrac", "--n", "16000",
            "--tau", "0.5", "--exponents", "0.3", "1.0", *band, "--seed", "11",
            "--out", series,
        ) == 0
        out = tmp_path / "result.json"
        assert run_cli(
            "detect", "--family", "locfrac", "--m", "1", "--ell", "5", *band,
            "--wavelet-band", "2", "3", "--input", series, "--out", out,
        ) == 0
        assert json.loads(out.read_text())["delta"] == 0.25

    def test_two_column_step_must_match_delta(self, tmp_path, capsys):
        f = tmp_path / "tx.csv"
        t = 0.25 * np.arange(101)
        f.write_text("\n".join(f"{a},{b}" for a, b in zip(t, np.sin(t))))
        assert read_series_csv(str(f), 0.25).delta == pytest.approx(0.25)
        with pytest.raises(ValidationError, match="delta=0.5"):
            read_series_csv(str(f), 0.5)
        code = run_cli(
            "detect", "--family", "fgn", "--delta", "1", "--input", f,
            "--out", tmp_path / "res.json",
        )
        assert code == 2
        assert "time column steps by 0.25" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "nulls", [{"kappa": None}, {"q": None, "trim": None}]
    )
    def test_config_null_means_default(self, tmp_path, nulls):
        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "4096", "--exponents", "0.5",
            "--seed", "4", "--out", series,
        )
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "fgn", "ell": 6, **nulls}))
        out = tmp_path / "res.json"
        assert run_cli(
            "detect", "--config", cfg, "--input", series, "--out", out
        ) == 0
        default = tmp_path / "default.json"
        run_cli(
            "detect", "--family", "fgn", "--ell", "6", "--input", series,
            "--out", default,
        )
        result = json.loads(out.read_text())
        assert result["segments"] == json.loads(default.read_text())["segments"]

    def test_config_hash_ignores_file_names(self, tmp_path):
        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "4096", "--exponents", "0.5",
            "--seed", "4", "--out", series,
        )
        hashes = []
        for name, extra in [("a", []), ("b", []), ("c", ["--m", "1"])]:
            out = tmp_path / f"{name}.json"
            assert run_cli(
                "detect", "--family", "fgn", "--ell", "6", *extra,
                "--input", series, "--out", out,
            ) == 0
            chash = json.loads(out.read_text())["config_hash"]
            header = (tmp_path / f"{name}_scalogram.csv").read_text().splitlines()[0]
            assert header == f"# config_hash={chash}"
            hashes.append(chash)
        assert hashes[0] == hashes[1] != hashes[2]

    def test_v_n_is_n_over_margin(self, tmp_path):
        series = tmp_path / "series.csv"
        np.savetxt(series, np.random.default_rng(6).normal(size=4097))
        out = tmp_path / "res.json"
        # v_n = 2 asks for a margin of 2048; the cap at a quarter of the
        # segment makes it 1024, so the run used v_n = 4.
        for v_n, used, clamped in (("2", 4.0, True), ("8", 8.0, False),
                                   ("inf", float("inf"), False)):
            assert run_cli(
                "detect", "--family", "fgn", "--ell", "6", "--v-n", v_n,
                "--input", series, "--out", out,
            ) == 0
            payload = json.loads(out.read_text())
            assert (payload["v_n"], payload["margin_clamped"]) == (used, clamped)
            if payload["margin"]:
                assert payload["v_n"] == payload["n"] / payload["margin"]

    @pytest.mark.parametrize(
        "flag, message",
        [(("--v-n", "0"), "v_n must be positive"),
         (("--v-n", "nan"), "v_n must be positive"),
         (("--ci-level", "1.5"), "confidence level")],
    )
    def test_bad_run_option_exits_2(self, tmp_path, capsys, flag, message):
        series = tmp_path / "series.csv"
        np.savetxt(series, np.random.default_rng(6).normal(size=4097))
        out = tmp_path / "res.json"
        assert run_cli(
            "detect", "--family", "fgn", "--ell", "6", *flag,
            "--input", series, "--out", out,
        ) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_scale_whose_filter_is_zero_exits_2(self, tmp_path, capsys):
        # The q = 3 filter sampled at scale 1 is [psi(0)] = [-0.0].
        series = tmp_path / "series.csv"
        np.savetxt(series, np.random.default_rng(6).normal(size=4001))
        out = tmp_path / "res.json"
        assert run_cli(
            "detect", "--family", "fgn", "--ell", "6", "--min-det-scale", "1",
            "--input", series, "--out", out,
        ) == 2
        assert "sampled wavelet is zero at scale 1" in capsys.readouterr().err
        assert not out.exists()

    def test_result_records_the_lattice_size_used(self, tmp_path, monkeypatch, caplog):
        # 200 lattice points per unit ratio put the ell = 6 grid on M = 2048.
        monkeypatch.setattr(estimate, "_PER_RATIO", 200)
        series = tmp_path / "series.csv"
        np.savetxt(series, np.random.default_rng(6).normal(size=4097))
        out = tmp_path / "res.json"
        caplog.set_level(logging.DEBUG, logger="scalebreak")
        assert run_cli(
            "detect", "--family", "fgn", "--ell", "6", "--input", series, "--out", out,
        ) == 0
        quadrature = json.loads(out.read_text())["quadrature"]
        assert quadrature == {"simpson_intervals": 8192, "lattice_size": 2048}
        used = {r.args[0] for r in caplog.records if "lattice" in r.getMessage()}
        assert used == {2048}

    def test_fbm_kappa_out_of_range_exits_2(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        np.savetxt(series, np.random.default_rng(6).normal(size=5001))
        code = run_cli(
            "detect", "--family", "fbm", "--kappa", "-0.5", "--ell", "7",
            "--input", series, "--out", tmp_path / "res.json",
        )
        assert code == 2
        assert "kappa must lie in (0, 2/3)" in capsys.readouterr().err

    def test_nonuniform_spacing_rejected(self, tmp_path):
        f = tmp_path / "tx.csv"
        f.write_text("0.0,1.0\n1.0,2.0\n2.5,3.0\n")
        with pytest.raises(ValidationError):
            read_series_csv(str(f))

    def test_n_and_seed_come_from_the_input(self, tmp_path):
        # detect takes N from its input and draws nothing: a config's n and
        # seed are read by simulate and montecarlo only.
        series = tmp_path / "series.csv"
        run_cli(
            "simulate", "--family", "fgn", "--n", "4096", "--exponents", "0.5",
            "--seed", "2", "--out", series,
        )
        outputs = []
        for name, extra in (("plain", {}), ("other", {"n": 5000, "seed": 9})):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps({"family": "fgn", "ell": 6, **extra}))
            out = tmp_path / f"res-{name}.json"
            assert run_cli(
                "detect", "--config", cfg, "--input", series, "--out", out
            ) == 0
            outputs.append(json.loads(out.read_text()))
        assert outputs[0] == outputs[1]
        assert outputs[0]["n"] == 4096 and "seed" not in outputs[0]

    def test_config_band_of_one_number_exits_2(self, tmp_path, capsys):
        series = tmp_path / "series.csv"
        series.write_text("\n".join(["0.0"] * 4001))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"family": "locfrac", "band": [0.3]}))
        code = run_cli(
            "detect", "--config", cfg, "--delta", "0.25", "--input", series,
            "--out", tmp_path / "res.json",
        )
        assert code == 2
        assert "freq_band must be two numbers" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["detect", "montecarlo"])
    def test_config_non_numeric_value_exits_2(self, tmp_path, capsys, command):
        series = tmp_path / "series.csv"
        series.write_text("\n".join(["0.0"] * 4001))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "fgn", "n": 4000, "m": 1, "tau": [0.5],
            "exponents": [0.3, 0.7], "ell": "abc", "reps": 2, "seed": 1,
        }))
        files = ["--input", series] if command == "detect" else []
        code = run_cli(
            command, "--config", cfg, *files, "--out", tmp_path / "out"
        )
        assert code == 2
        assert "ell must be a number, got 'abc'" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value, message", [
        ("detect", "ci_level", "abc", "ci_level must be a number, got 'abc'"),
        ("detect", "delta", "abc", "delta must be a number, got 'abc'"),
        ("simulate", "n", "abc", "n must be a number, got 'abc'"),
        ("montecarlo", "reps", "abc", "reps must be a number, got 'abc'"),
        ("montecarlo", "seed", "abc", "seed must be a number, got 'abc'"),
        ("montecarlo", "exponents", ["a", 0.7], "exponents must be a number, got 'a'"),
        ("montecarlo", "tau", "0.5", "tau must be a list, got '0.5'"),
        ("montecarlo", "sigmas", [1.0, "a"], "sigmas must be a number, got 'a'"),
    ])
    def test_config_non_numeric_run_option_exits_2(
        self, tmp_path, capsys, command, key, value, message
    ):
        series = tmp_path / "series.csv"
        series.write_text("\n".join(["0.0"] * 4001))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "fgn", "n": 4000, "m": 1, "tau": [0.5],
            "exponents": [0.3, 0.7], "ell": 6, "reps": 2, "seed": 1, key: value,
        }))
        files = ["--input", series] if command == "detect" else []
        code = run_cli(
            command, "--config", cfg, *files, "--out", tmp_path / "out"
        )
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value", [("reps", 2.5), ("seed", 1.5), ("reps", "2.5")]
    )
    def test_config_fractional_integer_exits_2(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "family": "fgn", "n": 4000, "m": 1, "tau": [0.5],
            "exponents": [0.3, 0.7], "ell": 6, "reps": 2, "seed": 1, key: value,
        }))
        assert run_cli("montecarlo", "--config", cfg, "--out", tmp_path / "out") == 2
        assert f"{key} must be an integer, got {value!r}" in capsys.readouterr().err

    def test_config_numeric_strings_read_as_numbers(self, tmp_path):
        outputs = []
        for cfg_values in (
            {"n": 2000, "tau": [0.5], "exponents": [0.3, 0.7], "reps": 2,
             "seed": 1, "ci_level": 0.9},
            {"n": 2000.0, "tau": [0.5], "exponents": [0.3, 0.7], "reps": 2.0,
             "seed": 1.0, "ci_level": 0.9},
            {"n": "2000", "tau": ["0.5"], "exponents": ["0.3", "0.7"], "reps": "2",
             "seed": "1", "ci_level": "0.9"},
            {"n": "2000.0", "tau": ["0.5"], "exponents": ["0.3", "0.7"],
             "reps": "2.0", "seed": "1.0", "ci_level": "0.9"},
        ):
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"family": "fgn", "m": 1, "ell": 6, **cfg_values}))
            out = tmp_path / f"mc{len(outputs)}.csv"
            assert run_cli("montecarlo", "--config", cfg, "--out", out) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2] == outputs[3]

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        out = tmp_path / "res.json"
        code = run_cli(
            "detect", "--family", "fgn", "--input", tmp_path / "nope.csv",
            "--out", out,
        )
        assert code == 4


# Each text is read by the package's reader and by the row-by-row oracle.
READER_CASES = {
    "comments-and-blanks": "# a\n#b\n1.0\n\n2.0\n  # middle\n3.0\n   \n,\n4.0\n",
    "only-comments": "# a\n\n# b\n",
    "header": "value\n1\n2\n3\n",
    "two-column-header": "t,x\n0,1\n1,2\n2,3\n",
    "bad-cell": "1\n2\nnope\n3\n",
    "bad-second-column": "0,1\n1,abc\n2,3\n",
    "comment-after-a-value": "1\n2 # two\n3\n",
    "hash-in-second-column": "0,1\n1,#x\n2,3\n",
    "trailing-comma": "# c\n1.0,\n2.0,\n3.0,\n",
    "trailing-comma-on-line-1": "1.0,\n2.0,\n3.0,\n4.0,\n",
    "empty-cells": ",1\n,2,\n3,,\n,,4\n",
    "whitespace": "  1.5 \n\t2.5\n 3.5  ,  \n4.5\n",
    "two-column-whitespace": " 0 , 1 \n1,  2\n 2 ,3\n",
    "crlf": "# c\r\n1\r\n2\r\n\r\n3\r\n4\r\n",
    "cr": "1\r2\r3\r4",
    "quoted": '"1.5"\n2.5\n" 3.5 "\n4\n',
    "two-column-quoted": '"0","1"\n"1",2\n2,"3"\n',
    "underscore": "1_000\n2\n3\n",
    "nan-and-inf": "1\nnan\n2\n-inf\n3\n",
    "two-column": "0,1\n0.5,2\n1.0,3\n1.5,4\n",
    "two-column-uneven": "0,1\n0.5,2\n1.5,3\n",
    "mixed-widths": "1\n2,3\n4\n",
    "empty-file": "",
    "too-short": "1\n2\n",
    "two-column-infinite-time": "inf,1\ninf,2\ninf,3\n",
    "two-column-overflowing-step": "-1e308,1\n1e308,2\n1.7e308,3\n",
}


def _read(reader, path):
    try:
        got = reader(str(path))
    except ValidationError as exc:
        return str(exc)
    assert got.values.flags.c_contiguous
    return got.values.tolist(), got.delta


class TestReadSeriesCsv:
    @pytest.mark.parametrize("name", READER_CASES)
    def test_matches_the_row_by_row_oracle(self, tmp_path, name):
        f = tmp_path / "series.csv"
        f.write_bytes(READER_CASES[name].encode())
        assert _read(read_series_csv, f) == _read(oracles.read_series_csv, f)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_benchmark_input_matches_the_oracle(self, tmp_path, seed):
        # The detect-fgn-m1 benchmark's inputs (perfbench/workloads.py).
        f = tmp_path / "input.csv"
        assert run_cli(
            "simulate", "--family", "fgn", "--n", "20000", "--tau", "0.75",
            "--exponents", "0.2", "0.8", "--seed", seed, "--out", f,
        ) == 0
        got = _read(read_series_csv, f)
        assert len(got[0]) == 20001
        assert got == _read(oracles.read_series_csv, f)


    def test_byte_order_mark_is_not_a_header(self, tmp_path):
        # Excel's "CSV UTF-8" export starts the file with a BOM.
        f = tmp_path / "series.csv"
        f.write_bytes("\ufeff1.5\n2\n3\n4".encode())
        for reader in (read_series_csv, oracles.read_series_csv):
            assert reader(str(f)).values.tolist() == [1.5, 2.0, 3.0, 4.0]

    @pytest.mark.parametrize("data, message", [
        (b"1\n2\n\xe9\n3\n", "'utf-8' codec can't decode byte 0xe9"),
        (b"1" * 131_073 + b"\n2\n3\n", "field larger than field limit (131072)"),
    ], ids=["not-utf-8", "oversized-cell"])
    def test_unreadable_text_exits_2(self, tmp_path, capsys, data, message):
        f = tmp_path / "series.csv"
        f.write_bytes(data)
        for reader in (read_series_csv, oracles.read_series_csv):
            with pytest.raises(ValidationError, match="input CSV cannot be read"):
                reader(str(f))
        out = tmp_path / "res.json"
        assert run_cli("detect", "--family", "fgn", "--input", f, "--out", out) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


# ---------------------------------------------------------------------------
# Property: whatever text a CSV holds, the package reader and the row-by-row
# oracle agree, and detect exits 0, 2, 3 or 4.

NUMBERS = st.one_of(
    st.sampled_from(["nan", "NaN", "inf", "-inf", "+inf", "1e308", "-1e308",
                     "5e-324", "-0", "0", "1.5", "1_000"]),
    st.floats().map(repr),
    st.integers(-10**6, 10**6).map(str),
)
WORDS = st.sampled_from(["", " ", "t", "x", "value", "#", "# note", "abc"])
CELLS = st.one_of(NUMBERS, WORDS).flatmap(
    lambda c: st.sampled_from([c, f'"{c}"', f"  {c} ", f"\t{c}"])
)


@st.composite
def csv_texts(draw):
    """Bytes of a CSV: drawn rows around a run of plain values (so that some
    texts reach the analysis), with a drawn line ending, maybe a BOM, a byte
    that is not UTF-8 or a cell past the csv module's field limit."""
    rows = st.lists(CELLS, max_size=3).map(",".join)
    head, tail = draw(st.lists(rows, max_size=3)), draw(st.lists(rows, max_size=2))
    values = draw(st.sampled_from([1.0, 1e300, 1e-300])) * np.random.default_rng(
        draw(st.integers(0, 9))
    ).normal(size=draw(st.sampled_from([300, 40, 3, 0])))
    if draw(st.booleans()):
        body = [format(v, ".17g") for v in values]
    else:
        body = [f"{0.5 * i:.17g},{v:.17g}" for i, v in enumerate(values)]
    if draw(st.integers(0, 5)) == 3:
        tail.append("1" * 131_073)
    text = draw(st.sampled_from(["\n", "\r\n", "\r"])).join(head + body + tail)
    data = ("\ufeff" if draw(st.booleans()) else "").encode() + text.encode()
    if draw(st.integers(0, 5)) == 3:
        at = draw(st.integers(0, len(data)))
        bad = draw(st.sampled_from([b"\xff", b"\xe9", b"\x80"]))
        data = data[:at] + bad + data[at:]
    return data


@pytest.fixture(scope="module")
def csv_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("csv-property")


@settings(max_examples=120, deadline=None, derandomize=True)
@given(data=csv_texts())
def test_any_csv_text_reads_alike_and_exits_with_a_documented_code(csv_dir, data):
    f = csv_dir / "series.csv"
    f.write_bytes(data)
    got, want = _read(read_series_csv, f), _read(oracles.read_series_csv, f)
    assert got == want or (isinstance(got, str) and isinstance(want, str))
    out = csv_dir / "res.json"
    code = run_cli("detect", "--family", "fgn", "--input", f, "--out", out)
    assert code in (0, 2, 3, 4)


class TestMonteCarloCmd:
    def test_two_reps_deterministic(self, tmp_path):
        out1 = tmp_path / "a.csv"
        out2 = tmp_path / "b.csv"
        args = [
            "montecarlo", "--family", "fgn", "--n", "4096",
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
            "montecarlo", "--family", "fgn", "--n", "4096",
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

    def test_fgls_columns_match_run_montecarlo(self, tmp_path):
        out = tmp_path / "mc.csv"
        code = run_cli(
            "montecarlo", "--family", "fgn", "--n", "4096",
            "--tau", "0.5", "--exponents", "0.3", "0.7", "--ell", "6",
            "--reps", "2", "--seed", "21", "--fgls", "--out", out,
        )
        assert code == 0
        header, *rows = [l.split(",") for l in out.read_text().splitlines()[1:]]
        assert header == [
            "rep", "seed", "tau_1", "exp_0_ols", "exp_1_ols", "exp_0_fgls",
            "exp_1_fgls",
        ]
        spec = PiecewiseSpec(family="fgn", tau_stars=(0.5,), exponents=(0.3, 0.7))
        params = default_params("fgn", 4096, m=1, ell=6)
        recs = run_montecarlo(spec, 4096, params, reps=2, seed=21, with_fgls=True)
        for i, (row, rec) in enumerate(zip(rows, recs)):
            assert row[:2] == [str(i), str(rec["seed"])]
            assert [float(v) for v in row[2:]] == [
                *rec["tau_hat"], *rec["exponent_ols"], *rec["exponent_fgls"]
            ]

    def test_locfrac_zero_delta_exits_2(self, tmp_path, capsys):
        code = run_cli(
            "montecarlo", "--family", "locfrac", "--n", "16000",
            "--exponents", "0.6", "--band", "0.3", "1.2", "--delta", "0",
            "--out", tmp_path / "mc.csv",
        )
        assert code == 2
        assert "delta must be finite and positive" in capsys.readouterr().err

    def test_config_hash_embedded_everywhere(self, tmp_path):
        out = tmp_path / "mc.csv"
        run_cli(
            "montecarlo", "--family", "fgn", "--n", "4096", "--exponents",
            "0.5", "--ell", "6", "--reps", "2", "--seed", "1", "--out", out,
        )
        first = out.read_text().splitlines()[0]
        assert first.startswith("# config_hash=")
