"""The newest committed BENCH_*.json parses and names every workload and
metric of BENCHMARK.json; the recorder's summary counts pairs right.  No
timing is checked."""

import importlib.util
import json
import math
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
END_TO_END = [m["name"] for m in BENCHMARK["end_to_end"]]
PER_LAYER = [m["name"] for m in BENCHMARK["per_layer"]]


def _load_recorder():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "scripts" / "bench_record.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_record = _load_recorder()


def _natural(path):
    return [int(t) if t.isdigit() else t for t in re.split(r"(\d+)", path.stem)]


@pytest.fixture(scope="module")
def record():
    files = sorted(ROOT.glob("BENCH_*.json"), key=_natural)
    assert files, "no BENCH_*.json at the repository root"
    return json.loads(files[-1].read_text())


def _numbers(mapping, names):
    return all(isinstance(mapping[n], (int, float)) and math.isfinite(mapping[n])
               for n in names)


def test_header(record):
    assert record["format"] == bench_record.FORMAT
    assert record["seeds"] == bench_record.SEEDS
    assert "change" in record["checkouts"]
    for side, info in record["checkouts"].items():
        assert side in ("parent", "change")
        assert re.fullmatch(r"[0-9a-f]{64}", info["src_sha256"])


def test_every_run_names_every_workload_and_metric(record):
    sides = set(record["checkouts"])
    for side in sides:
        seeds = [r["seed"] for r in record["runs"] if r["side"] == side]
        assert sorted(seeds) == bench_record.SEEDS
    for run in record["runs"]:
        assert run["trace"] == 0 and isinstance(run["failed"], int)
        assert "workloads" in run["environment"]
        assert set(run["metrics"]) == set(WORKLOADS)
        for workload in WORKLOADS:
            assert _numbers(run["metrics"][workload], END_TO_END)


def test_traced_runs_name_every_layer_metric(record):
    assert set(record["traces"]) == set(record["checkouts"])
    for traced in record["traces"].values():
        assert set(traced["metrics"]) == set(WORKLOADS)
        for workload in WORKLOADS:
            assert _numbers(traced["metrics"][workload], PER_LAYER)


def test_summary_has_quartiles_for_every_side(record):
    paired = "parent" in record["checkouts"]
    for workload in WORKLOADS:
        for metric in END_TO_END:
            entry = record["summary"][workload][metric]
            for side in record["checkouts"]:
                s = entry[side]
                assert s["n"] == len(bench_record.SEEDS)
                assert s["q1"] <= s["median"] <= s["q3"]
            if paired:
                assert entry["pairs"] == len(bench_record.SEEDS)
                assert entry["change_wins"] + entry["parent_wins"] <= entry["pairs"]


def test_summarize_counts_wins_by_direction():
    runs = [
        {"side": side, "seed": seed, "metrics": {"w": {"t": t, "r": -t}}}
        for seed, (p, c) in enumerate([(3.0, 2.0), (2.0, 2.0), (1.0, 4.0), (5.0, 1.0)])
        for side, t in (("parent", p), ("change", c))
    ]
    summary = bench_record.summarize(runs, {"t": "lower", "r": "higher"})
    for metric in ("t", "r"):
        entry = summary["w"][metric]
        assert (entry["pairs"], entry["change_wins"], entry["parent_wins"]) == (4, 2, 1)
    assert summary["w"]["t"]["parent"] == {"n": 4, "median": 2.5, "q1": 1.75, "q3": 3.5}
    alone = bench_record.summarize(
        [r for r in runs if r["side"] == "change"], {"t": "lower"}
    )
    assert "pairs" not in alone["w"]["t"] and "parent" not in alone["w"]["t"]


def _fake_checkout(root, run_py):
    (root / "perfbench" / "__pycache__").mkdir(parents=True)
    (root / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    (root / "perfbench" / "run.py").write_text(run_py)
    return root


def test_bench_digest_covers_perfbench_and_benchmark_json(tmp_path):
    root = _fake_checkout(tmp_path / "a", "print(1)\n")
    first = bench_record.checkout(root)["bench_sha256"]
    (root / "perfbench" / "__pycache__" / "run.cpython.pyc").write_bytes(b"x")
    assert bench_record.checkout(root)["bench_sha256"] == first
    for name in ("perfbench/run.py", "BENCHMARK.json"):
        path = root / name
        text = path.read_text()
        path.write_text(text + " ")
        assert bench_record.checkout(root)["bench_sha256"] != first
        path.write_text(text)
    assert bench_record.checkout(root)["bench_sha256"] == first


def test_refuses_checkouts_whose_benchmarks_differ(tmp_path, monkeypatch, capsys):
    change = _fake_checkout(tmp_path / "change", "print(1)\n")
    parent = _fake_checkout(tmp_path / "parent", "print(2)\n")

    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr(bench_record, "ROOT", change)
    monkeypatch.setattr(bench_record, "run_bench", no_run)
    assert bench_record.main(["--label", "t", "--parent", str(parent)]) == 2
    assert "differs between the checkouts" in capsys.readouterr().err
    assert not list(change.glob("BENCH_*.json"))
    # The same benchmark files on both sides pass the check.
    (parent / "perfbench" / "run.py").write_text("print(1)\n")
    with pytest.raises(AssertionError, match="a run started"):
        bench_record.main(["--label", "t", "--parent", str(parent)])
