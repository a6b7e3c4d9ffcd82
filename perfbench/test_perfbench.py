"""Self-test of the benchmark: the same code paths at a tiny size.

    python3 -m pytest perfbench -q

No timing thresholds: the test checks the result format, the output check,
the exact per-operation counts and the shape of the trace.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def run_all(trace):
    proc = run_bench("--workload", "all", "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["environment"], json.loads(lines[-1])


@pytest.fixture(scope="module")
def plain():
    return run_all(0)


@pytest.fixture(scope="module")
def traced():
    return run_all(1)


def check_result(result, declared):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= len(workloads.NAMES)
    expected = {f"{w}.{m['name']}": m["unit"] for w in workloads.NAMES for m in declared}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    assert set(workloads.DESIGNS["tiny"]) == set(workloads.NAMES)


def test_end_to_end_metrics(plain):
    env, result = plain
    check_result(result, BENCH["end_to_end"])
    assert {"python", "numpy", "scipy"} <= set(env["workloads"][0]["env"])
    assert env["nproc"] >= 1 and env["blas_threads"]
    for name in workloads.NAMES:
        assert result["metrics"][f"{name}.op_s_p50"]["value"] > 0
        assert result["metrics"][f"{name}.setup_s"]["value"] > 0
    for info in env["workloads"]:
        assert info["op_wall_s_p50"] > 0 and info["host_speed_p50"] > 0


def test_per_layer_counts(traced):
    _, result = traced
    check_result(result, BENCH["per_layer"])
    value = {k: v["value"] for k, v in result["metrics"].items()}
    gamma_calls = {"detect-fgn-m1": 4, "analyze-fgn-m3": 8,
                   "mc-farima-m1": 0, "analyze-fbm-m1": 4}
    for name, calls in gamma_calls.items():
        wl = workloads.Workload(name, "tiny", ".")
        assert value[f"{name}.estimate.gamma_calls"] == calls
        assert value[f"{name}.scalogram.tables"] == 2
        assert value[f"{name}.synth.calls"] == (1 if wl.kind == "mc" else 0)
        scales = len(wl.params.det_grid.ratios) + len(wl.params.grid.ratios)
        assert value[f"{name}.wavelet.coefficient_calls"] == scales
        if wl.params.constraints.m >= 2:
            stride = wl.params.constraints.candidate_stride
            cands = len(range(stride, wl.design.n, stride)) + 2
            assert value[f"{name}.segment.candidates"] == cands
            assert value[f"{name}.segment.pair_matrix_mb"] == cands**2 * 8 / 1e6
            assert 0 < value[f"{name}.segment.feasible_ratio"] < 1
        else:
            assert value[f"{name}.segment.candidates"] == 0
        if wl.kind == "detect":
            assert value[f"{name}.cli.read_s"] > 0
        assert value[f"{name}.host.speed"] > 0


def test_trace_spans_nest(traced):
    env, _ = traced
    for info in env["workloads"]:
        trace = json.loads((ROOT / info["trace_file"]).read_text())
        spans = trace["spans"]
        assert spans
        for s in spans:
            assert s["op"] is not None and s["start"] <= s["end"]
            if s["parent"] is not None:
                p = spans[s["parent"]]
                assert p["op"] == s["op"]
                assert p["start"] <= s["start"] and s["end"] <= p["end"]


def test_failed_operations_are_counted(tmp_path):
    wl = workloads.Workload("mc-farima-m1", "tiny", tmp_path)
    ref = workloads.load_reference("tiny")["mc-farima-m1"]["0"]
    assert worker.run_operation(wl, 0, ref)["failed"] == 0

    shifted = [dict(r, k_hat=[k + 1 for k in r["k_hat"]]) for r in ref]
    rec = worker.run_operation(wl, 0, shifted)
    assert rec["failed"] == 2 and "k_hat" in rec["error"]

    moved = [dict(r, exp_ols=[e + 2 * workloads.EXP_TOL for e in r["exp_ols"]])
             for r in ref]
    assert worker.run_operation(wl, 0, moved)["failed"] == 2

    nan = [dict(r, exp_ols=[float("nan")] * len(r["exp_ols"])) for r in ref]
    assert worker.run_operation(wl, 0, nan)["failed"] == 2

    def boom():
        raise FloatingPointError("injected")

    wl.operation = lambda key: boom
    rec = worker.run_operation(wl, 0, ref)
    assert rec["failed"] == 2 and "injected" in rec["error"]


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", workloads.NAMES[0], "--seed", "0",
                     "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
