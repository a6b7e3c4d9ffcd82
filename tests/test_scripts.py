"""The experiment scripts under scripts/ run end to end at a small size."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    pythonpath = os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_tables_fgn():
    out = run_script("run_tables.py", "--table", "fgn", "--reps", "2")
    assert "== fgn (N=20000, ell=30, reps=2)" in out
    rows = [line.split()[0] for line in out.splitlines() if "mean=" in line]
    assert rows == ["tau_1", "exp_0_ols", "exp_1_ols"]


def test_gof_calibration():
    out = run_script("gof_calibration.py", "--n", "4096", "--ell", "6", "--reps", "2")
    assert out.startswith("2 replicates in ")
    assert "(chi2(4) mean = 4)" in out
    assert "KS against chi2(4): statistic=" in out
    assert "fraction below the 95% quantile" in out
