"""Importing the package loads scipy.special and no heavier scipy submodule.

Each submodule barred below costs a CLI run a large share of its start-up
time and resident memory (scipy.signal alone took about 1 s of a 1.4 s
``import scalebreak.cli``).  The test checks module names, not times.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
BARRED = (
    "scipy.signal", "scipy.fft", "scipy.linalg", "scipy.integrate",
    "scipy.stats", "scipy.optimize",
)


def test_cli_import_loads_no_heavy_scipy_submodule():
    pythonpath = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    code = (
        "import sys, scalebreak, scalebreak.cli; "
        "print(scalebreak.__file__); print('\\n'.join(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=pythonpath),
        capture_output=True, text=True, timeout=120, check=True,
    )
    origin, *modules = proc.stdout.split()
    assert Path(origin).resolve().is_relative_to(SRC)
    assert "scipy.special" in modules
    packages = {".".join(m.split(".")[:2]) for m in modules}
    assert sorted(packages.intersection(BARRED)) == []
