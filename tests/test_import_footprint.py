"""Importing the CLI loads no scipy module at all.

The package needs numpy only at run time: ``scipy.special`` alone took
0.23-0.28 s of a 0.35-0.42 s ``import scalebreak.cli`` and most of the
difference between its 54 MB and numpy's 26 MB.  The tests still use scipy
as an oracle.  The test checks module names, not times.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_cli_import_loads_no_scipy_module():
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
    assert sorted(m for m in modules if m.split(".")[0] == "scipy") == []
