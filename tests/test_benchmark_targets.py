"""The benchmark's span tracer wraps package names by their dotted paths;
every one of them must still exist, or traced benchmark runs break."""

import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


@pytest.mark.parametrize(
    "module,attr", [(module, attr) for module, attr, _ in tracer.TARGETS]
)
def test_every_traced_name_resolves(module, attr):
    # The tracer reads and restores owner.__dict__[name]: a name that is
    # only inherited or forwarded through __getattr__ would break it.
    owner, name = tracer._resolve(module, attr)
    assert name in owner.__dict__
    assert callable(owner.__dict__[name])
