"""The benchmark's workloads: their inputs, one operation each, and its outputs.

Inputs come from a fixed pool per workload, so that every input has an
output recorded in ``reference.json``; the run's seed picks the order in
which the pool is used.  The package is driven through its public names
only, looked up at call time so that the tracer's wrappers take effect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import scalebreak
from scalebreak import cli

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

# Exponents may move by this much (absolute) and still match the reference.
# Routing Gamma through another quadrature (relative change <= 3e-6) moves
# an FGLS exponent by far less (see README.md).  Change instants are
# compared exactly: moving one by a candidate cell does not always move an
# exponent.
EXP_TOL = 1e-5


@dataclass(frozen=True)
class Design:
    family: str
    n: int
    ell: int
    tau: tuple
    exponents: tuple
    pool: int


# A full-size pool holds no more inputs than a 10 s run has operations, so
# that a run uses every input of its pool: operation times differ by input
# (by up to 30 % on analyze-fbm-m1), and a run over part of a pool would
# measure which part the seed picked.  A run of analyze-fgn-m3 is a single
# operation, so there the seed picks the input.
DESIGNS = {
    "full": {
        "detect-fgn-m1": Design("fgn", 20000, 30, (0.75,), (0.2, 0.8), pool=3),
        "analyze-fgn-m3": Design(
            "fgn", 20000, 20, (0.25, 0.5, 0.75), (0.2, 0.8, 0.3, 0.7), pool=4
        ),
        "mc-farima-m1": Design("farima", 20000, 30, (0.75,), (0.2, 0.8), pool=16),
        "analyze-fbm-m1": Design("fbm", 5000, 7, (0.4,), (0.3, 0.7), pool=8),
    },
    # The same code paths at a size the self-test can afford.
    "tiny": {
        "detect-fgn-m1": Design("fgn", 2000, 5, (0.75,), (0.2, 0.8), pool=2),
        "analyze-fgn-m3": Design(
            "fgn", 1200, 4, (0.25, 0.5, 0.75), (0.2, 0.8, 0.3, 0.7), pool=2
        ),
        "mc-farima-m1": Design("farima", 2000, 5, (0.75,), (0.2, 0.8), pool=2),
        "analyze-fbm-m1": Design("fbm", 1000, 4, (0.4,), (0.3, 0.7), pool=2),
    },
}
NAMES = tuple(DESIGNS["full"])


def load_reference(size):
    with open(REFERENCE) as fh:
        return json.load(fh)[size]


class Workload:
    """One workload at one size, with its inputs prepared under ``workdir``.

    An operation is a CLI ``detect`` run, an ``analyze`` call or a
    ``run_montecarlo`` call.  ``run_montecarlo`` refuses fewer than two
    replicates, so its operation runs two and ``reps_per_op`` says so.
    """

    def __init__(self, name, size, workdir):
        self.name = name
        self.kind = name.split("-")[0]
        self.design = d = DESIGNS[size][name]
        self.spec = scalebreak.PiecewiseSpec(d.family, d.tau, d.exponents)
        spread = max(d.exponents) - min(d.exponents)
        self.params = scalebreak.default_params(
            d.family, d.n, m=len(d.tau), ell=d.ell, exponent_spread=spread
        )
        self.reps_per_op = 2 if self.kind == "mc" else 1
        self.workdir = Path(workdir)
        self.out = self.workdir / "result.json"
        self._inputs = {}

    @property
    def root_span(self):
        """Span the benchmark opens around an operation; ``analyze`` is
        wrapped by the tracer itself and needs none."""
        return {"detect": "cli.main", "mc": "pipeline.run_montecarlo"}.get(self.kind)

    def prepare(self, key):
        """Generate the input for pool entry ``key`` (once)."""
        if key in self._inputs or self.kind == "mc":
            return
        d = self.design
        if self.kind == "detect":
            csv = self.workdir / f"input-{key}.csv"
            argv = ["simulate", "--family", d.family, "--n", str(d.n),
                    "--tau", *map(str, d.tau), "--exponents", *map(str, d.exponents),
                    "--seed", str(key), "--out", str(csv)]
            if cli.main(argv) != 0:
                raise RuntimeError(f"simulate exited nonzero for input {key}")
            self._inputs[key] = csv
        else:
            self._inputs[key] = scalebreak.simulate_piecewise(self.spec, d.n, seed=key)

    def operation(self, key):
        """A zero-argument callable that performs one operation on ``key``."""
        d = self.design
        if self.kind == "detect":
            argv = ["detect", "--family", d.family, "--m", str(len(d.tau)),
                    "--ell", str(d.ell), "--input", str(self._inputs[key]),
                    "--out", str(self.out)]
            return lambda: cli.main(argv)
        if self.kind == "mc":
            return lambda: scalebreak.pipeline.run_montecarlo(
                self.spec, d.n, self.params, reps=self.reps_per_op,
                seed=self.reps_per_op * key,
            )
        path = self._inputs[key]
        return lambda: scalebreak.pipeline.analyze(path, self.params)

    def outputs(self, result):
        """Per-replicate change instants and exponents of one operation."""
        if self.kind == "detect":
            if result != 0:
                raise RuntimeError(f"detect exited with code {result}")
            with open(self.out) as fh:
                payload = json.load(fh)
            segs = payload["segments"]
            return [{
                "k_hat": payload["k_hat"],
                "exp_ols": [s["exponent_ols"] for s in segs],
                "exp_fgls": [s["exponent_fgls"] for s in segs],
            }]
        if self.kind == "mc":
            n = self.design.n
            return [{
                "k_hat": [round(t * n) for t in rec["tau_hat"]],
                "exp_ols": list(rec["exponent_ols"]),
                "exp_fgls": None,
            } for rec in result]
        return [{
            "k_hat": list(result.result.k_hat),
            "exp_ols": [s.exponent_ols for s in result.segments],
            "exp_fgls": [s.exponent_fgls for s in result.segments],
        }]

    def errors(self, out):
        """|tau_hat - tau*| per change point and |exponent - truth| per
        segment, taking FGLS exponents where FGLS ran."""
        d = self.design
        tau = [abs(k / d.n - t) for k, t in zip(out["k_hat"], d.tau)]
        exps = out["exp_fgls"] or out["exp_ols"]
        return tau, [abs(e - x) for e, x in zip(exps, d.exponents)]


def mismatch(got, ref):
    """Why one replicate's output misses its reference, or None."""
    if got["k_hat"] != ref["k_hat"]:
        return f"k_hat {got['k_hat']} != reference {ref['k_hat']}"
    for field in ("exp_ols", "exp_fgls"):
        g, r = got[field], ref[field]
        if (g is None) != (r is None) or (g is not None and len(g) != len(r)):
            return f"{field} {g} does not match reference {r}"
        # Written so that a NaN exponent fails.
        if g is not None and not all(abs(a - b) <= EXP_TOL for a, b in zip(g, r)):
            return f"{field} {g} differs from reference {r} by more than {EXP_TOL}"
    return None
