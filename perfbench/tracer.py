"""In-memory span tracer that wraps the package's public names from outside.

A span records a name, start, end, its parent span and the operation it
belongs to.  Spans stay in memory until the run ends.  The package itself
is not changed: for the length of one traced operation, the names below
are replaced in the namespaces that call them (``from x import f`` binds
``f`` in the caller, so the caller's binding is the one to wrap) and then
restored.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import Counter
from contextlib import contextmanager

import numpy as np

# (module, attribute, span name)
TARGETS = (
    ("scalebreak.pipeline", "analyze", "pipeline.analyze"),
    ("scalebreak.cli", "analyze", "pipeline.analyze"),
    ("scalebreak.pipeline", "simulate_piecewise", "synth.simulate_piecewise"),
    ("scalebreak.pipeline", "detect", "segment.detect"),
    ("scalebreak.pipeline", "ScalogramTable", "scalogram.ScalogramTable"),
    ("scalebreak.segment", "ScalogramTable", "scalogram.ScalogramTable"),
    ("scalebreak.segment", "cost_matrix", "segment.cost_matrix"),
    ("scalebreak.scalogram", "coefficients_at_scale", "wavelet.coefficients_at_scale"),
    ("scalebreak.scalogram", "ScalogramTable.log_variance_vector",
     "scalogram.log_variance_vector"),
    ("scalebreak.pipeline", "ols_theta", "estimate.ols_theta"),
    ("scalebreak.pipeline", "fgls_theta", "estimate.fgls_theta"),
    ("scalebreak.pipeline", "gof", "estimate.gof"),
    ("scalebreak.estimate", "gamma_lrd", "estimate.gamma_lrd"),
    ("scalebreak.estimate", "gamma_fbm", "estimate.gamma_fbm"),
    ("scalebreak.cli", "read_series_csv", "cli.read_series_csv"),
)

# Span name -> per-layer metric that collects its self time.
SELF_TIME = {
    "synth.simulate_piecewise": "synth.simulate_s",
    "wavelet.coefficients_at_scale": "wavelet.coefficients_s",
    "scalogram.ScalogramTable": "scalogram.table_s",
    "scalogram.log_variance_vector": "scalogram.logvar_s",
    "segment.detect": "segment.detect_s",
    "segment.cost_matrix": "segment.cost_matrix_s",
    "estimate.gamma_lrd": "estimate.gamma_s",
    "estimate.gamma_fbm": "estimate.gamma_s",
    "estimate.ols_theta": "estimate.fit_s",
    "estimate.fgls_theta": "estimate.fit_s",
    "estimate.gof": "estimate.fit_s",
    "pipeline.analyze": "pipeline.analyze_self_s",
    "cli.read_series_csv": "cli.read_s",
    # The CLI's own work around analyze: parsing, config and result files.
    "cli.main": "cli.write_s",
}

# Span name -> per-layer metric that counts its calls.
CALLS = {
    "synth.simulate_piecewise": "synth.calls",
    "wavelet.coefficients_at_scale": "wavelet.coefficient_calls",
    "scalogram.ScalogramTable": "scalogram.tables",
    "estimate.gamma_lrd": "estimate.gamma_calls",
    "estimate.gamma_fbm": "estimate.gamma_calls",
}


def _count_pairs(tracer, result):
    cands, cost = result
    p = len(cands)
    tracer.count("segment.candidates", p)
    tracer.count("segment.pairs", p * p)
    tracer.count("segment.pairs_feasible", int(np.isfinite(cost).sum()))


# Span name -> counter read off the wrapped call's result, inside its span.
HOOKS = {
    "segment.cost_matrix": _count_pairs,
    "estimate.fgls_theta": lambda t, r: t.count(
        "estimate.fgls_fallbacks", int(r.fallback_to_ols)
    ),
    "pipeline.analyze": lambda t, r: t.count(
        "pipeline.margin_clamped", int(r.margin_clamped)
    ),
}


COUNTERS = (
    "segment.candidates",
    "segment.pairs",
    "segment.pairs_feasible",
    "estimate.fgls_fallbacks",
    "pipeline.margin_clamped",
)


def _resolve(module, attr):
    """The object that owns ``attr``'s last component, and that name."""
    owner = importlib.import_module(module)
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans and counters of the traced operations of one run."""

    def __init__(self):
        self.spans = []  # [name, op, parent, start, end]
        self.counters = Counter()
        self._stack = []
        self._op = None

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        rec = [name, self._op, parent, time.perf_counter(), None]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self._stack.pop()

    def count(self, name, value):
        self.counters[name] += value

    def _wrap(self, fn, name):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(self, result)
            return result

        return traced

    @contextmanager
    def operation(self, op_id, root=None):
        """Trace one operation: install the wrappers, open the root span
        if one is named, and restore the package's names afterwards."""
        saved = []
        try:
            for module, attr, name in TARGETS:
                owner, key = _resolve(module, attr)
                original = owner.__dict__[key]
                saved.append((owner, key, original))
                setattr(owner, key, self._wrap(original, name))
            self._op = op_id
            if root is None:
                yield
            else:
                with self.span(root):
                    yield
        finally:
            self._op = None
            for owner, key, original in reversed(saved):
                setattr(owner, key, original)

    def layer_totals(self):
        """Self time per layer metric, call counts and counters, summed
        over every traced operation; every metric is present."""
        child_time = [0.0] * len(self.spans)
        for name, op, parent, start, end in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        totals = dict.fromkeys([*SELF_TIME.values(), *CALLS.values(), *COUNTERS], 0)
        totals.update(self.counters)
        for (name, op, parent, start, end), inner in zip(self.spans, child_time):
            if name in SELF_TIME:
                totals[SELF_TIME[name]] += (end - start) - inner
            if name in CALLS:
                totals[CALLS[name]] += 1
        return totals

    def dump(self, fname, meta):
        """Write every span and counter, with the run's description."""
        spans = [
            {"name": n, "op": op, "parent": parent, "start": s, "end": e}
            for n, op, parent, s, e in self.spans
        ]
        with open(fname, "w") as fh:
            json.dump(
                {"meta": meta, "counters": dict(self.counters), "spans": spans}, fh
            )
