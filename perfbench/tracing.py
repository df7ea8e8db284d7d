"""In-memory span tracing of the pelve layers, installed from outside the
package by rebinding the module-level names each layer calls through.

A span is (name, start, end, parent, operation id).  Spans go into compact
column arrays while the benchmark runs and are summarised (self time, call
counts, parent/child counts) and written out afterwards.
"""

from __future__ import annotations

import contextlib
from array import array
from collections import Counter
from time import perf_counter_ns

import numpy as np

import pelve.cli as cli
import pelve.empirical as empirical
import pelve.montecarlo as montecarlo
import pelve.pelve_solver as pelve_solver
import pelve.risk_measures as risk_measures
from pelve.risk_measures import EsMethod

SPANS = (
    "cli.main",
    "cli.ingest",
    "cli.rolling_pelve",
    "distributions.quantile",
    "distributions.sample",
    "risk_measures.es_n",
    "pelve_solver.pelve",
    "empirical.sort",
    "empirical.weights",
    "empirical.es_n",
    "empirical.pelve",
    "montecarlo.run_study",
)
_ID = {name: i for i, name in enumerate(SPANS)}


class Tracer:
    """Span recorder plus work counters taken from layer results."""

    def __init__(self) -> None:
        self.name = array("b")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("i")
        self.op = array("i")
        self.counts: Counter = Counter()
        self.current_op = 0
        self._stack: list = []

    def open(self, span_id: int) -> None:
        stack = self._stack
        self.parent.append(stack[-1] if stack else -1)
        stack.append(len(self.name))
        self.name.append(span_id)
        self.op.append(self.current_op)
        self.end.append(0)
        self.start.append(perf_counter_ns())

    def close(self) -> None:
        end = perf_counter_ns()
        self.end[self._stack.pop()] = end

    @contextlib.contextmanager
    def span(self, name: str):
        self.open(_ID[name])
        try:
            yield
        finally:
            self.close()

    def columns(self) -> dict:
        return {
            "name": np.frombuffer(self.name, dtype=np.int8),
            "start": np.frombuffer(self.start, dtype=np.int64),
            "end": np.frombuffer(self.end, dtype=np.int64),
            "parent": np.frombuffer(self.parent, dtype=np.int32),
            "op": np.frombuffer(self.op, dtype=np.int32),
        }

    def summary(self) -> dict:
        """Per span name: calls, self seconds, and calls per parent name;
        plus the result counters."""
        col = self.columns()
        name, parent = col["name"].astype(np.intp), col["parent"].astype(np.intp)
        dur = (col["end"] - col["start"]).astype(float)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=name.size)
        k = len(SPANS)
        self_ns = np.bincount(name, weights=dur - child, minlength=k)
        calls = np.bincount(name, minlength=k)
        # under[(child name, parent name)] counts spans directly inside another.
        pair = name[has_parent] * k + name[parent[has_parent]]
        under = np.bincount(pair, minlength=k * k).reshape(k, k)
        return {
            "calls": {s: int(calls[i]) for i, s in enumerate(SPANS)},
            "self_s": {s: float(self_ns[i]) * 1e-9 for i, s in enumerate(SPANS)},
            "under": {
                f"{SPANS[c]}<{SPANS[p]}": int(under[c, p])
                for c in range(k) for p in range(k) if under[c, p]
            },
            "counts": dict(self.counts),
        }


def _wrap(tracer: Tracer, name: str, fn, after=None):
    span_id = _ID[name]

    def traced(*args, **kwargs):
        tracer.open(span_id)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close()
        if after is not None:
            after(tracer.counts, result)
        return result

    return traced


def _count_quadrature(counts, result) -> None:
    counts["risk_measures.es_n.quad_calls"] += result.method is EsMethod.QUADRATURE


def _add_iterations(key: str):
    def after(counts, result) -> None:
        counts[key] += result.iterations
    return after


def _count_draws(counts, result) -> None:
    counts["distributions.sample.draws"] += len(result)


def _count_study(counts, result) -> None:
    counts["montecarlo.replicates"] += len(result.estimates)
    counts["montecarlo.failures"] += len(result.failures)


# (module, attribute, span name, result hook): every name through which one
# layer calls another on the benchmarked paths.
_PATCHES = (
    (risk_measures, "quantile", "distributions.quantile", None),
    (risk_measures, "tail_quantile", "distributions.quantile", None),
    (montecarlo, "sample", "distributions.sample", _count_draws),
    (pelve_solver, "es_n", "risk_measures.es_n", _count_quadrature),
    (cli, "es_n", "risk_measures.es_n", _count_quadrature),
    (cli, "pelve", "pelve_solver.pelve", _add_iterations("pelve_solver.bisection_steps")),
    (montecarlo, "OrderedSample", "empirical.sort", None),
    (cli, "OrderedSample", "empirical.sort", None),
    (empirical, "es_n_weights", "empirical.weights", None),
    (empirical, "empirical_es_n", "empirical.es_n", None),
    (montecarlo, "empirical_pelve", "empirical.pelve", _add_iterations("empirical.bisection_steps")),
    (cli, "empirical_pelve", "empirical.pelve", _add_iterations("empirical.bisection_steps")),
    (cli, "run_study", "montecarlo.run_study", _count_study),
    (cli, "ingest_returns", "cli.ingest", None),
    (cli, "ingest_prices", "cli.ingest", None),
    (cli, "rolling_pelve", "cli.rolling_pelve", None),
)


@contextlib.contextmanager
def instrumented(tracer: Tracer):
    """Route every layer call in ``_PATCHES`` through ``tracer``; restores
    the original bindings on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _, _ in _PATCHES]
    try:
        for (module, attr, name, after), (_, _, fn) in zip(_PATCHES, saved):
            setattr(module, attr, _wrap(tracer, name, fn, after))
        yield tracer
    finally:
        for module, attr, fn in saved:
            setattr(module, attr, fn)
