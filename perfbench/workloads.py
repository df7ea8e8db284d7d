"""Workload definitions: the CLI invocations of each workload and the checks
applied to their output.

Every workload is a list of cases run in equal shares.  A check parses the
CLI's stdout and compares values within a stated tolerance; none compares
bytes against a stored copy, so output changes that keep the numbers right
(tie handling, seeding) do not trip it.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

EPSILON = 0.05
REFERENCES = Path(__file__).with_name("references.json")

# Safety factor between a tolerance parameter and the error it allows.  The
# quadrature stops when two refinements agree to rel_tol, which bounds the
# true error only up to a modest factor.
_TOL_FACTOR = 10.0

# simulate: R replicates of length m, and the population PELVE_2 at
# eps = 0.05 each case estimates.  ExcessGPD(u, 0.3, 1, 0.9) is checked
# against GPD(0.3, 1): the sampler draws only above u and PELVE is
# shift-invariant.
_REPLICATES = 100
_LENGTH = 5000
_POPULATION = {"normal:0,1": 4.0408, "pareto:1,3": 5.832, "excessgpd:1,0.3,1,0.9": 5.6443}
# "A few standard errors": the population value must lie within this many
# standard errors of the study mean (the estimator is biased at m = 5000).
_MEAN_Z = 5.0

# rolling: series length, window and orders.
_ROWS = 600
_WINDOW = 100
_ORDERS = (1, 2)


@dataclass(frozen=True)
class Case:
    """One CLI invocation and the check its stdout must pass."""

    label: str
    argv: tuple
    check: Callable[[str], str | None]  # returns a failure message or None


@dataclass(frozen=True)
class Workload:
    name: str
    cases: tuple
    # Cycles (each case once) in one traced pass; fixed so that the work
    # counts of two traced passes must agree exactly.
    traced_cycles: int


def _csv_rows(text: str) -> list:
    return list(csv.reader(io.StringIO(text)))


def _analytic_check(ref: dict, c_tol: float, rel_tol: float) -> Callable[[str], str | None]:
    n = ref["order"]
    es_ref = {float(level): float(v) for level, v in ref["es"].items()}
    var_ref = float(ref["var"])
    pelve_ref = float(ref["pelve"])

    def es_tol(value: float) -> float:
        return _TOL_FACTOR * rel_tol * max(abs(value), 1.0)

    # Bisection stops when its bracket is narrower than c_tol*(c_max - 1);
    # an ES error of es_tol(VaR) moves the root by es_tol / |slope|.
    c_max = 1.0 / EPSILON
    pelve_tol = c_tol * (c_max - 1.0) + es_tol(var_ref) / abs(float(ref["pelve_slope"]))

    def check(stdout: str) -> str | None:
        rows = _csv_rows(stdout)
        if rows[:1] != [["metric", "level", "value"]] or len(rows) != 2 + len(es_ref) + 1:
            return f"unexpected table shape: {rows[:2]} ... ({len(rows)} rows)"
        seen = set()
        for metric, level, value in rows[1:]:
            lvl, v = float(level), float(value)
            if metric == "var":
                ok = abs(v - var_ref) <= es_tol(var_ref)
            elif metric == f"es_{n}" and lvl in es_ref:
                ok = abs(v - es_ref[lvl]) <= es_tol(es_ref[lvl])
                seen.add(lvl)
            elif metric == f"pelve_{n}":
                ok = abs(v - pelve_ref) <= pelve_tol
            else:
                return f"unexpected row {metric},{level}"
            if not ok:
                return f"{metric} at {level} = {value} is off the reference"
        if seen != set(es_ref):
            return f"missing ES levels {sorted(set(es_ref) - seen)}"
        return None

    return check


def _analytic(cases, c_tol: float, rel_tol: float) -> tuple:
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    out = []
    for dist, n in cases:
        argv = ("analytic", "--dist", dist, "--order", str(n), "--epsilon", str(EPSILON))
        check = _analytic_check(refs[f"{dist}@{n}"], c_tol, rel_tol)
        out.append(Case(f"{dist}@{n}", argv, check))
    return tuple(out)


def _simulate_check(population: float) -> Callable[[str], str | None]:
    def check(stdout: str) -> str | None:
        summary = {}
        for row in _csv_rows(stdout)[1:]:
            if not row:
                break
            summary[row[0]] = row[1]
        if int(summary.get("finite_count", -1)) != _REPLICATES:
            return f"finite_count {summary.get('finite_count')} != {_REPLICATES}"
        mean, stddev = float(summary["mean"]), float(summary["stddev"])
        se = stddev / math.sqrt(_REPLICATES)
        if not abs(mean - population) <= _MEAN_Z * se:
            return f"mean {mean} is more than {_MEAN_Z} standard errors ({se}) from {population}"
        return None

    return check


def _simulate(seed: int) -> tuple:
    return tuple(
        Case(
            dist,
            ("simulate", "--dist", dist, "--order", "2", "--epsilon", str(EPSILON),
             "--replicates", str(_REPLICATES), "--length", str(_LENGTH), "--seed", str(seed)),
            _simulate_check(population),
        )
        for dist, population in _POPULATION.items()
    )


def returns_csv(seed: int) -> str:
    """A heavy-tailed daily return series shaped like tests/data/returns_600.csv:
    a Student-t(2) body with a scale of about 1% and one large positive shock
    in the middle of the series, so some windows have an infinite multiplier."""
    rng = np.random.Generator(np.random.PCG64(seed))
    values = 0.0005 + 0.0105 * rng.standard_t(2.0, _ROWS)
    values[rng.integers(_WINDOW, _ROWS - _WINDOW)] = rng.uniform(3.0, 6.0)
    start = np.datetime64("2020-01-01")
    lines = ["date,return"]
    lines += [f"{start + i},{v!r}" for i, v in enumerate(values.tolist())]
    return "\n".join(lines) + "\n"


def _rolling_check() -> Callable[[str], str | None]:
    expected_rows = 1 + (_ROWS - _WINDOW + 1) * len(_ORDERS)
    c_max = 1.0 / EPSILON
    first: list = []

    def check(stdout: str) -> str | None:
        rows = _csv_rows(stdout)
        if len(rows) != expected_rows:
            return f"{len(rows)} rows, expected {expected_rows}"
        for row in rows[1:]:
            cell = row[2]
            if cell != "inf" and not 1.0 <= float(cell) <= c_max:
                return f"multiplier {cell} outside [1, {c_max}] on {row[0]}"
        if not first:
            first.append(stdout)
        elif stdout != first[0]:
            return "stdout differs from the first run on the same input"
        return None

    return check


def _rolling(csv_path: Path) -> tuple:
    argv = ("rolling", "--input", str(csv_path), "--kind", "returns", "--window", str(_WINDOW),
            "--epsilon", str(EPSILON), "--orders", ",".join(map(str, _ORDERS)))
    return (Case("rolling", argv, _rolling_check()),)


# Why each workload exists is recorded in BENCHMARK.json.  The excessgpd
# case has F(u) = 0 because `pelve analytic` exits 2 for any F(u) > 0: its
# level grid asks for ES below the base CDF value (a known defect).
ANALYTIC_QUAD = (("normal:0,1", 3), ("gpd:0.5,1", 3), ("excessgpd:1,0.3,1,0", 3))
ANALYTIC_CLOSED = (("uniform:0,1", 4), ("exp:1", 3), ("normal:0,1", 2), ("pareto:1,3", 2),
                   ("gpd:0.3,1", 2))
NAMES = ("analytic-quad", "analytic-closed", "simulate", "rolling")


def build(name: str, seed: int, scratch: Path, c_tol: float, rel_tol: float) -> Workload:
    """Make the named workload's inputs from ``seed``; files go in ``scratch``."""
    if name == "analytic-quad":
        return Workload(name, _analytic(ANALYTIC_QUAD, c_tol, rel_tol), traced_cycles=1)
    if name == "analytic-closed":
        return Workload(name, _analytic(ANALYTIC_CLOSED, c_tol, rel_tol), traced_cycles=100)
    if name == "simulate":
        return Workload(name, _simulate(seed), traced_cycles=1)
    if name == "rolling":
        path = scratch / f"returns-{seed}.csv"
        path.write_text(returns_csv(seed), encoding="utf-8")
        return Workload(name, _rolling(path), traced_cycles=2)
    raise ValueError(f"unknown workload {name!r}")
