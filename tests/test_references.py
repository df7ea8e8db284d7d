"""The analytic paths against the high-precision references of the benchmark.

``perfbench/references.json`` holds VaR, ES_n and PELVE_n at 35 significant
digits, computed with mpmath at 50 working digits straight from each
family's quantile function, for every ``pelve analytic`` case the benchmark
runs.  The tolerances are the ones ``perfbench/workloads.py`` derives from
``rel_tol`` and ``c_tol``.
"""

import json
from pathlib import Path

import pytest

from pelve import DEFAULT_C_TOL, DEFAULT_REL_TOL, es_n, pelve, quantile
from pelve.cli import _parse_dist

REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text(encoding="utf-8")
)

# Safety factor between rel_tol and the ES error it allows: the quadrature
# stops when two refinements agree to rel_tol.
_TOL_FACTOR = 10.0


def _es_tol(value: float) -> float:
    return _TOL_FACTOR * DEFAULT_REL_TOL * max(abs(value), 1.0)


@pytest.mark.parametrize("key", sorted(REFERENCES))
def test_analytic_paths_match_references(key):
    ref = REFERENCES[key]
    dist, n, eps = _parse_dist(ref["dist"]), ref["order"], float(ref["epsilon"])
    var = float(ref["var"])
    assert abs(quantile(dist, 1.0 - eps) - var) <= _es_tol(var)
    for level, value in ref["es"].items():
        expected = float(value)
        got = es_n(dist, n, float(level)).value
        assert abs(got - expected) <= _es_tol(expected), (level, got, expected)
    # The solve stops within c_tol*(c_max - 1) of the root of the computed
    # gap; an ES error of _es_tol(VaR) moves that root by _es_tol / |slope|.
    c_max = (1.0 - dist.level_floor) / eps
    tol = DEFAULT_C_TOL * (c_max - 1.0) + _es_tol(var) / abs(float(ref["pelve_slope"]))
    result = pelve(dist, n, eps)
    assert abs(result.value - float(ref["pelve"])) <= tol, (result, ref["pelve"])
