"""ES_n from one table of tail moments per split level b: the table against
the quadrature it replaced, against the high-precision references, and the
work it saves."""

import json
import math
import statistics
from fractions import Fraction
from pathlib import Path

import pytest

import pelve.risk_measures as risk_measures
from pelve import (
    DEFAULT_REL_TOL,
    EsMethod,
    ExcessGPD,
    GeneralizedPareto,
    GiniParams,
    NoClosedForm,
    Normal,
    Pareto,
    QuadratureNonConvergence,
    es_n,
    gini_shortfall,
    pelve_from_quantile,
    tail_gini,
)
from pelve.cli import _parse_dist
from pelve.risk_measures import _es_n_upto, _family_callables

DATA = Path(__file__).parent / "data"
REFERENCES = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "references.json").read_text(encoding="utf-8")
)

# Rows [dist, order, eps, level, ES_n] of es_n as computed before the table:
# the quadrature split (p, 1) at (1 + p)/2 and graded both halves to the same
# depth.  The levels are the level floor, 0.5, 0.9, b = 1 - eps and
# b + eps/2, for eps in {0.01, 0.05, 0.3}.
TWO_HALF = json.loads((DATA / "es_n_two_half.json").read_text(encoding="utf-8"))


def _close(got: float, expected: float) -> bool:
    return abs(got - expected) <= DEFAULT_REL_TOL * max(abs(expected), 1.0)


def _table_es(dist, n: int, b: float, p: float):
    # ES_n at p <= b from one tail table at b on the family's array
    # callables, whether or not the family has a closed form.
    return risk_measures._TailTable(*_family_callables(dist), n, b, DEFAULT_REL_TOL).es(n, p)


@pytest.mark.parametrize("spec", sorted({row[0] for row in TWO_HALF}))
def test_table_matches_the_two_half_quadrature(spec):
    dist = _parse_dist(spec)
    off = []
    for _, n, eps, p, before in (row for row in TWO_HALF if row[0] == spec):
        b = 1.0 - eps
        # Levels above b take the standalone path, as in pelve analytic; the
        # generalized-Pareto types take their closed forms on both, and a
        # table on their quantiles besides.
        table = _es_n_upto(dist, n, b)(p).value if p <= b else None
        standalone = es_n(dist, n, p).value
        quadrature = _table_es(dist, n, max(b, p), p).value
        for got in (table, standalone, quadrature):
            if got is not None and not _close(got, before):
                off.append((n, eps, p, got, before))
    assert off == []


@pytest.mark.parametrize("shape", [1.0, 1.5])
def test_divergent_models_still_raise(shape):
    dist = GeneralizedPareto(shape, 1)
    with pytest.raises(QuadratureNonConvergence):
        _es_n_upto(dist, 3, 0.95)(0.5)
    with pytest.raises(QuadratureNonConvergence):
        es_n(dist, 3, 0.5)


@pytest.mark.parametrize("key", ["normal:0,1@3", "gpd:0.5,1@3", "excessgpd:1,0.3,1,0@3"])
def test_quadrature_rows_are_within_rel_tol_and_their_estimate(key):
    # The ES rows of pelve analytic on the benchmark's quadrature cases: the
    # rows up to 1 - eps from one table, the 0.99 row standalone.
    # The generalized-Pareto types take their closed forms there, so their
    # rows also come from a table on their quantiles, whose estimate is
    # checked.
    ref = REFERENCES[key]
    dist, n, b = _parse_dist(ref["dist"]), ref["order"], 1.0 - float(ref["epsilon"])
    es_upto = _es_n_upto(dist, n, b)
    for level, value in ref["es"].items():
        p, exact = float(level), Fraction(value)
        row = es_upto(p) if p <= b else es_n(dist, n, p)
        for result in (row, _table_es(dist, n, max(b, p), p)):
            error = abs(Fraction(result.value) - exact)
            assert error <= Fraction(DEFAULT_REL_TOL) * max(abs(exact), 1), (level, result)
            if result.method is EsMethod.QUADRATURE:
                assert Fraction(result.est_abs_error) >= error, (level, result, float(error))


def _counting_tables(monkeypatch) -> list:
    built = []

    class Counted(risk_measures._TailTable):
        def __init__(self, *args):
            built.append(args[3])
            super().__init__(*args)

    monkeypatch.setattr(risk_measures, "_TailTable", Counted)
    return built


class _WithoutClosedForms(Normal):
    """The normal model with its closed forms withheld, so that every order
    goes through quadrature."""

    def es_closed(self, n, p):
        raise NoClosedForm("withheld")


@pytest.mark.parametrize(
    "dist",
    [Normal(0, 1), GeneralizedPareto(0.5, 1), ExcessGPD(1, 0.3, 1, 0.4), _WithoutClosedForms(0, 1)],
    ids=repr,
)
def test_tail_gini_matches_es_n(dist, monkeypatch):
    # Families with closed forms at orders 1 and 2 build no table; without
    # them both orders come from one table at p.
    quadrature = isinstance(dist, _WithoutClosedForms)
    built = _counting_tables(monkeypatch)
    for p in (dist.level_floor, 0.5, 0.9, 0.99):
        expected = 2.0 * (es_n(dist, 2, p).value - es_n(dist, 1, p).value)
        del built[:]
        assert _close(tail_gini(dist, p), expected), p
        assert built == ([p] if quadrature else []), p
        es1 = es_n(dist, 1, p).value
        assert _close(gini_shortfall(dist, p, GiniParams(0.25)), es1 + 0.25 * expected), p


def test_tail_gini_from_one_table_matches_the_closed_forms():
    quad, exact = _WithoutClosedForms(0, 1), Normal(0, 1)
    for p in (0.0, 0.5, 0.9, 0.99):
        expected = 2.0 * (exact.es_closed(2, p) - exact.es_closed(1, p))
        assert _close(tail_gini(quad, p), expected), p


@pytest.mark.parametrize("dist", [GeneralizedPareto(0.97, 1), GeneralizedPareto(0.98, 1), Pareto(1, 1.02)], ids=repr)
def test_tail_gini_of_heavy_tails_is_the_closed_form(dist):
    # Quadrature of these tails reaches the float limits before it
    # converges; the closed forms hold at every level.
    for p in (dist.level_floor, 0.5, 0.9):
        assert tail_gini(dist, p) == 2.0 * (dist.es_closed(2, p) - dist.es_closed(1, p)), p


def test_pelve_builds_one_table_per_solve(monkeypatch):
    built = _counting_tables(monkeypatch)
    from pelve import pelve

    pelve(Normal(0, 1), 3, 0.05)
    assert built == [0.95]


def test_pelve_from_quantile_needs_one_table_of_quantile_calls():
    # The two-half quadrature graded the whole tail again for each of the
    # solve's 11 ES evaluations: 35,851 quantile calls here.
    inv_cdf = statistics.NormalDist().inv_cdf
    counts = []
    for _ in range(2):
        calls = []

        def q(s):
            calls.append(s)
            return inv_cdf(s)

        result = pelve_from_quantile(q, 3, 0.05)
        counts.append(len(calls))
        assert abs(result.value - float(REFERENCES["normal:0,1@3"]["pelve"])) <= 1e-12
    assert counts[0] <= 12_000
    # Nothing is kept across calls: a repeat does the same work.
    assert counts[0] == counts[1]


def test_pelve_from_quantile_ends_below_the_float_spacing_in_few_evaluations(monkeypatch):
    # The case of test_pelve_solver.py's float-spacing test, counted in the
    # one tail table: a goal below the spacing of doubles near c_max must
    # not cost more ES evaluations than bisection down to neighbouring
    # doubles, plus a few for the ends and ITP's spare steps.
    es = risk_measures._TailTable.es
    calls = []

    def counted(self, n, p):
        calls.append(p)
        if len(calls) > 300:
            raise RuntimeError("the solve does not end")
        return es(self, n, p)

    monkeypatch.setattr(risk_measures._TailTable, "es", counted)

    def q(s):
        return s if s >= 1e-5 else s - 1e6 * (1e-5 - s) / 1e-5

    c_max = 1.0 / 0.9999
    fine = pelve_from_quantile(q, 1, 0.9999, c_tol=1e-12, rel_tol=1e-6)
    bisection = math.ceil(math.log2((c_max - 1.0) / math.ulp(c_max)))
    assert 0 < len(calls) <= bisection + 8, (len(calls), bisection)
    assert 1.0 < fine.value < c_max


@pytest.mark.parametrize("shape", [0.9, 0.95, 0.96, 0.97, 0.98])
def test_heavy_tails_are_right_or_raise(shape):
    # ES_n(p) = ((1 - p)^-k n B(n, 1 - k) - 1)/k for GPD(k, 1).  Near k = 1
    # the grading reaches the float limits before the tail converges; the
    # last comparison must then still see the closing panel's share.
    # The closed form holds at every shape below 1.
    n, p = 3, 0.5
    dist = GeneralizedPareto(shape, 1)
    beta = math.gamma(n) * math.gamma(1.0 - shape) / math.gamma(n + 1.0 - shape)
    exact = ((1.0 - p) ** -shape * n * beta - 1.0) / shape
    assert _close(es_n(dist, n, p).value, exact)
    try:
        got = _table_es(dist, n, p, p).value
    except QuadratureNonConvergence:
        return
    assert _close(got, exact), (got, exact)
