"""Tail tables serve quantile callables only: ``es_n_quadrature``,
``pelve_from_quantile`` and ``karamata_ratio`` build one per call, and no
family result builds any."""

import io
import statistics

import pytest

from pelve import (
    ExcessGPD,
    Exponential,
    GeneralizedPareto,
    GiniParams,
    InvalidParameter,
    Normal,
    Pareto,
    Uniform,
    es_n,
    es_n_quadrature,
    gini_shortfall,
    karamata_ratio,
    pelve,
    pelve_exists,
    pelve_from_quantile,
    tail_gini,
)
from pelve.cli import main
from test_tail_table import _counting_tables

# One model of each family, with the CLI spelling of each.
FAMILIES = [
    (Uniform(0, 1), "uniform:0,1"),
    (Exponential(1), "exp:1"),
    (Normal(0, 1), "normal:0,1"),
    (Pareto(1, 3), "pareto:1,3"),
    (GeneralizedPareto(0.5, 1), "gpd:0.5,1"),
    (ExcessGPD(1, 0.3, 1, 0.4), "excessgpd:1,0.3,1,0.4"),
]


def _analytic(*argv: str) -> str:
    out = io.StringIO()
    assert main(["analytic", *argv], out, io.StringIO()) == 0
    return out.getvalue()


def test_no_family_builds_a_table(monkeypatch):
    built = _counting_tables(monkeypatch)
    for dist, spec in FAMILIES:
        for n in range(1, 6):
            for p in (dist.level_floor, 0.5, 0.99):
                es_n(dist, n, p)
                tail_gini(dist, p)
                gini_shortfall(dist, p, GiniParams(0.25))
            pelve_exists(dist, n, 0.05)
            pelve(dist, n, 0.05)
            _analytic("--dist", spec, "--order", str(n))
    assert built == []
    # The quantile callables each build one.
    inv_cdf = statistics.NormalDist().inv_cdf
    es_n_quadrature(inv_cdf, 3, 0.9)
    pelve_from_quantile(inv_cdf, 3, 0.05)
    karamata_ratio(-0.5, 0.05)
    assert built == [0.9, 0.95, 0.0]


# The analytic-quad workload's cases, and one whose top printed level is
# 1 - eps.  The normal at order 3 once built one table there; with ES_n in
# closed form at every order, the top printed level is reached by none.
@pytest.mark.parametrize(
    "dist, eps, top",
    [
        ("normal:0,1", "0.05", 0.99),
        ("gpd:0.5,1", "0.05", 0.99),
        ("excessgpd:1,0.3,1,0", "0.05", 0.99),
        ("normal:0,1", "0.001", 1.0 - 0.001),
    ],
)
def test_analytic_builds_one_table_at_the_top_printed_level(dist, eps, top, monkeypatch):
    built = _counting_tables(monkeypatch)
    rows = _analytic("--dist", dist, "--order", "3", "--epsilon", eps).splitlines()
    es_levels = [float(row.split(",")[1]) for row in rows if row.startswith("es_3,")]
    assert max(es_levels) == top
    assert built == []


@pytest.mark.parametrize(
    "argv",
    [("--dist", "exp:1", "--order", "3"), ("--dist", "gpd:0.3,1", "--order", "2", "--closed-only")],
)
def test_closed_form_analytic_builds_no_table(argv, monkeypatch):
    built = _counting_tables(monkeypatch)
    _analytic(*argv)
    assert built == []


def test_karamata_ratio_builds_one_table(monkeypatch):
    built = _counting_tables(monkeypatch)
    assert karamata_ratio(-0.5, 0.05) == pytest.approx(2.0, rel=1e-10)
    assert built == [0.0]


def test_karamata_ratio_checks_rel_tol_as_the_table_does():
    for rel_tol in (1e-15, 0.1):
        with pytest.raises(InvalidParameter, match="rel_tol must lie in"):
            karamata_ratio(0.5, 0.05, rel_tol)
