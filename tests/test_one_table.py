"""The tail tables behind ``pelve analytic`` and ``karamata_ratio``: one
table per call, and none where a closed form serves."""

import io

import pytest

import pelve.pelve_solver as pelve_solver
import pelve.risk_measures as risk_measures
from pelve import InvalidParameter, karamata_ratio
from pelve.cli import main
from test_tail_table import _counting_tables


def _analytic(*argv: str) -> str:
    out = io.StringIO()
    assert main(["analytic", *argv], out, io.StringIO()) == 0
    return out.getvalue()


# The analytic-quad workload's cases (no closed form at order 3), and one
# whose top printed level is 1 - eps.
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
    _analytic("--dist", dist, "--order", "3", "--epsilon", eps)
    assert built == [top]


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
    # pelve_solver binds the class at import; point it at the counting one.
    monkeypatch.setattr(pelve_solver, "_TailTable", risk_measures._TailTable)
    assert karamata_ratio(-0.5, 0.05) == pytest.approx(2.0, rel=1e-10)
    assert built == [0.0]


def test_karamata_ratio_checks_rel_tol_as_the_table_does():
    for rel_tol in (1e-15, 0.1):
        with pytest.raises(InvalidParameter, match="rel_tol must lie in"):
            karamata_ratio(0.5, 0.05, rel_tol)
