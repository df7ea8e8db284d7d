"""Guard for the benchmark's tracer: perfbench/tracing.py rebinds names in
the pelve modules, so every name it patches must still exist, and the CLI
must still run with all of them wrapped."""

import importlib.util
import io
from pathlib import Path

import pytest

from pelve.cli import main

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


@pytest.fixture(scope="module")
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_resolves(tracing):
    missing = [
        f"{module.__name__}.{attr}"
        for module, attr, _, _ in tracing._PATCHES
        if not hasattr(module, attr)
    ]
    assert missing == []


def test_cli_runs_under_the_tracer(tracing, tmp_path):
    returns = tmp_path / "r.csv"
    returns.write_text(
        "date,return\n"
        + "".join(f"2020-01-{d:02d},{(-1) ** d * d / 100}\n" for d in range(1, 31))
    )
    tracer = tracing.Tracer()
    with tracing.instrumented(tracer):
        for argv in (
            ["rolling", "--input", str(returns), "--kind", "returns", "--window", "20",
             "--epsilon", "0.05", "--orders", "1,2"],
            ["simulate", "--dist", "normal:0,1", "--replicates", "3", "--length", "50",
             "--seed", "1"],
        ):
            assert main(argv, out=io.StringIO(), err=io.StringIO()) == 0
    calls = tracer.summary()["calls"]
    assert calls["cli.rolling_pelve"] == 1 and calls["montecarlo.run_study"] == 1
    # The study's three replicates are one block, drawn by one call.
    assert calls["distributions.sample"] == 1


def test_analytic_solve_is_traced(tracing):
    # The solve and every ES_n run through the names the tracer wraps: ES_n
    # once per printed row, and once per gap evaluation of the solve, which
    # are its two ends, its ITP steps and the final secant point.
    tracer = tracing.Tracer()
    out = io.StringIO()
    with tracing.instrumented(tracer):
        argv = ["analytic", "--dist", "normal:0,1", "--order", "3", "--epsilon", "0.05"]
        assert main(argv, out=out, err=io.StringIO()) == 0
    summary = tracer.summary()
    steps = summary["counts"]["pelve_solver.bisection_steps"]
    rows = out.getvalue().count("\nes_3,")
    assert summary["calls"]["pelve_solver.pelve"] == 1
    assert steps > 0 and rows == 6
    assert summary["calls"]["risk_measures.es_n"] == rows + steps + 3
    assert summary["under"]["risk_measures.es_n<pelve_solver.pelve"] == steps + 3


def test_analytic_closed_multiplier_runs_no_solve(tracing):
    # A family with a closed multiplier prints it without the solve: ES_n
    # runs once per printed row and nowhere else.
    tracer = tracing.Tracer()
    out = io.StringIO()
    with tracing.instrumented(tracer):
        argv = ["analytic", "--dist", "gpd:0.5,1", "--order", "3"]
        assert main(argv, out=out, err=io.StringIO()) == 0
    calls = tracer.summary()["calls"]
    assert calls["pelve_solver.pelve"] == 0
    assert calls["risk_measures.es_n"] == out.getvalue().count("\nes_3,") == 6
