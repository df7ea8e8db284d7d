import io
import json
import math
from pathlib import Path

import pytest

from pelve import (
    ExcessGPD,
    MalformedCsv,
    NonMonotoneDates,
    NonPositivePrice,
    SampleTooSmall,
    pelve_closed,
)
from pelve.cli import (
    RollingConfig,
    ingest_prices,
    ingest_returns,
    main,
    rolling_pelve,
)

DATA = Path(__file__).parent / "data" / "returns_600.csv"


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --- ingestion ---------------------------------------------------------------

def test_ingest_prices_single_return():
    s = ingest_prices("date,price\n2020-01-01,100\n2020-01-02,110\n")
    assert s.returns == (pytest.approx(0.10),)
    assert s.dates == ("2020-01-02",)


def test_ingest_prices_flat_and_swing():
    s = ingest_prices("date,price\n2020-01-01,100\n2020-01-02,100\n2020-01-03,100\n")
    assert s.returns == (0.0, 0.0)
    s = ingest_prices("date,price\n2020-01-01,100\n2020-01-02,50\n2020-01-03,100\n")
    assert s.returns == (pytest.approx(-0.5), pytest.approx(1.0))


def test_ingest_prices_errors():
    with pytest.raises(MalformedCsv):
        ingest_prices("date,price\n2020-01-01,100\n")  # fewer than 2 rows
    with pytest.raises(MalformedCsv):
        ingest_prices("time,price\n2020-01-01,100\n2020-01-02,1\n")
    with pytest.raises(NonPositivePrice):
        ingest_prices("date,price\n2020-01-01,100\n2020-01-02,0\n")
    with pytest.raises(NonMonotoneDates):
        ingest_prices("date,price\n2020-01-02,1\n2020-01-01,2\n")
    with pytest.raises(MalformedCsv):
        ingest_prices("date,price\n2020-01-01,abc\n2020-01-02,1\n")


def test_ingest_returns():
    s = ingest_returns("date,return\n2020-01-06,0.01\n")
    assert len(s) == 1
    assert s.returns[0] == 0.01  # decimal literal parses to the nearest float
    with pytest.raises(NonMonotoneDates):
        ingest_returns("date,return\n2020-01-07,0.01\n2020-01-06,0.02\n")
    with pytest.raises(MalformedCsv):
        ingest_returns("date,return\n")


# --- rolling -----------------------------------------------------------------

def test_rolling_constant_series():
    series = ingest_returns(
        "date,return\n" + "".join(f"2020-01-{d:02d},0.01\n" for d in range(1, 11))
    )
    rows = rolling_pelve(series, RollingConfig(window=10, eps=0.2, orders=(1, 2)))
    assert len(rows) == 2  # window equals series length: one row per order
    for _, _, result, _ in rows:
        assert result.value == 1.0


def test_rolling_row_count_and_dates():
    text = DATA.read_text()
    series = ingest_returns(text)
    rows = rolling_pelve(series, RollingConfig(window=100, eps=0.05, orders=(1, 2)))
    assert len(rows) == (600 - 100 + 1) * 2
    assert rows[0][0] == series.dates[99]
    assert rows[-1][0] == series.dates[-1]


def test_negate_changes_result_on_skewed_sample():
    text = "date,return\n" + "".join(
        f"2020-01-{d:02d},{r}\n"
        for d, r in zip(range(1, 22), [0.01] * 18 + [0.5, 0.7, 0.9])
    )
    series = ingest_returns(text)
    plain = rolling_pelve(series, RollingConfig(21, 0.1, (2,), negate=False))
    negated = rolling_pelve(series, RollingConfig(21, 0.1, (2,), negate=True))
    assert plain[0][2].value != negated[0][2].value


# --- CLI dispatch ------------------------------------------------------------

def test_cli_analytic_uniform():
    code, out, _ = run_cli(
        ["analytic", "--dist", "uniform:0,1", "--order", "2", "--epsilon", "0.05"]
    )
    assert code == 0
    line = [l for l in out.splitlines() if l.startswith("pelve_2")][0]
    assert float(line.split(",")[2]) == pytest.approx(3.0, abs=1e-6)


def test_cli_analytic_exponential_infinite():
    code, out, _ = run_cli(
        ["analytic", "--dist", "exp:1", "--order", "2", "--epsilon", "0.5"]
    )
    assert code == 0
    assert out.splitlines()[-1] == "pelve_2,0.5,inf"


def test_cli_analytic_closed_only_json():
    code, out, _ = run_cli(
        ["--format", "json", "analytic", "--dist", "exp:1", "--order", "2",
         "--epsilon", "0.5", "--closed-only"]
    )
    assert code == 0
    records = json.loads(out)
    tail = records[-1]
    assert tail["value"] is None and tail["infinite"] is True


def test_cli_csv_json_values_agree():
    args = ["analytic", "--dist", "normal:0,1", "--order", "2", "--epsilon", "0.05"]
    _, csv_out, _ = run_cli(args)
    _, json_out, _ = run_cli(["--format", "json"] + args)
    csv_values = {
        (row.split(",")[0], row.split(",")[1]): float(row.split(",")[2])
        for row in csv_out.splitlines()[1:]
    }
    for rec in json.loads(json_out):
        assert csv_values[(rec["metric"], repr(float(rec["level"])))] == rec["value"]


def test_cli_analytic_excess_gpd_starts_at_base_level():
    code, out, _ = run_cli(
        ["analytic", "--dist", "excessgpd:1,0.25,2,0.3", "--order", "2", "--epsilon", "0.05"]
    )
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[1][:2] == ["es_2", "0.3"]
    closed = pelve_closed(ExcessGPD(1, 0.25, 2, 0.3), 2, 0.05).value
    assert rows[-1][0] == "pelve_2" and float(rows[-1][2]) == pytest.approx(closed, abs=1e-6)


def test_cli_usage_errors_exit_1():
    code, _, err = run_cli([])
    assert code == 1 and err
    code, _, err = run_cli(["analytic", "--dist", "bogus:1"])
    assert code == 1
    code, _, _ = run_cli(["analytic", "--dist", "uniform:0,1", "--epsilon", "2"])
    assert code == 1
    code, _, _ = run_cli(["analytic", "--dist", "uniform:0,1,9"])
    assert code == 1
    code, _, _ = run_cli(["simulate", "--dist", "normal:0,1", "--replicates", "2",
                          "--length", "10", "--seed", "-1"])
    assert code == 1
    for flag, value in (("--ctol", "1e-2"), ("--ctol", "1e-13"), ("--reltol", "0.1"),
                        ("--reltol", "1e-15")):
        code, _, err = run_cli([flag, value, "analytic", "--dist", "uniform:0,1"])
        assert code == 1 and "must lie in" in err


def test_cli_data_errors_exit_2(tmp_path):
    code, _, err = run_cli(
        ["empirical", "--input", str(tmp_path / "missing.csv"), "--kind", "returns"]
    )
    assert code == 2 and err
    bad = tmp_path / "bad.csv"
    bad.write_text("date,price\n2020-01-01,100\n2020-01-02,-5\n")
    code, _, err = run_cli(["empirical", "--input", str(bad), "--kind", "prices"])
    assert code == 2 and "positive" in err


def test_cli_analytic_quantile_overflow_exits_2():
    # VaR at 0.95 of a Pareto with tail 0.003 is about 1e390, past the floats.
    code, out, err = run_cli(["analytic", "--dist", "pareto:1,0.003"])
    assert code == 2 and out == ""
    assert err.startswith("pelve: quantile of Pareto") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_empirical_from_file():
    code, out, _ = run_cli(
        ["empirical", "--input", str(DATA), "--kind", "returns", "--order", "2"]
    )
    assert code == 0
    rows = dict(line.split(",", 1) for line in out.splitlines()[1:])
    assert rows["m"] == "600"
    assert float(rows["pelve_2"]) > 1.0


def test_cli_simulate_json():
    code, out, _ = run_cli(
        ["--format", "json", "simulate", "--dist", "normal:0,1", "--order", "2",
         "--epsilon", "0.05", "--replicates", "5", "--length", "300",
         "--seed", "42", "--bins", "3"]
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["replicates"] == 5
    assert doc["finite_count"] == 5
    assert sum(b["count"] for b in doc["histogram"]) == 5
    assert math.isfinite(doc["mean"])


def test_cli_rolling_two_row_constant_prices(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text(
        "date,price\n2020-01-01,100\n2020-01-02,100\n2020-01-03,100\n"
    )
    with pytest.warns(SampleTooSmall):  # m*eps = 0.4
        code, out, _ = run_cli(
            ["rolling", "--input", str(f), "--kind", "prices", "--window", "2",
             "--epsilon", "0.2", "--orders", "1"]
        )
    assert code == 0
    body = out.splitlines()[1:]
    assert len(body) == 1  # two returns, window 2: a single window
    assert all(line.split(",")[2:] == ["1.0", "true"] for line in body)


def test_cli_rolling_inf_rendering_and_golden_stability():
    args = ["rolling", "--input", str(DATA), "--kind", "returns",
            "--window", "100", "--epsilon", "0.05", "--orders", "1,2"]
    code, first, _ = run_cli(args)
    assert code == 0
    lines = first.splitlines()
    assert len(lines) == 1 + (600 - 100 + 1) * 2
    assert any(line.split(",")[2] == "inf" for line in lines[1:])
    code, second, _ = run_cli(args)
    assert code == 0
    assert first == second  # byte-exact across runs

    _, json_out, _ = run_cli(["--format", "json"] + args)
    records = json.loads(json_out)
    assert len(records) == (600 - 100 + 1) * 2
    infinite = [r for r in records if r["infinite"]]
    assert infinite and all(r["pelve"] is None for r in infinite)
