import io
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pelve import (
    ExcessGPD,
    Exponential,
    GeneralizedPareto,
    MalformedCsv,
    NoClosedForm,
    NonMonotoneDates,
    NonPositivePrice,
    Pareto,
    SampleTooSmall,
    Uniform,
    es_n,
    pelve,
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
SRC = Path(__file__).resolve().parents[1] / "src"


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


def test_ingest_malformed_rows():
    for text in (
        "",  # no header
        "date,return\n2020-01-01,0.1,7\n",  # three fields
        "date,return\n2020-01-01\n",  # one field
        "date,return\n2020-01-01,nan\n",
        "date,return\n2020-01-01,-inf\n",
    ):
        with pytest.raises(MalformedCsv):
            ingest_returns(text)
    with pytest.raises(MalformedCsv):
        ingest_prices("date,price\n2020-01-01,100\n2020-01-02,inf\n")


def test_ingest_skips_blank_lines():
    s = ingest_returns("date,return\n\n2020-01-01,0.1\n\n2020-01-02,0.2\n\n")
    assert s.dates == ("2020-01-01", "2020-01-02")
    assert s.returns == (0.1, 0.2)


def test_ingest_prints_dates_as_yyyy_mm_dd():
    # Every form date.fromisoformat accepts comes out as YYYY-MM-DD.
    s = ingest_returns(
        "date,return\n20200102,0.1\n2020-W01-5,0.2\n 2020-01-04 ,0.3\n2020W017,0.4\n"
    )
    assert s.dates == ("2020-01-02", "2020-01-03", "2020-01-04", "2020-01-05")
    assert s.returns == (0.1, 0.2, 0.3, 0.4)


def test_ingest_errors_keep_line_numbers_and_messages():
    for text, error, message in (
        ("date,return\n2020-01-01,0.1\n2020-13-01,0.2\n", MalformedCsv,
         "line 3: month must be in 1..12"),
        ("date,return\n2020-01-01,0.1\n2020-1-02,0.2\n", MalformedCsv,
         "line 3: Invalid isoformat string: '2020-1-02'"),
        ("date,return\n2020-01-01,0.1\n2020-01-01,0.2\n", NonMonotoneDates,
         "line 3: date 2020-01-01 not after 2020-01-01"),
        ("date,return\n20200102,0.1\n2020-01-01,0.2\n", NonMonotoneDates,
         "line 3: date 2020-01-01 not after 2020-01-02"),
        ("date,return\n2020-01-01,0.1\n\n2020-01-02,inf\n", MalformedCsv,
         "line 4: non-finite value 'inf'"),
        ("date,return\n2020-01-01,0.1,3\n", MalformedCsv, "line 2: expected 2 fields, got 3"),
        ("date,return\n2020-01-01,abc\n", MalformedCsv,
         "line 2: could not convert string to float: 'abc'"),
        # Fields longer than the csv module's default limit.
        ("date,return\n2020-01-01,0.1\n2020-01-02," + "1" * 140_000 + "\n", MalformedCsv,
         "line 3: field larger than field limit (131072)"),
        ("date," + "r" * 140_000 + "\n", MalformedCsv, "line 1: field larger than field limit (131072)"),
    ):
        with pytest.raises(error) as caught:
            ingest_returns(text)
        assert str(caught.value) == message


def test_ingest_skips_one_leading_byte_order_mark():
    returns = "date,return\n2020-01-01,0.1\n2020-01-02,0.2\n"
    prices = "date,price\n2020-01-01,100\n2020-01-02,110\n"
    assert ingest_returns("\ufeff" + returns) == ingest_returns(returns)
    assert ingest_prices("\ufeff" + prices) == ingest_prices(prices)
    with pytest.raises(MalformedCsv, match="expected header"):
        ingest_returns("\ufeff\ufeff" + returns)


# --- rolling -----------------------------------------------------------------

def test_rolling_constant_series():
    series = ingest_returns(
        "date,return\n" + "".join(f"2020-01-{d:02d},0.01\n" for d in range(1, 11))
    )
    res = rolling_pelve(series, RollingConfig(window=10, eps=0.2, orders=(1, 2)))
    # Window equals series length: one date, one row per order.
    assert len(res.dates) == 1 and len(res.values) == 2
    for column in res.values:
        assert column.tolist() == [1.0]


def test_rolling_row_count_and_dates():
    text = DATA.read_text()
    series = ingest_returns(text)
    res = rolling_pelve(series, RollingConfig(window=100, eps=0.05, orders=(1, 2)))
    assert len(res.values) == 2
    assert [len(column) for column in res.values] == [len(res.dates)] * 2
    assert len(res.dates) * len(res.values) == (600 - 100 + 1) * 2
    assert res.dates[0] == series.dates[99]
    assert res.dates[-1] == series.dates[-1]


def test_rolling_series_shorter_than_window():
    series = ingest_returns("date,return\n2020-01-01,0.1\n2020-01-02,0.2\n")
    with pytest.raises(MalformedCsv, match="shorter than window 3"):
        rolling_pelve(series, RollingConfig(window=3))


def test_negate_changes_result_on_skewed_sample():
    text = "date,return\n" + "".join(
        f"2020-01-{d:02d},{r}\n"
        for d, r in zip(range(1, 22), [0.01] * 18 + [0.5, 0.7, 0.9])
    )
    series = ingest_returns(text)
    plain = rolling_pelve(series, RollingConfig(21, 0.1, (2,), negate=False))
    negated = rolling_pelve(series, RollingConfig(21, 0.1, (2,), negate=True))
    assert plain.values[0][0] != negated.values[0][0]


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
         "--epsilon", "0.5"]
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


def test_cli_analytic_epsilon_above_the_excess_model_exits_2():
    # 1 - eps = 0.95 lies below F(u) = 0.97: the multiplier's check names
    # both, before any row asks for a quantile there.
    code, out, err = run_cli(["analytic", "--dist", "excessgpd:1,0.3,1,0.97"])
    assert code == 2 and out == ""
    assert err == (
        "pelve: epsilon 0.05 is too large: 1 - epsilon must exceed base_cdf_at_u=0.97\n"
    )


def test_cli_analytic_closed_only_generalized_pareto_at_order_3():
    code, out, err = run_cli(
        ["analytic", "--dist", "gpd:0.5,1", "--order", "3"]
    )
    assert code == 0 and err == ""
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert rows[-1][0] == "pelve_3" and float(rows[-1][2]) == pytest.approx(10.24, rel=1e-15)
    assert [row[:2] for row in rows[1:3]] == [["es_3", "0.0"], ["es_3", "0.5"]]
    assert float(rows[1][2]) == pytest.approx(4.4, rel=1e-15)  # (3 B(3, 1/2) - 1)/(1/2)


_CLOSED_FAMILIES = [
    (GeneralizedPareto(0.5, 1), "gpd:0.5,1", 3),
    (Pareto(1, 2), "pareto:1,2", 2),
    (Exponential(1), "exp:1", 3),
    (ExcessGPD(1, 0.3, 1, 0.4), "excessgpd:1,0.3,1,0.4", 3),
    (Uniform(0, 1), "uniform:0,1", 4),
]


@pytest.mark.parametrize("eps", ["0.05", "1e-6", "1e-9", "1e-12"])
@pytest.mark.parametrize("dist, spec, n", _CLOSED_FAMILIES, ids=[s for _, s, _ in _CLOSED_FAMILIES])
def test_cli_analytic_prints_the_closed_multiplier(dist, spec, n, eps):
    # The bracketing solve printed 507.995 for gpd:0.5,1 at order 3 and
    # eps 1e-12, where the closed form is 10.24.
    code, out, err = run_cli(["analytic", "--dist", spec, "--order", str(n), "--epsilon", eps])
    assert code == 0 and err == ""
    closed = pelve_closed(dist, n, float(eps)).value
    assert out.splitlines()[-1] == f"pelve_{n},{float(eps)!r},{closed!r}"


def test_cli_analytic_closed_only_is_a_usage_error():
    code, out, err = run_cli(["analytic", "--dist", "gpd:0.5,1", "--closed-only"])
    assert (code, out) == (1, "") and "unrecognized arguments: --closed-only" in err


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
    for value in ("1e-2", "1e-13"):
        code, _, err = run_cli(["--ctol", value, "analytic", "--dist", "uniform:0,1"])
        assert code == 1 and "must lie in" in err
    # Every analytic value is a closed form, so there is no quadrature
    # tolerance to set.
    code, _, err = run_cli(["--reltol=1e-10", "analytic", "--dist", "uniform:0,1"])
    assert code == 1 and "unrecognized arguments: --reltol=1e-10" in err


@pytest.mark.parametrize(
    "dist, spec",
    [
        (GeneralizedPareto(1, 1), "gpd:1,1"),
        (GeneralizedPareto(1.5, 1), "gpd:1.5,1"),
        (Pareto(1, 1), "pareto:1,1"),
        (Pareto(1, 0.5), "pareto:1,0.5"),
    ],
    ids=["gpd:1,1", "gpd:1.5,1", "pareto:1,1", "pareto:1,0.5"],
)
def test_divergent_families_raise_at_every_order(dist, spec):
    # A tail without a first moment has no ES_n.  Quadrature at a loose
    # tolerance used to return a finite one here (1416.589 for gpd:1,1 at
    # order 1 and level 0.5 with rel_tol 1e-2), and the CLI printed it.
    for n in (1, 2, 3):
        with pytest.raises(NoClosedForm):
            es_n(dist, n, 0.5)
        with pytest.raises(NoClosedForm):
            pelve(dist, n, 0.05)
        code, out, err = run_cli(["analytic", "--dist", spec, "--order", str(n)])
        assert (code, out) == (2, "") and "no first moment" in err


def test_cli_data_errors_exit_2(tmp_path):
    code, _, err = run_cli(
        ["empirical", "--input", str(tmp_path / "missing.csv"), "--kind", "returns"]
    )
    assert code == 2 and err
    bad = tmp_path / "bad.csv"
    bad.write_text("date,price\n2020-01-01,100\n2020-01-02,-5\n")
    code, _, err = run_cli(["empirical", "--input", str(bad), "--kind", "prices"])
    assert code == 2 and "positive" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--dist", "normal:a,1"],
        ["analytic", "--dist", "normal:0,-1"],
        ["rolling", "--input", str(DATA), "--kind", "returns", "--orders", "1,x"],
        ["rolling", "--input", str(DATA), "--kind", "returns", "--orders", "0"],
    ],
)
def test_cli_bad_parameter_lists_exit_1(argv):
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("pelve ") and "Traceback" not in err


@pytest.mark.parametrize(
    "spec, family", [("exp:inf", "Exponential"), ("normal:nan,1", "Normal")]
)
def test_cli_non_finite_family_parameters_exit_1(spec, family):
    # A non-finite parameter is a usage error, caught before any formula
    # turns it into rows of 0.0 or nan.
    code, out, err = run_cli(["analytic", "--dist", spec])
    assert code == 1 and out == ""
    assert f"{family} requires finite parameters" in err and err.count("\n") == 1


def test_cli_analytic_quantile_overflow_exits_2():
    # VaR at 0.95 of a Pareto with tail 0.003 is about 1e390, past the floats.
    code, out, err = run_cli(["analytic", "--dist", "pareto:1,0.003"])
    assert code == 2 and out == ""
    assert err.startswith("pelve: quantile of Pareto") and err.count("\n") == 1
    assert "Traceback" not in err


def test_cli_simulate_excess_model_with_no_level_above_its_base_exits_2():
    # F(u) is the largest double below 1, so no level lies above it.
    code, out, err = run_cli(["simulate", "--dist", "excessgpd:1,0.3,1,0.9999999999999999",
                              "--replicates", "2", "--length", "100"])
    assert code == 2 and out == ""
    assert err == ("pelve: no level lies strictly between base_cdf_at_u=0.9999999999999999 "
                   "and 1: the model has no level to sample above F(u)\n")


def test_cli_analytic_infinite_quantile_exits_2():
    # mean + stddev * z overflows to inf; the VaR is past the float range,
    # so no ES row or solve sees an infinite level.
    code, out, err = run_cli(["analytic", "--dist", "normal:1e308,1e308", "--order", "3"])
    assert code == 2 and out == ""
    assert err == (
        "pelve: quantile of Normal(mean=1e+308, stddev=1e+308) at level 0.95 "
        "exceeds the float range\n"
    )


_SHAPE_BEYOND = "has a generalized-Pareto shape or scale beyond the float range"


@pytest.mark.parametrize(
    "argv, code, err",
    [
        # log S_n summed as log1p(k/(j - k)) hit log1p(-1): a ValueError.
        (["analytic", "--dist", "gpd:-1e17,1", "--order", "2"], 0, ""),
        (["analytic", "--dist", "gpd:-1e17,1", "--order", "2"], 0, ""),
        # S_n underflowed to 0, and 0 ** (1/k) raised ZeroDivisionError.
        (["analytic", "--dist", "gpd:-1.7e308,1", "--order", "2"], 0, ""),
        (["analytic", "--dist", "excessgpd:2,-1.7e308,1e-17,1e-17", "--order", "3",
          "--epsilon", "1e-5"], 1, _SHAPE_BEYOND),
        # scale/shape overflowed, and the solve reached a nan level.
        (["analytic", "--dist", "gpd:1e-310,1"], 1, _SHAPE_BEYOND),
        (["analytic", "--dist", "gpd:-1e-300,1e300"], 1, _SHAPE_BEYOND),
        # scale/shape underflowed to 0, and 0 * inf warned in every draw.
        (["simulate", "--dist", "gpd:1.7e308,1e-300", "--replicates", "3", "--length", "50"],
         1, _SHAPE_BEYOND),
    ],
)
def test_cli_extreme_generalized_pareto_shapes(argv, code, err):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = run_cli(argv)
    assert got[0] == code and err in got[2] and got[2].count("\n") == (1 if err else 0)


def test_cli_empirical_infinite_row_across_the_float_range_is_silent(tmp_path):
    # The infinite row's discarded c = 1 gap overflowed when it was scaled
    # back, and stderr got numpy's RuntimeWarning.
    data = tmp_path / "r.csv"
    data.write_text("date,return\n" + "".join(
        f"2020-01-{d:02d},{-1.7e308 if d <= 5 else 1.7e308}\n" for d in range(1, 11)))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(["empirical", "--input", str(data), "--kind", "returns",
                                  "--order", "1", "--epsilon", "0.9"])
    assert code == 0 and err == "" and "pelve_1,inf\n" in out


# Fields of every CLI family from the float extremes; most are rejected, and
# the rest reach the float limits in a quantile, an ES row or the solve.
_EXTREMES = ("0", "1e-320", "-1e-320", "1e-300", "-1e-300", "1e17", "-1e17", "1e300",
             "-1e300", "1.7e308", "-1.7e308", "1", "-1", "0.5")
_ARITY = {"uniform": 2, "exp": 1, "normal": 2, "pareto": 2, "gpd": 2, "excessgpd": 4}


@st.composite
def _extreme_families(draw):
    name = draw(st.sampled_from(sorted(_ARITY)))
    fields = draw(st.lists(st.sampled_from(_EXTREMES), min_size=_ARITY[name], max_size=_ARITY[name]))
    return f"{name}:{','.join(fields)}"


@settings(max_examples=150, deadline=None)
@given(spec=_extreme_families(), order=st.integers(1, 5),
       eps=st.sampled_from(("0.05", "1e-5", "1e-12")))
@example(spec="gpd:-1e17,1", order=2, eps="0.05")
@example(spec="excessgpd:2,-1.7e308,1e-17,1e-17", order=3, eps="1e-5")
@example(spec="gpd:-1.7e308,1", order=2, eps="0.05")
@example(spec="gpd:1e-310,1", order=1, eps="0.05")
@example(spec="gpd:-1e-300,1e300", order=1, eps="0.05")
@example(spec="gpd:1.7e308,1e-300", order=2, eps="0.05")
@example(spec="normal:1e308,1e308", order=3, eps="0.05")
def test_cli_extreme_families_never_raise(spec, order, eps):
    # Exit 0, 1 or 2 with a typed error: no traceback, no RuntimeWarning and
    # no nan level reaching a check.
    common = ["--dist", spec, "--order", str(order), "--epsilon", eps]
    for argv in (["analytic", *common],
                 ["simulate", *common, "--replicates", "2", "--length", "20"]):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, _, err = run_cli(argv)
        assert code in (0, 1, 2), argv
        assert "got nan" not in err, (argv, err)


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


def test_cli_simulate_reports_failed_replicates_on_stderr():
    # pareto:1,0.01 overflows the float range in some draws (replicates 2
    # and 4 under seed 11): those replicates fail, quietly as far as numpy
    # goes, and one stderr line counts them.
    args = ["simulate", "--dist", "pareto:1,0.01", "--replicates", "5",
            "--length", "200", "--seed", "11"]
    code, out, err = run_cli(args)
    assert code == 0
    assert "finite_count,0" in out.splitlines()
    code, json_out, json_err = run_cli(["--format", "json"] + args)
    assert code == 0
    failures = json.loads(json_out)["failures"]
    assert failures and json_err == err == (
        f"pelve: {len(failures)} of 5 replicates failed: sample values must all be finite\n"
    )
    code, _, err = run_cli(["simulate", "--dist", "normal:0,1", "--replicates", "2",
                            "--length", "50"])
    assert code == 0 and err == ""


def test_cli_rolling_two_row_constant_prices(tmp_path):
    f = tmp_path / "p.csv"
    f.write_text(
        "date,price\n2020-01-01,100\n2020-01-02,100\n2020-01-03,100\n"
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the CLI reports it on err instead
        code, out, err = run_cli(
            ["rolling", "--input", str(f), "--kind", "prices", "--window", "2",
             "--epsilon", "0.2", "--orders", "1"]
        )
    assert code == 0
    assert err == (  # m*eps = 0.4
        "pelve: warning: m*eps = 0.4 < 1: empirical VaR is the sample maximum "
        "and the multiplier estimate is degenerate\n"
    )
    body = out.splitlines()[1:]
    assert len(body) == 1  # two returns, window 2: a single window
    assert all(line.split(",")[2:] == ["1.0", "true"] for line in body)


def test_cli_reports_each_sample_warning_once(tmp_path):
    f = tmp_path / "r.csv"
    f.write_text("date,return\n" + "".join(f"2020-01-{d:02d},{d / 100}\n" for d in range(1, 13)))
    line = ("pelve: warning: m*eps = 0.5 < 1: empirical VaR is the sample maximum "
            "and the multiplier estimate is degenerate\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # Two orders solve twice and warn twice, with one message.
        code, out, err = run_cli(["rolling", "--input", str(f), "--kind", "returns",
                                  "--window", "10", "--orders", "1,2"])
        assert code == 0 and err == line
        assert all(row.endswith(",true") for row in out.splitlines()[1:])
        code, out, err = run_cli(["empirical", "--input", str(f), "--kind", "returns",
                                  "--epsilon", "0.01"])
        assert code == 0 and err == line.replace("0.5", "0.12")
        assert out.splitlines()[-1] == "degenerate,true"


def test_cli_shows_other_warnings_as_python_does(tmp_path, monkeypatch):
    import pelve.cli as cli

    def noisy(*args):
        warnings.warn("not a sample warning", UserWarning)
        warnings.warn("too small", SampleTooSmall)
        return solve(*args)

    solve = cli.empirical_pelve
    monkeypatch.setattr(cli, "empirical_pelve", noisy)
    f = tmp_path / "r.csv"
    f.write_text("date,return\n" + "".join(f"2020-01-{d:02d},{d / 100}\n" for d in range(1, 31)))
    with pytest.warns(UserWarning, match="not a sample warning") as caught:
        code, _, err = run_cli(["empirical", "--input", str(f), "--kind", "returns"])
    assert code == 0 and err == "pelve: warning: too small\n"
    assert [w.category for w in caught] == [UserWarning]


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


def test_cli_rolling_json_is_the_indented_dump(tmp_path):
    # The records are encoded one at a time and indented by hand; the bytes
    # are those of json.dump(records, indent=2), null pelve values and a
    # single record included.
    one = tmp_path / "p.csv"
    one.write_text("date,price\n2020-01-01,100\n2020-01-02,100\n2020-01-03,100\n")
    outputs = []
    for args in (
        ["rolling", "--input", str(DATA), "--kind", "returns", "--window", "100",
         "--orders", "1,2,3"],
        ["rolling", "--input", str(one), "--kind", "prices", "--window", "2",
         "--epsilon", "0.2", "--orders", "1"],
    ):
        code, out, _ = run_cli(["--format", "json"] + args)
        assert code == 0
        outputs.append(json.loads(out))
        assert out == json.dumps(outputs[-1], indent=2) + "\n"
    many, single = outputs
    assert any(r["pelve"] is None for r in many) and len(single) == 1


def test_cli_import_loads_no_scipy():
    # Importing scipy.special took about two thirds of the CLI's start-up
    # time; nothing in pelve may bring it back.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    probe = "import sys, pelve.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    proc = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                          env=env, check=True)
    assert proc.stdout.strip() == "[]"


_FILE_COMMANDS = [["empirical", "--order", "2"], ["rolling", "--window", "100"]]
_BAD_BYTES = {
    # \xe9 at byte 40 is Latin-1, not UTF-8.
    "not-utf-8": (b"date,return\n2020-01-01,0.1\n2020-01-02,0.\xe9\n",
                  "input is not UTF-8: invalid continuation byte at byte offset 40"),
    "field-over-the-csv-limit": (b"date,return\n2020-01-01,0.1\n2020-01-02," + b"1" * 140_000 + b"\n",
                                 "line 3: field larger than field limit"),
}


@pytest.mark.parametrize("command", _FILE_COMMANDS, ids=lambda c: c[0])
@pytest.mark.parametrize("data, message", _BAD_BYTES.values(), ids=list(_BAD_BYTES))
def test_cli_bad_csv_bytes_exit_2(tmp_path, command, data, message):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    code, out, err = run_cli([command[0], "--input", str(path), "--kind", "returns", *command[1:]])
    assert (code, out) == (2, "")
    assert err.startswith(f"pelve: {message}") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command", _FILE_COMMANDS, ids=lambda c: c[0])
def test_cli_reads_a_file_with_a_byte_order_mark_as_the_file_without(tmp_path, command):
    marked = tmp_path / "marked.csv"
    marked.write_bytes(b"\xef\xbb\xbf" + DATA.read_bytes())
    runs = [run_cli([command[0], "--input", str(path), "--kind", "returns", *command[1:]])
            for path in (DATA, marked)]
    assert runs[0][0] == 0 and runs[0][1]
    assert runs[1] == runs[0]


@pytest.mark.parametrize(
    "argv", [["analytic", "--dist", "exp:1", "--order", "3"], ["analytic", "--dist", "bogus:1"]]
)
def test_cli_runs_as_a_module(argv):
    # python -m pelve.cli behaves as the installed pelve script.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONWARNINGS", None)
    runs = [
        subprocess.run([sys.executable, *prefix, *argv], capture_output=True, text=True,
                       env=env, check=False)
        for prefix in (["-m", "pelve.cli"], ["-c", "from pelve.cli import entrypoint; entrypoint()"])
    ]
    module, script = runs
    assert module.stdout == script.stdout
    assert module.returncode == script.returncode
    assert module.stderr == script.stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["analytic", "--dist", "normal:0,1"],
        ["empirical", "--input", str(DATA), "--kind", "returns"],
        ["rolling", "--input", str(DATA), "--kind", "returns"],
        ["simulate", "--dist", "normal:0,1", "--replicates", "3", "--length", "10"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_epsilon_whose_level_rounds_to_one_exits_1(argv):
    code, out, err = run_cli(argv + ["--epsilon", "1e-17"])
    assert code == 1 and out == ""
    assert err == (
        f"pelve {argv[0]}: argument --epsilon: "
        "epsilon 1e-17 is too small: 1 - epsilon rounds to 1\n"
    )


def test_cli_simulate_length_below_two_exits_1():
    code, out, err = run_cli(["simulate", "--dist", "normal:0,1", "--replicates", "3",
                              "--length", "1"])
    assert code == 1 and out == ""
    assert err == "pelve simulate: argument --length: must be >= 2, got 1\n"


@pytest.mark.parametrize(
    "sizes", [["--length", "1000000000000000"], ["--length", "50", "--bins", "1000000000000000"]],
    ids=["length", "bins"],
)
def test_cli_simulate_size_too_large_to_allocate_exits_2(sizes):
    # 10**15 doubles lie past a 48-bit address space, so numpy refuses the
    # array before it allocates anything.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    argv = ["simulate", "--dist", "normal:0,1", "--replicates", "3", *sizes]
    proc = subprocess.run([sys.executable, "-m", "pelve.cli", *argv], capture_output=True,
                          text=True, env=env, check=False)
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("pelve: ") and "Traceback" not in proc.stderr
