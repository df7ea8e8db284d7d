"""Command-line front end.

Subcommands
-----------
analytic    VaR, ES_n over a level grid and the equivalent-level multiplier
            for a named distribution family.
empirical   The same estimators from a CSV sample of prices or returns.
simulate    Seeded replicate study of the empirical multiplier.
rolling     Windowed multiplier series over daily returns.

Global flags: --format csv|json, --ctol.  ``analytic`` prints the family's
closed-form multiplier where it has one; the normal has none, and its
multiplier comes from a bracketing solve to the tolerance --ctol (the
empirical solves are exact).  Every other ``analytic`` value comes from the
family's closed forms, so there is no quadrature tolerance.  Exit codes:
0 success, 1 usage error, 2 data error.

Input CSV is UTF-8, with or without a leading byte-order mark, with a
mandatory ``date,price`` or ``date,return`` header; dates are ISO-8601 and
strictly increasing.  Lines may end in LF, CRLF or CR.  Bytes that are not
UTF-8 and fields longer than the csv module's limit are data errors.  Values
go through Python's ``float()``, which also takes forms such as ``1_0`` (10)
and other scripts' digits, and must be finite; return values are kept as
given — whether they are raw or percent returns is up to the producer of the
file.

Sign convention: estimators are applied to the series as ingested;
``--negate`` flips returns to losses for users who book losses positive.

Infinite multipliers print as the literal ``inf`` in CSV and as ``null``
plus an ``"infinite": true`` flag in JSON.

``analytic``, ``empirical`` and ``simulate`` each build a JSON document and
a CSV table from their values and return through one writer, ``_emit``.
``rolling`` formats its many rows itself, which is about twice as fast as
``csv.writer`` on them.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields
from datetime import date
from typing import Optional

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import (
    DistributionModel,
    ExcessGPD,
    Exponential,
    GeneralizedPareto,
    Normal,
    Pareto,
    Uniform,
    _check_count,
    quantile,
)
from .empirical import (
    OrderedSample,
    empirical_es_n,
    empirical_pelve,
    empirical_pelve_rows,
    empirical_var,
    is_degenerate,
)
from .errors import (
    MalformedCsv,
    NoClosedForm,
    NonMonotoneDates,
    NonPositivePrice,
    PelveError,
    SampleTooSmall,
)
from .montecarlo import StudyConfig, export_histogram, run_study
from .pelve_solver import (
    DEFAULT_C_TOL,
    PelveResult,
    _check_c_tol,
    _check_level_eps,
    pelve,
    pelve_closed,
)
from .risk_measures import es_n

__all__ = [
    "ReturnSeries",
    "RollingConfig",
    "RollingColumns",
    "ingest_prices",
    "ingest_returns",
    "rolling_pelve",
    "main",
    "entrypoint",
]

DEFAULT_WINDOW = 100
DEFAULT_EPSILON = 0.05


# ---------------------------------------------------------------------------
# ingestion
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ReturnSeries:
    dates: tuple
    returns: tuple

    def __len__(self) -> int:
        return len(self.returns)


@dataclass(frozen=True)
class RollingConfig:
    window: int = DEFAULT_WINDOW
    eps: float = DEFAULT_EPSILON
    orders: tuple = (1, 2)
    negate: bool = False

    def __post_init__(self):
        _check_count("window", self.window, 2)


def _parse_rows(csv_text: str, value_column: str):
    # newline=None reads LF, CRLF and CR line ends alike, as open() does for a
    # file, and every "line N" is the reader's own count of physical lines.
    # One leading byte-order mark, which some editors write, is skipped.
    reader = csv.reader(io.StringIO(csv_text.removeprefix("\ufeff"), newline=None))
    dates, values = [], []
    prev: Optional[date] = None
    fromisoformat, isfinite = date.fromisoformat, math.isfinite
    try:
        header = next(reader, None)
        if header is None:
            raise MalformedCsv("empty input; expected a header row")
        if [h.strip().lower() for h in header] != ["date", value_column]:
            raise MalformedCsv(
                f"expected header 'date,{value_column}', got {','.join(header)!r}"
            )
        for row in reader:
            if len(row) != 2:
                if not row:
                    continue
                raise MalformedCsv(f"line {reader.line_num}: expected 2 fields, got {len(row)}")
            text, cell = row
            text = text.strip()
            try:
                d = fromisoformat(text)
                v = float(cell)
            except ValueError as exc:
                raise MalformedCsv(f"line {reader.line_num}: {exc}") from None
            if not isfinite(v):
                raise MalformedCsv(f"line {reader.line_num}: non-finite value {cell!r}")
            if prev is not None and d <= prev:
                raise NonMonotoneDates(
                    f"line {reader.line_num}: date {d.isoformat()} not after {prev.isoformat()}"
                )
            prev = d
            # A parsed YYYY-MM-DD is already its own isoformat(); the other
            # forms fromisoformat accepts (20200102, 2020-W01-4) are rewritten.
            dates.append(text if len(text) == 10 and text[4] == text[7] == "-" else d.isoformat())
            values.append(v)
    except csv.Error as exc:  # such as a field longer than csv.field_size_limit()
        raise MalformedCsv(f"line {reader.line_num}: {exc}") from None
    return dates, values


def ingest_prices(csv_text: str) -> ReturnSeries:
    """Parse a ``date,price`` CSV into one-period linear returns
    S_t/S_{t-1} - 1, each dated at t."""
    dates, prices = _parse_rows(csv_text, "price")
    if len(prices) < 2:
        raise MalformedCsv(f"need >= 2 price rows, got {len(prices)}")
    for d, p in zip(dates, prices):
        if p <= 0:
            raise NonPositivePrice(f"{d}: price {p} is not strictly positive")
    returns = tuple(prices[t] / prices[t - 1] - 1.0 for t in range(1, len(prices)))
    return ReturnSeries(tuple(dates[1:]), returns)


def ingest_returns(csv_text: str) -> ReturnSeries:
    """Parse a ``date,return`` CSV; values are taken as given."""
    dates, values = _parse_rows(csv_text, "return")
    if not values:
        raise MalformedCsv("need >= 1 return row")
    return ReturnSeries(tuple(dates), tuple(values))


# ---------------------------------------------------------------------------
# rolling analysis
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RollingColumns:
    """The rolling multiplier series: the window-end dates, one read-only
    value column per order of the config (inf where the multiplier is
    infinite) and whether the window is degenerate (m*eps < 1)."""

    dates: tuple
    values: tuple
    degenerate: bool


def rolling_pelve(series: ReturnSeries, cfg: RollingConfig) -> RollingColumns:
    """Empirical multiplier over each trailing window of cfg.window returns,
    for each order of cfg.orders."""
    m = len(series)
    if m < cfg.window:
        raise MalformedCsv(f"series length {m} is shorter than window {cfg.window}")
    sign = -1.0 if cfg.negate else 1.0
    windows = np.sort(sliding_window_view(sign * np.asarray(series.returns), cfg.window), axis=1)
    return RollingColumns(
        dates=series.dates[cfg.window - 1 :],
        values=tuple(empirical_pelve_rows(windows, order, cfg.eps).value for order in cfg.orders),
        degenerate=is_degenerate(cfg.window, cfg.eps),
    )


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _pelve_cell(result: PelveResult) -> float:
    # csv.writer writes a float as its repr, the shortest string that
    # round-trips exactly; inf prints as ``inf``.
    return result.value if result.is_finite else math.inf


def _emit(args, out, document, table) -> int:
    # The one writer of analytic, empirical and simulate: the JSON document
    # indented by two, or the rows of the CSV table.
    if args.format == "json":
        json.dump(document, out, indent=2)
        out.write("\n")
    else:
        csv.writer(out, lineterminator="\n").writerows(table)
    return 0


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _parse_dist(text: str) -> DistributionModel:
    families = {
        "uniform": Uniform,
        "exp": Exponential,
        "normal": Normal,
        "pareto": Pareto,
        "gpd": GeneralizedPareto,
        "excessgpd": ExcessGPD,
    }
    name, _, params = text.partition(":")
    if name not in families:
        raise argparse.ArgumentTypeError(
            f"unknown distribution {name!r}; expected one of {sorted(families)}"
        )
    family = families[name]
    arity = len(fields(family))
    try:
        values = [float(tok) for tok in params.split(",")] if params else []
    except ValueError:
        raise argparse.ArgumentTypeError(f"non-numeric parameter in {text!r}") from None
    if len(values) != arity:
        raise argparse.ArgumentTypeError(
            f"{name} takes {arity} parameters, got {len(values)}"
        )
    try:
        return family(*values)
    except PelveError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _level_grid(floor: float, eps: float):
    # ES rows start at the lowest level the model describes.
    grid = sorted({floor, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0 - eps})
    return [p for p in grid if floor <= p < 1.0]


def _cmd_analytic(args, out, err) -> int:
    dist, n, eps = args.dist, args.order, args.epsilon
    levels = _level_grid(dist.level_floor, eps)
    # The multiplier comes first, so that its checks of eps against the
    # model come before any row's.
    try:
        result = pelve_closed(dist, n, eps)
    except NoClosedForm:
        result = pelve(dist, n, eps, args.ctol)
    es = [(f"es_{n}", p, es_n(dist, n, p).value) for p in levels]
    rows = [("var", 1.0 - eps, quantile(dist, 1.0 - eps)), *es]
    document = [{"metric": m, "level": lvl, "value": v} for m, lvl, v in rows]
    document.append({"metric": f"pelve_{n}", "level": eps, "value": result.value,
                     "infinite": not result.is_finite})
    table = [("metric", "level", "value"), *rows, (f"pelve_{n}", eps, _pelve_cell(result))]
    return _emit(args, out, document, table)


def _load_series(args) -> ReturnSeries:
    try:
        with open(args.input, "r", encoding="utf-8") as fh:
            text = fh.read()  # one decode of the whole file: exc.start is a file offset
    except UnicodeDecodeError as exc:
        raise MalformedCsv(f"input is not UTF-8: {exc.reason} at byte offset {exc.start}") from None
    return ingest_prices(text) if args.kind == "prices" else ingest_returns(text)


def _cmd_empirical(args, out, err) -> int:
    series = _load_series(args)
    sign = -1.0 if args.negate else 1.0
    sample = OrderedSample([sign * r for r in series.returns])
    n, eps = args.order, args.epsilon
    result = empirical_pelve(sample, n, eps)
    degenerate = is_degenerate(sample.m, eps)
    var_hat = empirical_var(sample, 1.0 - eps)
    es_hat = empirical_es_n(sample, n, 1.0 - eps)
    document = {
        "m": sample.m,
        "epsilon": eps,
        "order": n,
        "var": var_hat,
        "es": es_hat,
        "pelve": result.value,
        "infinite": not result.is_finite,
        "degenerate": degenerate,
    }
    table = [
        ("metric", "value"),
        ("m", sample.m),
        ("var", var_hat),
        (f"es_{n}", es_hat),
        (f"pelve_{n}", _pelve_cell(result)),
        ("degenerate", str(degenerate).lower()),
    ]
    return _emit(args, out, document, table)


def _cmd_simulate(args, out, err) -> int:
    cfg = StudyConfig(
        dist=args.dist,
        n=args.order,
        eps=args.epsilon,
        replicates=args.replicates,
        sample_len=args.length,
        seed=args.seed,
    )
    res = run_study(cfg)
    if res.failures:
        causes = "; ".join(dict.fromkeys(message for _, message in res.failures))
        print(f"pelve: {len(res.failures)} of {cfg.replicates} replicates failed: {causes}",
              file=err)
    hist = export_histogram(res, args.bins) if res.finite_count else []
    document = {
        "replicates": cfg.replicates,
        "finite_count": res.finite_count,
        "mean": None if math.isnan(res.mean) else res.mean,
        "stddev": res.stddev,
        "failures": list(res.failures),
        "histogram": [{"low": lo, "high": hi, "count": c} for lo, hi, c in hist],
    }
    table = [
        ("metric", "value"),
        ("replicates", cfg.replicates),
        ("finite_count", res.finite_count),
        ("mean", res.mean),
        ("stddev", res.stddev),
        (),
        ("bin_low", "bin_high", "count"),
        *hist,
    ]
    return _emit(args, out, document, table)


# rolling writes its rows itself rather than through _emit: on the 1,002
# rows of a 100-day window over 600 returns, csv.writer takes 1.5 ms
# against 0.75 ms for these f-strings (2-core Xeon), about a tenth of the
# 7.3 ms command.
def _cmd_rolling(args, out, err) -> int:
    series = _load_series(args)
    cfg = RollingConfig(
        window=args.window,
        eps=args.epsilon,
        orders=tuple(args.orders),
        negate=args.negate,
    )
    res = rolling_pelve(series, cfg)
    # One row per (window end date, order), from the columns as lists of
    # Python floats; a float's repr is the text csv.writer writes for it.
    columns = [column.tolist() for column in res.values]
    if args.format == "json":
        # The bytes of json.dump(records, out, indent=2), which runs the
        # pure-Python encoder: each flat record goes through the C encoder
        # with the indented item separator, and the records are joined by
        # hand.  There is at least one window.
        encode = json.JSONEncoder(separators=(",\n    ", ": ")).encode
        out.write("[\n" + ",\n".join(
            "  {\n    " + encode({
                "date": d,
                "order": order,
                "pelve": None if v == math.inf else v,
                "infinite": v == math.inf,
                "degenerate": res.degenerate,
            })[1:-1] + "\n  }"
            for d, *values in zip(res.dates, *columns)
            for order, v in zip(cfg.orders, values)
        ) + "\n]\n")
    else:
        flag = str(res.degenerate).lower()
        out.write("".join(
            ["date,order,pelve,degenerate\n"]
            + [
                f"{d},{order},{v!r},{flag}\n"
                for d, *values in zip(res.dates, *columns)
                for order, v in zip(cfg.orders, values)
            ]
        ))
    return 0


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; this tool reserves 2 for
    # data errors and reports usage problems with status 1 instead.
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _int_at_least(low: int):
    def integer(text: str) -> int:
        value = int(text)
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {text}")
        return value

    return integer


def _float_checked_by(check):
    # argparse type for a float that the library's own range check accepts.
    def number(text: str) -> float:
        value = float(text)
        try:
            check(value)
        except PelveError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return number


_positive_int = _int_at_least(1)
_epsilon = _float_checked_by(_check_level_eps)


def _orders(text: str):
    try:
        parsed = [int(tok) for tok in text.split(",") if tok]
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad order list {text!r}") from None
    if not parsed or any(n < 1 for n in parsed):
        raise argparse.ArgumentTypeError(f"orders must be positive, got {text!r}")
    return parsed


def _build_parser() -> _Parser:
    parser = _Parser(prog="pelve", description=__doc__.splitlines()[0])
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.add_argument("--ctol", type=_float_checked_by(_check_c_tol), default=DEFAULT_C_TOL,
                        help="tolerance of the bracketing solve for the multiplier, relative "
                             "to its range (analytic on the normal only: the other families "
                             "print their closed form, and the empirical solves are exact)")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analytic", help="closed-form queries")
    p.add_argument("--dist", type=_parse_dist, required=True)
    p.add_argument("--order", type=_positive_int, default=1)
    p.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPSILON)
    p.set_defaults(fn=_cmd_analytic)

    p = sub.add_parser("empirical", help="estimators from a CSV sample")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("prices", "returns"), required=True)
    p.add_argument("--order", type=_positive_int, default=1)
    p.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPSILON)
    p.add_argument("--negate", action="store_true")
    p.set_defaults(fn=_cmd_empirical)

    p = sub.add_parser("simulate", help="seeded replicate study")
    p.add_argument("--dist", type=_parse_dist, required=True)
    p.add_argument("--order", type=_positive_int, default=2)
    p.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPSILON)
    p.add_argument("--replicates", type=_positive_int, required=True)
    p.add_argument("--length", type=_int_at_least(2), required=True)
    p.add_argument("--seed", type=_int_at_least(0), default=0)
    p.add_argument("--bins", type=_positive_int, default=30)
    p.set_defaults(fn=_cmd_simulate)

    p = sub.add_parser("rolling", help="windowed multiplier series")
    p.add_argument("--input", required=True)
    p.add_argument("--kind", choices=("prices", "returns"), required=True)
    p.add_argument("--window", type=_int_at_least(2), default=DEFAULT_WINDOW)
    p.add_argument("--epsilon", type=_epsilon, default=DEFAULT_EPSILON)
    p.add_argument("--orders", type=_orders, default=[1, 2])
    p.add_argument("--negate", action="store_true")
    p.set_defaults(fn=_cmd_rolling)

    return parser


def main(argv=None, out=None, err=None) -> int:
    """Run the CLI; returns the process exit code (0 ok, 1 usage, 2 data)."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(exc, file=err)
        return 1
    # A SampleTooSmall warning becomes one line on err per distinct message;
    # every other warning is shown as Python would show it.
    reported = set()
    show = warnings.showwarning

    def report(message, category, *where):
        if not issubclass(category, SampleTooSmall):
            show(message, category, *where)
        elif str(message) not in reported:
            reported.add(str(message))
            print(f"pelve: warning: {message}", file=err)

    with warnings.catch_warnings():
        warnings.simplefilter("always", SampleTooSmall)
        warnings.showwarning = report
        try:
            return args.fn(args, out, err)
        except (PelveError, OSError, MemoryError) as exc:
            # MemoryError: a size too large to allocate, such as --length 10**15.
            print(f"pelve: {exc}", file=err)
            return 2


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
