"""End-to-end and per-layer benchmark of the pelve CLI.

Drives ``pelve.cli.main(argv, out, err)`` in-process from one thread in a
closed loop: each operation is one CLI invocation, and the next starts when
the previous one returns.  Workloads and their output checks are in
``workloads.py``; why each exists is recorded in ``BENCHMARK.json``.

    python3 perfbench/run.py --workload analytic-quad --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics.  Their times are normalised for
the shared host's drifting speed (see ``hostspeed.py``); the wall-clock
figures go to stderr.  BLAS and OpenMP pools are held to one thread, here
and in the set-up probes, so that on a host of few cores the runs measure
the program and not the scheduler.  ``--trace 1`` runs the same untraced
loop, then two traced passes over a fixed list of operations, and prints
the per-layer metrics (counts and self times per operation, taken
from spans recorded around every call between layers).  The work counts of
the two passes must agree exactly.  The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.  Spans and the
generated inputs go under ``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

for _pool in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_pool] = "1"  # before numpy starts its pool

import numpy as np  # noqa: E402
from scipy.special import betainc  # noqa: E402

import hostspeed  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

# Fresh interpreters timed for setup_s; one more runs first to warm the
# file cache and the bytecode cache.
SETUP_RUNS = 7
_IMPORT_PROBE = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import pelve.cli\n"
    "t1 = time.perf_counter()\n"
    "print(t1 - t0, pelve.cli.__file__)\n"
)


def _from_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC)


def _import_cli():
    """Import pelve.cli from this checkout's ``src``; exit non-zero without it."""
    sys.path.insert(0, str(SRC))
    try:
        import pelve.cli as cli
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pelve from {SRC}: {exc}")
    if not _from_src(cli.__file__):
        sys.exit(f"perfbench: pelve was imported from {cli.__file__}, not {SRC}")
    return cli


def setup_seconds(runs: int) -> tuple:
    """Median time for a fresh interpreter to import pelve.cli, normalised
    for host speed, and the same median in wall-clock seconds."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    calibrator = hostspeed.Calibrator()
    probes = []
    for i in range(runs + 1):
        for _ in range(3):
            calibrator.measure()
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        seconds, path = proc.stdout.split()
        if not _from_src(path):
            raise RuntimeError(f"setup probe imported pelve from {path}")
        if i:
            probes.append((start, float(seconds)))
    for _ in range(3):
        calibrator.measure()
    return (statistics.median(calibrator.normalise(t0, s) for t0, s in probes),
            statistics.median(s for _, s in probes))


class Runner:
    """Runs operations of one workload and tallies failures."""

    def __init__(self, cli, workload, calibrator) -> None:
        self.cli = cli
        self.cases = workload.cases
        self.calibrator = calibrator
        self.attempted = 0
        self.failed = 0

    def op(self, case, tracer=None) -> tuple:
        """One CLI invocation; returns its start and wall time in seconds."""
        out, err = io.StringIO(), io.StringIO()
        argv = list(case.argv)
        t0 = time.perf_counter()
        try:
            if tracer is None:
                code = self.cli.main(argv, out, err)
            else:
                with tracer.span("cli.main"):
                    code = self.cli.main(argv, out, err)
        except Exception as exc:  # a crash is a failed operation, not a failed run
            code, problem = None, f"raised {exc!r}"
        elapsed = time.perf_counter() - t0
        if code == 0:
            try:
                problem = case.check(out.getvalue())
            except (ValueError, IndexError, KeyError) as exc:
                problem = f"unreadable output: {exc!r}"
        elif code is not None:
            problem = f"exit {code}: {err.getvalue().strip()}"
        self.attempted += 1
        if problem:
            self.failed += 1
            if self.failed <= 5:
                print(f"perfbench: {case.label}: {problem}", file=sys.stderr)
        return t0, elapsed

    def cycle(self, order, tracer=None, first_op: int = 0) -> list:
        """Each case once, in ``order``, timing the calibration kernel
        between operations; returns (case index, start, wall seconds) for
        each operation."""
        timings = []
        for k, i in enumerate(order):
            if tracer is not None:
                tracer.current_op = first_op + k
            self.calibrator.maybe()
            timings.append((i, *self.op(self.cases[i], tracer)))
        return timings

    def loop(self, orders, seconds: float) -> list:
        """Whole cycles, so that every case has an equal share, until
        ``seconds`` have passed; returns the operation timings."""
        timings = []
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            timings += self.cycle(next(orders))
        self.calibrator.measure()  # brackets the last operation
        return timings


def _orders(n: int, seed: int):
    """Seeded shuffles of the case indices, one per cycle."""
    rng = random.Random(seed)
    while True:
        order = list(range(n))
        rng.shuffle(order)
        yield order


def _ops_per_s(latencies) -> float:
    # Operations over the time spent in them (checks excluded).  A mean, not
    # a median: a shared host's speed drifts in phases of seconds to minutes,
    # and a median flips between phases where a mean moves smoothly.
    return len(latencies) / sum(latencies)


def _normalised(timings, calibrator) -> list:
    return [(i, calibrator.normalise(t0, dt)) for i, t0, dt in timings]


def _hd_median(values) -> float:
    """Harrell-Davis estimate of the median: a Beta-weighted mean of all
    order statistics, steadier than the middle one when a case has only a
    few dozen operations in a run."""
    x = np.sort(values)
    n = len(x)
    w = np.diff(betainc((n + 1) / 2, (n + 1) / 2, np.arange(n + 1) / n))
    return float(w @ x)


def _by_case(latencies) -> list:
    by_case: dict = {}
    for i, seconds in latencies:
        by_case.setdefault(i, []).append(seconds)
    return list(by_case.values())


def _latency_p50_ms(latencies) -> float:
    """Geometric mean over cases of each case's median latency.  Cases
    differ in cost several-fold, so the median of the pooled latencies
    would jump between cases from run to run.  No tail percentile is
    reported: at 25 s a simulate case gets about 25 operations, too few to
    put ten beyond its 90th percentile."""
    return statistics.geometric_mean(_hd_median(v) * 1e3 for v in _by_case(latencies))


def end_to_end(latencies, setup: float) -> dict:
    """``latencies`` are (case index, normalised seconds) pairs."""
    return {
        "ops_per_s": (_ops_per_s([s for _, s in latencies]), "1/s"),
        "latency_p50_ms": (_latency_p50_ms(latencies), "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


def _exact_counts(summary: dict) -> dict:
    return {"calls": summary["calls"], "under": summary["under"], "counts": summary["counts"]}


def per_layer(passes, ops: int, overhead_ratio: float) -> dict:
    """Per-operation counts and self times from two traced passes of
    ``ops`` operations each; counts come from the first pass (the caller
    has checked that the second agrees), self times are averaged."""
    first = passes[0]
    calls, under, counts = first["calls"], first["under"], first["counts"]

    def self_s(span: str) -> tuple:
        return (statistics.fmean(p["self_s"][span] for p in passes) / ops, "s")

    def ratio(num: int, den: int) -> tuple:
        return (num / den if den else 0.0, "ratio")

    def count(x: int) -> tuple:
        return (x / ops, "count")

    quad_calls = counts.get("risk_measures.es_n.quad_calls", 0)
    return {
        "distributions.quantile.calls": count(calls["distributions.quantile"]),
        "distributions.quantile.self_s": self_s("distributions.quantile"),
        "distributions.sample.self_s": self_s("distributions.sample"),
        "distributions.sample.draws": count(counts.get("distributions.sample.draws", 0)),
        "risk_measures.es_n.calls": count(calls["risk_measures.es_n"]),
        "risk_measures.es_n.quad_calls": count(quad_calls),
        "risk_measures.es_n.self_s": self_s("risk_measures.es_n"),
        "risk_measures.nodes_per_quad_es": ratio(
            under.get("distributions.quantile<risk_measures.es_n", 0), quad_calls),
        "pelve_solver.pelve.self_s": self_s("pelve_solver.pelve"),
        "pelve_solver.es_calls_per_solve": ratio(
            under.get("risk_measures.es_n<pelve_solver.pelve", 0), calls["pelve_solver.pelve"]),
        "pelve_solver.bisection_steps": count(counts.get("pelve_solver.bisection_steps", 0)),
        "empirical.sort.self_s": self_s("empirical.sort"),
        "empirical.weights.self_s": self_s("empirical.weights"),
        "empirical.es_n.calls": count(calls["empirical.es_n"]),
        "empirical.es_n.self_s": self_s("empirical.es_n"),
        "empirical.pelve.calls": count(calls["empirical.pelve"]),
        "empirical.pelve.self_s": self_s("empirical.pelve"),
        "empirical.es_calls_per_pelve": ratio(
            under.get("empirical.es_n<empirical.pelve", 0), calls["empirical.pelve"]),
        "empirical.bisection_steps": count(counts.get("empirical.bisection_steps", 0)),
        "montecarlo.run_study.self_s": self_s("montecarlo.run_study"),
        "montecarlo.replicates": count(counts.get("montecarlo.replicates", 0)),
        "montecarlo.failures": count(counts.get("montecarlo.failures", 0)),
        "cli.main.self_s": self_s("cli.main"),
        "cli.ingest.self_s": self_s("cli.ingest"),
        "cli.rolling_pelve.self_s": self_s("cli.rolling_pelve"),
        "trace.overhead_ratio": (overhead_ratio, "ratio"),
    }


def traced_passes(runner: Runner, workload, order, tracing) -> tuple:
    """Two identical traced passes; returns their summaries, the traced
    latencies and whether the work counts agree exactly."""
    summaries, latencies, columns = [], [], {}
    for k in range(2):
        tracer = tracing.Tracer()
        with tracing.instrumented(tracer):
            for c in range(workload.traced_cycles):
                latencies += runner.cycle(order, tracer, first_op=c * len(order))
        summaries.append(tracer.summary())
        columns.update({f"{key}_{k}": v for key, v in tracer.columns().items()})
    runner.calibrator.measure()
    repeat = _exact_counts(summaries[0]) == _exact_counts(summaries[1])
    if not repeat:
        print(f"perfbench: traced work counts differ between passes: "
              f"{_exact_counts(summaries[0])} vs {_exact_counts(summaries[1])}", file=sys.stderr)
    np.savez(OUT / f"trace-{workload.name}.npz", span_names=np.array(tracing.SPANS), **columns)
    return summaries, latencies, repeat


def _parse_args(argv, names):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    import workloads

    args = _parse_args(argv, workloads.NAMES)
    cli = _import_cli()
    import tracing
    from pelve import DEFAULT_C_TOL, DEFAULT_REL_TOL

    OUT.mkdir(exist_ok=True)
    setup, setup_wall = setup_seconds(SETUP_RUNS) if not args.trace else (None, None)
    with tempfile.TemporaryDirectory(dir=OUT) as scratch:
        workload = workloads.build(
            args.workload, args.seed, Path(scratch), DEFAULT_C_TOL, DEFAULT_REL_TOL)
        calibrator = hostspeed.Calibrator()
        runner = Runner(cli, workload, calibrator)
        orders = _orders(len(workload.cases), args.seed)
        first_order = next(orders)
        runner.cycle(first_order)  # warm-up: lazy imports, caches; checked, not timed
        timings = runner.loop(orders, args.seconds)
        latencies = _normalised(timings, calibrator)
        repeat = True
        if args.trace:
            summaries, traced, repeat = traced_passes(runner, workload, first_order, tracing)
            overhead = (_ops_per_s([s for _, s in _normalised(traced, calibrator)])
                        / _ops_per_s([s for _, s in latencies]))
            ops = workload.traced_cycles * len(workload.cases)
            metrics = per_layer(summaries, ops, overhead)
        else:
            metrics = end_to_end(latencies, setup)
            wall = end_to_end([(i, dt) for i, _, dt in timings], setup_wall)
            fewest = min(len(v) for v in _by_case(latencies))
            print(f"perfbench: {args.workload}: {len(timings)} timed operations, "
                  f"at least {fewest} per case; wall clock: "
                  + ", ".join(f"{k} {v:.5g}" for k, (v, _) in wall.items()), file=sys.stderr)
    print(f"perfbench: error_rate {runner.failed / runner.attempted:.6g} "
          f"({runner.failed} of {runner.attempted})", file=sys.stderr)
    print(json.dumps({
        "correct": runner.failed == 0 and repeat,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
