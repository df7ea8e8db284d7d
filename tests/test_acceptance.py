"""End-to-end acceptance checks, one test per criterion.

Each test prints a single PASS/FAIL line (run pytest with -s to see them
on a green run) and then asserts, so failures surface both ways.
"""

import io
import math
import time
from pathlib import Path

import mpmath

from pelve import (
    ExcessGPD,
    Exponential,
    Normal,
    Pareto,
    StudyConfig,
    Uniform,
    harmonic_number,
    pelve,
    pelve2_rv_limit,
    pelve_closed,
    run_study,
)
from pelve.cli import main as cli_main

DATA = Path(__file__).parent / "data" / "returns_600.csv"


def _report(name, ok, detail=""):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}".rstrip())
    assert ok, f"{name} failed: {detail}"


def test_acceptance_1_uniform_closed_form():
    t0 = time.time()
    worst = 0.0
    for n in range(1, 6):
        closed = pelve_closed(Uniform(0, 1), n, 0.01)
        assert closed.value == n + 1  # exact on the closed path
        numeric = pelve(Uniform(0, 1), n, 0.01, c_tol=1e-11)
        worst = max(worst, abs(numeric.value - (n + 1)))
    elapsed = time.time() - t0
    _report(
        "1 uniform",
        worst <= 1e-8 and elapsed < 1.0,
        f"max |err| {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_2_exponential():
    t0 = time.time()
    worst = 0.0
    for n in (1, 2, 3):
        r = pelve(Exponential(1), n, 0.05, c_tol=1e-10)
        worst = max(worst, abs(r.value - math.exp(harmonic_number(n))))
    err_e32 = abs(pelve(Exponential(1), 2, 0.05, c_tol=1e-10).value - math.exp(1.5))
    elapsed = time.time() - t0
    _report(
        "2 exponential",
        worst <= 1e-7 and err_e32 <= 1e-7 and elapsed < 1.0,
        f"max |err| {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_3_normal_reference_values():
    targets = {0.1: 3.92217, 0.05: 4.04082, 0.01: 4.18527, 0.005: 4.22188}
    t0 = time.time()
    worst = 0.0
    for eps, want in targets.items():
        r = pelve(Normal(0, 1), 2, eps)
        worst = max(worst, abs(r.value - want))
    elapsed = time.time() - t0
    _report(
        "3 normal table",
        worst <= 1e-4 and elapsed < 5.0,
        f"max |err| {worst:.2e}, {elapsed:.2f}s",
    )


def test_acceptance_4_pareto_table():
    t0 = time.time()
    ok = True
    details = []
    for alpha, printed in ((2, 7.112), (10, 4.791), (30, 4.578)):
        exact = (2 * alpha ** 2 / ((alpha - 1) * (2 * alpha - 1))) ** alpha
        closed = pelve_closed(Pareto(1.0, alpha), 2, 0.01).value
        ok &= abs(closed - exact) <= 1e-12 * exact
        ok &= math.ceil(exact * 1000) / 1000 == printed  # round-up to 3 dp
        numeric = pelve(Pareto(1.0, alpha), 2, 0.01, c_tol=1e-10).value
        ok &= abs(numeric - exact) <= 1e-6
        details.append(f"a={alpha}: {closed:.6f}")
    elapsed = time.time() - t0
    ok &= elapsed < 2.0
    _report("4 pareto table", ok, f"{'; '.join(details)}, {elapsed:.2f}s")


def test_acceptance_5_gpd_closed_form_grid():
    t0 = time.time()
    ok = True
    for kappa in (0.0, 0.25, 0.5, 0.75):
        # (2/((1 - kappa)(2 - kappa)))^(1/kappa), correctly rounded from 40 digits.
        with mpmath.workdps(40):
            k = mpmath.mpf(kappa)
            want = math.exp(1.5) if kappa == 0 else float((2 / ((1 - k) * (2 - k))) ** (1 / k))
        for u in (0.0, 1.0, 10.0):
            for beta in (0.5, 1.0, 3.0):
                for fu in (0.0, 0.5, 0.9):
                    eps = 0.5 * (1 - fu) / want  # safely below the threshold
                    got = pelve_closed(ExcessGPD(u, kappa, beta, fu), 2, eps).value
                    ok &= got == want  # exact: value is independent of u, beta, fu
    elapsed = time.time() - t0
    ok &= elapsed < 1.0
    _report("5 gpd grid", ok, f"{elapsed:.2f}s")


def test_acceptance_6_regular_variation_limit():
    t0 = time.time()
    ok = True
    worst = 0.0
    for alpha in (2, 5, 10):
        lim = pelve2_rv_limit(alpha)
        r = pelve(Pareto(1, alpha), 2, 1e-3, c_tol=1e-10)
        worst = max(worst, abs(r.value - lim))
    ok &= worst <= 1e-6
    values = [pelve2_rv_limit(a) for a in (1.5, 2, 5, 10, 50, 1000)]
    ok &= all(a > b for a, b in zip(values, values[1:]))
    ok &= all(v >= math.exp(1.5) for v in values)
    elapsed = time.time() - t0
    ok &= elapsed < 2.0
    _report("6 rv limit", ok, f"max |err| {worst:.2e}, {elapsed:.2f}s")


def test_acceptance_7_simulation_study():
    t0 = time.time()
    res = run_study(StudyConfig(Normal(0, 1), 2, 0.05, 100, 5000, 42))
    err = abs(res.mean - 4.0408)
    elapsed = time.time() - t0
    _report(
        "7 simulation",
        res.finite_count == 100 and err <= 0.05 and elapsed < 60.0,
        f"mean {res.mean:.6f} (|err| {err:.4f}), {elapsed:.1f}s",
    )


def test_acceptance_8_property_suites():
    from pelve import (
        GeneralizedPareto,
        GiniParams,
        NoClosedForm,
        es_n,
        es_n_quadrature,
        es_n_weights,
        gini_shortfall,
        quantile,
        tail_quantile,
    )

    t0 = time.time()
    ok = True
    families = [
        Uniform(0, 1),
        Exponential(1),
        Normal(0, 1),
        Pareto(1, 2),
        GeneralizedPareto(0.5, 1),
    ]
    levels = [i / 21 for i in range(20)]

    # (a) ordering chain VaR <= ES_1 <= ES_2 <= ES_3
    for dist in families:
        for p in levels:
            var = quantile(dist, p) if p > 0 else -math.inf
            chain = [var] + [es_n(dist, n, p).value for n in (1, 2, 3)]
            ok &= all(
                a <= b + 1e-9 * max(1, abs(b)) for a, b in zip(chain, chain[1:])
            )

    # (b) closed form vs quadrature within 1e-8 relative
    for dist in families:
        for n in (1, 2, 3):
            for p in (0.0, 0.5, 0.95):
                try:
                    closed = dist.es_closed(n, p)
                except NoClosedForm:
                    continue
                quad = es_n_quadrature(
                    lambda s: quantile(dist, s),
                    n,
                    p,
                    tail_quantile_fn=lambda t: tail_quantile(dist, t),
                ).value
                ok &= abs(quad - closed) <= 1e-8 * max(1, abs(closed))

    # (c) weight normalization and the order-2 piecewise cell formula
    for m in (1, 2, 5, 23, 50):
        for p in levels:
            for n in (1, 2, 3, 4):
                w = es_n_weights(m, n, p)
                ok &= abs(w.sum() - 1.0) <= 1e-12
            w2 = es_n_weights(m, 2, p)
            if p < (m - 1) / m:
                for i in range(1, m + 1):
                    lo, hi = (i - 1) / m, i / m
                    if hi <= p:
                        cell = 0.0
                    else:
                        cell = ((hi - p) ** 2 - max(lo - p, 0.0) ** 2) / (1 - p) ** 2
                    ok &= abs(w2[i - 1] - cell) <= 1e-12

    # (d) Gini shortfall decomposition
    for dist in families:
        for p in (0.0, 0.5, 0.9):
            es1 = es_n(dist, 1, p).value
            es2 = es_n(dist, 2, p).value
            for lam in (0.1, 0.5):
                gs = gini_shortfall(dist, p, GiniParams(lam))
                ok &= abs(gs - ((1 - 2 * lam) * es1 + 2 * lam * es2)) <= 1e-10
            ok &= abs(gini_shortfall(dist, p, GiniParams(0.5)) - es2) <= 1e-10

    # (e) comonotonic additivity: X ~ U(0,1), Y = X^2 share one source
    for n in (1, 2):
        for p in (0.0, 0.5):
            lhs = es_n_quadrature(lambda s: s + s * s, n, p).value
            rhs = (
                es_n_quadrature(lambda s: s, n, p).value
                + es_n_quadrature(lambda s: s * s, n, p).value
            )
            ok &= abs(lhs - rhs) <= 1e-8 * max(1, abs(lhs))

    # (f) power-kernel integral: ES_1 at level 0 of (1 - s)^kappa is 1/(kappa+1)
    for kappa in (-0.9, -0.5, 0.0, 1.0):
        got = es_n_quadrature(
            lambda s: (1 - s) ** kappa, 1, 0.0, tail_quantile_fn=lambda t: t ** kappa
        ).value
        ok &= abs(got - 1 / (kappa + 1)) <= 1e-9 / (kappa + 1)

    # (g) scale-location invariance of the multiplier
    c_tol = 1e-9
    base_u = pelve(Uniform(0, 1), 2, 0.05, c_tol=c_tol).value
    base_e = pelve(Exponential(1), 2, 0.05, c_tol=c_tol).value
    base_n = pelve(Normal(0, 1), 2, 0.05, c_tol=c_tol).value
    for a, b in ((-3, 2), (10, 11)):
        ok &= abs(pelve(Uniform(a, b), 2, 0.05, c_tol=c_tol).value - base_u) <= 2 * c_tol
    for lam in (0.2, 7.0):
        ok &= abs(pelve(Exponential(lam), 2, 0.05, c_tol=c_tol).value - base_e) <= 2 * c_tol
    for m, s in ((5, 0.1), (-2, 9)):
        ok &= abs(pelve(Normal(m, s), 2, 0.05, c_tol=c_tol).value - base_n) <= 2 * c_tol

    # (h) GPD ES_2/VaR ratio limit (level scaled to the kappa rate)
    for kappa, p in ((0.25, 1 - 1e-13), (0.5, 1 - 1e-8)):
        d = GeneralizedPareto(kappa, 1)
        ratio = d.es_closed(2, p) / quantile(d, p)
        ok &= abs(ratio - 2 / ((1 - kappa) * (2 - kappa))) <= 1e-3

    elapsed = time.time() - t0
    ok &= bool(elapsed < 30.0)
    _report("8 property suites", bool(ok), f"{elapsed:.1f}s")


def test_acceptance_9_cli_end_to_end():
    t0 = time.time()
    args = ["rolling", "--input", str(DATA), "--kind", "returns",
            "--window", "100", "--epsilon", "0.05", "--orders", "1,2"]
    out1, out2 = io.StringIO(), io.StringIO()
    code1 = cli_main(args, out=out1, err=io.StringIO())
    code2 = cli_main(args, out=out2, err=io.StringIO())
    lines = out1.getvalue().splitlines()
    ok = code1 == 0 and code2 == 0
    ok &= len(lines) == 1 + (600 - 100 + 1) * 2
    ok &= any(line.split(",")[2] == "inf" for line in lines[1:])
    ok &= out1.getvalue() == out2.getvalue()
    elapsed = time.time() - t0
    ok &= elapsed < 30.0
    _report("9 cli rolling", ok, f"{len(lines) - 1} rows, {elapsed:.1f}s")
