"""Write ``references.json``: high-precision VaR, ES_n and PELVE_n values
for every ``pelve analytic`` case the benchmark runs.

The values come from mpmath at 50 working digits and are stored with 35
significant digits, independently of the package under test: ES_n is
integrated directly from each family's quantile function, and PELVE_n is
the root of ES_n(1 - c*eps) = VaR(1 - eps) in c.  For the generalized
Pareto cases the quadrature is cross-checked against the Beta-function
closed form before anything is written.

Run from the repository root (takes about a minute):

    python3 perfbench/make_references.py
"""

from __future__ import annotations

import json
from pathlib import Path

import mpmath as mp

mp.mp.dps = 50

EPS = mp.mpf("0.05")
LEVELS = ("0.0", "0.5", "0.75", "0.9", "0.95", "0.99")

# (CLI --dist value, order).  Keys of the output file are "<dist>@<order>".
CASES = (
    ("normal:0,1", 3),
    ("gpd:0.5,1", 3),
    ("excessgpd:1,0.3,1,0", 3),
    ("uniform:0,1", 4),
    ("exp:1", 3),
    ("normal:0,1", 2),
    ("pareto:1,3", 2),
    ("gpd:0.3,1", 2),
)


def _tail_family(u, k, b, fu):
    """Excess-over-threshold GPD written in the tail variable t = 1 - s."""

    def tail_q(t):
        ratio = t / (1 - fu)
        return u - b * mp.log(ratio) if k == 0 else u + (b / k) * (ratio ** (-k) - 1)

    def es_exact(n, p):
        # Integral of n (1-p-t)^(n-1) (t/(1-fu))^(-k) over (0, 1-p), by Beta.
        w = 1 - p
        power = n * w ** (-k) * (1 - fu) ** k * mp.beta(n, 1 - k)
        return u + (b / k) * (power - 1)

    return tail_q, es_exact


def _model(dist: str):
    """Return (VaR(s), ES_n(n, p), exact ES_n or None) for a --dist value."""
    name, _, params = dist.partition(":")
    v = [mp.mpf(x) for x in params.split(",")]

    def es_tail(tail_q):
        def es(n, p):
            # t = x^2 softens the algebraic singularity of tail_q at t = 0.
            w = 1 - p
            f = lambda x: 2 * x * n * (w - x * x) ** (n - 1) / w ** n * tail_q(x * x)
            return mp.quad(f, [0, mp.sqrt(w) / 100, mp.sqrt(w)])
        return es

    if name == "normal":
        mu, sd = v
        def var(s):
            return mu + sd * mp.sqrt(2) * mp.erfinv(2 * s - 1)
        def es(n, p):
            # s = Phi(z) turns the kernel integral into a smooth one in z.
            lo = -mp.inf if p == 0 else mp.sqrt(2) * mp.erfinv(2 * p - 1)
            f = lambda z: n * (mp.ncdf(z) - p) ** (n - 1) / (1 - p) ** n * z * mp.npdf(z)
            return mu + sd * mp.quad(f, [lo, 0, mp.inf] if lo < 0 else [lo, mp.inf])
        return var, es, None
    if name == "uniform":
        a, b = v
        tail_q = lambda t: b - (b - a) * t
        return (lambda s: tail_q(1 - s)), es_tail(tail_q), None
    if name == "exp":
        (rate,) = v
        tail_q = lambda t: -mp.log(t) / rate
        return (lambda s: tail_q(1 - s)), es_tail(tail_q), None
    if name == "pareto":
        scale, alpha = v
        tail_q = lambda t: scale * t ** (-1 / alpha)
        return (lambda s: tail_q(1 - s)), es_tail(tail_q), None
    if name == "gpd":
        k, b = v
        tail_q, exact = _tail_family(0, k, b, 0)
    elif name == "excessgpd":
        u, k, b, fu = v
        tail_q, exact = _tail_family(u, k, b, fu)
    else:
        raise ValueError(f"unknown family {name!r}")
    return (lambda s: tail_q(1 - s)), es_tail(tail_q), exact


def _case(dist: str, n: int) -> dict:
    var, es, exact = _model(dist)
    es_values = {}
    for level in LEVELS:
        value = es(n, mp.mpf(level))
        if exact is not None:
            check = exact(n, mp.mpf(level))
            if abs(value - check) > mp.mpf(10) ** -35 * abs(check):
                raise RuntimeError(f"{dist} order {n} at {level}: quad {value} vs exact {check}")
        es_values[level] = mp.nstr(value, 35)
    target = var(1 - EPS)
    # 1 - c*eps can round a hair below 0 at c = 1/eps; clamp it.
    g = lambda c: es(n, max(1 - c * EPS, 0)) - target
    root = mp.findroot(g, (mp.mpf(1), 1 / EPS), solver="illinois", tol=mp.mpf(10) ** -40)
    slope = mp.diff(g, root)
    return {
        "dist": dist,
        "order": n,
        "epsilon": mp.nstr(EPS, 5),
        "var": mp.nstr(target, 35),
        "es": es_values,
        "pelve": mp.nstr(root, 35),
        # dES_n(1 - c*eps)/dc at the root: turns an ES error into a c error.
        "pelve_slope": mp.nstr(slope, 10),
    }


def main() -> None:
    refs = {f"{dist}@{n}": _case(dist, n) for dist, n in CASES}
    path = Path(__file__).with_name("references.json")
    path.write_text(json.dumps(refs, indent=2) + "\n", encoding="utf-8")
    print(f"wrote {len(refs)} cases to {path}")


if __name__ == "__main__":
    main()
