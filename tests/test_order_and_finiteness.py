"""Two of the paper's properties on every family.

Monotone in n: ES_n(p) is the mean of the quantile under a kernel that puts
more weight on high levels as n grows, so ES_n >= ES_{n-1}, and the level
1 - c eps at which ES_n meets VaR(1 - eps) can only move down, so
PELVE_n >= PELVE_{n-1}.

Finite: PELVE_n is finite exactly when ES_n at the level floor is at most
VaR(1 - eps); the closed multiplier of an excess model must say the same as
``pelve_exists``, on both sides of its threshold.
"""

import math

import pytest

from pelve import (
    DEFAULT_C_TOL,
    ExcessGPD,
    Exponential,
    GeneralizedPareto,
    Normal,
    Pareto,
    Uniform,
    pelve,
    pelve_closed,
    pelve_exists,
)

EXCESS_MODELS = [
    Uniform(0, 1),
    Uniform(-2, 5),
    Exponential(1),
    Pareto(1, 3),
    Pareto(2, 1.5),
    GeneralizedPareto(-0.5, 1),
    GeneralizedPareto(0.3, 1),
    GeneralizedPareto(0.9, 2),
    ExcessGPD(1, 0.3, 1, 0.4),
    ExcessGPD(0, -0.2, 3, 0.9),
]
FAMILIES = EXCESS_MODELS + [Normal(0, 1), Normal(-1, 3)]


@pytest.mark.parametrize("dist", FAMILIES, ids=repr)
def test_es_n_grows_with_n(dist):
    levels = [dist.level_floor] + [p for p in (0.5, 0.9, 0.99, 1 - 1e-9) if p > dist.level_floor]
    for p in levels:
        values = [dist.es_closed(n, p) for n in range(1, 8)]
        assert values == sorted(values), (p, values)


@pytest.mark.parametrize("dist", EXCESS_MODELS, ids=repr)
@pytest.mark.parametrize("eps", [0.05, 0.01, 1e-4])
def test_closed_multiplier_grows_with_n(dist, eps):
    results = [pelve_closed(dist, n, eps) for n in range(1, 7)]
    values = [r.value if r.is_finite else math.inf for r in results]
    assert values == sorted(values), values


@pytest.mark.parametrize("eps", [0.05, 0.01, 1e-4])
def test_normal_multiplier_grows_with_n(eps):
    # The solve is good to c_tol (c_max - 1), c_max = 1/eps.
    slack = DEFAULT_C_TOL * (1 / eps - 1)
    values = [pelve(Normal(0, 1), n, eps).value for n in range(1, 7)]
    assert all(b >= a - slack for a, b in zip(values, values[1:])), values


def test_closed_multiplier_is_finite_where_pelve_exists():
    # eps on both sides of each threshold, wherever 1 - eps lies above the
    # level floor.
    cases = 0
    for dist in EXCESS_MODELS:
        for n in range(1, 6):
            _, threshold = dist.closed_multiplier(n)
            for factor in (0.5, 0.9, 1.1, 2.0):
                eps = threshold * factor
                if not (0.0 < eps < 1.0 and 1.0 - eps > dist.level_floor):
                    continue
                cases += 1
                assert pelve_closed(dist, n, eps).is_finite == pelve_exists(dist, n, eps), (
                    dist, n, eps)
    assert cases == 198
