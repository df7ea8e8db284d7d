"""The closed forms against mpmath: the generalized-Pareto types, the
uniform, the exponential and Pareto at 40 digits, the normal at 20.

Uniform, Exponential and Pareto are generalized-Pareto excess models and run
the same formulas as ExcessGPD, bit for bit; the references below take each
family's own textbook form.  Every GPD-type ES_n and PELVE_n follows from
the kernel moment
S_n = n B(n, 1 - k): for Q(s) = u + (beta/k)(x^-k - 1), x = (1 - s)/(1 - F(u)),
ES_n(p) = u + (beta/k)(x^-k S_n - 1) and PELVE_n = S_n^(1/k).  The references
below take S_n from mpmath's beta function, not from the log sum the code
forms.

The normal ES_n at orders n >= 3 is
n (n-1)/(1-p)^2 * integral over (z_p, inf) of v^(n-2) phi(u)^2 du with
v = (Phi(u) - p)/(1 - p); the references integrate it with mpmath's
tanh-sinh rule in u, not on the code's Gauss-Legendre panels in u/sqrt(2).
"""

import math

import mpmath
import pytest

from pelve import (
    DEFAULT_C_TOL,
    ExcessGPD,
    Exponential,
    GeneralizedPareto,
    Normal,
    Pareto,
    Uniform,
    es_n_quadrature,
    pelve,
    pelve_closed,
    pelve2_rv_limit,
)

SHAPES = [-0.5, -0.1, -1e-12, 0.0, 1e-12, 0.1, 0.3, 0.5, 0.9, 0.999]
ORDERS = [1, 2, 3, 5, 10, 20, 40]
LEVELS = [0.0, 1e-12, 0.3, 0.5, 0.9, 0.99, 1 - 1e-6, 1 - 1e-12]
TAILS = [1.01, 1.5, 2.0, 3.0, 10.0]


def _models(k):
    # The plain GPD and an excess model above F(u) = 0.4.
    return [GeneralizedPareto(k, 1.0), ExcessGPD(1.0, k, 2.0, 0.4)]


def _kernel_moment(n, k):
    return n * mpmath.beta(n, 1 - mpmath.mpf(k))


def _gpd_exact(dist, p, s=1, h=0):
    # u + (beta/k)(x^-k S - 1), and its k = 0 limit u + beta(h - log x).
    k, b, u = (mpmath.mpf(v) for v in (dist.shape, dist.scale, dist.threshold))
    log_x = mpmath.log1p(-mpmath.mpf(p)) - mpmath.log1p(-mpmath.mpf(dist.base_cdf_at_u))
    if k == 0:
        return u + b * (h - log_x)
    return u + (b / k) * mpmath.expm1(mpmath.log(s) - k * log_x)


def _rel(got, exact):
    return float(abs(mpmath.mpf(got) - exact) / abs(exact))


def test_gpd_quantile_and_es_n_are_within_1e_14():
    worst = {}
    with mpmath.workdps(40):
        for k in SHAPES:
            for dist in _models(k):
                levels = [p for p in LEVELS if p >= dist.level_floor]
                for p in levels:
                    if p > dist.level_floor:
                        key = ("var", k, dist.level_floor)
                        worst[key] = max(worst.get(key, 0.0), _rel(dist.quantile(p), _gpd_exact(dist, p)))
                    for n in ORDERS:
                        exact = _gpd_exact(dist, p, _kernel_moment(n, k), mpmath.harmonic(n))
                        key = ("es", k, dist.level_floor)
                        worst[key] = max(worst.get(key, 0.0), _rel(dist.es_closed(n, p), exact))
    assert {key: e for key, e in worst.items() if e > 1e-14} == {}


def test_pareto_es_n_is_within_1e_14():
    worst = {}
    with mpmath.workdps(40):
        for alpha in TAILS:
            inv = 1 / mpmath.mpf(alpha)
            for scale in (1.0, 2.0):
                dist = Pareto(scale, alpha)
                for n in ORDERS:
                    s = _kernel_moment(n, inv)
                    for p in LEVELS:
                        exact = scale * s * (1 - mpmath.mpf(p)) ** -inv
                        worst[alpha] = max(worst.get(alpha, 0.0), _rel(dist.es_closed(n, p), exact))
    assert {alpha: e for alpha, e in worst.items() if e > 1e-14} == {}


def test_uniform_and_exponential_quantile_and_es_n_are_within_1e_14():
    # Uniform(a, b): VaR a + (b - a) p, ES_n a + (b - a)(n + p)/(n + 1).
    # Exponential(rate): VaR -log(1 - p)/rate, ES_n (H_n - log(1 - p))/rate.
    worst = {}
    with mpmath.workdps(40):
        for dist in (Uniform(0, 1), Uniform(-3, 5), Exponential(1), Exponential(2.5)):
            for p in LEVELS:
                q = mpmath.mpf(p)
                if isinstance(dist, Uniform):
                    a, b = mpmath.mpf(dist.lower), mpmath.mpf(dist.upper)
                    var = a + (b - a) * q
                    es = [a + (b - a) * (n + q) / (n + 1) for n in ORDERS]
                else:
                    var = -mpmath.log1p(-q) / dist.rate
                    es = [(mpmath.harmonic(n) - mpmath.log1p(-q)) / dist.rate for n in ORDERS]
                if p > 0.0:
                    worst[dist, "var"] = max(worst.get((dist, "var"), 0.0), _rel(dist.quantile(p), var))
                for n, exact in zip(ORDERS, es):
                    worst[dist, "es"] = max(worst.get((dist, "es"), 0.0), _rel(dist.es_closed(n, p), exact))
    assert {key: e for key, e in worst.items() if e > 1e-14} == {}


# Uniform, Exponential and Pareto beside the ExcessGPD of their threshold,
# shape, scale and F(u) = 0.
SHARED = [
    (Uniform(0, 1), ExcessGPD(0.0, -1.0, 1.0, 0.0)),
    (Uniform(2, 5), ExcessGPD(2.0, -1.0, 3.0, 0.0)),
    (Exponential(1), ExcessGPD(0.0, 0.0, 1.0, 0.0)),
    (Exponential(2.5), ExcessGPD(0.0, 0.0, 1 / 2.5, 0.0)),
    (Pareto(1, 3), ExcessGPD(1.0, 1 / 3, 1 / 3, 0.0)),
    (Pareto(2, 1.5), ExcessGPD(2.0, 1 / 1.5, 2 / 1.5, 0.0)),
    (Pareto(1, 20), ExcessGPD(1.0, 1 / 20, 1 / 20, 0.0)),
]


@pytest.mark.parametrize("family, excess", SHARED, ids=repr)
def test_families_run_the_excess_model_formulas(family, excess):
    for n in ORDERS:
        assert family.closed_multiplier(n) == excess.closed_multiplier(n), n
        for p in LEVELS:
            assert family.es_closed(n, p) == excess.es_closed(n, p), (n, p)


def test_uniform_multiplier_is_exactly_n_plus_1():
    # S_n = 1/(n + 1) at shape -1, whose rounded log sum does not always
    # invert to n + 1 (2.9999999999999996 at n = 2).  eps = 1e-4 lies below
    # the threshold 1/(n + 1) of every order up to 1000.
    off = [n for n in range(1, 1001) if pelve_closed(Uniform(0, 1), n, 1e-4).value != n + 1]
    assert off == []


def test_small_shape_multipliers_are_within_1e_15():
    # exp(log S_n / k): the power S_n^(1/k) multiplies the rounding of S_n by
    # 1/k, 1.3e-4 relative at k = 1e-12 and n = 2.
    off = []
    with mpmath.workdps(40):
        for k in (1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6, 1e-3, -1e-3):
            for n in (2, 40):
                exact = _kernel_moment(n, k) ** (1 / mpmath.mpf(k))
                for dist in _models(k):
                    value, _ = dist.closed_multiplier(n)
                    if _rel(value, exact) > 1e-15:
                        off.append((dist, n, _rel(value, exact)))
    assert off == []


def test_multipliers_are_within_4e_15():
    # Up to n = 1000, where a power of the rounded S_n is 2.3e-13 off.
    off = []
    with mpmath.workdps(40):
        for n in ORDERS + [100, 1000]:
            for k in (k for k in SHAPES if k == 0.0 or abs(k) >= 0.1):
                if k == 0.0:
                    exact = mpmath.exp(sum(mpmath.mpf(1) / j for j in range(1, n + 1)))
                else:
                    exact = _kernel_moment(n, k) ** (1 / mpmath.mpf(k))
                for dist in _models(k):
                    value, threshold = dist.closed_multiplier(n)
                    if _rel(value, exact) > 4e-15:
                        off.append((dist, n, _rel(value, exact)))
                    assert threshold == (1.0 - dist.level_floor) / value
            for alpha in TAILS:
                exact = _kernel_moment(n, 1 / mpmath.mpf(alpha)) ** alpha
                value, _ = Pareto(1.0, alpha).closed_multiplier(n)
                if _rel(value, exact) > 4e-15:
                    off.append((alpha, n, _rel(value, exact)))
    assert off == []


def test_pelve2_rv_limit_is_within_1e_14():
    off = []
    with mpmath.workdps(50):
        for alpha in (1 + 1e-12, 1 + 1e-8, 1 + 1e-6, 1 + 1e-3, 1.01, 1.5, 2.0, 10.0, 1e3, 1e6):
            a = mpmath.mpf(alpha)
            exact = (2 * a * a / ((a - 1) * (2 * a - 1))) ** a
            if _rel(pelve2_rv_limit(alpha), exact) > 1e-14:
                off.append((alpha, _rel(pelve2_rv_limit(alpha), exact)))
    assert off == []


@pytest.mark.parametrize("dist", [GeneralizedPareto(0.97, 1), GeneralizedPareto(0.98, 1)], ids=repr)
def test_heavy_gpd_at_order_3_is_closed(dist):
    # Quadrature of these tails reaches the float limits before it converges.
    exact = (0.5 ** -dist.shape * 3 * math.gamma(3) * math.gamma(1 - dist.shape)
             / math.gamma(4 - dist.shape) - 1) / dist.shape
    assert dist.es_closed(3, 0.5) == pytest.approx(exact, rel=1e-12)


NORMAL_ORDERS = [3, 4, 5, 10, 40, 200]
NORMAL_LEVELS = [0.0, 1e-10, 0.1, 0.3, 0.5, 0.75, 0.9, 0.95, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]
# Each order at every third level, the orders offset so that every level is
# met twice; and the order 1000 at both ends and the middle.
NORMAL_CASES = [
    (n, p)
    for j, n in enumerate(NORMAL_ORDERS)
    for k, p in enumerate(NORMAL_LEVELS)
    if (j + k) % 3 == 0
] + [(1000, 0.0), (1000, 0.5), (1000, 1 - 1e-12)]


def _normal_es_exact(n, p):
    # The standard normal ES_n at 20 digits.  z_p and the peak u_m, where
    # 1 - Phi(u_m) = 2 (1 - p)/n, come from erfinv at 40 digits, which near
    # p = 1 loses the digits of 2 p - 1.  The integrand carries its scale,
    # since mpmath.quad's tolerance is absolute, and the panels split at
    # steps of 1/(1 + |u_m|) about the peak.
    with mpmath.workdps(40):
        q = 1 - mpmath.mpf(p)
        z_p = mpmath.sqrt(2) * mpmath.erfinv(2 * mpmath.mpf(p) - 1) if p > 0 else -mpmath.inf
        u_m = -mpmath.sqrt(2) * mpmath.erfinv(4 * q / n - 1)
    with mpmath.workdps(20):
        scale = n * (n - 1) / (2 * mpmath.pi * q ** 2)

        def integrand(u):
            v = 1 - mpmath.erfc(u / mpmath.sqrt(2)) / (2 * q)
            return scale * v ** (n - 2) * mpmath.exp(-u * u)

        step = 1 / (1 + abs(u_m))
        points = [z_p] + [u_m + k * step for k in range(-6, 7) if u_m + k * step > z_p]
        return mpmath.quad(integrand, points + [mpmath.inf])


def test_normal_es_n_is_within_5e_15():
    off = []
    for n, p in NORMAL_CASES:
        bound = 1e-14 if n > 200 else 5e-15
        error = _rel(Normal(0, 1).es_closed(n, p), _normal_es_exact(n, p))
        if error > bound:
            off.append((n, p, error))
    assert off == []


def test_normal_es_n_matches_quadrature_of_its_quantile():
    dist = Normal(0, 1)
    off = []
    for n in (3, 4, 5, 10):
        for p in NORMAL_LEVELS:
            closed = dist.es_closed(n, p)
            quad = es_n_quadrature(dist.quantile, n, p, tail_quantile_fn=dist.tail_quantile).value
            if abs(quad - closed) > 1e-13 * abs(closed):
                off.append((n, p, closed, quad))
    assert off == []


def test_normal_is_location_scale():
    # ES_n of Normal(3, 2) is 3 + 2 ES_n of Normal(0, 1) to rounding, and
    # PELVE_n does not depend on location or scale.
    for n in (1, 2, 3, 4, 5, 40):
        for p in NORMAL_LEVELS:
            expected = 3.0 + 2.0 * Normal(0, 1).es_closed(n, p)
            assert abs(Normal(3, 2).es_closed(n, p) - expected) <= 2 * math.ulp(expected), (n, p)
    c_max = 1.0 / 0.05
    for n in (3, 4, 5):
        moved, standard = pelve(Normal(3, 2), n, 0.05).value, pelve(Normal(0, 1), n, 0.05).value
        assert abs(moved - standard) <= DEFAULT_C_TOL * (c_max - 1.0), n
