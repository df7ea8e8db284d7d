"""The generalized-Pareto-type closed forms against mpmath at 40 digits.

Every GPD-type ES_n and PELVE_n, and Pareto's, follows from the kernel moment
S_n = n B(n, 1 - k): for Q(s) = u + (beta/k)(x^-k - 1), x = (1 - s)/(1 - F(u)),
ES_n(p) = u + (beta/k)(x^-k S_n - 1) and PELVE_n = S_n^(1/k).  The references
below take S_n from mpmath's beta function, not from the product the code
forms.
"""

import math

import mpmath
import pytest

from pelve import ExcessGPD, GeneralizedPareto, Pareto, pelve2_rv_limit

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


def test_multipliers_are_within_1e_13():
    off = []
    with mpmath.workdps(40):
        for n in ORDERS:
            for k in (k for k in SHAPES if k == 0.0 or abs(k) >= 0.1):
                if k == 0.0:
                    exact = mpmath.exp(sum(mpmath.mpf(1) / j for j in range(1, n + 1)))
                else:
                    exact = _kernel_moment(n, k) ** (1 / mpmath.mpf(k))
                for dist in _models(k):
                    value, threshold = dist.closed_multiplier(n)
                    if _rel(value, exact) > 1e-13:
                        off.append((dist, n, _rel(value, exact)))
                    assert threshold == (1.0 - dist.level_floor) / value
            for alpha in TAILS:
                exact = _kernel_moment(n, 1 / mpmath.mpf(alpha)) ** alpha
                value, _ = Pareto(1.0, alpha).closed_multiplier(n)
                if _rel(value, exact) > 1e-13:
                    off.append((alpha, n, _rel(value, exact)))
    assert off == []


def test_pelve2_rv_limit_is_within_1e_14():
    off = []
    with mpmath.workdps(50):
        for alpha in (1.01, 1.5, 2.0, 10.0, 1e3, 1e6):
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
