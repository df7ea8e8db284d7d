import math

import mpmath
import pytest

from pelve import (
    DEFAULT_REL_TOL,
    EsMethod,
    ExcessGPD,
    Exponential,
    GeneralizedPareto,
    GiniParams,
    InvalidParameter,
    LevelOutOfRange,
    NoClosedForm,
    Normal,
    OrderOutOfRange,
    Pareto,
    QuadratureNonConvergence,
    Uniform,
    es_n,
    es_n_quadrature,
    gini_shortfall,
    harmonic_number,
    quantile,
    tail_gini,
    tail_quantile,
)
from pelve.risk_measures import _TailTable

CLOSED_FAMILIES = [
    Uniform(0, 1),
    Uniform(-2, 3),
    Exponential(1),
    Exponential(2),
    Normal(0, 1),
    Pareto(1, 2),
    Pareto(2, 5),
    GeneralizedPareto(0.5, 1),
    GeneralizedPareto(0, 1),
    ExcessGPD(1, 0.25, 2, 0.3),
]

P_GRID = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99]


def _table(dist, orders, b):
    # One tail table at b on the family's quantiles, as arrays.
    return _TailTable(dist.quantile, dist.tail_quantile, orders, b, DEFAULT_REL_TOL)


def _levels_for(dist):
    if isinstance(dist, ExcessGPD):
        return [p for p in P_GRID if p > dist.base_cdf_at_u]
    return P_GRID


def test_harmonic_numbers():
    assert harmonic_number(1) == 1.0
    assert harmonic_number(2) == 1.5
    assert harmonic_number(3) == pytest.approx(11 / 6, abs=1e-15)
    with pytest.raises(OrderOutOfRange):
        harmonic_number(0)


def test_es_closed_examples():
    assert Uniform(0, 1).es_closed(2, 0.0) == pytest.approx(2 / 3, abs=1e-15)
    assert Exponential(1).es_closed(2, 0.0) == pytest.approx(1.5, abs=1e-15)
    assert Pareto(1, 2).es_closed(2, 0.0) == pytest.approx(8 / 3, abs=1e-14)
    assert Normal(0, 1).es_closed(2, 0.0) == pytest.approx(
        1 / math.sqrt(math.pi), abs=1e-14
    )


def test_es_closed_gpd_kappa_zero_reduces_to_exponential():
    for p in (0.0, 0.3, 0.9):
        assert GeneralizedPareto(0, 1).es_closed(2, p) == pytest.approx(
            Exponential(1).es_closed(2, p), abs=1e-12
        )


def test_no_closed_form_paths():
    # Only tails without a first moment lack a closed form; the normal has
    # one at every order.
    assert math.isfinite(Normal(0, 1).es_closed(3, 0.1))
    with pytest.raises(NoClosedForm):
        Pareto(1, 0.9).es_closed(1, 0.1)
    with pytest.raises(NoClosedForm):
        GeneralizedPareto(1.0, 1).es_closed(1, 0.1)


def test_es_closed_level_validation():
    with pytest.raises(LevelOutOfRange):
        Uniform(0, 1).es_closed(1, 1.0)
    with pytest.raises(LevelOutOfRange):
        ExcessGPD(1, 0.25, 2, 0.3).es_closed(1, 0.2)


def test_quadrature_examples():
    u = Uniform(0, 1)
    r = es_n_quadrature(lambda s: quantile(u, s), 3, 0.2)
    assert r.value == pytest.approx(0.2 / 4 + 3 / 4, rel=1e-9)

    r = es_n_quadrature(lambda s: 7.0, 4, 0.3)
    assert r.value == pytest.approx(7.0, rel=1e-12)

    p2 = Pareto(1, 2)
    r = es_n_quadrature(
        lambda s: quantile(p2, s), 2, 0.5, tail_quantile_fn=lambda t: tail_quantile(p2, t)
    )
    assert r.value == pytest.approx((8 / 3) * 0.5 ** -0.5, rel=1e-9)


def test_quadrature_rel_tol_validation():
    with pytest.raises(InvalidParameter):
        es_n_quadrature(lambda s: s, 1, 0.0, rel_tol=1e-1)
    with pytest.raises(InvalidParameter):
        es_n_quadrature(lambda s: s, 1, 0.0, rel_tol=1e-16)


def test_quadrature_flags_nonintegrable_tails():
    for alpha in (0.5, 0.8, 1.0):
        d = Pareto(1, alpha)
        with pytest.raises(QuadratureNonConvergence):
            es_n_quadrature(
                lambda s: quantile(d, s),
                1,
                0.5,
                tail_quantile_fn=lambda t: tail_quantile(d, t),
            )
    # A family's ES_n is its closed form, which has none for these tails.
    for alpha in (0.5, 0.005):
        with pytest.raises(NoClosedForm):
            es_n(Pareto(1, alpha), 1, 0.5)


def test_quadrature_overflow_in_the_first_refinement_is_typed():
    # Python's float ** raises OverflowError at the first refinement's
    # nodes already.
    with pytest.raises(QuadratureNonConvergence):
        es_n_quadrature(lambda s: (1 - s) ** -300.0, 1, 0.5)


@pytest.mark.parametrize("dist", CLOSED_FAMILIES, ids=repr)
def test_closed_vs_quadrature_agreement(dist):
    # 1e-8 relative agreement wherever a closed form exists
    for n in (1, 2, 3):
        for p in _levels_for(dist):
            try:
                closed = dist.es_closed(n, p)
            except NoClosedForm:
                continue
            quad = es_n_quadrature(
                lambda s: quantile(dist, s),
                n,
                p,
                tail_quantile_fn=lambda t: tail_quantile(dist, t),
            )
            assert quad.value == pytest.approx(closed, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("dist", CLOSED_FAMILIES, ids=repr)
def test_var_es_ordering_chain(dist):
    # VaR <= ES_1 <= ES_2 <= ... on the level grid, from es_n and from one
    # tail table at p on the family's quantiles.
    for p in _levels_for(dist):
        var = quantile(dist, p) if p > 0 else -math.inf
        table = _table(dist, 5, p)
        for es in (lambda n: es_n(dist, n, p), lambda n: table.es(n, p)):
            prev = var
            for n in (1, 2, 3, 4, 5):
                cur = es(n).value
                assert cur >= prev - 1e-9 * max(1.0, abs(cur))
                prev = cur


@pytest.mark.parametrize("dist", CLOSED_FAMILIES, ids=repr)
def test_es_nondecreasing_in_level(dist):
    levels = [p for p in _levels_for(dist)]
    values = [es_n(dist, 2, p).value for p in levels]
    for a, b in zip(values, values[1:]):
        assert b >= a - 1e-10 * max(1.0, abs(b))


def test_es_continuity_in_level():
    d = Exponential(1)
    for p in (0.1, 0.42, 0.77, 0.9):
        base = es_n(d, 2, p).value
        for delta in (1e-4, 1e-6, 1e-8):
            # the local slope of ES_2 for Exp(1) is bounded by 2/(1-p)
            assert abs(es_n(d, 2, p + delta).value - base) < 4 * delta / (1 - p) + 1e-9


def test_es_dispatch_method():
    assert es_n(Normal(0, 1), 3, 0.1).method is EsMethod.CLOSED_FORM
    assert es_n(Normal(0, 1), 2, 0.1).method is EsMethod.CLOSED_FORM
    assert es_n(Exponential(2), 1, 0.0).value == pytest.approx(0.5, abs=1e-15)
    assert es_n(Uniform(3, 5), 2, 0.0).value == pytest.approx(13 / 3, abs=1e-12)


_SWEEP_LEVELS = [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99, 1 - 1e-6, 1 - 1e-9, 1 - 1e-12]


def _check_against(result, exact, off, case):
    # |error| within rel_tol of the exact value, and for quadrature the
    # claimed error at least the true one.
    error = abs(mpmath.mpf(result.value) - exact)
    if error > DEFAULT_REL_TOL * abs(exact):
        off.append((case, result, float(error)))
    if result.method is EsMethod.QUADRATURE and result.est_abs_error < error:
        off.append((case, result, float(error)))


def test_standalone_es_n_near_one_is_right_and_its_estimate_honest():
    # ES_n of GPD(k, 1) is ((1 - p)^-k n B(n, 1 - k) - 1)/k.  At p >= 1/2
    # standalone quadrature ES_n is the tail moments alone, in t = 1 - s, so
    # levels near 1 keep the digits of 1 - s that a head in s would lose.
    # es_n takes the closed form, which has no error estimate to check.
    off = []
    with mpmath.workdps(40):
        for k in (-0.5, 0.1, 0.3, 0.5, 0.7, 0.9):
            dist, kappa = GeneralizedPareto(k, 1), mpmath.mpf(k)
            for n in (3, 4, 5):
                for p in _SWEEP_LEVELS:
                    exact = ((1 - mpmath.mpf(p)) ** -kappa * n * mpmath.beta(n, 1 - kappa) - 1) / kappa
                    _check_against(_table(dist, n, p).es(n, p), exact, off, (k, n, p))
                    _check_against(es_n(dist, n, p), exact, off, ("closed", k, n, p))
        # The exponential through the scalar callables: ES_n = H_n - log(1 - p).
        for n in (3, 4, 5):
            for p in (0.0, 0.5, 1 - 1e-6, 1 - 1e-12):
                result = es_n_quadrature(
                    lambda s: -math.log1p(-s), n, p, tail_quantile_fn=lambda t: -math.log(t)
                )
                exact = mpmath.mpf(harmonic_number(n)) - mpmath.log1p(-mpmath.mpf(p))
                _check_against(result, exact, off, ("exp", n, p))
    assert off == []
    # Within a few float spacings of 1, where a head in s cannot resolve.
    p, dist = 1 - 1.1e-15, GeneralizedPareto(0.5, 1)
    assert _table(dist, 3, p).es(3, p).value == pytest.approx(
        192076774.6998892, rel=1e-15
    )


def test_quadrature_error_estimate_within_tolerance():
    d = Pareto(1, 2)
    r = es_n_quadrature(
        lambda s: quantile(d, s),
        2,
        0.1,
        rel_tol=1e-10,
        tail_quantile_fn=lambda t: tail_quantile(d, t),
    )
    assert r.est_abs_error <= 1e-10 * max(1.0, abs(r.value))


def test_comonotonic_additivity():
    # X ~ Uniform(0,1), Y = X^2 share one source: quantiles add.
    qx = lambda s: s
    qy = lambda s: s * s
    qsum = lambda s: s + s * s
    for n in (1, 2, 3):
        for p in (0.0, 0.3, 0.9):
            lhs = es_n_quadrature(qsum, n, p).value
            rhs = es_n_quadrature(qx, n, p).value + es_n_quadrature(qy, n, p).value
            assert lhs == pytest.approx(rhs, rel=1e-8)


def test_tail_gini_examples():
    assert tail_gini(Exponential(1), 0.0) == pytest.approx(1.0, abs=1e-12)
    assert tail_gini(Uniform(0, 1), 0.0) == pytest.approx(1 / 3, abs=1e-12)


# 30-digit quantiles of the models of the Gini Shortfall test.
_MP_QUANTILES = {
    "normal": lambda s: mpmath.sqrt(2) * mpmath.erfinv(2 * s - 1),
    "exponential": lambda s: -mpmath.log1p(-s),
    "gpd": lambda s: ((1 - s) ** mpmath.mpf(-0.3) - 1) / mpmath.mpf(0.3),
}


def test_gini_shortfall_decomposition():
    # The paper's definition, ES_1 + lambda*TGini with
    # TGini(p) = 4/(1-p)^2 * integral over (p, 1) of (s - (1+p)/2) Q(s) ds,
    # as direct 30-digit integrals of the quantile: independent of the
    # ES_1/ES_2 decomposition that gini_shortfall evaluates.
    models = [
        ("normal", Normal(0, 1)),
        ("exponential", Exponential(1)),
        ("gpd", GeneralizedPareto(0.3, 1)),
    ]
    off = []
    with mpmath.workdps(30):
        for p in (0.0, 0.5, 0.9, 0.99):
            lo = mpmath.mpf(p)
            integrals = {}
            for name, q in _MP_QUANTILES.items():
                es1 = mpmath.quad(q, [lo, 1]) / (1 - lo)
                mid = (1 + lo) / 2
                tgini = 4 / (1 - lo) ** 2 * mpmath.quad(lambda s: (s - mid) * q(s), [lo, 1])
                integrals[name] = es1, tgini
            for name, dist in models:
                assert dist.level_floor == 0.0
                es1, tgini = integrals[name]
                for lam in (0.0, 0.25, 0.5, 1.0):
                    gs = gini_shortfall(dist, p, GiniParams(lam))
                    exact = es1 + lam * tgini
                    if abs(gs - exact) > 10 * DEFAULT_REL_TOL * max(abs(gs), 1.0):
                        off.append((dist, p, lam, gs, float(exact)))
    assert off == []


def test_gini_params_coherence():
    assert GiniParams(0.4).is_coherent
    assert GiniParams(0.5).is_coherent
    assert not GiniParams(0.6).is_coherent
    with pytest.raises(InvalidParameter):
        GiniParams(-0.1)


@pytest.mark.parametrize("loading", [math.nan, math.inf, -math.inf])
def test_gini_params_reject_a_non_finite_loading(loading):
    # nan fails every comparison, so a sign check alone would pass it on to
    # gini_shortfall, which would return nan.
    with pytest.raises(InvalidParameter, match="finite"):
        GiniParams(loading)


def _gpd_ratio(kappa, p):
    d = GeneralizedPareto(kappa, 1)
    return d.es_closed(2, p) / quantile(d, p)


def test_gpd_es2_var_ratio_limits():
    # ES_2 / VaR approaches 2 / ((1-kappa)(2-kappa)) as p -> 1; the
    # convergence rate is (1-p)^kappa, so the test level is chosen per
    # kappa (deeper for smaller kappa).
    for kappa, p in ((0.25, 1 - 1e-13), (0.5, 1 - 1e-8), (0.75, 1 - 1e-8)):
        limit = 2 / ((1 - kappa) * (2 - kappa))
        assert _gpd_ratio(kappa, p) == pytest.approx(limit, abs=1e-3)
    # kappa = 0 converges only like 1/|ln(1-p)|: check the rate and the
    # monotone approach to the limit 2/((1-0)(2-0)) = 1 instead.
    ratios = [_gpd_ratio(0.0, 1 - t) for t in (1e-4, 1e-8, 1e-12)]
    for ratio, t in zip(ratios, (1e-4, 1e-8, 1e-12)):
        assert abs(ratio - 1.0) <= 1.6 / abs(math.log(t))
    assert ratios[0] > ratios[1] > ratios[2] > 1.0
    # bounded support (kappa < 0): the ratio tends to 1
    assert _gpd_ratio(-0.5, 1 - 1e-8) == pytest.approx(1.0, abs=1e-3)
