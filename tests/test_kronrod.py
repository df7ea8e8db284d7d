"""The adaptive Gauss-Kronrod quadrature behind ``es_n_quadrature`` and
``pelve_from_quantile``: its constants, and error estimates that bound the
true error on kinks, jumps, heavy tails and levels near 1."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelve import (
    DEFAULT_REL_TOL,
    GeneralizedPareto,
    QuadratureNonConvergence,
    es_n_quadrature,
    pelve_from_quantile,
)
from pelve.risk_measures import _GAUSS, _KRONROD, _NODES, _POINTS, _RULES, _TailTable


@pytest.mark.parametrize("rule, degree", [(_KRONROD, 22), (_GAUSS, 13)], ids=["K15", "G7"])
def test_rules_integrate_monomials_exactly(rule, degree):
    # On [0, 1], in 30-digit arithmetic from the double constants: the
    # integral of x^k is 1/(k + 1) to a few ulps.
    with mpmath.workdps(30):
        nodes = [(1 + mpmath.mpf(x)) / 2 for x in _NODES.tolist()]
        weights = [mpmath.mpf(w) / 2 for w in rule.tolist()]
        for k in range(degree + 1):
            got = mpmath.fsum(w * x ** k for w, x in zip(weights, nodes))
            exact = mpmath.mpf(1) / (k + 1)
            assert abs(got - exact) <= 4 * np.finfo(float).eps * exact, (k, float(got - exact))


def test_null_rules_and_edge_terms_vanish_on_polynomials():
    # |c_14| is |K15 - G7|; c_12 .. c_14 vanish on polynomials of degree up
    # to 11, the edge terms up to degree 14, and K15 integrates them.
    f = 1.0 / (1.1 - _NODES)
    assert abs(_RULES[1:-1, 3] @ f) == pytest.approx(abs((_KRONROD - _GAUSS) @ f), rel=1e-12)
    rng = np.random.default_rng(3)
    for degree in (0, 3, 11, 14):
        coefficients = rng.normal(size=degree + 1)
        values = np.polynomial.polynomial.polyval(_POINTS, coefficients)
        rules = values @ _RULES
        integral = np.polynomial.polynomial.polyval(1.0, np.polynomial.polynomial.polyint(coefficients))
        assert abs(0.5 * rules[0] - integral) <= 1e-14 * np.abs(values).max()
        assert np.all(np.abs(rules[4:]) <= 1e-12 * np.abs(values).max())
        if degree <= 11:
            assert np.all(np.abs(rules[1:4]) <= 1e-13 * np.abs(values).max())


def _exact_es(n: int, p: float, base, kinks, jump) -> Fraction:
    # ES_n of Q(s) = a + b s + sum d (s - x)^+ + J [s >= y], piecewise in
    # exact rationals: with u = s - p and L = 1 - p, each piece integrates
    # u^(n-1) times a polynomial in u from its start c = max(x - p, 0).
    p = Fraction(p)
    length = 1 - p

    def power(c, k):
        return (length ** k - c ** k) / k

    a, b = (Fraction(v) for v in base)
    total = (a + b * p) * power(Fraction(0), n) + b * power(Fraction(0), n + 1)
    for x, d in kinks:
        c = max(Fraction(x) - p, Fraction(0))
        total += Fraction(d) * (power(c, n + 1) + (p - Fraction(x)) * power(c, n))
    if jump is not None:
        y, size = jump
        total += Fraction(size) * power(max(Fraction(y) - p, Fraction(0)), n)
    return n * total / length ** n


def _piecewise(base, kinks, jump):
    # The quantile, and its tail callable t -> Q(1 - t) with every edge x
    # taken as 1 - x, which is exact from x = 1/2 on: it resolves levels
    # above the last double below 1, where a kink or a jump may sit.
    a, b = base

    def q(s: float) -> float:
        value = a + b * s + sum(d * max(s - x, 0.0) for x, d in kinks)
        return value + (jump[1] if jump is not None and s >= jump[0] else 0.0)

    def tail(t: float) -> float:
        value = a + b * (1.0 - t) + sum(d * max((1.0 - x) - t, 0.0) for x, d in kinks)
        return value + (jump[1] if jump is not None and t <= 1.0 - jump[0] else 0.0)

    return q, tail


def _honest(result, exact: Fraction) -> bool:
    return Fraction(result.est_abs_error) >= abs(Fraction(result.value) - exact)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_kink_and_jump_estimates_bound_the_error(n):
    # A kink of slope 10 at 0.8 and a jump from 1 to 2 at 0.9, at p = 0.5:
    # the doubling estimate that the per-panel one replaced claimed about
    # 1e-14 for errors of 2.5e-4 (kink) and up to 1.2e-2 (jump).
    for base, kinks, jump in (((0.0, 1.0), [(0.8, 10.0)], None), ((1.0, 0.0), [], (0.9, 1.0))):
        exact = _exact_es(n, 0.5, base, kinks, jump)
        result = es_n_quadrature(_piecewise(base, kinks, jump)[0], n, 0.5)
        assert _honest(result, exact), (base, float(abs(Fraction(result.value) - exact)), result)
        assert abs(Fraction(result.value) - exact) <= Fraction(DEFAULT_REL_TOL) * abs(exact)


# Where a kink or a jump may sit.  A closing panel at level 0 or 1 (t = 0)
# cannot see one below its first node, 0.43% of its width in, unless the
# quantile's mass there asks for deeper panels; the first closing panels are
# 2^-13 wide at level 0 and at most 2^-33 at 1.
_EDGE = st.floats(1e-6, 1.0 - 1e-12)


@settings(max_examples=60, deadline=None)
@given(
    base=st.tuples(st.floats(-2.0, 2.0), st.floats(0.0, 3.0)),
    kinks=st.lists(st.tuples(_EDGE, st.floats(0.0, 10.0)), min_size=1, max_size=3),
    jump=st.none() | st.tuples(_EDGE, st.floats(0.0, 5.0)),
    n=st.integers(1, 3),
    p=st.floats(0.0, 0.9),
)
def test_piecewise_linear_estimates_bound_the_error(base, kinks, jump, n, p):
    q, tail = _piecewise(base, kinks, jump)
    result = es_n_quadrature(q, n, p, tail_quantile_fn=tail)
    exact = _exact_es(n, p, base, kinks, jump)
    assert _honest(result, exact), (float(abs(Fraction(result.value) - exact)), result)


@pytest.mark.parametrize("eps", [1e-6, 1e-9, 1e-12])
def test_head_near_one_is_right_and_its_estimate_honest(eps):
    # A solve's table at b = 1 - eps evaluates the level 1 - 2 eps through its
    # head, in t = 1 - s: a head in s was 8.7e-13, 4.9e-10 and 1.6e-6 off
    # relative, each claiming less.
    dist, n, p = GeneralizedPareto(-0.5, 1), 4, 1 - 2 * eps
    result = _TailTable(dist.quantile, dist.tail_quantile, n, 1 - eps, DEFAULT_REL_TOL).es(n, p)
    with mpmath.workdps(40):
        kappa = mpmath.mpf(-0.5)
        exact = ((1 - mpmath.mpf(p)) ** -kappa * n * mpmath.beta(n, 1 - kappa) - 1) / kappa
        error = abs(mpmath.mpf(result.value) - exact)
    assert error <= DEFAULT_REL_TOL * abs(exact)
    assert result.est_abs_error >= error


def test_a_heavy_tail_claims_its_error_or_raises():
    # GPD(0.96) at order 3 from a table at 0.5: the doubling estimate claimed 2.3e-11
    # for an error of 7.4e-11.
    dist, n, p = GeneralizedPareto(0.96, 1), 3, 0.5
    try:
        result = _TailTable(dist.quantile, dist.tail_quantile, n, p, DEFAULT_REL_TOL).es(n, p)
    except QuadratureNonConvergence:
        return
    with mpmath.workdps(40):
        kappa = mpmath.mpf(0.96)
        exact = ((1 - mpmath.mpf(p)) ** -kappa * n * mpmath.beta(n, 1 - kappa) - 1) / kappa
        assert result.est_abs_error >= abs(mpmath.mpf(result.value) - exact)


def test_a_divergent_tail_raises_at_a_loose_tolerance():
    # The mass of 1/t over the dyadic panels above the closing one does not
    # fall toward 0, so the closing panel's estimate stays infinite; the
    # doubling estimate returned 1417.6 claiming an error of 13.3.
    callables = dict(quantile_fn=lambda s: 1 / (1 - s), tail_quantile_fn=lambda t: 1 / t)
    with pytest.raises(QuadratureNonConvergence):
        es_n_quadrature(n=1, p=0.5, rel_tol=1e-2, **callables)
    with pytest.raises(QuadratureNonConvergence):
        pelve_from_quantile(n=1, eps=0.05, rel_tol=1e-2, **callables)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_quantile_value_is_named(bad):
    def q(s):
        return bad if s > 0.7 else s

    with pytest.raises(QuadratureNonConvergence, match="non-finite quantile value"):
        es_n_quadrature(q, 2, 0.5)
    with pytest.raises(QuadratureNonConvergence, match="non-finite quantile value"):
        pelve_from_quantile(q, 2, 0.5)


def test_the_es_of_a_constant_is_the_constant():
    # Each table integrates Q - Q(b), and the ES_n kernel integrates to one.
    for n in (1, 2, 3, 5):
        for p in (0.0, 0.3, 0.5, 0.9, 1 - 1e-9):
            assert es_n_quadrature(lambda s: 5.0, n, p).value == 5.0


def test_an_overflow_at_the_split_level_is_typed():
    # The table takes Q(b) as its shift before any panel: a float overflow
    # there is typed as it is at the nodes.
    for p in (0.5, 0.999):
        with pytest.raises(QuadratureNonConvergence, match="overflow"):
            es_n_quadrature(lambda s: (1 - s) ** -300.0, 1, p)
