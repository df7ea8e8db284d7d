import math
import warnings

import mpmath
import numpy as np
import pytest

from pelve import (
    DEFAULT_C_TOL,
    AlphaOutOfRange,
    ExcessGPD,
    ExcessGPDLevelBelowBase,
    Exponential,
    GeneralizedPareto,
    LevelOutOfRange,
    NoClosedForm,
    Normal,
    OrderOutOfRange,
    Pareto,
    QuadratureNonConvergence,
    Uniform,
    harmonic_number,
    pelve,
    pelve2_rv_limit,
    pelve_closed,
    pelve_exists,
    pelve_from_quantile,
    quantile,
    tail_quantile,
)
from pelve.pelve_solver import _ITP_SPARE, _solve
from pelve.risk_measures import _TailTable
from test_karamata import karamata_ratio

E32 = math.exp(1.5)


def test_pelve_exists_examples():
    assert pelve_exists(Uniform(0, 1), 2, 0.2)
    assert not pelve_exists(Uniform(0, 1), 2, 0.5)
    assert pelve_exists(Exponential(1), 2, 0.1)


def test_pelve_eps_validation():
    with pytest.raises(LevelOutOfRange):
        pelve(Uniform(0, 1), 1, 0.0)
    with pytest.raises(LevelOutOfRange):
        pelve(Uniform(0, 1), 1, 1.0)


def test_pelve_uniform():
    r = pelve(Uniform(0, 1), 2, 0.05)
    assert r.is_finite
    assert r.value == pytest.approx(3.0, abs=1e-7)


def test_pelve_exponential():
    r = pelve(Exponential(1), 2, 0.05)
    assert r.value == pytest.approx(E32, abs=1e-7)


def test_pelve_normal_table_value():
    r = pelve(Normal(0, 1), 2, 0.05)
    assert r.value == pytest.approx(4.04082, abs=1e-4)


def test_pelve_pareto():
    r = pelve(Pareto(1, 2), 2, 0.1)
    assert r.value == pytest.approx(64 / 9, abs=1e-6)


def test_pelve_infinite_above_threshold():
    assert not pelve(Uniform(0, 1), 2, 0.5).is_finite
    assert not pelve(Exponential(1), 2, 0.3).is_finite
    assert pelve(Uniform(0, 1), 2, 0.5).value is None


def test_pelve_from_quantile_examples():
    r = pelve_from_quantile(lambda s: s, 1, 0.1)
    assert r.value == pytest.approx(2.0, abs=1e-7)

    r = pelve_from_quantile(lambda s: 5.0, 2, 0.1)
    assert r.is_finite and r.value == 1.0

    d = Exponential(1)
    r = pelve_from_quantile(
        lambda s: quantile(d, s), 3, 0.05, tail_quantile_fn=lambda t: tail_quantile(d, t)
    )
    assert r.value == pytest.approx(math.exp(11 / 6), abs=1e-6)


def test_pelve_closed_table():
    assert pelve_closed(Uniform(2, 7), 4, 0.1).value == 5.0
    assert pelve_closed(Pareto(1, 10), 2, 0.05).value == pytest.approx(
        (200 / 171) ** 10, rel=1e-12
    )
    assert pelve_closed(ExcessGPD(0, 0.5, 1, 0), 2, 0.05).value == pytest.approx(
        64 / 9, rel=1e-12
    )
    assert not pelve_closed(Exponential(3), 2, 0.3).is_finite


def test_pelve_closed_thresholds_are_attained():
    # The closed-form interval includes its right endpoint.
    for n in (1, 2, 3):
        eps = 1 / (n + 1)
        assert pelve_closed(Uniform(0, 1), n, eps).value == n + 1
        assert not pelve_closed(Uniform(0, 1), n, eps * 1.0001).is_finite
        h = math.exp(-harmonic_number(n))
        assert pelve_closed(Exponential(1), n, h).is_finite
        assert not pelve_closed(Exponential(1), n, h * 1.0001).is_finite


def test_pelve_closed_excess_gpd_threshold_scales_with_base():
    # (2/(0.75 * 1.75))^4 at kappa = 0.25, correctly rounded from 40 digits.
    with mpmath.workdps(40):
        value = float((2 / (mpmath.mpf("0.75") * mpmath.mpf("1.75"))) ** 4)
    for fu in (0.0, 0.5, 0.9):
        d = ExcessGPD(1, 0.25, 2, fu)
        thr = (1 - fu) / value
        assert pelve_closed(d, 2, thr).value == pytest.approx(value, rel=1e-12)
        assert not pelve_closed(d, 2, min(thr * 1.001, 0.999)).is_finite


def test_pelve_closed_no_form_cases():
    with pytest.raises(NoClosedForm):
        pelve_closed(Normal(0, 1), 2, 0.05)
    for shape in (1.0, 1.5):
        with pytest.raises(NoClosedForm):
            pelve_closed(GeneralizedPareto(shape, 1), 3, 0.05)
    with pytest.raises(NoClosedForm):
        pelve_closed(Pareto(1, 0.9), 2, 0.05)


def test_pelve_closed_covers_every_generalized_pareto_order():
    # PELVE_n = S_n^(1/k), S_n = prod_{j <= n} j/(j - k): 10.24 for k = 1/2
    # at order 3, against the solve on the quadrature of the family's
    # quantiles.
    dist = GeneralizedPareto(0.5, 1)
    closed = pelve_closed(dist, 3, 0.05)
    assert closed.value == pytest.approx(10.24, rel=1e-15)
    solved = pelve_from_quantile(dist.quantile, 3, 0.05, tail_quantile_fn=dist.tail_quantile)
    assert solved.value == pytest.approx(closed.value, abs=1e-7)
    assert pelve_closed(ExcessGPD(1, 0.5, 2, 0.5), 4, 0.01).value == pytest.approx(
        (4 * 3 * 2 / (3.5 * 2.5 * 1.5 * 0.5)) ** 2, rel=1e-14
    )
    with pytest.raises(OrderOutOfRange):
        pelve_closed(dist, 0, 0.05)


@pytest.mark.parametrize(
    "call", [pelve, pelve_exists, pelve_closed], ids=lambda f: f.__name__
)
def test_epsilon_above_the_excess_model_is_one_typed_error(call):
    # 1 - eps = 0.95 lies below F(u) = 0.97, where the model says nothing.
    with pytest.raises(ExcessGPDLevelBelowBase, match=r"epsilon 0\.05 .*base_cdf_at_u=0\.97"):
        call(ExcessGPD(1, 0.3, 1, 0.97), 2, 0.05)
    with pytest.raises(ExcessGPDLevelBelowBase, match="epsilon 0.5"):
        call(ExcessGPD(1, 0.3, 1, 0.5), 2, 0.5)


def test_pelve_agrees_with_closed():
    cases = [
        (Uniform(0, 1), 1, 0.1),
        (Uniform(-1, 4), 2, 0.05),
        (Exponential(1), 2, 0.05),
        (Exponential(2), 1, 0.2),
        (Pareto(1, 2), 2, 0.05),
        (GeneralizedPareto(0.25, 1), 2, 0.05),
        (ExcessGPD(1, 0.25, 2, 0.3), 2, 0.05),
    ]
    for dist, n, eps in cases:
        closed = pelve_closed(dist, n, eps)
        numeric = pelve(dist, n, eps, c_tol=1e-10)
        assert numeric.is_finite == closed.is_finite
        assert numeric.value == pytest.approx(closed.value, abs=1e-7)


def test_pelve_finite_iff_exists():
    for dist in (Uniform(0, 1), Exponential(1), Normal(0, 1), Pareto(1, 2)):
        for n in (1, 2, 3):
            for eps in (0.05, 0.2, 0.4, 0.6):
                assert pelve(dist, n, eps).is_finite == pelve_exists(dist, n, eps)


def test_pelve_equation_residual():
    # Prop-style identity: at an interior solution the ES/VaR gap closes.
    c_tol = 1e-9
    for dist, n, eps in [
        (Normal(0, 1), 2, 0.05),
        (Exponential(1), 2, 0.05),
        (Pareto(1, 2), 2, 0.05),
    ]:
        r = pelve(dist, n, eps, c_tol=c_tol)
        assert 1.0 < r.value < 1 / eps
        var = quantile(dist, 1 - eps)
        assert r.residual <= 10 * c_tol * max(1.0, abs(var))


def test_pelve_order_monotonicity():
    c_tol = 1e-9
    for dist in (Uniform(0, 1), Exponential(1), Normal(0, 1)):
        values = []
        for n in (1, 2, 3, 4):
            r = pelve(dist, n, 0.05, c_tol=c_tol)
            if r.is_finite:
                values.append(r.value)
        for a, b in zip(values, values[1:]):
            assert a <= b + c_tol


def test_pelve_scale_location_invariance():
    c_tol = 1e-9
    base = pelve(Uniform(0, 1), 2, 0.05, c_tol=c_tol).value
    for a, b in [(-5, -1), (0, 10), (2.5, 2.6)]:
        assert abs(pelve(Uniform(a, b), 2, 0.05, c_tol=c_tol).value - base) <= 2 * c_tol
    base = pelve(Exponential(1), 2, 0.05, c_tol=c_tol).value
    for lam in (0.1, 3.0, 42.0):
        assert abs(pelve(Exponential(lam), 2, 0.05, c_tol=c_tol).value - base) <= 2 * c_tol
    base = pelve(Normal(0, 1), 2, 0.05, c_tol=c_tol).value
    for m, s in [(-3, 0.2), (10, 5)]:
        assert abs(pelve(Normal(m, s), 2, 0.05, c_tol=c_tol).value - base) <= 2 * c_tol


def test_pelve_monotone_transform_ordering():
    # X ~ Uniform(0,1); Y = X^2 is a convex transform (heavier upper tail),
    # Z = sqrt(X) a concave one: multiplier of Z <= X <= Y.
    c_tol = 1e-9
    cx = pelve_from_quantile(lambda s: s, 2, 0.05, c_tol=c_tol).value
    cy = pelve_from_quantile(lambda s: s * s, 2, 0.05, c_tol=c_tol).value
    cz = pelve_from_quantile(lambda s: math.sqrt(s), 2, 0.05, c_tol=c_tol).value
    assert cz <= cx + c_tol <= cy + 2 * c_tol


def test_rv_limit_values():
    assert pelve2_rv_limit(2) == pytest.approx(64 / 9, rel=1e-12)
    assert pelve2_rv_limit(30) == pytest.approx(4.578, abs=5e-4)
    assert pelve2_rv_limit(1e6) == pytest.approx(E32, abs=1e-4)
    with pytest.raises(AlphaOutOfRange):
        pelve2_rv_limit(1.0)


def test_rv_limit_needs_a_finite_index():
    # An infinite index gave nan (inf * 0).
    with pytest.raises(AlphaOutOfRange, match="tail index must be finite, got inf"):
        pelve2_rv_limit(math.inf)
    with pytest.raises(AlphaOutOfRange, match="must exceed 1"):
        pelve2_rv_limit(math.nan)


def test_rv_limit_decreasing_and_bounded():
    grid = [1.5, 2, 5, 10, 50]
    values = [pelve2_rv_limit(a) for a in grid]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert all(v >= E32 for v in values)


def test_pareto_pelve_attains_rv_limit():
    for alpha in (2, 5, 10):
        lim = pelve2_rv_limit(alpha)
        for eps in (1e-2, 1e-3):
            r = pelve(Pareto(1, alpha), 2, eps, c_tol=1e-10)
            assert r.value == pytest.approx(lim, abs=1e-6)


# Regularly varying tails that are not Pareto, each as (quantile, tail
# quantile t -> Q(1 - t), tail index), closed in t so that no scipy is needed.
RV_TAILS = {
    "frechet-2": (lambda s: (-math.log(s)) ** -0.5, lambda t: (-math.log1p(-t)) ** -0.5, 2.0),
    "frechet-3": (lambda s: (-math.log(s)) ** (-1 / 3), lambda t: (-math.log1p(-t)) ** (-1 / 3), 3.0),
    "loglogistic-3": (lambda s: (s / (1 - s)) ** (1 / 3), lambda t: ((1 - t) / t) ** (1 / 3), 3.0),
    "burr-2-1.5": (
        lambda s: math.expm1(-math.log1p(-s) / 1.5) ** 0.5,
        lambda t: math.expm1(-math.log(t) / 1.5) ** 0.5,
        3.0,
    ),
}


@pytest.mark.parametrize("name", RV_TAILS)
def test_pelve2_tends_to_the_rv_limit_on_tails_that_are_not_pareto(name):
    # The paper's small-level limit of PELVE_2 for a regularly varying tail
    # of index alpha, which Pareto attains at every eps below its threshold
    # and these tails only as eps -> 0.  Below eps = 1e-6 the solve's
    # absolute stopping rule and its level 1 - c*eps cost the multiplier
    # its digits (a known defect), so stop there.
    q, tq, alpha = RV_TAILS[name]
    limit = pelve2_rv_limit(alpha)
    distances = []
    for eps in (1e-2, 1e-3, 1e-4, 1e-6):
        two = pelve_from_quantile(q, 2, eps, tail_quantile_fn=tq).value
        one = pelve_from_quantile(q, 1, eps, tail_quantile_fn=tq).value
        assert two >= one, (eps, two, one)
        distances.append(abs(two / limit - 1.0))
    assert all(a > b for a, b in zip(distances, distances[1:])), distances
    assert distances[-1] < 3e-4, distances


def _frechet_pelve2(alpha, eps):
    # The 40-digit root c of ES_2(1 - c eps) = Q(1 - eps) for the Frechet
    # quantile Q(s) = (-log s)^(-1/alpha).  With y = -log p and
    # a = 1 - 1/alpha, ES_2(p) = 2/(1 - p)^2 [2^-a g(a, 2y) - p g(a, y)],
    # g the lower incomplete gamma function.
    with mpmath.workdps(40):
        a, e = 1 - 1 / mpmath.mpf(alpha), mpmath.mpf(eps)
        target = (-mpmath.log1p(-e)) ** (-1 / mpmath.mpf(alpha))

        def gap(c):
            p = 1 - c * e
            y = -mpmath.log(p)
            g = (2 ** -a * mpmath.gammainc(a, 0, 2 * y) - p * mpmath.gammainc(a, 0, y))
            return 2 / (1 - p) ** 2 * g - target

        return mpmath.findroot(gap, mpmath.mpf(5))


@pytest.mark.parametrize("name", ["frechet-2", "frechet-3"])
@pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-4, 1e-6])
def test_pelve2_on_frechet_matches_an_mpmath_root(name, eps):
    # Within 6.0e-14 relative down to eps = 1e-4.  At 1e-6 the solve stops
    # on its absolute bracket, c_tol (c_max - 1) with c_max = 1/eps, and is
    # about 1e-9 relative off (a known defect), so only that bound holds.
    q, tq, alpha = RV_TAILS[name]
    got = pelve_from_quantile(q, 2, eps, tail_quantile_fn=tq).value
    exact = _frechet_pelve2(alpha, eps)
    if eps >= 1e-4:
        assert float(abs(got - exact) / exact) < 1e-12
    else:
        assert float(abs(got - exact)) <= DEFAULT_C_TOL * (1 / eps - 1)


def test_karamata_ratio():
    # The power integral at level 0, through es_n_quadrature (test_karamata.py).
    assert karamata_ratio(0.0) == pytest.approx(1.0, rel=1e-9)
    assert karamata_ratio(-0.5) == pytest.approx(2.0, rel=1e-9)
    assert karamata_ratio(1.0) == pytest.approx(0.5, rel=1e-9)
    assert karamata_ratio(-0.9) == pytest.approx(10.0, rel=1e-9)
    with pytest.raises(QuadratureNonConvergence):
        karamata_ratio(-1.0)


@pytest.mark.parametrize("kappa", [-0.98, -0.99, -0.995])
def test_karamata_ratio_near_minus_one_is_not_converged(kappa):
    # The deepest panel nodes reach the subnormals, where v^kappa overflows:
    # that refinement must count as unconverged, not as an infinite ratio,
    # and leak no floating-point warning.
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(QuadratureNonConvergence, match="first moment"):
            karamata_ratio(kappa)


# --- the bracketing solve --------------------------------------------------------

def _in_c(shape, eps):
    # gap(p) of _solve for a gap given as a function of the multiplier c,
    # counting its evaluations.
    calls = []

    def gap(p):
        calls.append(p)
        return shape((1.0 - p) / eps)

    return gap, calls


def _max_steps(c_max, c_tol):
    return math.ceil(math.log2((c_max - 1.0) / (c_tol * (c_max - 1.0)))) + _ITP_SPARE


def _synthetic_gaps(root):
    # Continuous and nonincreasing in c, each with its only root at `root`.
    kink = 0.5 * (1.0 + root)
    return {
        "convex": lambda c: math.exp(-3.0 * (c - 1.0)) - math.exp(-3.0 * (root - 1.0)),
        "heavy": lambda c: c ** -4.0 - root ** -4.0,
        "concave": lambda c: (root - 1.0) ** 2 - (c - 1.0) ** 2,
        "steep then flat": lambda c: (root - c) * (100.0 if c < root else 0.01),
        "flat then steep": lambda c: (root - c) * (0.01 if c < root else 100.0),
        "kink off the root": lambda c: root - c + (50.0 * (kink - c) if c < kink else 0.0),
        "near step": lambda c: -math.tanh((c - root) * 1e9),
    }


@pytest.mark.parametrize("eps, p_floor", [(0.05, 0.0), (0.3, 0.0), (0.01, 0.0), (0.9, 0.0), (0.05, 0.4)])
@pytest.mark.parametrize("c_tol", [1e-12, 3e-11, 1e-9, 2.0 ** -30, 1e-6, 1e-3])
def test_solve_steps_stay_within_the_itp_bound(eps, p_floor, c_tol):
    c_max = (1.0 - p_floor) / eps
    width_goal = c_tol * (c_max - 1.0)
    # Rounding in p = 1 - c*eps moves c by about an ulp of 1/eps.
    slack = 4.0 * np.spacing(1.0 / eps)
    for root in (1.0 + f * (c_max - 1.0) for f in (1e-7, 0.03, 0.37, 1.0 - 1e-9)):
        for name, shape in _synthetic_gaps(root).items():
            gap, calls = _in_c(shape, eps)
            r = _solve(gap, eps, c_tol, p_floor)
            assert r.iterations <= _max_steps(c_max, c_tol), (name, root)
            assert abs(r.value - root) <= width_goal + slack, (name, root, r)
            if name in ("convex", "heavy") and c_tol <= 1e-6:
                # On a smooth gap and a narrow bracket the secant point of
                # the last bracket lies far closer to the root than the
                # bracket is wide.
                assert abs(r.value - root) <= 1e-3 * width_goal + slack, (name, root, r)
            # gap(p_floor) serves as g(c_max): two checks, the steps and the
            # residual, and no other evaluation.
            assert len(calls) == r.iterations + 3, (name, root)


@pytest.mark.parametrize("c_tol", [1e-12, 1e-9, 1e-6, 1e-3])
def test_solve_returns_the_left_end_of_a_zero_plateau(c_tol):
    # g = 0 on all of [root, c_max]: the smallest such c is the multiplier.
    eps = 0.05
    c_max = 1.0 / eps
    for root in (1.0 + 1e-6, 2.0, 7.3, 19.5):
        plateaus = {
            "linear": lambda c: max(root - c, 0.0),
            "tangent": lambda c: max(root - c, 0.0) ** 2,
            "tiny": lambda c: 1e-300 * max(root - c, 0.0),
            "least float": lambda c: 5e-324 if c < root else 0.0,
            "steep": lambda c: 1e6 * max(root - c, 0.0),
        }
        for name, shape in plateaus.items():
            r = _solve(_in_c(shape, eps)[0], eps, c_tol)
            assert r.iterations <= _max_steps(c_max, c_tol), (name, root)
            assert abs(r.value - root) <= c_tol * (c_max - 1.0) + 1e-14, (name, root, r)


def test_solve_gaps_near_the_float_limits_raise_no_warning():
    big, tiny = 1.7e308, 5e-324
    eps = 0.05
    c_max = 1.0 / eps
    for root in (1.5, 11.0):
        shapes = {
            "line": lambda c: big * (1.0 - 2.0 * (c - 1.0) / (c_max - 1.0)),
            "steep": lambda c: big * math.tanh((root - c) * 1e3),
            "lopsided": lambda c: tiny if c < root else -big * math.tanh(c - root),
            "numpy": lambda c: np.float64(big) * np.tanh(np.float64(root - c)),
        }
        for name, shape in shapes.items():
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                r = _solve(_in_c(shape, eps)[0], eps, 1e-9)
            expected = 10.5 if name == "line" else root
            assert abs(r.value - expected) <= 1e-9 * (c_max - 1.0) + 1e-14, (name, r)
            assert r.iterations <= _max_steps(c_max, 1e-9)


def test_pelve_from_quantile_ends_below_the_float_spacing(monkeypatch):
    # At eps = 0.9999 and c_tol = 1e-12 the goal c_tol*(c_max - 1) = 1e-16 is
    # below the spacing of doubles near c_max = 1.0001, so the bracket's ends
    # become neighbouring doubles before its width reaches the goal.  Every
    # gap evaluation of the solve is an ES_n from its one tail table, so the
    # guard counts those.
    es = _TailTable.es
    calls = []

    def counted(self, n, p):
        calls.append(p)
        if len(calls) > 300:
            raise RuntimeError("the solve does not end")
        return es(self, n, p)

    monkeypatch.setattr(_TailTable, "es", counted)

    def q(s):
        return s if s >= 1e-5 else s - 1e6 * (1e-5 - s) / 1e-5

    coarse = pelve_from_quantile(q, 1, 0.9999, c_tol=1e-9, rel_tol=1e-6)
    fine = pelve_from_quantile(q, 1, 0.9999, c_tol=1e-12, rel_tol=1e-6)
    assert calls
    assert 1.0 < fine.value < 1.0 / 0.9999
    assert abs(fine.value - coarse.value) <= 1e-9 * (1.0 / 0.9999 - 1.0)


def test_pelve_from_quantile_overflow_is_typed():
    with pytest.raises(QuadratureNonConvergence):
        pelve_from_quantile(lambda s: (1 - s) ** -300.0, 1, 0.5)


def test_pelve_quadrature_solves_take_few_steps():
    # The analytic-quad benchmark cases, each step on a graded quadrature of
    # the family's quantiles (the generalized-Pareto types have closed forms,
    # which pelve takes); bisection took 30 steps on each.
    for dist in (Normal(0, 1), GeneralizedPareto(0.5, 1), ExcessGPD(1, 0.3, 1, 0)):
        assert pelve(dist, 3, 0.05).iterations <= 12, dist
        quad = pelve_from_quantile(dist.quantile, 3, 0.05, tail_quantile_fn=dist.tail_quantile)
        assert quad.iterations <= 12, dist


def test_pelve_steps_stay_far_below_bisection():
    # Gaps on which ITP without the Anderson-Bjorck weights or without the
    # floor on its truncation uses up its spare steps and ends in bisection
    # (about 30 steps): convex gaps that keep the c = 1 end for many steps,
    # and secant points that land on an exact zero of the gap.
    cases = [
        (Pareto(1, 1.5), 1, 0.05),
        (Pareto(1, 1.5), 4, 0.01),
        (Pareto(1, 3), 2, 0.01),
        (GeneralizedPareto(0.8, 1), 1, 0.01),
        (GeneralizedPareto(0.5, 1), 1, 0.2),
        (Exponential(1), 1, 0.2),
        (Uniform(0, 1), 2, 0.1),
        (Normal(0, 1), 4, 0.01),
    ]
    for dist, n, eps in cases:
        assert pelve(dist, n, eps).iterations <= 14, (dist, n, eps)
