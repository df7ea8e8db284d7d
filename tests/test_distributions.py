import dataclasses
import math
import tracemalloc
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pelve import (
    ExcessGPD,
    ExcessGPDBelowThreshold,
    ExcessGPDLevelBelowBase,
    Exponential,
    GeneralizedPareto,
    InvalidParameter,
    LevelOutOfRange,
    Normal,
    OrderOutOfRange,
    Pareto,
    QuantileOverflow,
    Uniform,
    quantile,
    sample,
    tail_quantile,
)

ALL_FAMILIES = [
    Uniform(0, 1),
    Uniform(-3, 5),
    Exponential(1),
    Exponential(0.25),
    Normal(0, 1),
    Normal(2, 0.5),
    Pareto(1, 2),
    Pareto(3, 10),
    GeneralizedPareto(0.5, 1),
    GeneralizedPareto(0, 2),
    GeneralizedPareto(-1, 1),
    ExcessGPD(1, 0.25, 2, 0.3),
    ExcessGPD(0, 0, 1, 0),
]

P_GRID = [i / 100 for i in range(1, 100)]


def test_parameter_validation():
    with pytest.raises(InvalidParameter):
        Uniform(1, 1)
    with pytest.raises(InvalidParameter):
        Exponential(0)
    with pytest.raises(InvalidParameter):
        Normal(0, 0)
    with pytest.raises(InvalidParameter):
        Pareto(0, 2)
    with pytest.raises(InvalidParameter):
        Pareto(1, 0)
    with pytest.raises(InvalidParameter):
        GeneralizedPareto(0.5, 0)
    with pytest.raises(InvalidParameter):
        ExcessGPD(-1, 0.5, 1, 0)
    with pytest.raises(InvalidParameter):
        ExcessGPD(1, 0.5, 1, 1.0)


_VALID_PARAMETERS = [
    (Uniform, (0.0, 1.0)),
    (Exponential, (1.0,)),
    (Normal, (0.0, 1.0)),
    (Pareto, (1.0, 2.0)),
    (GeneralizedPareto, (0.5, 1.0)),
    (ExcessGPD, (1.0, 0.3, 1.0, 0.5)),
]


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=repr)
@pytest.mark.parametrize(
    "family, params, i",
    [
        pytest.param(family, params, i, id=f"{family.__name__}.{field.name}")
        for family, params in _VALID_PARAMETERS
        for i, field in enumerate(dataclasses.fields(family))
    ],
)
def test_non_finite_parameters_are_rejected(family, params, i, bad):
    values = list(params)
    values[i] = bad
    with pytest.raises(InvalidParameter, match=f"^{family.__name__} requires finite parameters"):
        family(*values)


def test_cdf_examples():
    assert Pareto(1, 2).cdf(2) == pytest.approx(0.75, abs=1e-15)
    assert GeneralizedPareto(0, 1).cdf(1) == pytest.approx(1 - math.exp(-1), abs=1e-15)
    assert GeneralizedPareto(-1, 1).cdf(2) == 1.0
    # Below the support the CDF is 0.
    for d, x in ((Uniform(0, 1), -0.5), (Exponential(1), -1.0), (Pareto(1, 2), 0.5),
                 (GeneralizedPareto(0.5, 1), -1.0)):
        assert d.cdf(x) == 0.0, d


def test_excess_model_cdfs_keep_their_digits_next_to_the_threshold():
    # G(y) = 1 - (1 + k y/b)^(-1/k) in 50-digit arithmetic.  In floats that
    # power loses the digits of a small excess y (it gives 0 for
    # GeneralizedPareto(0.5, 1) at y = 1e-17); -expm1(-log1p(k y/b)/k) keeps them.
    # The uniform and the exponential run the same formula, at k = -1 and 0.
    def gpd(u, k, b, fu, x):
        y, k, b = mpmath.mpf(x) - u, mpmath.mpf(k), mpmath.mpf(b)
        g = 1 - mpmath.exp(-y / b) if k == 0 else 1 - (1 + k * y / b) ** (-1 / k)
        return fu + (1 - mpmath.mpf(fu)) * g

    cases = []
    with mpmath.workdps(50):
        for y in (1e-17, 1e-12, 1e-9, 1e-3, 0.5, 3.0):
            for k in (-0.5, -1e-9, 0.0, 1e-9, 0.5, 2.0):
                for d, u, fu in ((GeneralizedPareto(k, 2.0), 0.0, 0.0),
                                 (ExcessGPD(1.0, k, 2.0, 0.4), 1.0, 0.4)):
                    cases.append((d, y, d.cdf(u + y), gpd(u, k, 2.0, fu, u + y)))
            for scale, tail in ((1.0, 2.0), (2.0, 3.0), (1.0, 0.5)):
                x = scale * (1.0 + y)
                if x > scale:
                    exact = 1 - (mpmath.mpf(scale) / mpmath.mpf(x)) ** tail
                    cases.append((Pareto(scale, tail), y, Pareto(scale, tail).cdf(x), exact))
            for lower, upper in ((0.0, 1.0), (-3.0, 5.0)):
                x = lower + y
                if x < upper:
                    exact = (mpmath.mpf(x) - lower) / (upper - lower)
                    cases.append((Uniform(lower, upper), y, Uniform(lower, upper).cdf(x), exact))
            for rate in (1.0, 2.5):
                exact = -mpmath.expm1(-rate * mpmath.mpf(y))
                cases.append((Exponential(rate), y, Exponential(rate).cdf(y), exact))
        off = [(d, y, got, float(exact)) for d, y, got, exact in cases
               if abs(got - exact) > 5e-16 * exact]
    assert off == []


def test_fields_whose_shape_or_scale_overflows_are_rejected():
    # 1/alpha, k/alpha, 1/rate or b - a past the float range would reach the
    # formulas as inf: the first Pareto's cdf(2.0) was nan, the second's
    # cdf(2e300) was 0.0, and the exponential's quantile(1e-300) was inf.
    for make in (lambda: Pareto(1, 1e-310), lambda: Pareto(1e300, 1e-10),
                 lambda: Exponential(1e-310), lambda: Uniform(-1e308, 1e308)):
        with pytest.raises(InvalidParameter):
            make()


def test_cdf_below_threshold_errors():
    with pytest.raises(ExcessGPDBelowThreshold):
        ExcessGPD(1, 0.25, 2, 0.3).cdf(0.5)


def test_quantile_examples():
    assert quantile(Exponential(1), 1 - math.exp(-1)) == pytest.approx(1.0, abs=1e-12)
    assert quantile(Pareto(1, 2), 0.75) == pytest.approx(2.0, abs=1e-12)
    assert quantile(Normal(0, 1), 0.5) == pytest.approx(0.0, abs=1e-12)
    assert quantile(ExcessGPD(0, 0, 1, 0), 0.5) == pytest.approx(
        math.log(2), abs=1e-12
    )


def test_quantile_rejects_endpoints():
    for p in (0.0, 1.0, -0.1, 1.1):
        with pytest.raises(LevelOutOfRange):
            quantile(Uniform(0, 1), p)


def test_excess_gpd_quantile_below_base_errors():
    with pytest.raises(ExcessGPDLevelBelowBase):
        quantile(ExcessGPD(1, 0.25, 2, 0.3), 0.2)


def test_range_checks_name_the_first_failing_rule():
    # One combined test runs first; when it fails, the unit-interval check
    # comes before the level-floor check, for floats and arrays alike.
    d = ExcessGPD(1, 0.3, 1, 0.4)
    unit = "{} must lie in (0, 1), got {}"
    for fn, x, error, message in (
        (d.quantile, math.nan, LevelOutOfRange, unit.format("level", "nan")),
        (d.quantile, 1, LevelOutOfRange, unit.format("level", "1.0")),
        (d.quantile, np.array([0.5, 0.0]), LevelOutOfRange,
         unit.format("level", "[0.5 0. ]")),
        (d.quantile, 0.4, ExcessGPDLevelBelowBase,
         "quantile requires p > base_cdf_at_u=0.4, got p=0.4"),
        (d.quantile, np.array([0.5, 0.3]), ExcessGPDLevelBelowBase,
         "quantile requires p > base_cdf_at_u=0.4, got p=[0.5 0.3]"),
        (d.tail_quantile, 1.5, LevelOutOfRange,
         unit.format("tail probability", "1.5")),
        (d.tail_quantile, np.array([[0.5], [1.0]]), LevelOutOfRange,
         unit.format("tail probability", "[[0.5]\n [1. ]]")),
        (d.tail_quantile, np.array([0.7, 0.65]), ExcessGPDLevelBelowBase,
         "tail probability must be below 1 - base_cdf_at_u = 0.6"),
    ):
        with pytest.raises(error) as caught:
            fn(x)
        assert str(caught.value) == message, (fn.__name__, x)
    # In range, a numpy scalar still takes the float path.
    assert type(d.quantile(np.float64(0.5))) is float
    assert type(Normal(0, 1).tail_quantile(np.float64(0.3))) is float


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
def test_quantile_nondecreasing(dist):
    grid = [p for p in P_GRID if not (isinstance(dist, ExcessGPD) and p <= dist.base_cdf_at_u)]
    values = [quantile(dist, p) for p in grid]
    assert all(a <= b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
def test_cdf_quantile_roundtrip(dist):
    for p in P_GRID:
        if isinstance(dist, ExcessGPD) and p <= dist.base_cdf_at_u:
            continue
        x = quantile(dist, p)
        assert dist.cdf(x) == pytest.approx(p, abs=1e-12)


def test_excess_gpd_reduces_to_gpd():
    for kappa in (-0.5, 0.0, 0.25, 0.5):
        g = GeneralizedPareto(kappa, 1.5)
        e = ExcessGPD(0, kappa, 1.5, 0)
        for p in P_GRID:
            assert quantile(e, p) == pytest.approx(quantile(g, p), abs=1e-12)
            assert tail_quantile(e, p) == pytest.approx(tail_quantile(g, p), abs=1e-12)
            for n in (1, 2):
                assert e.es_closed(n, p) == pytest.approx(g.es_closed(n, p), abs=1e-12)
        assert e.closed_multiplier(2) == g.closed_multiplier(2)
        assert np.array_equal(sample(e, 3, 500), sample(g, 3, 500))


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
def test_tail_quantile_matches_quantile(dist):
    for p in P_GRID:
        if isinstance(dist, ExcessGPD) and p <= dist.base_cdf_at_u:
            continue
        assert tail_quantile(dist, 1 - p) == pytest.approx(
            quantile(dist, p), rel=1e-12, abs=1e-12
        )


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
def test_array_levels_match_float_calls(dist):
    # Arrays go through numpy's vectorised log and pow, which can differ from
    # libm by an ulp.  GPD-type formulas subtract 1 from a power near 1, which
    # turns that ulp into an absolute error at the scale of the larger
    # quantiles, so the bound is 4 ulp of max(|value|, largest value on
    # P_GRID).
    floor = dist.level_floor
    p = np.array([x for x in P_GRID if x > floor])
    t = np.array([x for x in P_GRID if x < 1.0 - floor] + [1e-12, 1e-300])
    for method, levels in ((dist.quantile, p), (dist.tail_quantile, t)):
        singles = [method(float(x)) for x in levels]
        assert all(type(v) is float for v in singles)
        singles = np.array(singles)
        whole = method(levels)
        assert isinstance(whole, np.ndarray) and whole.shape == levels.shape
        grid_max = np.abs(singles[levels >= P_GRID[0]]).max()
        tol = 4 * np.spacing(np.maximum(np.abs(singles), grid_max))
        assert np.all(np.abs(whole - singles) <= tol)


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
def test_a_0d_level_gives_the_one_element_arrays_bits(dist):
    # A 0-d array is an array: a shape-() array with the bits of the
    # one-element array, not a float from math or numpy's scalar power.  A
    # 2-d array gives the 1-d values in its shape.
    floor = dist.level_floor
    u = np.random.default_rng(26).random(1000)
    p, t = floor + (1.0 - floor) * u, (1.0 - floor) * u
    for method, levels in ((dist.quantile, p[(p > floor) & (p < 1.0)]),
                           (dist.tail_quantile, t[(t > 0.0) & (t < 1.0 - floor)])):
        for x in levels:
            value = method(np.array(x))
            assert type(value) is np.ndarray and value.shape == ()
            assert value.tobytes() == method(np.array([x])).tobytes()
        whole = method(levels[:998])
        assert np.array_equal(method(levels[:998].reshape(2, -1)), whole.reshape(2, -1))


def test_sample_range_and_determinism():
    x = sample(Uniform(0, 1), 123, 3)
    assert x.shape == (3,)
    assert np.all((x > 0) & (x < 1))
    y = sample(Uniform(0, 1), 123, 3)
    assert np.array_equal(x, y)
    z = sample(Uniform(0, 1), 124, 3)
    assert not np.array_equal(x, z)


def test_sample_seed_zero_is_legal():
    assert sample(Normal(0, 1), 0, 5).shape == (5,)


def test_sample_exponential_mean():
    x = sample(Exponential(1), 7, 10 ** 5)
    assert abs(x.mean() - 1.0) < 0.02


def test_sample_excess_gpd_stays_above_threshold():
    x = sample(ExcessGPD(1, 0.25, 2, 0.3), 5, 1000)
    assert np.all(x >= 1.0)


_ABOVE_BASE, _BELOW_ONE = np.nextafter(0.9, 1.0), np.nextafter(1.0, 0.0)
_HALF = 0.9 + (1.0 - 0.9) * 0.5


@pytest.mark.parametrize(
    "draws, levels",
    [
        ([0.0, 2 ** -53, 5 * 2 ** -53, 0.5], [_ABOVE_BASE, _ABOVE_BASE, _ABOVE_BASE, _HALF]),
        ([0.5, 1 - 2 ** -53], [_HALF, _BELOW_ONE]),
    ],
    ids=["base", "one"],
)
def test_sample_excess_gpd_keeps_draws_inside_the_model(draws, levels, monkeypatch):
    # Above F(u) = 0.9 the level F(u) + (1 - F(u))*u rounds to F(u) at u = 0
    # and at the five smallest draws k*2^-53, and to 1 at the largest draw:
    # such a level moves one float inside (F(u), 1), and u = 0.5 keeps its
    # bits.
    d = ExcessGPD(1, 0.3, 1, 0.9)
    # numpy's Generator is replaced by one whose random(out=row) fills the
    # row with draws.
    monkeypatch.setattr(np.random, "Generator",
                        lambda bits: SimpleNamespace(random=lambda out: np.copyto(out, draws)))
    assert np.array_equal(sample(d, 0, len(draws)), d.quantile(np.array(levels)))


def test_sample_rejects_an_excess_model_with_no_level_above_its_base():
    # No double lies strictly between F(u) = 1 - 2^-53 and 1: the clip into
    # (F(u), 1) had crossed bounds and set every level to F(u), which the
    # quantile then rejected as an array of levels printed as 1.
    top = math.nextafter(1.0, 0.0)
    with pytest.raises(InvalidParameter) as info:
        sample(ExcessGPD(1, 0.3, 1, top), 0, 5)
    assert str(info.value) == ("no level lies strictly between base_cdf_at_u=0.9999999999999999 "
                               "and 1: the model has no level to sample above F(u)")
    # One double further down, F(u) leaves one level to sample: 1 - 2^-53.
    d = ExcessGPD(1, 0.3, 1, math.nextafter(top, 0.0))
    assert np.array_equal(sample(d, 0, 5), np.full(5, d.quantile(top)))


def test_sample_count_validation():
    with pytest.raises(InvalidParameter):
        sample(Uniform(0, 1), 1, 0)


def test_sample_rejects_negative_seed():
    with pytest.raises(InvalidParameter, match="seed"):
        sample(Normal(0, 1), -1, 5)


# One model of each family; ExcessGPD with F(u) > 0 takes the clip into
# (F(u), 1), and Pareto(1, 0.01) overflows to inf on about one draw in 1,250.
SAMPLED_FAMILIES = [
    Uniform(-3, 5),
    Exponential(0.25),
    Normal(2, 0.5),
    Pareto(1, 0.01),
    GeneralizedPareto(0.5, 1),
    ExcessGPD(1, 0.3, 1, 0.9),
]


@pytest.mark.parametrize("count", [1, 3000, 8193])
@pytest.mark.parametrize("dist", SAMPLED_FAMILIES, ids=repr)
def test_a_block_of_seeds_draws_each_seeds_sample(dist, count):
    # Four rows of 3,000 or 8,193 draws straddle the 8,192-value chunks in
    # which the block's levels go through the quantile.
    seeds = [0, 1, 7, 12345]
    block = sample(dist, seeds, count)
    assert block.shape == (len(seeds), count)
    assert block.flags.c_contiguous and block.flags.owndata
    for row, seed in zip(block, seeds):
        assert row.tobytes() == sample(dist, seed, count).tobytes()
    assert np.array_equal(sample(dist, tuple(seeds), count), block)
    assert np.array_equal(sample(dist, range(0, 2), count), block[:2])
    if isinstance(dist, Pareto) and count > 1:
        assert np.isinf(block).any()


@pytest.mark.parametrize("bad", [-1, True, 2.0])
def test_a_block_checks_every_seed(bad):
    with pytest.raises(InvalidParameter, match="seed"):
        sample(Normal(0, 1), [1, bad, 3], 5)


def test_a_block_with_no_level_above_the_base_raises_before_any_draw(monkeypatch):
    def no_draws(bits):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(np.random, "Generator", no_draws)
    with pytest.raises(InvalidParameter, match="no level lies strictly between"):
        sample(ExcessGPD(1, 0.3, 1, math.nextafter(1.0, 0.0)), [0, 1], 5)


@pytest.mark.parametrize("dist", [Normal(0, 1), Pareto(1, 3), ExcessGPD(1, 0.3, 1, 0.9)],
                         ids=repr)
def test_sampling_memory_is_the_result_and_a_chunk(dist):
    # The levels go through the quantile in fixed chunks, in place, so a
    # large sample needs its result and a chunk's temporaries; through one
    # quantile call it needed several result-sized temporaries.
    count = 2 ** 20
    sample(dist, 1, 10)
    tracemalloc.start()
    try:
        sample(dist, 1, count)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * count + 2 * 2 ** 20


def test_float_quantile_overflow_is_typed():
    # 0.05 ** (-1/0.003) is past the float range; Python's float ** raises.
    d = Pareto(1, 0.003)
    with pytest.raises(QuantileOverflow):
        d.quantile(0.95)
    with pytest.raises(QuantileOverflow):
        d.tail_quantile(0.05)
    with pytest.raises(QuantileOverflow):
        GeneralizedPareto(300, 1).quantile(0.95)
    # Below the overflow the float formula and its bits are unchanged.
    assert Pareto(1, 0.01).quantile(0.95) == 1.0 * (1.0 - 0.95) ** (-1.0 / 0.01)


def test_infinite_float_quantile_is_typed():
    # mean + stddev * z overflows to inf without a float ** to raise; an
    # array passes inf through, as ``sample`` needs.
    d = Normal(1e308, 1e308)
    with pytest.raises(QuantileOverflow, match=r"at level 0\.95 exceeds the float range"):
        d.quantile(0.95)
    with pytest.raises(QuantileOverflow, match=r"at tail probability 0\.05 exceeds"):
        d.tail_quantile(0.05)
    with np.errstate(over="ignore"):
        assert d.quantile(np.array([0.95]))[0] == math.inf
    assert d.quantile(0.5) == 1e308


@pytest.mark.parametrize("dist", ALL_FAMILIES, ids=repr)
def test_family_methods_check_order_and_level(dist):
    # The four family methods are the checked entry; the formulas behind
    # them check nothing.
    p = max(dist.level_floor, 0.5)
    for n in (0, -3, 2.5, True):
        with pytest.raises(OrderOutOfRange):
            dist.es_closed(n, p)
        with pytest.raises(OrderOutOfRange):
            dist.closed_multiplier(n)
    for level in (-0.5, 1.0, 1.5, math.nan):
        with pytest.raises(LevelOutOfRange, match=r"level must lie in \[0, 1\)"):
            dist.es_closed(2, level)


@pytest.mark.parametrize(
    "family, fields",
    [
        (GeneralizedPareto, (1e-310, 1.0)),     # scale/shape overflows to inf
        (GeneralizedPareto, (-1e-300, 1e300)),  # ... to -inf
        (GeneralizedPareto, (1.7e308, 1e-300)),  # ... underflows to 0
        (ExcessGPD, (2.0, -1.7e308, 1e-17, 1e-17)),
        (Pareto, (5e-324, 2.0)),                # scale/tail underflows to 0
        # A subnormal shape lost digits: the VaR(0.95) and ES_2(0.5) of the
        # first were 6.0e-5 and 1.6e-5 off relative, the VaR(0.95) and the
        # order-2 multiplier of the second 2.3e-15 and 2.5e-14 off.
        (GeneralizedPareto, (1e-320, 1e-300)),
        (GeneralizedPareto, (1e-310, 1e-290)),
        (GeneralizedPareto, (-1e-310, 1e-290)),
        (ExcessGPD, (0.0, 1e-310, 1e-290, 0.5)),
        (Pareto, (1.0, 5e307)),                 # shape 1/tail is subnormal
    ],
)
def test_scale_over_shape_beyond_the_float_range_is_rejected(family, fields):
    # The factor b/k of every quantile and ES would give inf or nan
    # (inf * 0) where the true values are finite, or nan where they are inf.
    with pytest.raises(InvalidParameter, match="beyond the float range"):
        family(*fields)


def test_shapes_far_below_minus_one_have_closed_forms():
    # S_n = prod j/(j - k) underflows to 0 for k = -1.7e308, and k/(j - k)
    # rounds to -1 for k = -1e17, where log1p fails: log S_n is summed as
    # -log1p(-k/j) below k = -1, and the multiplier is exp(log S_n / k).
    with mpmath.workdps(40):
        for k in (-1.5, -7.0, -1e17, -1.7e308):
            d = GeneralizedPareto(k, 1.0)
            for n in (1, 2, 5):
                s = n * mpmath.beta(n, 1 - mpmath.mpf(k))
                value, threshold = d.closed_multiplier(n)
                assert abs(value - s ** (1 / mpmath.mpf(k))) <= 2e-16 * value, (k, n)
                assert threshold == 1.0 / value
                exact = (s * mpmath.mpf(0.1) ** -mpmath.mpf(k) - 1) / k  # ES_n at 0.9
                assert abs(d.es_closed(n, 0.9) - exact) <= 1e-14 * abs(exact), (k, n)


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    q=st.floats(min_value=0.01, max_value=0.99),
)
def test_quantile_monotone_property(p, q):
    d = Pareto(1, 2)
    lo, hi = sorted((p, q))
    assert quantile(d, lo) <= quantile(d, hi)
