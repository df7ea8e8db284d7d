import math

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
    Pareto,
    QuantileOverflow,
    Uniform,
    cdf,
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


def test_cdf_examples():
    assert cdf(Pareto(1, 2), 2) == pytest.approx(0.75, abs=1e-15)
    assert cdf(GeneralizedPareto(0, 1), 1) == pytest.approx(1 - math.exp(-1), abs=1e-15)
    assert cdf(GeneralizedPareto(-1, 1), 2) == 1.0


def test_cdf_below_threshold_errors():
    with pytest.raises(ExcessGPDBelowThreshold):
        cdf(ExcessGPD(1, 0.25, 2, 0.3), 0.5)


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
        assert cdf(dist, x) == pytest.approx(p, abs=1e-12)


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


def test_sample_count_validation():
    with pytest.raises(InvalidParameter):
        sample(Uniform(0, 1), 1, 0)


def test_sample_rejects_negative_seed():
    with pytest.raises(InvalidParameter, match="seed"):
        sample(Normal(0, 1), -1, 5)


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


@settings(max_examples=50, deadline=None)
@given(
    p=st.floats(min_value=0.01, max_value=0.99),
    q=st.floats(min_value=0.01, max_value=0.99),
)
def test_quantile_monotone_property(p, q):
    d = Pareto(1, 2)
    lo, hi = sorted((p, q))
    assert quantile(d, lo) <= quantile(d, hi)
