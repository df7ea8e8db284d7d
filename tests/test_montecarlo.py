import math

import numpy as np
import pytest

from pelve import (
    ExcessGPD,
    InvalidParameter,
    NoFiniteEstimates,
    Normal,
    OrderedSample,
    Pareto,
    StudyConfig,
    Uniform,
    empirical_pelve,
    export_histogram,
    run_study,
    sample,
)
from pelve.empirical import block_rows
from pelve.montecarlo import replicate_seed

NORMAL_TARGET = 4.040815190877765  # analytic order-2 multiplier at eps 0.05


def test_config_validation():
    with pytest.raises(InvalidParameter):
        StudyConfig(Normal(0, 1), 2, 0.05, 0, 100, 1)
    with pytest.raises(InvalidParameter):
        StudyConfig(Normal(0, 1), 2, 0.05, 10, 1, 1)


def test_negative_seed_is_a_typed_error():
    with pytest.raises(InvalidParameter, match="seed"):
        run_study(StudyConfig(Normal(0, 1), 2, 0.05, 3, 100, -1))


@pytest.mark.parametrize(
    "dist", [Normal(0, 1), Pareto(1, 3), ExcessGPD(1, 0.3, 1, 0.9)], ids=repr
)
def test_blocked_study_equals_per_replicate_solves(dist):
    assert 45 % block_rows(3000) and 45 > block_rows(3000)  # a partial last block
    cfg = StudyConfig(dist, 2, 0.05, 45, 3000, 7)
    res = run_study(cfg)
    expected = [
        empirical_pelve(OrderedSample(sample(dist, replicate_seed(7, r), 3000)), 2, 0.05)
        for r in range(1, 46)
    ]
    assert list(res.estimates) == expected
    assert res.failures == ()


def test_replicate_failures_keep_their_place():
    # Pareto(1, 0.01) overflows to inf in some draws of 200; those replicates
    # fail with the message a per-sample OrderedSample would give, and the
    # others keep their per-sample estimates.
    dist = Pareto(1, 0.01)
    with np.errstate(over="ignore"):
        res = run_study(StudyConfig(dist, 2, 0.05, 25, 200, 1))
        draws = [sample(dist, replicate_seed(1, r), 200) for r in range(1, 26)]
    failed = [r for r, _ in res.failures]
    assert failed and len(failed) < 25
    assert all(msg == "sample values must all be finite" for _, msg in res.failures)
    for r, (draw, est) in enumerate(zip(draws, res.estimates), start=1):
        if r in failed:
            assert est is None and not np.isfinite(draw).all()
        else:
            assert est == empirical_pelve(OrderedSample(draw), 2, 0.05)


def test_single_replicate_matches_direct_call():
    cfg = StudyConfig(Normal(0, 1), 2, 0.05, 1, 500, 9)
    res = run_study(cfg)
    direct = empirical_pelve(
        OrderedSample(sample(Normal(0, 1), replicate_seed(9, 1), 500)), 2, 0.05
    )
    assert len(res.estimates) == 1
    assert res.estimates[0].value == direct.value
    assert res.finite_count == 1
    assert res.mean == direct.value
    assert res.stddev == 0.0


def test_study_is_deterministic():
    cfg = StudyConfig(Uniform(0, 1), 2, 0.05, 20, 400, 5)
    a = run_study(cfg)
    b = run_study(cfg)
    assert [e.value for e in a.estimates] == [e.value for e in b.estimates]
    assert a.mean == b.mean and a.stddev == b.stddev
    assert a.histogram == b.histogram


def test_study_uniform_mean_target():
    res = run_study(StudyConfig(Uniform(0, 1), 2, 0.05, 50, 2000, 0))
    assert res.finite_count == 50
    assert abs(res.mean - 3.0) <= 0.1


def test_study_normal_mean_converges_in_sample_length():
    errors = []
    for m in (500, 5000):
        res = run_study(StudyConfig(Normal(0, 1), 2, 0.05, 50, m, 42))
        errors.append(abs(res.mean - NORMAL_TARGET))
    assert errors[1] < errors[0]


def test_infinite_estimates_excluded_from_mean():
    # Pareto with tail just above 1 produces some infinite estimates at
    # small m; the summary must stay finite and count only finite ones.
    from pelve import Pareto

    res = run_study(StudyConfig(Pareto(1, 1.1), 2, 0.05, 30, 50, 3))
    assert res.finite_count <= 30
    finite = [e.value for e in res.estimates if e.is_finite]
    assert res.finite_count == len(finite)
    if finite:
        assert math.isfinite(res.mean)
        assert res.mean == pytest.approx(float(np.mean(finite)))


def test_histogram_counts_sum_to_finite_count():
    res = run_study(StudyConfig(Normal(0, 1), 2, 0.05, 40, 500, 7))
    hist = export_histogram(res, 8)
    assert len(hist) == 8
    assert sum(c for _, _, c in hist) == res.finite_count
    assert sum(c for _, _, c in res.histogram) == res.finite_count


def test_histogram_edge_cases():
    res = run_study(StudyConfig(Normal(0, 1), 2, 0.05, 1, 500, 9))
    hist = export_histogram(res, 1)
    assert len(hist) == 1 and hist[0][2] == 1
    assert hist[0][0] <= res.estimates[0].value <= hist[0][1]

    res = run_study(StudyConfig(Normal(0, 1), 2, 0.05, 2, 500, 4))
    values = sorted(e.value for e in res.estimates)
    assert values[0] != values[1]
    hist = export_histogram(res, 2)
    assert [c for _, _, c in hist] == [1, 1]


def test_histogram_rejects_all_infinite():
    from pelve import StudyResult

    res = StudyResult(estimates=(), finite_count=0, mean=math.nan, stddev=0.0, histogram=())
    with pytest.raises(NoFiniteEstimates):
        export_histogram(res, 5)
    with pytest.raises(InvalidParameter):
        export_histogram(res, 0)


def test_study_modal_bin_contains_mean():
    res = run_study(StudyConfig(Normal(0, 1), 2, 0.05, 100, 5000, 42))
    hist = export_histogram(res, 30)
    lo, hi, _ = max(hist, key=lambda row: row[2])
    assert lo - 0.1 <= res.mean <= hi + 0.1
