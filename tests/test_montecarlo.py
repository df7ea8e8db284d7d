import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from pelve import (
    ExcessGPD,
    InvalidParameter,
    LevelOutOfRange,
    NoFiniteEstimates,
    Normal,
    OrderOutOfRange,
    OrderedSample,
    Pareto,
    StudyConfig,
    Uniform,
    empirical_pelve,
    es_n_weights,
    export_histogram,
    run_study,
    sample,
)
from pelve.cli import RollingConfig
from pelve.empirical import block_rows
from pelve import montecarlo
from pelve.montecarlo import replicate_seed

SRC = Path(__file__).resolve().parents[1] / "src"
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
    "n, eps, error, message",
    [
        (0, 0.05, OrderOutOfRange, "order must be a positive integer, got 0"),
        (2.5, 0.05, OrderOutOfRange, "order must be a positive integer, got 2.5"),
        (2, 1.5, LevelOutOfRange, r"epsilon must lie in \(0, 1\), got 1.5"),
        (2, 1e-17, LevelOutOfRange, "1 - epsilon rounds to 1"),
    ],
    ids=["order-0", "order-2.5", "eps-1.5", "eps-1e-17"],
)
def test_config_checks_order_and_epsilon(n, eps, error, message):
    # Such a config used to run, and failed every replicate with the message.
    with pytest.raises(error, match=message):
        StudyConfig(Normal(0, 1), n, eps, 5, 50, 0)


_STUDY = dict(dist=Normal(0, 1), n=2, eps=0.05, replicates=1, sample_len=50, seed=0)


@pytest.mark.parametrize(
    "name, low, use",
    [
        ("replicates", 1, lambda v: StudyConfig(**{**_STUDY, "replicates": v})),
        ("sample_len", 2, lambda v: StudyConfig(**{**_STUDY, "sample_len": v})),
        ("seed", 0, lambda v: StudyConfig(**{**_STUDY, "seed": v})),
        ("seed", 0, lambda v: sample(Normal(0, 1), v, 3)),
        ("count", 1, lambda v: sample(Normal(0, 1), 1, v)),
        ("m", 1, lambda v: es_n_weights(v, 1, 0.5)),
        ("window", 2, lambda v: RollingConfig(window=v)),
        ("bins", 1, lambda v: export_histogram(run_study(StudyConfig(**_STUDY)), v)),
    ],
    ids=["replicates", "sample_len", "study-seed", "sample-seed", "count", "m", "window", "bins"],
)
def test_counts_are_integers(name, low, use):
    # A float or bool count was a TypeError traceback, or taken as 0 or 1.
    for value in (low + 0.5, float(low), True):
        with pytest.raises(InvalidParameter, match=f"^{name} must be an integer, got {value!r}$"):
            use(value)
    with pytest.raises(InvalidParameter, match=f"^{name} must be >= {low}, got {low - 1}$"):
        use(low - 1)
    use(low)
    use(np.int64(low))


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


def test_replicate_seeds_never_collide():
    # seed XOR r gave replicate_seed(0, 3) == replicate_seed(1, 2) == 3, so
    # studies under neighbouring seeds shared draws.
    assert replicate_seed(0, 3) != replicate_seed(1, 2)
    pairs = [(seed, r) for seed in range(200) for r in range(1, 201)]
    assert len({replicate_seed(seed, r) for seed, r in pairs}) == len(pairs)
    big = 2 ** 64
    assert replicate_seed(big, 1) != replicate_seed(big - 1, 2)
    assert all(replicate_seed(seed, r) >= 0 for seed, r in pairs[:50])


def test_studies_under_neighbouring_seeds_share_no_draw():
    draws = {
        sample(Normal(0, 1), replicate_seed(seed, r), 10).tobytes()
        for seed in range(6) for r in range(1, 7)
    }
    assert len(draws) == 36


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


def test_order_error_fails_only_its_own_replicates():
    # Order 85 on 5000 values is too large for the exact root search.  Only
    # the replicates whose multiplier lies strictly inside (1, 1/eps) need
    # that search; the others keep their per-sample (here infinite) results
    # although they share a block with a failing one.
    dist = Normal(0, 1)
    assert 24 > block_rows(5000)
    res = run_study(StudyConfig(dist, 85, 0.008, 24, 5000, 1))
    failed = dict(res.failures)
    assert 0 < len(failed) < 24
    for r, est in enumerate(res.estimates, start=1):
        s = OrderedSample(sample(dist, replicate_seed(1, r), 5000))
        if r in failed:
            assert est is None
            with pytest.raises(OrderOutOfRange) as info:
                empirical_pelve(s, 85, 0.008)
            assert str(info.value) == failed[r]
        else:
            assert est == empirical_pelve(s, 85, 0.008)


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
    assert export_histogram(a, 30) == export_histogram(b, 30)


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
    assert sum(c for _, _, c in export_histogram(res, 30)) == res.finite_count


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

    res = StudyResult(estimates=(), finite_count=0, mean=math.nan, stddev=0.0)
    with pytest.raises(NoFiniteEstimates):
        export_histogram(res, 5)
    with pytest.raises(InvalidParameter):
        export_histogram(res, 0)


def test_study_modal_bin_contains_mean():
    res = run_study(StudyConfig(Normal(0, 1), 2, 0.05, 100, 5000, 42))
    hist = export_histogram(res, 30)
    lo, hi, _ = max(hist, key=lambda row: row[2])
    assert lo - 0.1 <= res.mean <= hi + 0.1


@pytest.mark.parametrize(
    "cfg, falls_back",
    [
        (StudyConfig(Normal(0, 1), 2, 0.05, 100, 5000, 1), False),  # 17 blocks
        # One-row solves after a block with overflowed draws.
        (StudyConfig(Pareto(1, 0.01), 2, 0.05, 25, 200, 1), True),
        # One-row solves after blocks where some rows need too large an order.
        (StudyConfig(Normal(0, 1), 85, 0.008, 24, 5000, 1), True),
    ],
    ids=["normal", "pareto-overflow", "order-85"],
)
def test_a_study_builds_one_set_of_solve_buffers(monkeypatch, cfg, falls_back):
    built = []

    class Counting(montecarlo._BlockSolver):
        def __init__(self, *args):
            built.append(args)
            super().__init__(*args)

    monkeypatch.setattr(montecarlo, "_BlockSolver", Counting)
    with np.errstate(over="ignore"):
        res = run_study(cfg)
    assert len(built) == 1
    assert bool(res.failures) == falls_back


_REPEATED_STUDY = """
import resource
from pelve import Normal, StudyConfig, run_study
cfg = StudyConfig(Normal(0, 1), 2, 0.05, 100, 5000, 1)
run_study(cfg)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
run_study(cfg)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(
    resource is None or not sys.platform.startswith("linux"),
    reason="counts minor page faults with getrusage on Linux",
)
def test_a_repeated_study_faults_in_few_pages():
    # A study reuses one block of draws and one set of solve buffers, so a
    # second identical study finds its memory already mapped; buffers made
    # per block can be trimmed and faulted in again by the allocator, at
    # several thousand minor faults a study.  Whether they are depends on
    # the heap's history, so the study runs in a fresh interpreter.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _REPEATED_STUDY], capture_output=True,
                          text=True, env=env, check=True)
    assert int(proc.stdout) < 1000
