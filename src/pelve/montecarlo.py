"""Replicate studies of the empirical equivalent-level multiplier:
seeded sampling, summary statistics and histogram export.

Replicate r draws its sample with the seed ``replicate_seed(seed, r)`` =
(seed + r)(seed + r + 1)/2 + r (r = 1..R), the Cantor pairing of seed and
r.  No two (seed, r) pairs share a seed, so studies under different seeds
never reuse each other's draws; a study is deterministic in its seed and
independent of evaluation order.  Replicates are drawn in blocks: one
``sample`` call draws a block, one row per replicate and each row the
replicate's own sample bit for bit.  The study sorts each block along its
rows in place and hands it, when asked, to the one batched empirical solve,
which gives every replicate the same estimate, bit for bit, as
``empirical_pelve`` on its own sample, and fails only the replicates that
fail on their own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distributions import DistributionModel, _check_count, _check_order, sample
from .empirical import _pelve_rows, block_rows
# No longer called here, but perfbench/tracing.py rebinds these two names.
from .empirical import OrderedSample, empirical_pelve  # noqa: F401
from .errors import NoFiniteEstimates
from .pelve_solver import _check_level_eps

__all__ = [
    "StudyConfig",
    "StudyResult",
    "run_study",
    "export_histogram",
]


def replicate_seed(seed: int, r: int) -> int:
    """Seed of replicate r (1-based): the Cantor pairing
    (seed + r)(seed + r + 1)/2 + r, one distinct integer for every
    (seed, r) with seed >= 0 and r >= 1."""
    return (seed + r) * (seed + r + 1) // 2 + r


@dataclass(frozen=True)
class StudyConfig:
    dist: DistributionModel
    n: int
    eps: float
    replicates: int
    sample_len: int
    seed: int

    def __post_init__(self):
        _check_count("replicates", self.replicates, 1)
        _check_count("sample_len", self.sample_len, 2)
        _check_count("seed", self.seed, 0)
        _check_order(self.n)
        _check_level_eps(self.eps)


@dataclass(frozen=True)
class StudyResult:
    estimates: tuple
    finite_count: int
    mean: float
    stddev: float
    failures: tuple = ()


def _sorted(block: np.ndarray) -> np.ndarray:
    # Any sort will do: it can only order -0.0 against 0.0 differently from
    # OrderedSample's stable sort, which no estimate can see.
    block.sort(axis=1)
    return block


def run_study(cfg: StudyConfig) -> StudyResult:
    """Run the replicate study; deterministic in cfg.seed.

    Estimator errors in a replicate are recorded in ``failures`` (as
    (replicate, message) pairs, with a None placeholder in ``estimates``)
    rather than aborting the study.  Mean and stddev are over the finite
    estimates only; infinite ones count toward R but not finite_count.
    """
    count, m = cfg.replicates, cfg.sample_len
    replicates, step = range(1, count + 1), block_rows(m)
    # Each block is drawn when the solve asks for it and held by no name here.
    blocks = (
        _sorted(sample(cfg.dist, [replicate_seed(cfg.seed, r) for r in replicates[i : i + step]], m))
        for i in range(0, count, step)
    )
    columns, errors = _pelve_rows(blocks, count, m, cfg.n, cfg.eps)
    finite = columns.value[np.isfinite(columns.value)]
    k = finite.size
    mean = float(finite.mean()) if k else math.nan
    stddev = float(finite.std(ddof=1)) if k > 1 else 0.0
    return StudyResult(
        estimates=tuple(None if i in errors else columns.result(i) for i in range(count)),
        finite_count=k,
        mean=mean,
        stddev=stddev,
        failures=tuple((i + 1, str(error)) for i, error in errors.items()),
    )


def export_histogram(res: StudyResult, bins: int) -> list:
    """Equal-width histogram of the finite estimates as
    (bin_low, bin_high, count) rows; counts sum to finite_count."""
    _check_count("bins", bins, 1)
    finite = np.array([e.value for e in res.estimates if e is not None and e.is_finite])
    if finite.size == 0:
        raise NoFiniteEstimates("every estimate in the study was infinite")
    low, high = float(finite.min()), float(finite.max())
    if low == high:
        return [(low, high, int(finite.size))]
    counts, edges = np.histogram(finite, bins=bins, range=(low, high))
    return [(float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)]
