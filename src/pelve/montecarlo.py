"""Replicate studies of the empirical equivalent-level multiplier:
seeded sampling, summary statistics and histogram export.

Replicate r draws its sample with seed ``seed XOR r`` (r = 1..R), so the
study is deterministic for a given seed and replicates stay independent of
evaluation order or parallelism.  Replicates are solved in blocks: each
block of draws is stacked, sorted along its rows and passed to the batched
empirical solve, which gives every replicate the same estimate, bit for
bit, as ``empirical_pelve`` on its own sample.  The draws and their seeds
are unchanged.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .distributions import DistributionModel, sample
from .empirical import block_rows, empirical_pelve_rows
# No longer called here, but perfbench/tracing.py rebinds these two names.
from .empirical import OrderedSample, empirical_pelve  # noqa: F401
from .errors import InvalidParameter, NoFiniteEstimates, PelveError
from .pelve_solver import DEFAULT_C_TOL

__all__ = [
    "StudyConfig",
    "StudyResult",
    "replicate_seed",
    "run_study",
    "export_histogram",
]

_DEFAULT_BINS = 30
_NOT_FINITE = "sample values must all be finite"


def replicate_seed(seed: int, r: int) -> int:
    """Seed of replicate r (1-based): seed XOR r."""
    return seed ^ r


@dataclass(frozen=True)
class StudyConfig:
    dist: DistributionModel
    n: int
    eps: float
    replicates: int
    sample_len: int
    seed: int
    c_tol: float = DEFAULT_C_TOL

    def __post_init__(self):
        if self.replicates < 1:
            raise InvalidParameter(f"replicates must be >= 1, got {self.replicates}")
        if self.sample_len < 2:
            raise InvalidParameter(f"sample_len must be >= 2, got {self.sample_len}")
        if self.seed < 0:
            raise InvalidParameter(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class StudyResult:
    estimates: tuple
    finite_count: int
    mean: float
    stddev: float
    histogram: tuple
    failures: tuple = field(default=())


def _finite_values(estimates) -> np.ndarray:
    return np.array([e.value for e in estimates if e is not None and e.is_finite])


def _estimate_rows(block: np.ndarray, cfg: StudyConfig) -> list:
    # One PelveResult, or the error message, per sorted row of the block.
    finite = np.isfinite(block).all(axis=1)
    try:
        solved = iter(empirical_pelve_rows(
            block if finite.all() else block[finite], cfg.n, cfg.eps, cfg.c_tol
        ))
    except PelveError as exc:
        return [str(exc) if ok else _NOT_FINITE for ok in finite.tolist()]
    return [next(solved) if ok else _NOT_FINITE for ok in finite.tolist()]


def run_study(cfg: StudyConfig) -> StudyResult:
    """Run the replicate study; deterministic in cfg.seed.

    Estimator errors in a replicate are recorded in ``failures`` (as
    (replicate, message) pairs, with a None placeholder in ``estimates``)
    rather than aborting the study.  Mean and stddev are over the finite
    estimates only; infinite ones count toward R but not finite_count.
    """
    estimates: list = []
    failures: list = []
    m = cfg.sample_len
    step = block_rows(m)
    for first in range(1, cfg.replicates + 1, step):
        replicates = range(first, min(first + step, cfg.replicates + 1))
        block = np.empty((len(replicates), m))
        for row, r in zip(block, replicates):
            row[:] = sample(cfg.dist, replicate_seed(cfg.seed, r), m)
        # Any sort will do: it can only order -0.0 against 0.0 differently
        # from OrderedSample's stable sort, which no estimate can see.
        block.sort(axis=1)
        for r, outcome in zip(replicates, _estimate_rows(block, cfg)):
            if isinstance(outcome, str):
                failures.append((r, outcome))
                estimates.append(None)
            else:
                estimates.append(outcome)

    finite = _finite_values(estimates)
    k = finite.size
    mean = float(finite.mean()) if k else math.nan
    stddev = float(finite.std(ddof=1)) if k > 1 else 0.0
    hist = _histogram(finite, _DEFAULT_BINS) if k else ()
    return StudyResult(
        estimates=tuple(estimates),
        finite_count=k,
        mean=mean,
        stddev=stddev,
        histogram=hist,
        failures=tuple(failures),
    )


def _histogram(values: np.ndarray, bins: int) -> tuple:
    low, high = float(values.min()), float(values.max())
    if low == high:
        return ((low, high, int(values.size)),)
    counts, edges = np.histogram(values, bins=bins, range=(low, high))
    return tuple(
        (float(edges[i]), float(edges[i + 1]), int(counts[i])) for i in range(bins)
    )


def export_histogram(res: StudyResult, bins: int) -> list:
    """Equal-width histogram of the finite estimates as
    (bin_low, bin_high, count) rows; counts sum to finite_count."""
    if bins < 1:
        raise InvalidParameter(f"bins must be >= 1, got {bins}")
    finite = _finite_values(res.estimates)
    if finite.size == 0:
        raise NoFiniteEstimates("every estimate in the study was infinite")
    return list(_histogram(finite, bins))
