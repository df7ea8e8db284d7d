"""Sample-based estimators: empirical VaR, empirical n-th-order Expected
Shortfall through distortion weights, and the empirical equivalent-level
multiplier.

The empirical VaR at level p is the order statistic X*_i with
p in ((i-1)/m, i/m].  The empirical ES_n is a weighted mean of the ordered
sample, with weight w_i equal to the increment of the distortion
h_p(s) = ((s-p)/(1-p))^n over ((i-1)/m, i/m]; at n=1 these are the
standard averaged-tail ES weights.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import _check_order
from .errors import InvalidParameter, LevelOutOfRange, SampleTooSmall
from .pelve_solver import DEFAULT_C_TOL, PelveResult, _check_c_tol, _check_eps, _solve

__all__ = [
    "OrderedSample",
    "WeightVector",
    "empirical_var",
    "es_n_weights",
    "empirical_es_n",
    "empirical_pelve",
]


class OrderedSample:
    """Immutable ascending-sorted view of a raw sample of length m >= 1."""

    def __init__(self, values) -> None:
        arr = np.sort(np.asarray(values, dtype=float), kind="stable")
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidParameter("sample must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter("sample values must all be finite")
        arr.flags.writeable = False
        self._values = arr

    @property
    def values(self) -> np.ndarray:
        return self._values

    @property
    def m(self) -> int:
        return self._values.size

    def __len__(self) -> int:
        return self._values.size

    def __repr__(self) -> str:
        return f"OrderedSample(m={self.m})"


@dataclass(frozen=True)
class WeightVector:
    """Nonnegative weights over an ordered sample, summing to one."""

    weights: np.ndarray

    def __post_init__(self):
        self.weights.flags.writeable = False

    def __len__(self) -> int:
        return self.weights.size

    def __getitem__(self, i):
        return self.weights[i]


def empirical_var(sample: OrderedSample, p: float) -> float:
    """Empirical VaR: the i-th order statistic for p in ((i-1)/m, i/m]."""
    if not 0.0 < p < 1.0:
        raise LevelOutOfRange(f"level must lie in (0, 1), got {p}")
    m = sample.m
    i = min(max(math.ceil(m * p), 1), m)
    return float(sample.values[i - 1])


def es_n_weights(m: int, n: int, p: float) -> WeightVector:
    """Distortion-increment weights of the empirical n-th-order Expected
    Shortfall: w_i = h_p(min(i/m,1)) - h_p(max((i-1)/m, p)) with
    h_p(s) = ((s-p)/(1-p))^n on [p, 1] and 0 below p."""
    _check_order(n)
    if not 0.0 <= p < 1.0:
        raise LevelOutOfRange(f"level must lie in [0, 1), got {p}")
    if m < 1:
        raise InvalidParameter(f"m must be >= 1, got {m}")
    w = np.zeros(m)
    if p >= (m - 1) / m:
        # The whole kernel mass sits in the top cell; exact by convention.
        w[-1] = 1.0
        return WeightVector(w)
    grid = np.arange(m + 1) / m
    h = (np.clip(grid - p, 0.0, None) / (1.0 - p)) ** n
    np.subtract(h[1:], h[:-1], out=w)
    return WeightVector(w)


def empirical_es_n(sample: OrderedSample, n: int, p: float) -> float:
    """Empirical n-th-order Expected Shortfall: weights dotted with the
    ordered sample."""
    w = es_n_weights(sample.m, n, p)
    return float(w.weights @ sample.values)


def empirical_pelve(
    sample: OrderedSample,
    n: int,
    eps: float,
    c_tol: float = DEFAULT_C_TOL,
) -> PelveResult:
    """Empirical equivalent-level multiplier: smallest c in [1, 1/eps] with
    ES-hat_n(1 - c*eps) <= VaR-hat(1 - eps), infinite when the set is empty.

    The map c -> ES-hat_n(1 - c*eps) is continuous and nonincreasing (the
    distortion h_p is pointwise nonincreasing in p over sorted values), so
    bisection applies.  ES-hat is compared with VaR-hat in difference form,
    w . (x - VaR-hat), so values tied with VaR-hat contribute exactly zero
    and rounding in the weights cannot flip the comparison.  Warns when
    m*eps < 1, where VaR-hat sits on the sample maximum and the estimate is
    degenerate.
    """
    _check_eps(eps)
    _check_c_tol(c_tol)
    m = sample.m
    if m * eps < 1.0:
        warnings.warn(
            f"m*eps = {m * eps:.3g} < 1: empirical VaR is the sample maximum "
            "and the multiplier estimate is degenerate",
            SampleTooSmall,
            stacklevel=2,
        )
    excess = sample.values - empirical_var(sample, 1.0 - eps)

    def gap(p: float) -> float:
        return float(es_n_weights(m, n, p).weights @ excess)

    return _solve(gap, eps, c_tol)
