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
from .pelve_solver import DEFAULT_C_TOL, PelveResult, _check_c_tol, _check_eps

__all__ = [
    "OrderedSample",
    "WeightVector",
    "empirical_var",
    "es_n_weights",
    "empirical_es_n",
    "empirical_pelve",
    "empirical_pelve_rows",
    "is_degenerate",
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


def is_degenerate(m: int, eps: float) -> bool:
    """m*eps < 1: VaR-hat(1 - eps) sits on the sample maximum, and the
    multiplier estimate from m values is degenerate."""
    return m * eps < 1.0


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
    degenerate.  This is :func:`empirical_pelve_rows` on one row.
    """
    return empirical_pelve_rows(sample.values[None, :], n, eps, c_tol)[0]


# The batched solve takes rows in blocks of about this many doubles, so each
# of its three work buffers stays near 256 KiB whatever the number of rows.
# Twice that measured about 1 MiB more peak RSS on a 100 x 5000 study for
# under 10% less time.
BLOCK_DOUBLES = 1 << 15


def block_rows(m: int) -> int:
    """Rows of length m in one block of the batched solve."""
    return max(1, BLOCK_DOUBLES // m)


def empirical_pelve_rows(
    rows,
    n: int,
    eps: float,
    c_tol: float = DEFAULT_C_TOL,
) -> list:
    """:func:`empirical_pelve` of every row of an ascending-sorted (B, m)
    matrix of finite values, as a list of B results.

    Each row gets the result of the scalar solve in
    :func:`pelve_solver._solve` on its own gap, bit for bit: the existence
    check at p = 0, the left endpoint c = 1, then bisection.  The rows still
    open bisect in lock step, each stopping on the step where its own
    bracket reaches the width goal.  The weights of every row are built in
    one buffer by the floating-point operations of :func:`es_n_weights`,
    and each row's dot product is the same BLAS call as ``w @ excess``.
    Warns once when m*eps < 1.
    """
    _check_eps(eps)
    _check_c_tol(c_tol)
    _check_order(n)
    # C order keeps every row's dot product a unit-stride ddot, whose sum
    # order matches the one-row call; a strided ddot may round differently.
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise InvalidParameter(
            f"rows must form a (B, m) matrix with m >= 1, got shape {rows.shape}"
        )
    if not np.isfinite(rows).all():
        raise InvalidParameter("sample values must all be finite")
    m = rows.shape[1]
    if is_degenerate(m, eps):
        warnings.warn(
            f"m*eps = {m * eps:.3g} < 1: empirical VaR is the sample maximum "
            "and the multiplier estimate is degenerate",
            SampleTooSmall,
            stacklevel=2,
        )
    grid = np.arange(m + 1) / m
    step = block_rows(m)
    results: list = []
    for start in range(0, rows.shape[0], step):
        results += _solve_block(rows[start : start + step], grid, n, eps, c_tol)
    return results


def _solve_block(x: np.ndarray, grid: np.ndarray, n: int, eps: float, c_tol: float) -> list:
    b, m = x.shape
    i_var = min(max(math.ceil(m * (1.0 - eps)), 1), m)
    excess = x - x[:, i_var - 1, None]
    # The existence check at p = 0 and the left endpoint c = 1 put every row
    # on the same level, so one weight vector serves the whole block.
    infinite = _row_dots(es_n_weights(m, n, 0.0).weights, excess) > 0.0
    g1 = _row_dots(es_n_weights(m, n, 1.0 - eps).weights, excess)
    bisect = ~infinite & (g1 > 0.0)
    value = np.ones(b)
    iterations = np.zeros(b, dtype=np.int64)
    residual = np.abs(g1)
    if bisect.any():
        if not bisect.all():
            excess = excess[bisect]  # the open rows only; frees the full block
        value[bisect], iterations[bisect], residual[bisect] = _bisect(
            excess, grid, n, eps, c_tol
        )
    return [
        PelveResult.infinite() if inf else PelveResult.finite(c, steps, res)
        for inf, c, steps, res in zip(
            infinite.tolist(), value.tolist(), iterations.tolist(), residual.tolist()
        )
    ]


def _row_dots(w: np.ndarray, excess: np.ndarray) -> np.ndarray:
    # w[j] @ excess[j] for every row j (one w broadcasts), each a BLAS ddot
    # exactly as in a one-row ``w @ excess``.
    return np.matmul(w[..., None, :], excess[:, :, None])[:, 0, 0]


def _bisect(excess: np.ndarray, grid: np.ndarray, n: int, eps: float, c_tol: float):
    # Lock-step bisection of _solve over [1, 1/eps] for rows whose gap is
    # positive at c = 1 and not at c = 1/eps; returns (c, steps, residual).
    k, m = excess.shape
    h = np.empty((k, m + 1))
    w = np.empty((k, m))

    def gap(p: np.ndarray) -> np.ndarray:
        # es_n_weights(m, n, p[j]).weights @ excess[j] for every row j,
        # by the same floating-point operations.
        # `h **= n` rebinds h to itself; unlike np.power it takes numpy's
        # fast path for n = 2, as the `** n` in es_n_weights does.
        nonlocal h
        np.subtract(grid, p[:, None], out=h)
        np.maximum(h, 0.0, out=h)
        h /= (1.0 - p)[:, None]
        h **= n
        np.subtract(h[:, 1:], h[:, :-1], out=w)
        # es_n_weights' top-cell case needs no branch: for p >= (m-1)/m the
        # formula gives its one-hot weights exactly, (1-p)/(1-p) being 1.
        return _row_dots(w, excess)

    c_max = 1.0 / eps
    width_goal = c_tol * (c_max - 1.0)
    lo, hi = np.ones(k), np.full(k, c_max)
    steps = np.zeros(k, dtype=np.int64)
    live = np.ones(k, dtype=bool)
    while live.any():
        mid = 0.5 * (lo + hi)
        up = gap(np.maximum(1.0 - mid * eps, 0.0)) > 0.0
        np.copyto(lo, mid, where=live & up)
        np.copyto(hi, mid, where=live & ~up)
        steps += live
        live &= hi - lo > width_goal
    c = 0.5 * (lo + hi)
    return c, steps, np.abs(gap(np.maximum(1.0 - c * eps, 0.0)))
