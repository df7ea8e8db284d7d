"""Sample-based estimators: empirical VaR, empirical n-th-order Expected
Shortfall through distortion weights, and the empirical equivalent-level
multiplier.

The empirical VaR at level p is the order statistic X*_i with
p in ((i-1)/m, i/m].  The empirical ES_n is a weighted mean of the ordered
sample, with weight w_i equal to the increment of the distortion
h_p(s) = ((s-p)/(1-p))^n over ((i-1)/m, i/m]; at n=1 these are the
standard averaged-tail ES weights.

The multiplier estimate is solved exactly.  Write t = m*(1-p) = c*eps*m,
d_j = x_(m-j+1) - x_(m-j) for the gaps between neighbouring top order
statistics and G = x_(m) - VaR-hat(1 - eps).  Summation by parts turns the
weighted mean into

    ES-hat_n(p) = x_(m) - sum_{1 <= j < t} ((t - j)/t)^n d_j,

so ES-hat_n(1 - c*eps) <= VaR-hat(1 - eps) exactly when

    sum_{1 <= j < t} (t - j)^n d_j >= G t^n,

a piecewise polynomial inequality in t of degree n whose breakpoints are
the integers.  Its sums over j < t read only the top t order statistics,
so the search for the root's integer cell starts at the top
8*(floor(eps*m) + 1) of them and widens only the rows whose cell lies
further down.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .distributions import _check_count, _check_order, _check_tail_level
from .errors import InvalidParameter, LevelOutOfRange, OrderOutOfRange, SampleTooSmall
from .pelve_solver import PelveResult, _check_level_eps

__all__ = [
    "OrderedSample",
    "empirical_var",
    "es_n_weights",
    "empirical_es_n",
    "empirical_pelve",
    "empirical_pelve_rows",
    "PelveColumns",
    "is_degenerate",
]

_NOT_FINITE = "sample values must all be finite"


class OrderedSample:
    """Immutable ascending-sorted view of a raw sample of length m >= 1."""

    def __init__(self, values) -> None:
        arr = np.sort(np.asarray(values, dtype=float), kind="stable")
        if arr.ndim != 1 or arr.size < 1:
            raise InvalidParameter("sample must be a non-empty 1-d array")
        if not np.all(np.isfinite(arr)):
            raise InvalidParameter(_NOT_FINITE)
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


def empirical_var(sample: OrderedSample, p: float) -> float:
    """Empirical VaR: the i-th order statistic for p in ((i-1)/m, i/m]."""
    if not 0.0 < p < 1.0:
        raise LevelOutOfRange(f"level must lie in (0, 1), got {p}")
    return float(sample.values[_var_index(sample.m, p) - 1])


def _var_index(m: int, p: float) -> int:
    # 1-based index i of the order statistic with p in ((i-1)/m, i/m].
    return min(max(math.ceil(m * p), 1), m)


def es_n_weights(m: int, n: int, p: float) -> np.ndarray:
    """Distortion-increment weights of the empirical n-th-order Expected
    Shortfall, as a read-only array of m nonnegative values summing to one:
    w_i = h_p(min(i/m,1)) - h_p(max((i-1)/m, p)) with
    h_p(s) = ((s-p)/(1-p))^n on [p, 1] and 0 below p.  For
    p >= (m-1)/m all the mass falls in the top cell, exactly."""
    _check_order(n)
    _check_tail_level(p)
    _check_count("m", m, 1)
    w = _increments(m, n, p)
    w.flags.writeable = False
    return w


def _increments(m: int, n: int, p, out: np.ndarray | None = None) -> np.ndarray:
    # h_p(i/m) - h_p((i-1)/m) for i = 1..m, with p a float (one row) or a
    # (B, 1) column of levels (one row each), written into ``out`` if given.
    # h_p(i/m) is 0 for i/m <= p, so h is formed only from a cell below the
    # lowest level on, and the increments under it are the zeros its
    # differences would give.
    start = max(math.floor(float(np.min(p)) * m) - 1, 0)
    h = np.subtract(np.arange(start, m + 1) / m, p)
    np.maximum(h, 0.0, out=h)
    h /= 1.0 - p
    h **= n
    w = np.empty(h.shape[:-1] + (m,)) if out is None else out
    w[..., :start] = 0.0
    np.subtract(h[..., 1:], h[..., :-1], out=w[..., start:])
    return w


def empirical_es_n(sample: OrderedSample, n: int, p: float) -> float:
    """Empirical n-th-order Expected Shortfall: weights dotted with the
    ordered sample."""
    return float(es_n_weights(sample.m, n, p) @ sample.values)


def is_degenerate(m: int, eps: float) -> bool:
    """m*eps < 1: VaR-hat(1 - eps) sits on the sample maximum, and the
    multiplier estimate from m values is degenerate."""
    return m * eps < 1.0


def empirical_pelve(sample: OrderedSample, n: int, eps: float) -> PelveResult:
    """Empirical equivalent-level multiplier: smallest c in [1, 1/eps] with
    ES-hat_n(1 - c*eps) <= VaR-hat(1 - eps), infinite when the set is empty.

    By summation by parts (see the module docstring), with t = c*eps*m the
    test reads sum_{j<t} (t - j)^n d_j >= G t^n, where d_j are the gaps
    between the top order statistics and G = x_(m) - VaR-hat.  Both sides
    are polynomials in t between neighbouring integers, so the root is
    found exactly: first its cell between two integers, then the root of
    that cell's polynomial.  The existence check at c = 1/eps and the left
    endpoint c = 1 compare ES-hat with VaR-hat in difference form,
    w . (x - VaR-hat), so values tied with VaR-hat contribute exactly zero
    and rounding in the weights cannot flip them.  Warns when m*eps < 1,
    where VaR-hat sits on the sample maximum and the estimate is
    degenerate.  This is :func:`empirical_pelve_rows` on one row.
    """
    return _pelve_rows(sample.values[None, :], n, eps).result(0)


@dataclass(frozen=True, eq=False)
class PelveColumns:
    """Multiplier estimates of B rows as three read-only columns: ``value``
    (inf on an infinite row), ``iterations`` and ``residual`` (both 0 on an
    infinite row, as in ``PelveResult.infinite()``)."""

    value: np.ndarray
    iterations: np.ndarray
    residual: np.ndarray

    def __len__(self) -> int:
        return self.value.size

    def result(self, i: int) -> PelveResult:
        """Row i as a PelveResult."""
        value = float(self.value[i])
        if value == math.inf:
            return PelveResult.infinite()
        return PelveResult.finite(value, int(self.iterations[i]), float(self.residual[i]))


# The batched solve takes rows in blocks of about this many doubles.  Its
# scaled rows, its n+1 cumulative-sum buffers and the few others of the
# cell search each hold one block, near 256 KiB, whatever the number of
# rows; a _BlockSolver allocates the resident ones once and every block
# reuses them.
BLOCK_DOUBLES = 1 << 15

# The cell search works with integers up to (m+n)^n times a sample scaled
# into (-1, 1); this many binary digits of exponent keep it finite.
_MAX_EXPONENT_BITS = 1000


def block_rows(m: int) -> int:
    """Rows of length m in one block of the batched solve."""
    return max(1, BLOCK_DOUBLES // m)


def empirical_pelve_rows(rows, n: int, eps: float) -> PelveColumns:
    """:func:`empirical_pelve` of every row of an ascending-sorted (B, m)
    matrix of finite values, as B rows of columns; ``result(i)`` is row i's
    PelveResult.

    Per row: the multiplier is infinite when ES-hat_n(0) > VaR-hat, and 1
    when ES-hat_n(1 - eps) <= VaR-hat.  Otherwise cumulative sums of the top
    gaps give sum_{j<K} (K - j)^n d_j at every integer K (Worpitzky's
    identity, all terms nonnegative), the first K above eps*m where it
    reaches G K^n bounds the root's cell (K-1, K], and the root inside is
    solved in closed form for n <= 2 or bisected to the last bit for
    n >= 3 (``iterations`` counts those steps).  The search for K starts
    at the top P = min(m, 8*(floor(eps*m) + 1)) order statistics, which
    hold the cell of every multiplier up to 8; a row with no cell
    there is searched again at 8P, and so on up to m, with the same bits
    as a search over all m.  ``residual`` is
    |ES-hat_n - VaR-hat| at the returned c, from the distortion weights.
    Every step runs along each row on its own, so a row's result does not
    depend on the other rows.  Warns once when m*eps < 1.  Raises
    ``OrderOutOfRange`` when a row needs the root search and n*log2(m+n)
    exceeds 1000, where the cell search would overflow.
    """
    return _pelve_rows(rows, n, eps)


def _pelve_rows(rows, n: int, eps: float, solver: _BlockSolver | None = None) -> PelveColumns:
    # The solve of both public entry points, each of which calls it directly,
    # so that stacklevel=3 attributes the warning to their caller.  A study
    # passes the solver of its (m, n, eps), whose buffers serve every block.
    _check_level_eps(eps)
    _check_order(n)
    # C order keeps every row's dot product a unit-stride ddot, whose sum
    # order matches the one-row call; a strided ddot may round differently.
    rows = np.ascontiguousarray(rows, dtype=float)
    if rows.ndim != 2 or rows.shape[1] < 1:
        raise InvalidParameter(
            f"rows must form a (B, m) matrix with m >= 1, got shape {rows.shape}"
        )
    if not np.isfinite(rows).all():
        raise InvalidParameter(_NOT_FINITE)
    b, m = rows.shape
    if is_degenerate(m, eps):
        warnings.warn(
            f"m*eps = {m * eps:.3g} < 1: empirical VaR is the sample maximum "
            "and the multiplier estimate is degenerate",
            SampleTooSmall,
            stacklevel=3,
        )
    step = block_rows(m)
    if solver is None:
        solver = _BlockSolver(m, n, eps, min(step, b))
    value, residual = np.empty(b), np.empty(b)
    iterations = np.empty(b, dtype=np.int64)
    for start in range(0, b, step):
        block = slice(start, start + step)
        value[block], iterations[block], residual[block] = solver.solve(rows[block])
    for column in (value, iterations, residual):
        column.flags.writeable = False
    return PelveColumns(value, iterations, residual)


def _first_width(m: int, eps: float) -> int:
    # The top order statistics the first cell search reads.
    return min(8 * (math.floor(eps * m) + 1), m)


class _BlockSolver:
    # The batched solve of blocks of up to `rows` rows of length m at one
    # order n and eps.  It holds what every block would otherwise allocate
    # anew, which the allocator may hand back and fault in again on each
    # block: the check weights at p = 0 and at the left endpoint c = 1 (one
    # level for every row), one block of scaled rows, which later holds the
    # residual's weights, and the cumulative sums s of the first cell
    # search, made when a block first needs them and after the order check,
    # so that an order too large for the solve allocates none.  Every use
    # writes what it reads, so no block sees another's values.

    def __init__(self, m: int, n: int, eps: float, rows: int) -> None:
        self.n, self.eps = n, eps
        self.i_var = _var_index(m, 1.0 - eps)
        self.at_zero = es_n_weights(m, n, 0.0)
        self.at_one = es_n_weights(m, n, 1.0 - eps)
        self.scaled = np.empty((rows, m))
        self.sums = None

    def solve(self, x: np.ndarray):
        # (value, iterations, residual) of each row of the block x.
        n, eps, i_var = self.n, self.eps, self.i_var
        b, m = x.shape
        # Each row scaled by a power of two 2^-e into (-1, 1) (by ldexp, as
        # 2^-e overflows for a row of subnormals), so that x - VaR-hat, the
        # weighted sums of it and the cell search's sums stay finite.  The
        # scaling changes no root and the sign of no sum; its only rounding
        # is in values pushed below the normal floats.  The residual goes
        # back by 2^e.
        e = np.frexp(np.maximum(-x[:, 0], x[:, -1]))[1]
        x = np.ldexp(x, -e[:, None], out=self.scaled[:b])
        excess = x - x[:, i_var - 1, None]
        infinite = _row_dots(self.at_zero, excess) > 0.0
        g1 = _row_dots(self.at_one, excess)
        solve = ~infinite & (g1 > 0.0)
        # An infinite row's residual is 0 before the residuals go back by
        # 2^e, which its discarded c = 1 gap could overflow.
        value = np.where(infinite, math.inf, 1.0)
        iterations = np.zeros(b, dtype=np.int64)
        residual = np.where(infinite, 0.0, np.abs(g1))
        # The open rows' excess is formed again for their residual, so that
        # the root search runs with one block-sized buffer fewer.
        del excess
        if solve.any():
            if n * math.log2(m + n) > _MAX_EXPONENT_BITS:
                raise OrderOutOfRange(
                    f"order {n} is too large for the exact solve on {m} values "
                    f"(needs n*log2(m+n) <= {_MAX_EXPONENT_BITS})"
                )
            if not solve.all():
                x = x[solve]  # the open rows only
            if self.sums is None:
                shape = (n + 1, len(self.scaled), _first_width(m, eps) + n)
                self.sums = np.empty(shape)
            k = len(x)
            c, iterations[solve] = _roots(x, n, eps, m - i_var, s=self.sums[:, :k])
            value[solve] = c
            excess = x - x[:, i_var - 1, None]
            levels = np.maximum(1.0 - c * eps, 0.0)[:, None]
            weights = _increments(m, n, levels, out=self.scaled[:k])
            residual[solve] = np.abs(_row_dots(weights, excess))
        return value, iterations, np.ldexp(residual, e)


def _row_dots(w: np.ndarray, excess: np.ndarray) -> np.ndarray:
    # w[j] @ excess[j] for every row j (one w broadcasts), each a BLAS ddot
    # exactly as in a one-row ``w @ excess``.
    return np.matmul(w[..., None, :], excess[:, :, None])[:, 0, 0]


def _eulerian(n: int) -> list:
    # Rows r = 0..n of the Eulerian numbers A(r, k), k = 0..max(r-1, 0), by
    # A(r, k) = (k+1) A(r-1, k) + (r-k) A(r-1, k-1).  Worpitzky's identity
    # x^r = sum_k A(r, k) C(x+k, r) holds for every integer x >= 0 and r >= 1.
    table = [[1]]
    for r in range(1, n + 1):
        prev = table[-1] + [0]
        table.append([(k + 1) * prev[k] + (r - k) * (prev[k - 1] if k else 0)
                      for k in range(r)])
    return table


def _weighted_sum(coefs: list, terms) -> np.ndarray:
    # sum of coefs[i] * terms[i], left to right; a product by 1 changes no
    # bit, so it is skipped.
    total = 0.0
    for a, term in zip(coefs, terms):
        total = total + (term if a == 1 else a * term)
    return total


def _powers(base: np.ndarray, r: int) -> np.ndarray:
    # base**r by repeated products: exact for the small integers it gets,
    # and the same bits for an element whatever array holds it.
    out = np.ones_like(base)
    for _ in range(r):
        out = out * base
    return out


def _divide(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    # num/den where den > 0, else 1: the root at the top of the cell.
    return np.divide(num, den, out=np.ones_like(num), where=den > 0.0)


def _roots(x: np.ndarray, n: int, eps: float, j_var: int, width: int | None = None,
           s: np.ndarray | None = None):
    # Exact multiplier of every row of x, each scaled into (-1, 1) with its
    # gap positive at c = 1 and not at c = 1/eps; j_var = m - i_var, so
    # G = x_(m) - x_(m-j_var).  Returns (c, in-cell bisection steps).  s, if
    # given, is the (n+1, k, width+n) buffer of the first search's sums.
    #
    # The root's cell is searched for among the top `width` order statistics
    # only, at first 8(floor(eps*m) + 1) of them, which hold the cell of
    # every multiplier up to 8.  The rows with no cell there are searched
    # again at eight times the width, and so on up to all m.  A prefix of a
    # cumulative sum has the bits of the full one, and nothing below reads
    # past the cell, so each row gets the bits of the search over all m.
    k, m = x.shape
    first = math.floor(eps * m) + 1
    width = _first_width(m, eps) if width is None else min(width, m)
    rows = np.arange(k)
    eulerian = _eulerian(n)
    # s[r, :, n + i] = S_{r+1}(i), the (r+1)-fold cumulative sum of the top
    # gaps d_1..d_i for i < width, so S_1(i) = x_(m) - x_(m-i); the n leading
    # zero columns stand for i < 0.
    if s is None:
        s = np.empty((n + 1, k, width + n))
    s[:, :, :n] = 0.0
    np.subtract(x[:, -1:], x[:, ::-1][:, :width], out=s[0, :, n:])
    for r in range(n):
        np.cumsum(s[r, :, n:], axis=1, out=s[r + 1, :, n:])
    g = s[0, :, n + j_var]

    # The root's cell is (K-1, K] for the first integer K above eps*m with
    # sum_{j<K} (K-j)^n d_j = sum_i A(n, i) S_{n+1}(K-n+i) >= G K^n.  Where
    # no such K lies within the width, K = width: at width m that is where
    # rounding leaves none, and below m such a row is searched again wider.
    ks = np.arange(first, width + 1)
    w = _weighted_sum(eulerian[n], (s[n, :, first + i : width + 1 + i] for i in range(n)))
    reached = w >= g[:, None] * _powers(ks.astype(float), n)
    at = reached.argmax(axis=1)
    found = reached[rows, at]
    low = np.where(found, ks[at], width) - 1
    lowf = low.astype(float)

    # On that cell t = L + s with L = K-1 and s in [0, 1], and
    # sum_{j<t} (t-j)^n d_j - G t^n = sum_r C(n, r) q_r s^(n-r) with
    # q_r = sum_{j<=L} (L-j)^r d_j - G L^r.  q_0 = VaR-hat - x_(m-L), taken
    # straight from the sample.
    q = [x[:, m - 1 - j_var] - x[rows, m - 1 - low]]
    for r in range(1, n + 1):
        q_r = _weighted_sum(eulerian[r], (s[r, rows, n + low - r + i] for i in range(r)))
        q.append(q_r - g * _powers(lowf, r))
    del s, w, reached  # before a wider search builds its own
    steps = np.zeros(k, dtype=np.int64)
    if n == 1:
        root = _divide(-q[1], q[0])
    elif n == 2:
        # q_0 s^2 + 2 q_1 s + q_2 = 0 with q_0 >= 0 > q_2: the root
        # (sqrt(q_1^2 - q_0 q_2) - q_1)/q_0, written so that q_1 > 0 cancels
        # nothing.  For q_1 < 0 the denominator cannot cancel either: ES-hat
        # falls as c grows, so q_2 <= L q_1, and a root in the cell needs
        # q_0 >= 2 |q_1|; together they keep it above 0.7 |q_1|.
        a, b, c = q
        root = _divide(-c, b + np.sqrt(np.maximum(b * b - a * c, 0.0)))
    else:
        root, steps = _bisect_cell(q, lowf)
    t = lowf + np.clip(root, 0.0, 1.0)
    c = np.clip(t / (eps * m), 1.0, 1.0 / eps)
    # Every step above runs along each row on its own, so the rows searched
    # again do not change the others.
    wider = ~found
    if width < m and wider.any():
        c[wider], steps[wider] = _roots(x[wider], n, eps, j_var, 8 * width)
    return c, steps


def _bisect_cell(q: list, lowf: np.ndarray):
    # Bisection of t in [L, L+1] on sum_r C(n, r) q_r (t-L)^(n-r) by Horner,
    # each row until its bracket ends are neighbouring doubles; t - L is
    # exact there.  Returns (t - L at the upper end, steps).
    n = len(q) - 1
    coef = [math.comb(n, r) * q_r for r, q_r in enumerate(q)]
    lo, hi = lowf, lowf + 1.0
    steps = np.zeros(lowf.size, dtype=np.int64)
    while True:
        mid = 0.5 * (lo + hi)
        live = (lo < mid) & (mid < hi)
        if not live.any():
            return hi - lowf, steps
        s = mid - lowf
        value = coef[0]
        for c in coef[1:]:
            value = value * s + c
        below = value < 0.0
        lo = np.where(live & below, mid, lo)
        hi = np.where(live & ~below, mid, hi)
        steps += live
