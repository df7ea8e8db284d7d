"""n-th-order Expected Shortfall (closed forms and quadrature), tail-Gini
and Gini Shortfall.

The n-th-order Expected Shortfall at level p averages the quantile function
over (p, 1) under the kernel n*(s-p)^(n-1)/(1-p)^n, which integrates to one.
Order 1 is the usual Expected Shortfall.

Closed forms exist for uniform and exponential at every order, for the
normal at orders 1 and 2, and for Pareto (tail > 1) and
generalized-Pareto-type models (shape < 1) at every order, the last two from
one kernel moment; each family class carries its own as ``es_closed``.
Everything else (the normal at orders 3 and up, tails without a first
moment, and any quantile callable) goes through composite Gauss-Legendre
quadrature on geometrically graded panels, which resolve the integrable
endpoint singularities of heavy-tailed quantile functions.

The quadrature splits (p, 1) at a level b >= p.  Expanding (s - p)^(n-1)
binomially about b gives, for every p <= b,

    ES_n(p) (1-p)^n / n = integral over (p, b) of (s-p)^(n-1) Q(s) ds
                          + sum_{k<n} C(n-1, k) (b-p)^(n-1-k) M_k(b),

with the tail moments M_k(b) = integral over (b, 1) of (s-b)^k Q(s) ds.
Every coefficient is nonnegative, so the split adds no cancellation.  The
moments do not depend on p: one table of them serves every level at or
below b, and each level adds only its short head over (p, b).  ``pelve``
and ``pelve_from_quantile`` build one table at b = 1 - eps for a whole
solve, and ``pelve analytic`` one at its highest printed level for every
row and the solve; ``tail_gini``, ``gini_shortfall`` and standalone
``es_n`` and ``es_n_quadrature`` build one at b = p.  A table never sits
below 1/2, so at p >= 1/2 a standalone ES_n is the tail moments alone, with
no head.  ``_TailTable`` is the only caller of the graded-panel kernel
(``_graded_pair``, ``_pair_sums``, ``_refine``).  The
tail runs in t = 1 - s, on panels that halve toward t = 0, and calls the
tail quantile t -> Q(1 - t): doubles are dense near 0 but not near 1, and
heavy tails need panels far below the float spacing at 1.  The head runs
in s, on panels that halve toward p in its lower half and toward b in its
upper half, and calls the quantile.  ``es_n`` hands the nodes to
the family's ``quantile`` and ``tail_quantile`` as whole arrays;
``es_n_quadrature`` keeps a one-float-at-a-time contract for arbitrary
quantile callables, and without a tail callable evaluates the quantile at
1 - t, lowered to the largest double below 1 where that rounds to 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .distributions import (
    DistributionModel,
    _check_order,
    harmonic_number,
    quantile,
    tail_quantile,
)
from .errors import (
    InvalidParameter,
    LevelOutOfRange,
    NoClosedForm,
    QuadratureNonConvergence,
)

__all__ = [
    "EsMethod",
    "EsResult",
    "GiniParams",
    "harmonic_number",
    "es_n_closed",
    "es_n_quadrature",
    "es_n",
    "tail_gini",
    "gini_shortfall",
    "DEFAULT_REL_TOL",
]

DEFAULT_REL_TOL = 1e-10


class EsMethod(Enum):
    CLOSED_FORM = "closed_form"
    QUADRATURE = "quadrature"


@dataclass(frozen=True)
class EsResult:
    value: float
    method: EsMethod
    est_abs_error: float = 0.0


@dataclass(frozen=True)
class GiniParams:
    """Loading parameter of the Gini Shortfall; coherent iff loading <= 1/2."""

    loading: float

    def __post_init__(self):
        if not 0.0 <= self.loading < math.inf:
            raise InvalidParameter(f"Gini loading must be finite and >= 0, got {self.loading}")

    @property
    def is_coherent(self) -> bool:
        return self.loading <= 0.5


def _check_tail_level(p: float) -> None:
    if not 0.0 <= p < 1.0:
        raise LevelOutOfRange(f"level must lie in [0, 1), got {p}")


# ---------------------------------------------------------------------------
# closed forms
# ---------------------------------------------------------------------------

def es_n_closed(dist: DistributionModel, n: int, p: float) -> float:
    """Closed-form n-th-order Expected Shortfall, where one exists.

    Raises NoClosedForm when the (family, order) pair is not covered;
    callers normally fall back to es_n_quadrature.
    """
    _check_order(n)
    _check_tail_level(p)
    return dist.es_closed(n, p)


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GL_FRACTIONS = 0.5 * (1.0 + _GL_NODES)  # node positions in a panel, from its lower edge
_NODE_BUDGET = 2 ** 20
# Deepest grading refined.  Past it a grid's deepest edges would lie closer
# to its end than the smallest double (2^-1074) resolves, so they add no
# panels.
_DEEPEST = 1100
_BELOW_ONE = math.nextafter(1.0, 0.0)
# Floor of an error estimate, as in QUADPACK: rounding in the quantile and
# in the sums, 50 machine epsilons of the absolute integral.
_ROUNDING = 50.0 * sys.float_info.epsilon
# Graded panels keep their nodes at least this far from the end they are
# graded toward: the smallest normal float.
_SMALLEST = sys.float_info.min
# First grading depths.  The head's nodes sit where quantiles are smooth
# unless p is the level floor; the tail always reaches the singular end 1.
_HEAD_LEVELS = 4
_TAIL_LEVELS = 32
# Lowest split level of a table.  At or above it the tail's widest panel
# lies at least twice its width above level 0, where quantiles such as the
# normal's are singular.
_LOWEST_SPLIT = 0.5


def _check_rel_tol(rel_tol: float) -> None:
    if not 1e-14 <= rel_tol <= 1e-2:
        raise InvalidParameter(f"rel_tol must lie in [1e-14, 1e-2], got {rel_tol}")


def _panels(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre nodes, one row per panel [lo, hi], and the half-widths.
    width = hi - lo
    return lo[:, None] + width[:, None] * _GL_FRACTIONS, 0.5 * width


def _graded_pair(offset: float, width: float, levels: int, beyond=()) -> tuple:
    # Panels [lo, hi] of the graded grid at depth 2*levels (edges
    # offset + width*2^-k for k = 2*levels..0, then the further edges
    # ``beyond``, ascending, plus a closing panel from offset) behind the
    # closing panel of the grid at depth levels, and the row from which the
    # coarse grid's panels run.  Row 0 is the coarse closing panel and row
    # 1 the fine one; the coarse grid is row 0 plus the rows from the
    # returned one on, so one node array gives both grids.
    # Edges whose closing panel would put nodes within the smallest normal
    # float of offset are dropped: deeper grading resolves nothing more.
    # Where the fine grid then reaches no deeper than the coarse one, the
    # coarse grid leaves the closing panel out (row 0 has zero width), so
    # that the two still differ by what the closing panel holds.
    edges = offset + width * 2.0 ** -np.arange(2 * levels, -1.0, -1)
    if (edges[0] - offset) * _GL_FRACTIONS[0] < _SMALLEST:
        keep = (edges - offset) * _GL_FRACTIONS[0] >= _SMALLEST
        keep[-1] = True  # offset + width, if need be as one zero-width panel
        edges = edges[keep]
    first = max(edges.size - levels - 1, 0)  # the coarse grid's first edge
    edges = np.concatenate((edges, beyond))
    lo = np.concatenate(([offset if first else edges[0], offset], edges[:-1]))
    hi = np.concatenate(([edges[first], edges[0]], edges[1:]))
    return lo, hi, 2 + first


def _pair_sums(fn: Callable, lo: np.ndarray, hi: np.ndarray, first: int, kernel_of: Callable) -> tuple:
    # Gauss-Legendre sums of kernel*Q over the coarse and the fine grid of
    # panels [lo, hi] (as from _graded_pair), of kernel*|Q| over the fine
    # grid and over its closing panel, and the node count.  fn maps node
    # arrays to quantiles; kernel_of maps them to the kernel, with a
    # trailing axis of kernel columns, one entry per column in each sum.
    nodes, half = _panels(lo, hi)
    weighted = fn(nodes) * (_GL_WEIGHTS * half[:, None])
    kernel = kernel_of(nodes)
    rows = np.einsum("pj,pjk->pk", weighted, kernel)
    size = np.einsum("pj,pjk->pk", np.abs(weighted), kernel)
    return rows[0] + rows[first:].sum(0), rows[1:].sum(0), size[1:].sum(0), size[1], nodes.size


# Overflow to inf in a node array is not an error here, nor is the nan of
# inf - inf: a non-finite total ends in QuadratureNonConvergence.
@np.errstate(over="ignore", invalid="ignore")
def _refine(integrate: Callable, levels: int, rel_tol: float) -> tuple:
    """Doubles the grading depth ``levels`` until the coarse and fine totals
    of ``integrate(levels)`` (as from _pair_sums) agree within ``rel_tol``
    of the larger of each fine total and its absolute counterpart; returns
    the fine totals, their absolute counterparts and the differences.  A
    budget of 2^20 nodes guards against integrands without a finite
    integral, and so does a depth cap where grading leaves the floats."""
    edge_tol = math.sqrt(rel_tol)
    used = 0
    while True:
        try:
            coarse, fine, fine_abs, edge, spent = integrate(levels)
        except OverflowError:
            raise QuadratureNonConvergence(
                "quantile overflow near an endpoint; the quantile function "
                "may lack a finite first moment on (p, 1)"
            ) from None
        used += spent
        err = np.abs(fine - coarse)
        scale = np.maximum(np.maximum(np.abs(fine), fine_abs), 1e-300)
        finite = bool(np.isfinite(fine).all())
        # The end-panel check rejects false agreement between refinements
        # when mass keeps piling up at an endpoint (divergent integrand).
        if finite and bool((err <= rel_tol * scale).all() and (edge <= edge_tol * scale).all()):
            return fine, fine_abs, err
        levels *= 2
        if used > _NODE_BUDGET or not finite or levels > _DEEPEST:
            raise QuadratureNonConvergence(
                "node budget exhausted; the quantile function may lack a "
                "finite first moment on (p, 1)"
            )


class _TailTable:
    """The tail moments m_k = M_k(b)/(1 - b)^k = integral over (b, 1) of
    ((s - b)/(1 - b))^k Q(s) ds, k < ``orders``, of one quantile at one split
    level b, from which ES_n(p) follows for every n <= ``orders`` and p <= b.

    The moments come from panels in t = 1 - s graded toward t = 0, refined
    until every moment has converged; each ES_n(p) with p < b adds its own
    head, the integral over (p, b).  The table sits at
    max(b, _LOWEST_SPLIT).  It lives as long as its owner: nothing is kept
    across calls.
    """

    def __init__(self, quantile_fn, tail_quantile_fn, orders: int, b: float, rel_tol: float):
        _check_order(orders)
        _check_tail_level(b)
        _check_rel_tol(rel_tol)
        self.quantile_fn = quantile_fn
        self.rel_tol = rel_tol
        self.b = b = max(b, _LOWEST_SPLIT)
        width = 1.0 - b

        def moment_kernel(t: np.ndarray) -> np.ndarray:
            u = 1.0 - t / width  # (s - b)/(1 - b)
            return np.vander(u.ravel(), orders, increasing=True).reshape(u.shape + (orders,))

        def integrate(levels: int) -> tuple:
            return _pair_sums(tail_quantile_fn, *_graded_pair(0.0, width, levels), moment_kernel)

        self.moments, self.abs_moments, self.errors = (
            a.tolist() for a in _refine(integrate, _TAIL_LEVELS, rel_tol)
        )

    def es(self, n: int, p: float) -> EsResult:
        """ES_n at level p <= b, through

            ES_n(p) (1 - p)/n = integral over (p, b) of v^(n-1) Q(s) ds
                                + sum_k C(n-1, k) r^(n-1-k) (1 - r)^k m_k,

        with v = (s - p)/(1 - p) and r = (b - p)/(1 - p): the binomial
        expansion of the ES_n kernel about b.  The weights of the moments
        are nonnegative and sum to one, so the split adds no cancellation.
        The error estimate adds the differences of the last refinements,
        with a floor for rounding."""
        b, scale = self.b, 1.0 - p
        r = (b - p) / scale
        weights = [math.comb(n - 1, k) * r ** (n - 1 - k) * (1.0 - r) ** k for k in range(n)]
        total, size, err = (
            sum(w * m for w, m in zip(weights, column))
            for column in (self.moments, self.abs_moments, self.errors)
        )
        if b > p:
            total, size, head_err = self._head(n, p, total, size)
            err += head_err
        err = max(err, _ROUNDING * size)
        return EsResult(n * total / scale, EsMethod.QUADRATURE, n * err / scale)

    def _head(self, n: int, p: float, tail: float, tail_abs: float) -> tuple:
        # The integral over (p, b) of v^(n-1) Q(s) ds plus the tail terms, so
        # that it converges relative to the whole ES, with the absolute
        # total and the difference of the last refinement.  The lower half
        # of (p, b) is graded toward p, deeper each refinement, for
        # quantiles singular at the level floor.  The upper half is graded
        # toward b, just until its last panel is at most half as wide as the
        # distance 1 - b to the tail's singular end, and stays fixed.
        b, scale, quantile_fn = self.b, 1.0 - p, self.quantile_fn
        floor = np.nextafter(p, 1.0)
        mid = p + 0.5 * (b - p)
        ratio = 2.0 * (b - mid) / (1.0 - b)
        depth = math.ceil(math.log2(ratio)) if ratio > 1.0 else 0
        upper = np.append(b - (b - mid) * 2.0 ** -np.arange(1.0, depth + 1), b)

        def integrate(levels: int) -> tuple:
            coarse, fine, fine_abs, edge, nodes = _pair_sums(
                lambda s: quantile_fn(np.maximum(s, floor)),
                *_graded_pair(p, mid - p, levels, upper),
                lambda s: (((s - p) / scale) ** (n - 1))[..., None],
            )
            return coarse + tail, fine + tail, fine_abs + tail_abs, edge, nodes

        total, size, err = _refine(integrate, _HEAD_LEVELS, self.rel_tol)
        return float(total[0]), float(size[0]), float(err[0])


def _per_node(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    # Adapts a scalar quantile callable to node arrays.
    return lambda x: np.array([fn(float(v)) for v in x.flat]).reshape(x.shape)


def _node_callables(
    quantile_fn: Callable[[float], float],
    tail_quantile_fn: Callable[[float], float] | None,
) -> tuple:
    # The array callables of a table over scalar quantile callables; without
    # a tail callable the tail calls quantile_fn(1 - t), lowered to the
    # largest double below 1 where that rounds to 1.
    if tail_quantile_fn is None:
        def tail_quantile_fn(t: float) -> float:
            return quantile_fn(min(1.0 - t, _BELOW_ONE))

    return _per_node(quantile_fn), _per_node(tail_quantile_fn)


def _family_callables(dist: DistributionModel) -> tuple:
    # The array callables of a table over a family.  They look up quantile
    # and tail_quantile at call time, so that wrappers of those names see
    # every node array.
    return lambda s: quantile(dist, s), lambda t: tail_quantile(dist, t)


def es_n_quadrature(
    quantile_fn: Callable[[float], float],
    n: int,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
    tail_quantile_fn: Callable[[float], float] | None = None,
) -> EsResult:
    """Numeric n-th-order Expected Shortfall of an arbitrary quantile
    function, by panel-graded Gauss-Legendre integration over (p, 1): one
    tail table at p, as in the module docstring, with no head at p >= 1/2.

    Each part's panel count doubles until two successive refinements agree
    within ``rel_tol`` (relative to the larger of the integral and its
    absolute counterpart).  A budget of 2^20 nodes guards against quantiles
    without a finite first moment.

    ``quantile_fn`` takes one float level at a time.  ``tail_quantile_fn(t)``,
    when supplied, evaluates the quantile at level 1 - t directly; heavy
    tails then resolve below the double-precision spacing at 1, which
    ``quantile_fn(1 - t)`` cannot reach.  Without it the tail calls
    ``quantile_fn(1 - t)``, with levels that round to 1 lowered to the
    largest double below 1.
    """
    return _TailTable(*_node_callables(quantile_fn, tail_quantile_fn), n, p, rel_tol).es(n, p)


def _es_n_upto(
    dist: DistributionModel, n: int, b: float, rel_tol: float = DEFAULT_REL_TOL
) -> Callable[..., EsResult]:
    """ES_m of ``dist`` for orders m <= n (default n) at levels p <= b: the
    closed form where the family has one, otherwise one tail table of n
    moments at b, built on first use and shared by every later order and
    level."""
    table = None

    def es(p: float, m: int = n) -> EsResult:
        nonlocal table
        try:
            return EsResult(es_n_closed(dist, m, p), EsMethod.CLOSED_FORM)
        except NoClosedForm:
            if table is None:
                table = _TailTable(*_family_callables(dist), n, b, rel_tol)
            return table.es(m, p)

    return es


def es_n(
    dist: DistributionModel,
    n: int,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> EsResult:
    """n-th-order Expected Shortfall: closed form when available, otherwise
    quadrature over the family's quantile function, evaluated on whole node
    arrays, from one tail table at p, with no head at p >= 1/2."""
    return _es_n_upto(dist, n, p, rel_tol)(p)


# ---------------------------------------------------------------------------
# tail-Gini and Gini Shortfall
# ---------------------------------------------------------------------------

def _es_1_2(dist: DistributionModel, p: float, rel_tol: float) -> tuple[float, float]:
    # ES_1 and ES_2 at p: closed forms where the family has them, otherwise
    # both from the moments m_0 and m_1 of one tail table at p.
    es = _es_n_upto(dist, 2, p, rel_tol)
    return es(p, 1).value, es(p, 2).value


def tail_gini(
    dist: DistributionModel, p: float, rel_tol: float = DEFAULT_REL_TOL
) -> float:
    """Tail-Gini dispersion at level p, computed as 2*(ES_2 - ES_1).

    Algebraically identical to the direct integral against the kernel
    2*(2s - 1 - p)/(1-p)^2, and exact by construction in the Gini Shortfall
    decomposition below.  Orders without a closed form come from one tail
    table at p.
    """
    es1, es2 = _es_1_2(dist, p, rel_tol)
    return 2.0 * (es2 - es1)


def gini_shortfall(
    dist: DistributionModel,
    p: float,
    g: GiniParams,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Gini Shortfall: ES_1 + loading * tail_gini, evaluated through its
    decomposition (1 - 2*loading)*ES_1 + 2*loading*ES_2, with orders
    without a closed form from one tail table at p."""
    es1, es2 = _es_1_2(dist, p, rel_tol)
    lam = g.loading
    return (1.0 - 2.0 * lam) * es1 + 2.0 * lam * es2
