"""n-th-order Expected Shortfall (closed forms and quadrature), tail-Gini
and Gini Shortfall.

The n-th-order Expected Shortfall at level p averages the quantile function
over (p, 1) under the kernel n*(s-p)^(n-1)/(1-p)^n, which integrates to one.
Order 1 is the usual Expected Shortfall.

Closed forms exist for uniform, exponential and Pareto at every order, for
the normal at orders 1 and 2, and for generalized-Pareto-type models
(shape < 1) at orders 1 and 2; each family class carries its own as
``es_closed``.  Everything else goes through composite Gauss-Legendre
quadrature with geometric panel grading toward both ends of the
integration interval, which resolves the integrable endpoint singularities
of heavy-tailed quantile functions.  The quadrature takes two callables:
the quantile, for the lower half in the level s, and the tail quantile
t -> Q(1 - t), for the upper half in t = 1 - s.  ``es_n`` hands each half's
nodes to the family's ``quantile`` and ``tail_quantile`` as one array;
``es_n_quadrature`` keeps a one-float-at-a-time contract for arbitrary
quantile callables, and without a tail callable evaluates the quantile at
1 - t, lowered to the largest double below 1 where that rounds to 1.
"""

from __future__ import annotations

import math
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
        if self.loading < 0:
            raise InvalidParameter("Gini loading must be >= 0")

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
_NODE_BUDGET = 2 ** 20
_BELOW_ONE = math.nextafter(1.0, 0.0)


def _check_rel_tol(rel_tol: float) -> None:
    if not 1e-14 <= rel_tol <= 1e-2:
        raise InvalidParameter(f"rel_tol must lie in [1e-14, 1e-2], got {rel_tol}")


def _panel_nodes(offset: float, width: float, levels: int) -> tuple[np.ndarray, np.ndarray]:
    # Gauss-Legendre nodes, one row per panel, and the panels' half-widths,
    # on [offset, offset + width] graded geometrically toward offset: edges
    # offset + width*2^-k for k = levels..0, plus a closing panel from offset.
    edges = np.concatenate(([offset], offset + width * 2.0 ** -np.arange(levels, -1.0, -1)))
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo  # deep grading can underflow to zero-width panels
    lo, hi = lo[keep], hi[keep]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES[None, :]
    return nodes, half


def _panel_sums(
    values: np.ndarray, dist: np.ndarray, n: int, scale: float, half: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    # Per-panel Gauss-Legendre sums of k*Q and k*|Q| under the ES_n kernel
    # k = n*(s - p)^(n-1)/(1 - p)^n, for nodes at distance dist = s - p from
    # p and scale = (1 - p)^n.
    weight = n * dist ** (n - 1) / scale
    return (weight * values) @ _GL_WEIGHTS * half, (weight * np.abs(values)) @ _GL_WEIGHTS * half


# Overflow to inf in a node array is not an error here: a non-finite total
# ends in QuadratureNonConvergence.
@np.errstate(over="ignore")
def _integrate(
    quantile_fn: Callable[[np.ndarray], np.ndarray],
    tail_quantile_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    p: float,
    levels: int,
) -> tuple[float, float, float, int]:
    # The integral over (p, 1) is split at the midpoint.  The lower half is
    # handled in the level variable s with geometric grading toward p.  The
    # upper half is handled in the tail variable t = 1 - s with grading
    # toward t = 0: doubles are dense near 0 but not near 1, and heavy
    # tails need panels far below the float spacing at 1.  Each half's
    # nodes go to its callable as one array.
    mid = 0.5 * (p + 1.0)
    scale = (1.0 - p) ** n

    s_nodes, s_half = _panel_nodes(p, mid - p, levels)
    np.clip(s_nodes, np.nextafter(p, 1.0), None, out=s_nodes)
    s_sum, s_abs = _panel_sums(quantile_fn(s_nodes), s_nodes - p, n, scale, s_half)
    t_nodes, t_half = _panel_nodes(0.0, 1.0 - mid, levels)
    t_sum, t_abs = _panel_sums(
        tail_quantile_fn(t_nodes), (1.0 - p) - t_nodes, n, scale, t_half
    )

    total = float(s_sum.sum() + t_sum.sum())
    abs_total = float(s_abs.sum() + t_abs.sum())
    # Largest end-panel share flags slow (or no) endpoint convergence.
    edge_share = max(float(s_abs[0]), float(t_abs[0]))
    return total, abs_total, edge_share, s_nodes.size + t_nodes.size


def _per_node(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    # Adapts a scalar quantile callable to the node arrays of _integrate.
    return lambda x: np.array([fn(float(v)) for v in x.flat]).reshape(x.shape)


def _quadrature(
    quantile_fn: Callable[[np.ndarray], np.ndarray],
    tail_quantile_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    p: float,
    rel_tol: float,
) -> EsResult:
    _check_order(n)
    _check_tail_level(p)
    _check_rel_tol(rel_tol)

    edge_tol = math.sqrt(rel_tol)
    levels, prev, used = 16, None, 0
    while True:
        try:
            cur, cur_abs, edge_share, spent = _integrate(
                quantile_fn, tail_quantile_fn, n, p, levels
            )
        except OverflowError:
            raise QuadratureNonConvergence(
                "quantile overflow near an endpoint; the quantile function "
                "may lack a finite first moment on (p, 1)"
            ) from None
        used += spent
        if prev is not None:
            err = abs(cur - prev)
            scale = max(abs(cur), cur_abs, 1e-300)
            # The end-panel check rejects false agreement between
            # refinements when mass keeps piling up at an endpoint
            # (divergent integrand).
            converged = err <= rel_tol * scale and edge_share <= edge_tol * scale
            if math.isfinite(cur) and converged:
                return EsResult(cur, EsMethod.QUADRATURE, err)
            if used > _NODE_BUDGET or not math.isfinite(cur):
                raise QuadratureNonConvergence(
                    "node budget exhausted; the quantile function may lack a "
                    "finite first moment on (p, 1)"
                )
        prev, levels = cur, 2 * levels


def es_n_quadrature(
    quantile_fn: Callable[[float], float],
    n: int,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
    tail_quantile_fn: Callable[[float], float] | None = None,
) -> EsResult:
    """Numeric n-th-order Expected Shortfall of an arbitrary quantile
    function, by panel-graded Gauss-Legendre integration over (p, 1).

    The panel count doubles until two successive refinements agree within
    ``rel_tol`` (relative to the larger of the integral and its absolute
    counterpart).  A budget of 2^20 nodes guards against quantiles without
    a finite first moment.

    ``quantile_fn`` takes one float level at a time.  ``tail_quantile_fn(t)``,
    when supplied, evaluates the quantile at level 1 - t directly; heavy
    tails then resolve below the double-precision spacing at 1, which
    ``quantile_fn(1 - t)`` cannot reach.  Without it the upper half of the
    integral calls ``quantile_fn(1 - t)``, with levels that round to 1
    lowered to the largest double below 1.
    """
    if tail_quantile_fn is None:
        def tail_quantile_fn(t: float) -> float:
            return quantile_fn(min(1.0 - t, _BELOW_ONE))

    return _quadrature(_per_node(quantile_fn), _per_node(tail_quantile_fn), n, p, rel_tol)


def es_n(
    dist: DistributionModel,
    n: int,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> EsResult:
    """n-th-order Expected Shortfall: closed form when available, otherwise
    quadrature over the family's quantile function, evaluated on whole node
    arrays."""
    try:
        return EsResult(es_n_closed(dist, n, p), EsMethod.CLOSED_FORM)
    except NoClosedForm:
        return _quadrature(
            lambda s: quantile(dist, s),
            lambda t: tail_quantile(dist, t),
            n,
            p,
            rel_tol,
        )


# ---------------------------------------------------------------------------
# tail-Gini and Gini Shortfall
# ---------------------------------------------------------------------------

def tail_gini(
    dist: DistributionModel, p: float, rel_tol: float = DEFAULT_REL_TOL
) -> float:
    """Tail-Gini dispersion at level p, computed as 2*(ES_2 - ES_1).

    Algebraically identical to the direct integral against the kernel
    2*(2s - 1 - p)/(1-p)^2, and exact by construction in the Gini Shortfall
    decomposition below.
    """
    es1 = es_n(dist, 1, p, rel_tol).value
    es2 = es_n(dist, 2, p, rel_tol).value
    return 2.0 * (es2 - es1)


def gini_shortfall(
    dist: DistributionModel,
    p: float,
    g: GiniParams,
    rel_tol: float = DEFAULT_REL_TOL,
) -> float:
    """Gini Shortfall: ES_1 + loading * tail_gini, evaluated through its
    decomposition (1 - 2*loading)*ES_1 + 2*loading*ES_2."""
    es1 = es_n(dist, 1, p, rel_tol).value
    es2 = es_n(dist, 2, p, rel_tol).value
    lam = g.loading
    return (1.0 - 2.0 * lam) * es1 + 2.0 * lam * es2
