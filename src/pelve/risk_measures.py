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
of heavy-tailed quantile functions.  ``es_n`` hands each half's nodes to
the family's quantile as one array; ``es_n_quadrature`` keeps a
one-float-at-a-time contract for arbitrary quantile callables.
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


def _check_rel_tol(rel_tol: float) -> None:
    if not 1e-14 <= rel_tol <= 1e-2:
        raise InvalidParameter(f"rel_tol must lie in [1e-14, 1e-2], got {rel_tol}")


def _panel_nodes(edges: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = edges[:-1], edges[1:]
    keep = hi > lo  # deep grading can underflow to zero-width panels
    lo, hi = lo[keep], hi[keep]
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES[None, :]
    return nodes, half


# Overflow to inf in a node array is not an error here: a non-finite total
# ends in QuadratureNonConvergence.
@np.errstate(over="ignore")
def _integrate(
    quantile_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    p: float,
    levels: int,
    tail_quantile_fn: Callable[[np.ndarray], np.ndarray] | None = None,
) -> tuple[float, float, float, int]:
    # The integral over (p, 1) is split at the midpoint.  The lower half is
    # handled in the level variable s with geometric grading toward p.  The
    # upper half is handled in the tail variable t = 1 - s with grading
    # toward t = 0: doubles are dense near 0 but not near 1, and heavy
    # tails need panels far below the float spacing at 1.  Each half's
    # nodes go to the quantile callable as one array.
    mid = 0.5 * (p + 1.0)
    scale = (1.0 - p) ** n

    s_edges = np.concatenate(([p], p + (mid - p) * 2.0 ** -np.arange(levels, -1.0, -1)))
    s_nodes, s_half = _panel_nodes(s_edges)
    np.clip(s_nodes, np.nextafter(p, 1.0), None, out=s_nodes)
    s_vals = quantile_fn(s_nodes)
    s_weight = n * (s_nodes - p) ** (n - 1) / scale
    s_contrib = (s_weight * s_vals) @ _GL_WEIGHTS * s_half
    s_abs = (s_weight * np.abs(s_vals)) @ _GL_WEIGHTS * s_half

    t_edges = np.concatenate(([0.0], (1.0 - mid) * 2.0 ** -np.arange(levels, -1.0, -1)))
    t_nodes, t_half = _panel_nodes(t_edges)
    if tail_quantile_fn is not None:
        t_vals = tail_quantile_fn(t_nodes)
    else:
        t_vals = quantile_fn(np.minimum(1.0 - t_nodes, np.nextafter(1.0, 0.0)))
    t_weight = n * ((1.0 - p) - t_nodes) ** (n - 1) / scale
    t_contrib = (t_weight * t_vals) @ _GL_WEIGHTS * t_half
    t_abs = (t_weight * np.abs(t_vals)) @ _GL_WEIGHTS * t_half

    total = float(s_contrib.sum() + t_contrib.sum())
    abs_total = float(s_abs.sum() + t_abs.sum())
    # Largest end-panel share flags slow (or no) endpoint convergence.
    edge_share = max(float(s_abs[0]), float(t_abs[0]))
    return total, abs_total, edge_share, s_nodes.size + t_nodes.size


def _per_node(fn: Callable[[float], float]) -> Callable[[np.ndarray], np.ndarray]:
    # Adapts a scalar quantile callable to the node arrays of _integrate.
    return lambda x: np.array([fn(float(v)) for v in x.flat]).reshape(x.shape)


def _quadrature(
    quantile_fn: Callable[[np.ndarray], np.ndarray],
    n: int,
    p: float,
    rel_tol: float,
    tail_quantile_fn: Callable[[np.ndarray], np.ndarray] | None,
) -> EsResult:
    _check_order(n)
    _check_tail_level(p)
    _check_rel_tol(rel_tol)

    levels = 16
    prev, _, _, used = _integrate(quantile_fn, n, p, levels, tail_quantile_fn)
    edge_tol = math.sqrt(rel_tol)
    while True:
        levels *= 2
        try:
            cur, cur_abs, edge_share, spent = _integrate(
                quantile_fn, n, p, levels, tail_quantile_fn
            )
        except OverflowError:
            raise QuadratureNonConvergence(
                "quantile overflow near an endpoint; the quantile function "
                "may lack a finite first moment on (p, 1)"
            ) from None
        used += spent
        err = abs(cur - prev)
        scale = max(abs(cur), cur_abs, 1e-300)
        # The end-panel check rejects false agreement between refinements
        # when mass keeps piling up at an endpoint (divergent integrand).
        converged = err <= rel_tol * scale and edge_share <= edge_tol * scale
        if math.isfinite(cur) and converged:
            return EsResult(cur, EsMethod.QUADRATURE, err)
        if used > _NODE_BUDGET or not math.isfinite(cur):
            raise QuadratureNonConvergence(
                "node budget exhausted; the quantile function may lack a "
                "finite first moment on (p, 1)"
            )
        prev = cur


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
    ``quantile_fn(1 - t)`` cannot reach.
    """
    return _quadrature(
        _per_node(quantile_fn),
        n,
        p,
        rel_tol,
        None if tail_quantile_fn is None else _per_node(tail_quantile_fn),
    )


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
            n,
            p,
            rel_tol,
            lambda t: tail_quantile(dist, t),
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
