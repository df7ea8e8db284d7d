"""n-th-order Expected Shortfall (closed forms and quadrature), tail-Gini
and Gini Shortfall.

The n-th-order Expected Shortfall at level p averages the quantile function
over (p, 1) under the kernel n*(s-p)^(n-1)/(1-p)^n, which integrates to one.
Order 1 is the usual Expected Shortfall.

Every family has ES_n in closed form at every order, as its ``es_closed``:
the normal through erfc (an integral at orders 3 and up, see
``distributions._normal_es``), and the others, each a generalized-Pareto
excess model, from one formula set on one kernel moment: the uniform, the
exponential, Pareto (tail > 1) and the generalized-Pareto types (shape < 1).
``es_n``, ``tail_gini`` and ``gini_shortfall`` take the closed forms, whose
``es_closed`` checks the order and the level; a tail without a first moment
raises NoClosedForm.

Quadrature serves quantile callables only (``es_n_quadrature``, and
``pelve_from_quantile`` in ``pelve_solver``).  It splits (p, 1) at a level
b >= p; expanding (s - p)^(n-1) binomially about b gives, for every p <= b,

    ES_n(p) (1-p)^n / n = integral over (p, b) of (s-p)^(n-1) Q(s) ds
                          + sum_{k<n} C(n-1, k) (b-p)^(n-1-k) M_k(b),

with the tail moments M_k(b) = integral over (b, 1) of (s-b)^k Q(s) ds.
Every coefficient is nonnegative, so the split adds no cancellation, and
one table of moments serves every level at or below b, each adding only
its head over (p, b): ``pelve_from_quantile`` builds one table at
b = 1 - eps per solve, ``es_n_quadrature`` one at b = max(p, 1/2).  Tail
and head go through one adaptive Gauss-Kronrod integrator, ``_integrate``.
The tail runs in t = 1 - s through the tail quantile t -> Q(1 - t), as
heavy tails need panels far below the float spacing at 1; so does the head
down to s = 1/2, below which it runs in s.  Without a tail callable the
quantile is called at 1 - t, lowered to the largest double below 1.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from .distributions import DistributionModel, _check_order, _check_tail_level
# No longer called here, but perfbench/tracing.py wraps these names.
from .distributions import quantile, tail_quantile  # noqa: F401
from .errors import InvalidParameter, QuadratureNonConvergence

__all__ = [
    "EsMethod",
    "EsResult",
    "GiniParams",
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


# ---------------------------------------------------------------------------
# quadrature
# ---------------------------------------------------------------------------

_NODE_BUDGET = 2 ** 20
_BELOW_ONE = math.nextafter(1.0, 0.0)
# Floor of an error estimate, as in QUADPACK: rounding in the quantile and
# in the sums, 50 machine epsilons of the absolute integral.
_ROUNDING = 50.0 * sys.float_info.epsilon
# Graded panels keep their nodes this far from their end: the smallest normal float.
_SMALLEST = sys.float_info.min
# First grading depths toward the tail's t = 0, where an unbounded quantile
# needs panels about as deep as rel_tol is small, and toward a head's level p.
_TAIL_DEPTH, _HEAD_DEPTH = 32, 12
# Lowest split level of a table: at or above it the tail's widest panel lies
# at least twice its width above level 0, where quantiles may be singular.
_LOWEST_SPLIT = 0.5
_NO_MOMENT = "; the quantile function may lack a finite first moment on (p, 1)"

# QUADPACK's qk15 rule (Piessens et al., 1983): the positive Kronrod nodes on
# [-1, 1], descending to 0, their weights, and the weights of the 7-point
# Gauss rule at _XK[1], _XK[3], _XK[5] and 0.
_XK = (0.991455371120812639206854697526329, 0.949107912342758524526189684047851,
       0.864864423359769072789712788640926, 0.741531185599394439863864773280788,
       0.586087235467691130294144838258730, 0.405845151377397166906606412076961,
       0.207784955007898467600689403773245, 0.000000000000000000000000000000000)
_WK = (0.022935322010529224963732008058970, 0.063092092629978553290700663189204,
       0.104790010322250183839876322541518, 0.140653259715525918745189590510238,
       0.169004726639267902826583426598550, 0.190350578064785409913256402421014,
       0.204432940075298892414161999234649, 0.209482141084727828012999174891714)
_WG = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
       0.381830050505118944950369775488975, 0.417959183673469387755102040816327)
# The 15 nodes ascending on [-1, 1] and their K15 and G7 weights; a panel's
# edges and nodes as fractions of its width from its lower edge.
_NODES = np.array(_XK[:7] + _XK[::-1]) * np.repeat([-1.0, 1.0], (7, 8))
_KRONROD = np.array(_WK + _WK[6::-1])
_GAUSS = np.zeros(15)
_GAUSS[1::2] = _WG + _WG[2::-1]
_POINTS = np.concatenate(([0.0], 0.5 * (1.0 + _NODES), [1.0]))


def _rules() -> np.ndarray:
    # Rules on the integrand at _POINTS, one per column, for a panel of
    # width 2: K15; the null rules c_12 .. c_14 (coefficients of the
    # polynomials orthonormal on the nodes under the K15 weights), scaled so
    # that |c_14| = |K15 - G7|; and at each edge the nodes' interpolant less
    # the integrand, times twice the distance to the outermost node.
    legendre = np.polynomial.legendre.legvander(_NODES, 14)
    root = np.sqrt(_KRONROD)
    null = root[:, None] * np.linalg.qr(root[:, None] * legendre)[0][:, 12:]
    null *= abs((_KRONROD - _GAUSS) @ null[:, 2]) / (null[:, 2] @ null[:, 2])
    ends = np.linalg.solve(legendre.T, np.polynomial.legendre.legvander([-1.0, 1.0], 14).T)
    rules = np.zeros((17, 6))
    rules[1:-1] = np.column_stack((_KRONROD, null, ends))
    rules[0, 4] = rules[-1, 5] = -1.0
    rules[:, 4:] *= 2.0 * _POINTS[1]
    return rules


_RULES = _rules()


def _kronrod(f: np.ndarray, width: np.ndarray) -> np.ndarray:
    """K15 sum, error estimate and K15 sum of |f| per panel of ``width`` and
    kernel column, from the integrand ``f`` at the panels' _POINTS.  The
    estimate is sqrt(c_12^2 + c_13^2 + c_14^2), as a kink or a jump can hide
    in a zero of |c_14| = |K15 - G7| alone, plus the edge terms."""
    flat = f.reshape(-1, 17)
    rules = flat @ _RULES
    out = np.empty((flat.shape[0], 3))
    out[:, 0] = rules[:, 0]
    np.abs(rules, out=rules)
    out[:, 1] = np.hypot(np.hypot(rules[:, 1], rules[:, 2]), rules[:, 3]) + rules[:, 4] + rules[:, 5]
    out[:, 2] = np.abs(flat[:, 1:-1]) @ _KRONROD
    return out.reshape(f.shape[:2] + (3,)) * (0.5 * width[:, None, None])


def _dyadic(a: float, c: float, depth: int) -> np.ndarray:
    # Edges of a closing panel from a and ``depth`` panels doubling up to c.
    return np.concatenate(([a], a + (c - a) * 2.0 ** -np.arange(depth, 0.0, -1), [c]))


@np.errstate(over="ignore", invalid="ignore", divide="ignore")  # a non-finite total raises below
def _integrate(fn: Callable, kernel_of: Callable, edges: np.ndarray, singular: bool,
               rel_tol: float, offset=0.0, offset_abs=0.0) -> np.ndarray:
    """The integral of kernel_of(x) * fn(x) over (edges[0], edges[-1]), its
    error estimate and its absolute counterpart, one row per kernel column.

    Each pass bisects the panels whose estimate exceeds an equal share of
    the tolerance, until the estimates sum to at most ``rel_tol`` of the
    larger of |total + offset| and its absolute counterpart plus
    ``offset_abs``.  With ``singular`` the edges halve toward edges[0], and
    past its share the first panel there doubles its depth, as far as its
    nodes stay apart from edges[0] by the smallest normal float.  Where
    edges[0] is 0 (level 0 or 1) the integrand is not evaluated there, and
    that panel's estimate adds its whole mass, the geometric sum
    m1^2/(m2 - m1) from the masses over one and two of its widths above it
    (exact for a power law, infinite where m2 <= m1)."""

    def evaluate(lo: np.ndarray, hi: np.ndarray, closing: bool) -> np.ndarray:
        points = lo[:, None] + (hi - lo)[:, None] * _POINTS
        points[:, 0], points[:, -1] = lo, hi
        if unseen := closing and a == 0.0:  # level 0 or 1, where Q may be infinite
            points[0, 0] = points[0, 1]
        try:
            q = fn(points)
        except OverflowError:
            raise QuadratureNonConvergence("quantile overflow near an endpoint" + _NO_MOMENT) from None
        if not np.isfinite(q).all():
            raise QuadratureNonConvergence("non-finite quantile value (nan or inf) in (p, 1)")
        rows = _kronrod(q[:, None] * kernel_of(points), hi - lo)
        if unseen:
            m1, m2 = rows[1, :, 2], rows[2, :, 2]
            rows[0, :, 1] += np.where(m1 > 0.0, np.where(m2 > m1, m1 * m1 / (m2 - m1), np.inf), 0.0)
        return rows

    a, depth, lo, hi = edges[0], edges.size - 2, edges[:-1], edges[1:]
    rows = evaluate(lo, hi, singular)  # with ``singular``, row 0 closes
    while True:
        sums = rows.sum(0)
        tol = rel_tol * np.maximum(np.abs(sums[:, 0] + offset), sums[:, 2] + offset_abs)
        if (sums[:, 1] <= tol).all():
            if not np.isfinite(sums[:, 0]).all():
                # Every quantile value was finite, so the sum itself overflowed.
                raise QuadratureNonConvergence("the integral left the float range")
            return sums
        split = (rows[..., 1] > tol / lo.size).any(1)
        block = np.empty(0)
        if singular and split[0]:
            split[0] = False
            deeper = a + (hi[0] - a) * 2.0 ** -np.arange(depth, 0, -1)
            deeper = deeper[(a + (deeper - a) * _POINTS[1]) - a >= _SMALLEST]
            if deeper.size >= 2:  # the new closing panel and the two above it
                depth += deeper.size
                block = np.concatenate(([a], deeper, hi[:1]))
        mid = 0.5 * (lo[split] + hi[split])
        new_lo = np.concatenate((block[:-1], lo[split], mid))
        new_hi = np.concatenate((block[1:], mid, hi[split]))
        if not new_lo.size or 17 * (lo.size + new_lo.size) > _NODE_BUDGET:
            raise QuadratureNonConvergence("node budget exhausted" + _NO_MOMENT)
        keep = ~split
        keep[0] &= not block.size
        new = evaluate(new_lo, new_hi, bool(block.size))
        lo, hi, rows = (
            np.concatenate((added, old[keep]) if block.size else (old[keep], added))
            for old, added in ((lo, new_lo), (hi, new_hi), (rows, new))
        )


class _TailTable:
    """The tail moments m_k = M_k(b)/(1 - b)^k = integral over (b, 1) of
    ((s - b)/(1 - b))^k Q(s) ds, k < ``orders``, of one quantile at one split
    level b, from which ES_n(p) follows for every n <= ``orders`` and p <= b.
    The table sits at max(b, _LOWEST_SPLIT) and lives as long as its owner.
    It integrates Q - Q(b): the kernel integrates to one, so that ES_n of a
    constant is exact and ES_n of Q + c is ES_n of Q plus c up to rounding.
    """

    def __init__(self, quantile_fn, tail_quantile_fn, orders: int, b: float, rel_tol: float):
        _check_order(orders)
        _check_tail_level(b)
        if not 1e-14 <= rel_tol <= 1e-2:
            raise InvalidParameter(f"rel_tol must lie in [1e-14, 1e-2], got {rel_tol}")
        self.rel_tol, self.b = rel_tol, max(b, _LOWEST_SPLIT)
        width = 1.0 - self.b
        try:
            self.shift = c = float(tail_quantile_fn(np.full((1, 1), width))[0, 0])
        except OverflowError:
            raise QuadratureNonConvergence("quantile overflow near an endpoint" + _NO_MOMENT) from None
        self.quantile_fn = lambda s: quantile_fn(s) - c
        self.tail_quantile_fn = lambda t: tail_quantile_fn(t) - c

        def moment_kernel(t: np.ndarray) -> np.ndarray:
            u = 1.0 - t / width  # (s - b)/(1 - b)
            return u[:, None] ** np.arange(orders)[:, None]

        of_c = c * width / np.arange(1.0, orders + 1)  # the moments of Q(b)
        # The moments, their error estimates and their absolute counterparts.
        self.columns = _integrate(self.tail_quantile_fn, moment_kernel, _dyadic(0.0, width, _TAIL_DEPTH),
                                  True, rel_tol, of_c, abs(of_c)).T

    def es(self, n: int, p: float) -> EsResult:
        """ES_n at level p <= b, through

            ES_n(p) (1 - p)/n = integral over (p, b) of v^(n-1) Q(s) ds
                                + sum_k C(n-1, k) r^(n-1-k) (1 - r)^k m_k,

        with v = (s - p)/(1 - p) and r = (b - p)/(1 - p), whose moment
        weights are nonnegative and sum to one.  The head runs in t over
        (1 - b, min(1 - p, 1/2)), on panels doubling outward from 1 - b, and
        in s, graded toward p, only below 1/2.  Each part converges relative
        to the whole ES; the estimates add up, floored for rounding."""
        b, scale = self.b, 1.0 - p
        r = (b - p) / scale
        weights = [math.comb(n - 1, k) * r ** (n - 1 - k) * (1.0 - r) ** k for k in range(n)]
        total, err, size = (self.columns[:, :n] @ weights).tolist()
        width, top = 1.0 - b, min(scale, 0.5)
        parts = []
        if top > width:  # edges doubling outward from 1 - b
            parts.append((self.tail_quantile_fn, lambda t: (scale - t) / scale, np.append(
                width * 2.0 ** np.arange(math.ceil(math.log2(top / width))), top), False))
        if p < 0.5:
            parts.append((lambda s: self.quantile_fn(np.maximum(s, np.nextafter(p, 1.0))),
                          lambda s: (s - p) / scale, _dyadic(p, 0.5, _HEAD_DEPTH), True))
        shift = self.shift * scale / n  # the same integral of Q(b)
        for fn, v, edges, singular in parts:
            head = _integrate(fn, lambda x: (v(x) ** (n - 1))[:, None], edges, singular,
                              self.rel_tol, shift + total, abs(shift) + size)
            total, err, size = (x + y for x, y in zip((total, err, size), head[0].tolist()))
        err = max(err, _ROUNDING * (abs(shift) + size), _SMALLEST)
        return EsResult(self.shift + n * total / scale, EsMethod.QUADRATURE, n * err / scale)


def _node_callables(quantile_fn: Callable, tail_quantile_fn: Callable | None) -> tuple:
    # The array callables of a table over scalar quantile callables; without
    # a tail callable the tail calls quantile_fn(1 - t), lowered to the
    # largest double below 1 where that rounds to 1.
    if tail_quantile_fn is None:
        def tail_quantile_fn(t: float) -> float:
            return quantile_fn(min(1.0 - t, _BELOW_ONE))

    return tuple(
        lambda x, fn=fn: np.array([fn(float(v)) for v in x.flat]).reshape(x.shape)
        for fn in (quantile_fn, tail_quantile_fn)
    )


def es_n_quadrature(
    quantile_fn: Callable[[float], float],
    n: int,
    p: float,
    rel_tol: float = DEFAULT_REL_TOL,
    tail_quantile_fn: Callable[[float], float] | None = None,
) -> EsResult:
    """Numeric n-th-order Expected Shortfall of an arbitrary quantile
    function, by adaptive Gauss-Kronrod integration over (p, 1): one tail
    table at p, as in the module docstring, with no head at p >= 1/2.

    Each part bisects its panels until their error estimates sum to at most
    ``rel_tol`` of the larger of the whole ES integral and its absolute
    counterpart, with ``rel_tol`` in [1e-14, 1e-2]; ``est_abs_error`` is the
    sum of the parts' estimates, at least 50 machine epsilons of the
    absolute integral.  A quantile that is not finite at a node, or whose
    tail mass does not fall off geometrically toward 1 within a budget of
    2^20 nodes and the normal floats, raises QuadratureNonConvergence: it
    may lack a finite first moment.

    ``quantile_fn`` takes one float level at a time.  ``tail_quantile_fn(t)``,
    when supplied, evaluates the quantile at level 1 - t directly; heavy
    tails then resolve below the double-precision spacing at 1, which
    ``quantile_fn(1 - t)`` cannot reach.  Without it the tail calls
    ``quantile_fn(1 - t)``, with levels that round to 1 lowered to the
    largest double below 1.
    """
    return _TailTable(*_node_callables(quantile_fn, tail_quantile_fn), n, p, rel_tol).es(n, p)


def es_n(dist: DistributionModel, n: int, p: float) -> EsResult:
    """n-th-order Expected Shortfall of a family, by its closed form; raises
    NoClosedForm where the tail has no first moment."""
    return EsResult(dist.es_closed(n, p), EsMethod.CLOSED_FORM)


# ---------------------------------------------------------------------------
# tail-Gini and Gini Shortfall
# ---------------------------------------------------------------------------

def tail_gini(dist: DistributionModel, p: float) -> float:
    """Tail-Gini dispersion at level p, computed as 2*(ES_2 - ES_1).

    Algebraically identical to the direct integral against the kernel
    2*(2s - 1 - p)/(1-p)^2, and exact by construction in the Gini Shortfall
    decomposition below.
    """
    return 2.0 * (dist.es_closed(2, p) - dist.es_closed(1, p))


def gini_shortfall(dist: DistributionModel, p: float, g: GiniParams) -> float:
    """Gini Shortfall: ES_1 + loading * tail_gini, evaluated through its
    decomposition (1 - 2*loading)*ES_1 + 2*loading*ES_2."""
    es1, es2 = dist.es_closed(1, p), dist.es_closed(2, p)
    lam = g.loading
    return (1.0 - 2.0 * lam) * es1 + 2.0 * lam * es2
