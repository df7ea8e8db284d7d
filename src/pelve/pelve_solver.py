"""Probability-equivalent level of VaR and n-th-order Expected Shortfall.

For a level eps in (0, 1), the equivalent multiplier is the smallest
c in [1, 1/eps] with ES_n(1 - c*eps) <= VaR(1 - eps); the result is
infinite when no such c exists, which happens exactly when
ES_n(0) > VaR(1 - eps).

The solver keeps a sign bracket: c -> ES_n(1 - c*eps) is continuous and
nonincreasing in c, and nothing stronger (differentiability in particular)
is guaranteed, so Newton-type schemes are out.  It is the ITP method
(interpolate, truncate, project; Oliveira & Takahashi, ACM TOMS 47(1),
2020), which needs only continuity too: each step tries the secant point of
the bracket, moved toward the midpoint, inside a window that shrinks with
the step count.  The bracket therefore never takes more than a fixed number
of steps beyond bisection's, and on smooth gaps it closes superlinearly.
Closed-form values and the small-level limit for regularly varying tails
are exposed alongside.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

from .distributions import DistributionModel, quantile
from .errors import AlphaOutOfRange, ExcessGPDLevelBelowBase, InvalidParameter, LevelOutOfRange
from .risk_measures import DEFAULT_REL_TOL, _node_callables, _TailTable, es_n

__all__ = [
    "PelveResult",
    "DEFAULT_C_TOL",
    "pelve_exists",
    "pelve",
    "pelve_from_quantile",
    "pelve_closed",
    "pelve2_rv_limit",
]

DEFAULT_C_TOL = 1e-9


@dataclass(frozen=True)
class PelveResult:
    """Outcome of an equivalent-level computation.

    ``value`` is the finite multiplier c in [1, 1/eps], or None when the
    defining set is empty.  ``residual`` is |ES_n(1 - c*eps) - VaR(1 - eps)|
    at the returned c (zero for closed forms and for the infinite outcome).
    ``iterations`` counts bracketing steps: ITP steps over [1, c_max] for
    the analytic solve; for the empirical solve, the bisection steps inside
    the root's cell between two integers of c*eps*m, which is 0 for orders
    n <= 2 (closed form).
    """

    value: Optional[float]
    iterations: int = 0
    residual: float = 0.0

    @property
    def is_finite(self) -> bool:
        return self.value is not None

    @staticmethod
    def finite(c: float, iterations: int = 0, residual: float = 0.0) -> "PelveResult":
        return PelveResult(c, iterations, residual)

    @staticmethod
    def infinite() -> "PelveResult":
        return PelveResult(None)


def _check_eps(eps: float) -> None:
    if not 0.0 < eps < 1.0:
        raise LevelOutOfRange(f"epsilon must lie in (0, 1), got {eps}")


def _check_level_eps(eps: float) -> None:
    # The check of every caller that forms the level 1 - eps.
    _check_eps(eps)
    if 1.0 - eps == 1.0:
        raise LevelOutOfRange(f"epsilon {eps} is too small: 1 - epsilon rounds to 1")


def _check_var_level(dist: DistributionModel, eps: float) -> None:
    # The check of every analytic caller that takes VaR at 1 - eps, which
    # must lie above the lowest level the model describes.
    if not 1.0 - eps > dist.level_floor:
        raise ExcessGPDLevelBelowBase(
            f"epsilon {eps} is too large: 1 - epsilon must exceed "
            f"base_cdf_at_u={dist.level_floor}"
        )


def _check_c_tol(c_tol: float) -> None:
    if not 1e-12 <= c_tol <= 1e-3:
        raise InvalidParameter(f"c_tol must lie in [1e-12, 1e-3], got {c_tol}")


def pelve_exists(dist: DistributionModel, n: int, eps: float) -> bool:
    """Finiteness check: ES_n(0) <= VaR(1 - eps).

    Equivalent to the multiplier being finite, because ES_n(0) is the
    infimum of c -> ES_n(1 - c*eps) over [1, 1/eps].  For an
    excess-over-threshold model the infimum is taken at the base CDF value,
    below which the model says nothing.
    """
    _check_level_eps(eps)
    _check_var_level(dist, eps)
    return es_n(dist, n, dist.level_floor).value <= quantile(dist, 1.0 - eps)


# ITP constants.  The secant point moves toward the midpoint by
# max(_ITP_K1 * (hi - lo)**2 / (c_max - 1), width_goal / 4): the second term
# keeps the move above rounding once the bracket is small, so that a secant
# point within a quarter of the goal of the root sends the next step across
# it.  The window allows _ITP_SPARE steps beyond bisection's count, and
# aims _ITP_MARGIN below its exact width: a bracket kept at exactly the
# window's width would leave rounding in the midpoint no room, and the last
# step could end a few ulps above the goal.
_ITP_K1 = 0.2
_ITP_SPARE = 3
_ITP_MARGIN = 1.0 / 16.0


def _solve(
    gap: Callable[[float], float],
    eps: float,
    c_tol: float,
    p_floor: float = 0.0,
) -> PelveResult:
    """Existence check plus an ITP bracketing solve of g(c) = gap(1 - c*eps)
    over [1, c_max], c_max = (1 - p_floor)/eps, where
    gap(p) = ES_n(p) - VaR(1 - eps).

    The multiplier is infinite when gap(p_floor) > 0.  Otherwise that same
    evaluation is g at c_max, so [1, c_max] brackets the root.  A step with
    g > 0 moves ``lo`` and any other moves ``hi``, so the bracket always
    holds the smallest root, also where g = 0 on a whole interval.  Each
    step interpolates between the bracket ends, whose values are scaled
    down the Anderson-Bjorck way while the same end stays put, truncates
    toward the midpoint, and projects into a window around it that shrinks
    with the step count.  The solve stops once hi - lo <= c_tol*(c_max - 1),
    which the window guarantees after ceil(log2(1/c_tol)) + _ITP_SPARE
    steps, or once no double lies strictly between lo and hi, where that
    goal is below the float spacing; it returns the secant point of the
    last bracket.
    """
    # Gaps are taken as Python floats, whose arithmetic overflows to inf
    # without a numpy warning.
    g_hi = float(gap(p_floor))
    if g_hi > 0.0:
        return PelveResult.infinite()
    g_lo = float(gap(1.0 - eps))
    if g_lo <= 0.0:
        # Infimum attained at the left endpoint; the equation form need not
        # hold there, so the residual is reported as-is.
        return PelveResult.finite(1.0, iterations=0, residual=abs(g_lo))

    c_max = (1.0 - p_floor) / eps

    def g(c: float) -> float:
        # 1 - c*eps can round a hair below the floor near c = c_max; clamp it.
        return float(gap(max(1.0 - c * eps, p_floor)))

    lo, hi = 1.0, c_max
    width_goal = c_tol * (c_max - 1.0)
    steps = math.ceil(math.log2((c_max - 1.0) / width_goal)) + _ITP_SPARE
    window = width_goal * (1.0 - _ITP_MARGIN)
    kappa1 = _ITP_K1 / (c_max - 1.0)
    # Interpolation weights: g_lo and -g_hi, scaled while their end stays.
    w_lo, w_hi = g_lo, -g_hi
    moved = 0  # +1 when the last step moved lo, -1 when it moved hi
    iterations = 0
    while hi - lo > width_goal and math.nextafter(lo, hi) < hi:
        mid = 0.5 * (lo + hi)
        x = _secant(lo, hi, w_lo, w_hi)
        delta = max(kappa1 * (hi - lo) ** 2, 0.25 * width_goal)
        x = x + math.copysign(delta, mid - x) if delta <= abs(mid - x) else mid
        # Project: step k (from 0) leaves a bracket at most
        # window * 2**(steps - 1 - k) wide.
        r = max(math.ldexp(window, steps - 1 - iterations) - 0.5 * (hi - lo), 0.0)
        x = min(max(x, mid - r), mid + r)
        iterations += 1
        y = g(x)
        if y > 0.0:
            if moved > 0:
                w_hi *= _shrink(y, g_lo)
            lo, g_lo, w_lo, moved = x, y, y, 1
        else:
            if moved < 0:
                w_lo *= _shrink(y, g_hi)
            hi, g_hi, w_hi, moved = x, y, -y, -1
    c = min(max(_secant(lo, hi, g_lo, -g_hi), lo), hi)
    return PelveResult.finite(c, iterations, abs(g(c)))


def _secant(lo: float, hi: float, a: float, b: float) -> float:
    # lo + (hi - lo) * a/(a + b) for weights a, b >= 0: the zero of the chord
    # through (lo, a) and (hi, -b).  The fraction is formed from ratios no
    # larger than 1, so weights near the float limits cannot overflow it.
    if a >= b:
        t = 1.0 / (1.0 + b / a) if a > 0.0 else 0.5
    else:
        t = a / b / (1.0 + a / b)
    return lo + (hi - lo) * t


def _shrink(y: float, g_end: float) -> float:
    # Anderson-Bjorck factor for the weight of an end that stayed twice: the
    # ratio by which the moving end's gap fell, or one half when it did not.
    m = 1.0 - y / g_end if g_end != 0.0 else 0.0
    return m if m > 0.0 else 0.5


def pelve(
    dist: DistributionModel,
    n: int,
    eps: float,
    c_tol: float = DEFAULT_C_TOL,
) -> PelveResult:
    """Equivalent-level multiplier of ``dist`` at level ``eps`` and order
    ``n``, by existence check plus a bracketing (ITP) solve to within
    ``c_tol * (c_max - 1)`` of the root, c_max = (1 - level floor)/eps.
    Every ES_n evaluation is the family's closed form."""
    _check_level_eps(eps)
    _check_var_level(dist, eps)
    _check_c_tol(c_tol)
    var_level = quantile(dist, 1.0 - eps)
    return _solve(lambda p: es_n(dist, n, p).value - var_level, eps, c_tol, p_floor=dist.level_floor)


def pelve_from_quantile(
    quantile_fn: Callable[[float], float],
    n: int,
    eps: float,
    c_tol: float = DEFAULT_C_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    tail_quantile_fn: Callable[[float], float] | None = None,
) -> PelveResult:
    """Same contract as :func:`pelve`, for an arbitrary quantile function;
    every Expected Shortfall evaluation goes through quadrature to within
    ``rel_tol``, all from one tail table at 1 - eps.  An optional
    ``tail_quantile_fn(t)`` = quantile at 1 - t sharpens heavy tails (see
    :func:`es_n_quadrature`)."""
    _check_level_eps(eps)
    _check_c_tol(c_tol)
    var_level = quantile_fn(1.0 - eps)
    table = _TailTable(*_node_callables(quantile_fn, tail_quantile_fn), n, 1.0 - eps, rel_tol)
    return _solve(lambda p: table.es(n, p).value - var_level, eps, c_tol)


def pelve_closed(dist: DistributionModel, n: int, eps: float) -> PelveResult:
    """Closed-form multiplier where the family admits one: every order of
    the uniform, the exponential, Pareto (tail > 1) and the
    generalized-Pareto types (shape < 1), all generalized-Pareto excess
    models with one formula, S_n^(1/shape) for the kernel moment S_n (its
    limit exp(H_n) at shape 0); none for the normal.  Below the family
    threshold the value is a constant independent of eps; above it the
    result is infinite.  The family's ``closed_multiplier`` checks the
    order."""
    _check_eps(eps)
    _check_var_level(dist, eps)
    value, threshold = dist.closed_multiplier(n)
    if eps <= threshold:
        return PelveResult.finite(value)
    return PelveResult.infinite()


def pelve2_rv_limit(alpha: float) -> float:
    """Small-level limit of the order-2 multiplier for a nonnegative random
    variable with a regularly varying tail of index alpha > 1:
    (2*alpha^2 / ((alpha-1)*(2*alpha-1)))^alpha, the PELVE_2 of
    Pareto(., alpha).  With r = 1/alpha the base is 1 + x, x =
    (3 - r)/((2 - r)(alpha - 1)), and the limit is exp(alpha * log1p(x)):
    alpha - 1, exact next to 1, is its one difference (1 - r would lose its
    digits as alpha -> 1+), and nothing overflows below the float limit.

    Strictly decreasing in alpha with infimum e^(3/2); alpha must be finite.
    """
    if not alpha > 1.0:
        raise AlphaOutOfRange(f"tail index must exceed 1, got {alpha}")
    if alpha == math.inf:
        raise AlphaOutOfRange(f"tail index must be finite, got {alpha}")
    r = 1.0 / alpha
    return math.exp(alpha * math.log1p((3.0 - r) / (2.0 - r) / (alpha - 1.0)))

