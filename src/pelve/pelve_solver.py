"""Probability-equivalent level of VaR and n-th-order Expected Shortfall.

For a level eps in (0, 1), the equivalent multiplier is the smallest
c in [1, 1/eps] with ES_n(1 - c*eps) <= VaR(1 - eps); the result is
infinite when no such c exists, which happens exactly when
ES_n(0) > VaR(1 - eps).

The solver is plain bisection: c -> ES_n(1 - c*eps) is continuous and
nonincreasing in c, and nothing stronger (differentiability in particular)
is guaranteed, so Newton-type schemes are out.  Closed-form values and the
small-level limit for regularly varying tails are exposed alongside.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .distributions import DistributionModel, quantile
from .errors import AlphaOutOfRange, InvalidParameter, KappaOutOfRange, LevelOutOfRange
from .risk_measures import (
    _GL_NODES,
    _GL_WEIGHTS,
    DEFAULT_REL_TOL,
    es_n,
    es_n_quadrature,
)

__all__ = [
    "PelveResult",
    "DEFAULT_C_TOL",
    "pelve_exists",
    "pelve",
    "pelve_from_quantile",
    "pelve_closed",
    "pelve2_rv_limit",
    "karamata_ratio",
]

DEFAULT_C_TOL = 1e-9


@dataclass(frozen=True)
class PelveResult:
    """Outcome of an equivalent-level computation.

    ``value`` is the finite multiplier c in [1, 1/eps], or None when the
    defining set is empty.  ``residual`` is |ES_n(1 - c*eps) - VaR(1 - eps)|
    at the returned c (zero for closed forms and for the infinite outcome).
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


def _check_c_tol(c_tol: float) -> None:
    if not 1e-12 <= c_tol <= 1e-3:
        raise InvalidParameter(f"c_tol must lie in [1e-12, 1e-3], got {c_tol}")


def pelve_exists(
    dist: DistributionModel,
    n: int,
    eps: float,
    rel_tol: float = DEFAULT_REL_TOL,
) -> bool:
    """Finiteness check: ES_n(0) <= VaR(1 - eps).

    Equivalent to the multiplier being finite, because ES_n(0) is the
    infimum of c -> ES_n(1 - c*eps) over [1, 1/eps].  For an
    excess-over-threshold model the infimum is taken at the base CDF value,
    below which the model says nothing.
    """
    _check_eps(eps)
    return es_n(dist, n, dist.level_floor, rel_tol).value <= quantile(dist, 1.0 - eps)


def _solve(
    gap: Callable[[float], float],
    eps: float,
    c_tol: float,
    p_floor: float = 0.0,
) -> PelveResult:
    """Existence check plus bisection on g(c) = gap(1 - c*eps) over
    [1, (1 - p_floor)/eps], where gap(p) = ES_n(p) - VaR(1 - eps).

    The multiplier is infinite when gap(p_floor) > 0.  Otherwise that same
    evaluation is g at the right endpoint, so [1, c_max] brackets the root.
    """
    if gap(p_floor) > 0.0:
        return PelveResult.infinite()
    g1 = gap(1.0 - eps)
    if g1 <= 0.0:
        # Infimum attained at the left endpoint; the equation form need not
        # hold there, so the residual is reported as-is.
        return PelveResult.finite(1.0, iterations=0, residual=abs(g1))

    c_max = (1.0 - p_floor) / eps

    def g(c: float) -> float:
        # 1 - c*eps can round a hair below the floor near c = c_max; clamp it.
        return gap(max(1.0 - c * eps, p_floor))

    lo, hi = 1.0, c_max
    width_goal = c_tol * (c_max - 1.0)
    iterations = 0
    while hi - lo > width_goal:
        mid = 0.5 * (lo + hi)
        iterations += 1
        if g(mid) > 0.0:
            lo = mid
        else:
            hi = mid
    c = 0.5 * (lo + hi)
    return PelveResult.finite(c, iterations, abs(g(c)))


def pelve(
    dist: DistributionModel,
    n: int,
    eps: float,
    c_tol: float = DEFAULT_C_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
) -> PelveResult:
    """Equivalent-level multiplier of ``dist`` at level ``eps`` and order
    ``n``, by existence check plus bisection."""
    _check_eps(eps)
    _check_c_tol(c_tol)
    var_level = quantile(dist, 1.0 - eps)
    return _solve(
        lambda p: es_n(dist, n, p, rel_tol).value - var_level,
        eps,
        c_tol,
        p_floor=dist.level_floor,
    )


def pelve_from_quantile(
    quantile_fn: Callable[[float], float],
    n: int,
    eps: float,
    c_tol: float = DEFAULT_C_TOL,
    rel_tol: float = DEFAULT_REL_TOL,
    tail_quantile_fn: Callable[[float], float] = None,
) -> PelveResult:
    """Same contract as :func:`pelve`, for an arbitrary quantile function;
    every Expected Shortfall evaluation goes through quadrature.  An
    optional ``tail_quantile_fn(t)`` = quantile at 1 - t sharpens heavy
    tails (see :func:`es_n_quadrature`)."""
    _check_eps(eps)
    _check_c_tol(c_tol)
    var_level = quantile_fn(1.0 - eps)

    def gap(p: float) -> float:
        es = es_n_quadrature(quantile_fn, n, p, rel_tol, tail_quantile_fn).value
        return es - var_level

    return _solve(gap, eps, c_tol)


def pelve_closed(dist: DistributionModel, n: int, eps: float) -> PelveResult:
    """Closed-form multiplier where the family admits one: uniform,
    exponential and Pareto at every order; generalized-Pareto-type models
    at order 2.  Below the family threshold the value is a constant
    independent of eps; above it the result is infinite."""
    _check_eps(eps)
    value, threshold = dist.closed_multiplier(n)
    if eps <= threshold:
        return PelveResult.finite(value)
    return PelveResult.infinite()


def pelve2_rv_limit(alpha: float) -> float:
    """Small-level limit of the order-2 multiplier for a nonnegative random
    variable with a regularly varying tail of index alpha > 1:
    (2*alpha^2 / ((alpha-1)*(2*alpha-1)))^alpha.

    Strictly decreasing in alpha with infimum e^(3/2).
    """
    if not alpha > 1.0:
        raise AlphaOutOfRange(f"tail index must exceed 1, got {alpha}")
    return (2.0 * alpha * alpha / ((alpha - 1.0) * (2.0 * alpha - 1.0))) ** alpha


def _power_integral(kappa: float, eps: float, levels: int) -> float:
    # integral(0..eps) v^kappa dv on panels [eps*2^-(j+1), eps*2^-j] plus a
    # closing panel [0, eps*2^-levels].  Grading toward 0 works arbitrarily
    # deep because doubles stay dense near 0, unlike near 1.
    hi = eps * 2.0 ** -np.arange(levels + 1)
    lo = np.concatenate((hi[1:], [0.0]))
    half = 0.5 * (hi - lo)
    nodes = (0.5 * (hi + lo))[:, None] + half[:, None] * _GL_NODES[None, :]
    return float(((nodes ** kappa) @ _GL_WEIGHTS * half).sum())


def karamata_ratio(
    kappa_rv: float, eps: float, rel_tol: float = DEFAULT_REL_TOL
) -> float:
    """Numeric ratio integral(0..eps) v^kappa dv / (eps * eps^kappa) for the
    power kernel, which equals 1/(kappa + 1) for every eps.

    Serves as a numeric verification of the small-level limit that drives
    the regularly-varying asymptotics; the kernel has an integrable
    singularity at 0 for kappa < 0, resolved by geometric panel grading
    toward the origin.
    """
    if not kappa_rv > -1.0:
        raise KappaOutOfRange(f"index must exceed -1, got {kappa_rv}")
    _check_eps(eps)
    levels = 64
    prev = _power_integral(kappa_rv, eps, levels)
    while levels <= 1024:
        levels *= 2
        cur = _power_integral(kappa_rv, eps, levels)
        if abs(cur - prev) <= rel_tol * abs(cur):
            return cur / eps ** (kappa_rv + 1.0)
        prev = cur
    raise KappaOutOfRange(
        f"power integral did not converge for index {kappa_rv}"
    )
