"""Analytic distribution families: exact CDFs, quantile (VaR) functions,
closed-form n-th-order Expected Shortfall and equivalent-level multipliers,
and inverse-transform sampling.

Families
--------
Uniform(a, b), Exponential(rate), Normal(mean, stddev), Pareto(scale, tail),
GeneralizedPareto(shape, scale) and ExcessGPD -- a random variable whose
excess distribution over a threshold ``u`` is generalized Pareto, described
by the scalar base CDF value at ``u`` only.  GeneralizedPareto is the
u = 0, F(u) = 0 case of ExcessGPD and runs the same formulas; only its CDF
is its own.

Each family class is the one home of its formulas.  ``quantile(p)`` and
``tail_quantile(t)`` (the quantile at 1 - t) map a float to a Python float
and a numpy array to an array of the same shape.  ``es_closed(n, p)`` and
``closed_multiplier(n)`` give ES_n and PELVE_n in closed form, or raise
NoClosedForm.  ``level_floor`` is the lowest level the model describes:
base_cdf_at_u for ExcessGPD, 0 elsewhere.

All quantiles are closed-form.  The normal quantile uses the Cephes inverse
normal CDF (``scipy.special.ndtri``, absolute error below 1e-15); the normal
CDF uses the error-function route (``scipy.special.ndtr``).

Sampling is inverse-transform with a fixed, named 64-bit generator (PCG64),
so results are bit-reproducible for a given seed.  Seed 0 is legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import (
    ExcessGPDBelowThreshold,
    ExcessGPDLevelBelowBase,
    InvalidParameter,
    LevelOutOfRange,
    NoClosedForm,
    OrderOutOfRange,
    QuantileOverflow,
)

__all__ = [
    "Uniform",
    "Exponential",
    "Normal",
    "Pareto",
    "GeneralizedPareto",
    "ExcessGPD",
    "DistributionModel",
    "cdf",
    "quantile",
    "tail_quantile",
    "sample",
]


def _check_order(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and n >= 1):
        raise OrderOutOfRange(f"order must be a positive integer, got {n!r}")


def harmonic_number(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n by direct summation."""
    _check_order(n)
    return sum(1.0 / k for k in range(1, n + 1))


# Floats go through plain comparisons and ``math``: numpy on one float costs
# several times the formula itself, and its vectorised log may differ from
# libm by an ulp.  Arrays go through numpy.

def _holds(cond) -> bool:
    return bool(cond.all()) if isinstance(cond, np.ndarray) else cond


def _log(x):
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def _log1p(x):
    return np.log1p(x) if isinstance(x, np.ndarray) else math.log1p(x)


def _ndtri(x):
    z = ndtri(x)
    return z if isinstance(x, np.ndarray) else float(z)


def _in_unit(x, what: str):
    # VaR at p=0 would be -inf by convention; we reject it instead.
    if not isinstance(x, np.ndarray):
        x = float(x)
    if not _holds((x > 0.0) & (x < 1.0)):
        raise LevelOutOfRange(f"{what} must lie in (0, 1), got {x}")
    return x


class _Family:
    """Checked entry points over each family's unchecked ``_quantile`` and
    ``_tail_quantile`` formulas."""

    level_floor = 0.0

    def quantile(self, p):
        """Value at Risk at level ``p`` in (level_floor, 1): the lower
        quantile inf{x : F(x) >= p}, by the family's closed form."""
        p = _in_unit(p, "level")
        if not _holds(p > self.level_floor):
            raise ExcessGPDLevelBelowBase(
                f"quantile requires p > base_cdf_at_u={self.level_floor}, got p={p}"
            )
        try:
            return self._quantile(p)
        except OverflowError:  # raised by float **; arrays overflow to inf
            raise QuantileOverflow(
                f"quantile of {self!r} at level {p} exceeds the float range"
            ) from None

    def tail_quantile(self, t):
        """The quantile at level 1 - t, computed from the tail probability
        ``t`` directly, so it stays accurate for t far below the float
        spacing at 1 (which matters when integrating heavy tails)."""
        t = _in_unit(t, "tail probability")
        if not _holds(t < 1.0 - self.level_floor):
            raise ExcessGPDLevelBelowBase(
                f"tail probability must be below 1 - base_cdf_at_u = {1.0 - self.level_floor}"
            )
        try:
            return self._tail_quantile(t)
        except OverflowError:
            raise QuantileOverflow(
                f"quantile of {self!r} at tail probability {t} exceeds the float range"
            ) from None

    def closed_multiplier(self, n: int) -> tuple[float, float]:
        """(PELVE_n, largest eps it holds for) in closed form; above that
        eps the multiplier is infinite."""
        raise NoClosedForm(f"no closed multiplier for {self!r}")


@dataclass(frozen=True)
class Uniform(_Family):
    lower: float
    upper: float

    def __post_init__(self):
        if not self.lower < self.upper:
            raise InvalidParameter("Uniform requires lower < upper")

    def cdf(self, x: float) -> float:
        if x <= self.lower:
            return 0.0
        if x >= self.upper:
            return 1.0
        return (x - self.lower) / (self.upper - self.lower)

    def _quantile(self, p):
        return self.lower + (self.upper - self.lower) * p

    def _tail_quantile(self, t):
        return self.upper - (self.upper - self.lower) * t

    def es_closed(self, n: int, p: float) -> float:
        """Closed-form ES_n at level p in [0, 1)."""
        unit = p / (n + 1.0) + n / (n + 1.0)
        return self.lower + (self.upper - self.lower) * unit

    def closed_multiplier(self, n: int) -> tuple[float, float]:
        return float(n + 1), 1.0 / (n + 1)


@dataclass(frozen=True)
class Exponential(_Family):
    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise InvalidParameter("Exponential requires rate > 0")

    def cdf(self, x: float) -> float:
        if x < 0:
            return 0.0
        return -math.expm1(-self.rate * x)

    def _quantile(self, p):
        return -_log1p(-p) / self.rate

    def _tail_quantile(self, t):
        return -_log(t) / self.rate

    def es_closed(self, n: int, p: float) -> float:
        """Closed-form ES_n at level p in [0, 1)."""
        return (harmonic_number(n) - math.log1p(-p)) / self.rate

    def closed_multiplier(self, n: int) -> tuple[float, float]:
        h = harmonic_number(n)
        return math.exp(h), math.exp(-h)


@dataclass(frozen=True)
class Normal(_Family):
    mean: float
    stddev: float

    def __post_init__(self):
        if not self.stddev > 0:
            raise InvalidParameter("Normal requires stddev > 0")

    def cdf(self, x: float) -> float:
        return float(ndtr((x - self.mean) / self.stddev))

    def _quantile(self, p):
        return self.mean + self.stddev * _ndtri(p)

    def _tail_quantile(self, t):
        return self.mean - self.stddev * _ndtri(t)

    def es_closed(self, n: int, p: float) -> float:
        """Closed-form ES_n at level p in [0, 1), orders 1 and 2 only."""
        z = float(ndtri(p))  # -inf at p = 0; the formulas below absorb it
        if n == 1:
            phi_z = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) if math.isfinite(z) else 0.0
            return self.mean + self.stddev * phi_z / (1.0 - p)
        if n == 2:
            tail = 1.0 - float(ndtr(math.sqrt(2.0) * z)) if math.isfinite(z) else 1.0
            return self.mean + self.stddev * tail / (math.sqrt(math.pi) * (1.0 - p) ** 2)
        raise NoClosedForm(f"no closed normal form for order {n}")


@dataclass(frozen=True)
class Pareto(_Family):
    scale: float  # k, left endpoint of the support
    tail: float   # alpha; first moment needs tail > 1

    def __post_init__(self):
        if not (self.scale > 0 and self.tail > 0):
            raise InvalidParameter("Pareto requires scale > 0 and tail > 0")

    def cdf(self, x: float) -> float:
        if x < self.scale:
            return 0.0
        return 1.0 - (self.scale / x) ** self.tail

    def _quantile(self, p):
        return self.scale * (1.0 - p) ** (-1.0 / self.tail)

    def _tail_quantile(self, t):
        return self.scale * t ** (-1.0 / self.tail)

    def _order_sum(self, n: int) -> float:
        # n * sum_j C(n-1, j) (-1)^j / (j + 1 - 1/alpha); every denominator is
        # positive for alpha > 1.
        if self.tail <= 1.0:
            raise NoClosedForm("Pareto needs tail > 1 for a first moment")
        inv = 1.0 / self.tail
        return n * sum(
            math.comb(n - 1, j) * (-1.0) ** j / (j + 1.0 - inv) for j in range(n)
        )

    def es_closed(self, n: int, p: float) -> float:
        """Closed-form ES_n at level p in [0, 1), for tail > 1."""
        s = self._order_sum(n)
        return self.scale * s * (1.0 - p) ** (-1.0 / self.tail)

    def closed_multiplier(self, n: int) -> tuple[float, float]:
        s = self._order_sum(n)
        return s ** self.tail, s ** -self.tail


class _GPDFormulas(_Family):
    """Formulas of the excess-over-threshold generalized Pareto model, read
    from ``threshold`` (u), ``shape`` (kappa), ``scale`` (beta) and
    ``base_cdf_at_u`` (F(u))."""

    @property
    def level_floor(self) -> float:
        return self.base_cdf_at_u

    def _quantile(self, p):
        k, b, u, fu = self.shape, self.scale, self.threshold, self.base_cdf_at_u
        if k == 0.0:
            # log1p keeps the plain GPD (fu = 0) accurate for small p.
            return u - b * (_log1p(-p) - math.log1p(-fu))
        return u + (b / k) * (((1.0 - p) / (1.0 - fu)) ** (-k) - 1.0)

    def _tail_quantile(self, t):
        k, b, u, fu = self.shape, self.scale, self.threshold, self.base_cdf_at_u
        ratio = t / (1.0 - fu)
        if k == 0.0:
            return u - b * _log(ratio)
        return u + (b / k) * (ratio ** -k - 1.0)

    def es_closed(self, n: int, p: float) -> float:
        """Closed-form ES_n at level p in [base_cdf_at_u, 1), orders 1 and 2,
        for shape < 1."""
        k, b, u, fu = self.shape, self.scale, self.threshold, self.base_cdf_at_u
        if k >= 1.0:
            raise NoClosedForm("generalized Pareto needs shape < 1 for a first moment")
        if p < fu:
            # The excess model is silent below its threshold; p = fu itself is
            # fine (the ES then averages the whole modeled tail).
            raise LevelOutOfRange(
                f"excess model requires level >= base_cdf_at_u={fu}, got {p}"
            )
        var_p = self._quantile(p)  # unchecked, so p = fu gives the threshold
        if n == 1:
            return var_p / (1.0 - k) + (b - k * u) / (1.0 - k)
        if n == 2:
            if k == 0.0:
                return var_p + 1.5 * b
            scaled = ((1.0 - p) / (1.0 - fu)) ** (-k)
            return var_p + b * (3.0 - k) / ((1.0 - k) * (2.0 - k)) * scaled
        raise NoClosedForm(f"no closed generalized-Pareto form for order {n}")

    def closed_multiplier(self, n: int) -> tuple[float, float]:
        if n != 2:
            raise NoClosedForm(
                "generalized-Pareto closed form is available at order 2 only"
            )
        k = self.shape
        if k >= 1.0:
            raise NoClosedForm("generalized Pareto needs shape < 1")
        if k == 0.0:
            value = math.exp(1.5)
        else:
            value = (2.0 / ((1.0 - k) * (2.0 - k))) ** (1.0 / k)
        # The applicable eps range is scaled down by the survival mass above
        # the threshold; the endpoint is treated as attained.
        return value, (1.0 - self.base_cdf_at_u) / value


@dataclass(frozen=True)
class GeneralizedPareto(_GPDFormulas):
    shape: float  # kappa; first moment needs shape < 1
    scale: float  # beta
    # The u = 0, F(u) = 0 case of ExcessGPD (class constants, not fields).
    threshold = 0.0
    base_cdf_at_u = 0.0

    def __post_init__(self):
        if not self.scale > 0:
            raise InvalidParameter("GeneralizedPareto requires scale > 0")

    def cdf(self, x: float) -> float:
        k, b = self.shape, self.scale
        if x < 0:
            return 0.0
        if k == 0.0:
            return -math.expm1(-x / b)
        if k < 0 and x > -b / k:
            return 1.0
        return 1.0 - (1.0 + k * x / b) ** (-1.0 / k)


@dataclass(frozen=True)
class ExcessGPD(_GPDFormulas):
    """Random variable whose excess distribution over ``threshold`` is
    generalized Pareto.  Only the base CDF value at the threshold enters any
    formula above it, so the base distribution is reduced to that scalar."""

    threshold: float       # u
    shape: float           # kappa
    scale: float           # beta
    base_cdf_at_u: float   # F_X(u)

    def __post_init__(self):
        if self.threshold < 0:
            raise InvalidParameter("ExcessGPD requires threshold >= 0")
        if not self.scale > 0:
            raise InvalidParameter("ExcessGPD requires scale > 0")
        if not 0.0 <= self.base_cdf_at_u < 1.0:
            raise InvalidParameter("ExcessGPD requires base_cdf_at_u in [0, 1)")

    def cdf(self, x: float) -> float:
        if x < self.threshold:
            raise ExcessGPDBelowThreshold(
                f"CDF undefined below threshold u={self.threshold}, got x={x}"
            )
        fu = self.base_cdf_at_u
        g = GeneralizedPareto(self.shape, self.scale).cdf(x - self.threshold)
        return fu + (1.0 - fu) * g


DistributionModel = Union[
    Uniform, Exponential, Normal, Pareto, GeneralizedPareto, ExcessGPD
]


def cdf(dist: DistributionModel, x: float) -> float:
    """Exact cumulative distribution function of ``dist`` at ``x``."""
    return dist.cdf(x)


def quantile(dist: DistributionModel, p):
    """Value at Risk of ``dist`` at level ``p``, a float or an array; see
    the family's ``quantile``."""
    return dist.quantile(p)


def tail_quantile(dist: DistributionModel, t):
    """VaR of ``dist`` at level 1 - t from the tail probability ``t``, a
    float or an array; see the family's ``tail_quantile``."""
    return dist.tail_quantile(t)


def sample(dist: DistributionModel, seed: int, count: int) -> np.ndarray:
    """Draw ``count`` inverse-transform samples, deterministic in ``seed``.

    Uses PCG64 uniforms mapped into (level_floor, 1) and pushed through the
    family's quantile, so samples of any family share one reproducible
    source of randomness.
    """
    if count < 1:
        raise InvalidParameter(f"count must be >= 1, got {count}")
    if seed < 0:
        raise InvalidParameter(f"seed must be >= 0, got {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    u = rng.random(count)
    # rng.random() yields [0, 1); shift exact zeros off the rejected level 0.
    u[u == 0.0] = np.finfo(float).tiny
    floor = dist.level_floor
    return dist.quantile(floor + (1.0 - floor) * u)
