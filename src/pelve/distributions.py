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
NoClosedForm.  Every family has ES_n at every order while its tail has a
first moment; Pareto and the generalized-Pareto types take theirs from one
kernel moment S_n = n B(n, 1 - kappa) (``_kernel_moment``).  The normal has
no closed multiplier.  ``level_floor`` is the lowest level the model
describes: base_cdf_at_u for ExcessGPD, 0 elsewhere.

All quantiles are closed-form.  The normal quantile is Wichura's AS241
(PPND16, Applied Statistics 37, 1988): a rational function of p - 1/2 in the
body and of sqrt(-log(min(p, 1 - p))) in the tails, within 1e-15 relative
of the exact quantile for min(p, 1 - p) down to 1e-300.  The normal CDF and
the tail 1 - Phi(sqrt(2) z) of the order-2 ES are complementary error
functions (``math.erfc``).  The normal ES_n at orders 3 and up is a smooth
one-dimensional integral of erfc (``_normal_es``), which a fixed
Gauss-Legendre panel rule gives to a few ulps.

Sampling is inverse-transform with a fixed, named 64-bit generator (PCG64),
so results are bit-reproducible for a given seed.  Seed 0 is legal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Union

import numpy as np

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


def _kernel_moment(n: int, k: float) -> tuple[float, float]:
    """S_n = n B(n, 1 - k) = prod over j <= n of j/(j - k), and log S_n.

    S_n is ES_n of the tail quantile x^-k, x = 1 - s, at level 0, so every
    generalized-Pareto-type ES_n and PELVE_n follows from it: the quantile
    u + (beta/k)(x^-k - 1) has ES_n = u + (beta/k)(x^-k S_n - 1), and
    PELVE_n = S_n^(1/k).  Every factor is positive.  The log is summed as
    log1p(k/(j - k)), which keeps the digits of a small k.  A tail of shape
    k >= 1 has no first moment, and no closed form.
    """
    if k >= 1.0:
        raise NoClosedForm(f"no closed form: the tail x^-{k} has no first moment")
    s = 1.0
    for j in range(1, n + 1):
        s *= j / (j - k)
    return s, math.fsum(math.log1p(k / (j - k)) for j in range(1, n + 1))


# Floats go through plain comparisons and ``math``: numpy on one float costs
# several times the formula itself, and its vectorised log may differ from
# libm by an ulp.  Arrays go through numpy.

def _holds(cond) -> bool:
    return bool(cond.all()) if isinstance(cond, np.ndarray) else cond


def _log(x):
    return np.log(x) if isinstance(x, np.ndarray) else math.log(x)


def _log1p(x):
    return np.log1p(x) if isinstance(x, np.ndarray) else math.log1p(x)


def _expm1(x):
    return np.expm1(x) if isinstance(x, np.ndarray) else math.expm1(x)


# AS241's three rational approximations, numerator and denominator
# coefficients from the highest degree down: the body |p - 1/2| <= 0.425 in
# 0.180625 - (p - 1/2)^2, and in r = sqrt(-log(min(p, 1 - p))) the tail
# r <= 5 in r - 1.6 and the far tail r > 5 in r - 5.
_AS241 = (
    ((2.5090809287301226727e+3, 3.3430575583588128105e+4, 6.7265770927008700853e+4,
      4.5921953931549871457e+4, 1.3731693765509461125e+4, 1.9715909503065514427e+3,
      1.3314166789178437745e+2, 3.3871328727963666080e+0),
     (5.2264952788528545610e+3, 2.8729085735721942674e+4, 3.9307895800092710610e+4,
      2.1213794301586595867e+4, 5.3941960214247511077e+3, 6.8718700749205790830e+2,
      4.2313330701600911252e+1, 1.0)),
    ((7.74545014278341407640e-4, 2.27238449892691845833e-2, 2.41780725177450611770e-1,
      1.27045825245236838258e+0, 3.64784832476320460504e+0, 5.76949722146069140550e+0,
      4.63033784615654529590e+0, 1.42343711074968357734e+0),
     (1.05075007164441684324e-9, 5.47593808499534494600e-4, 1.51986665636164571966e-2,
      1.48103976427480074590e-1, 6.89767334985100004550e-1, 1.67638483018380384940e+0,
      2.05319162663775882187e+0, 1.0)),
    ((2.01033439929228813265e-7, 2.71155556874348757815e-5, 1.24266094738807843860e-3,
      2.65321895265761230930e-2, 2.96560571828504891230e-1, 1.78482653991729133580e+0,
      5.46378491116411436990e+0, 6.65790464350110377720e+0),
     (2.04426310338993978564e-15, 1.42151175831644588870e-7, 1.84631831751005468180e-5,
      7.86869131145613259100e-4, 1.48753612908506148525e-2, 1.36929880922735805310e-1,
      5.99832206555887937690e-1, 1.0)),
)
_BODY, _TAIL, _FAR = range(3)
# The same coefficients as 0-d arrays, which ufuncs take faster than Python
# floats.
_AS241_ARRAYS = tuple(tuple(tuple(map(np.array, c)) for c in branch) for branch in _AS241)
_HALF, _ONE, _SPLIT, _BODY_R, _TAIL_R, _FAR_R = map(
    np.array, (0.5, 1.0, 0.425, 0.180625, 1.6, 5.0)
)


def _ratio(branch: int, x: float) -> float:
    # One AS241 rational by Horner, in the order the array path keeps.
    num, den = _AS241[branch]
    a, b = num[0] * x, den[0] * x
    for cn, cd in zip(num[1:-1], den[1:-1]):
        a, b = (a + cn) * x, (b + cd) * x
    return (a + num[-1]) / (b + den[-1])


def _ratio_array(branch: int, x: np.ndarray) -> np.ndarray:
    # _ratio on a 1-d array, each Horner step in place.  Two 1-d passes per
    # step measured faster than one pass over a stacked (2, N) array, whose
    # constants must broadcast.
    num, den = _AS241_ARRAYS[branch]
    a, b = num[0] * x, den[0] * x
    for cn, cd in zip(num[1:-1], den[1:-1]):
        a += cn
        a *= x
        b += cd
        b *= x
    a += num[-1]
    b += den[-1]
    return np.divide(a, b, out=a)


def _ndtri_float(p: float) -> float:
    q = p - 0.5
    if abs(q) <= 0.425:
        return q * _ratio(_BODY, 0.180625 - q * q)
    r = math.sqrt(-math.log(min(p, 1.0 - p)))
    z = _ratio(_TAIL, r - 1.6) if r <= 5.0 else _ratio(_FAR, r - 5.0)
    return math.copysign(z, q)


def _ndtri_array(p: np.ndarray) -> np.ndarray:
    # _ndtri_float node by node, for any shape.  The first branch present
    # runs on every remaining node, where its rational stays finite (the
    # body's denominator is positive down to 0.180625 - 0.25, and the tail's
    # terms are positive on far nodes), and a later branch overwrites its own
    # nodes from a gathered copy; a branch that holds every node is neither
    # gathered nor scattered.  Each node gets the float path's operations,
    # whatever the array's shape.
    flat = p.ravel()
    q = flat - _HALF
    tail = (np.abs(q) > _SPLIT).nonzero()[0]
    z = None
    if tail.size < q.size:
        z = _ratio_array(_BODY, np.subtract(_BODY_R, q * q))
        z *= q
        if not tail.size:
            return z.reshape(p.shape)
        flat, q = flat[tail], q[tail]
    r = np.minimum(flat, _ONE - flat)
    np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
    far = (r > _FAR_R).nonzero()[0]
    if far.size == r.size:
        w = _ratio_array(_FAR, r - _FAR_R)
    else:
        w = _ratio_array(_TAIL, r - _TAIL_R)
        if far.size:
            w[far] = _ratio_array(_FAR, r[far] - _FAR_R)
    np.copysign(w, q, out=w)
    if z is None:
        return w.reshape(p.shape)
    z[tail] = w
    return z.reshape(p.shape)


# The 15-node Gauss-Legendre rule: node positions in a panel as fractions
# of its width from its lower edge, and weights summing to 2 over a panel.
_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(15)
_GL_FRACTIONS = 0.5 * (1.0 + _GL_NODES)
# The same rule as (fraction, weight/2) pairs of Python floats.
_GL_PAIRS = tuple(zip(_GL_FRACTIONS.tolist(), (0.5 * _GL_WEIGHTS).tolist()))
_SQRT2 = math.sqrt(2.0)


def _normal_es(n: int, p: float) -> float:
    """Standard normal ES_n at level p in [0, 1), for orders n >= 3.

    Substituting s = Phi(u) in the ES_n integral and integrating by parts
    (u phi(u) = -phi'(u)) gives

        ES_n(p) = n (n-1)/(1-p)^2 * integral over (z_p, inf) of v^(n-2) phi(u)^2 du,

    v = (Phi(u) - p)/(1 - p), z_p = Phi^-1(p) (-inf at p = 0).  In
    x = u/sqrt(2) the integrand is v^(n-2) exp(-2 x^2)/(2 pi (1-p)^2) with
    v = 1 - t, t = erfc(x)/(2 (1 - p)), so erfc takes each node exactly.
    v^(n-2) is exp((n-2) log1p(-t)), which keeps the digits of t at high
    orders, and exp(-x^2)/(1 - p) is formed about an anchor r, x_p rounded to
    20 fraction bits, whose square is exact.  The integrand is smooth and
    falls like exp(-2 x^2): panels start at its peak x_m =
    -Phi^-1(2 (1-p)/n)/sqrt(2), 1/(1 + 2 max(x_m, 0)) wide, and grow 1.5x
    each in both directions, down to x_p and up to sqrt(max(x_m, 0)^2 + 40).
    """
    x_p = _ndtri_float(p) / _SQRT2 if p > 0.0 else -math.inf
    x_m = -_ndtri_float(2.0 * (1.0 - p) / n) / _SQRT2
    peak = max(x_m, 0.0)
    top = math.sqrt(peak * peak + 40.0)
    bottom = max(x_p, -top)
    edges = [x_m]
    width = first = 1.0 / (1.0 + 2.0 * peak)
    while edges[-1] < top:
        edges.append(min(edges[-1] + width, top))
        width *= 1.5
    width = first
    while edges[0] > bottom:
        edges.insert(0, max(edges[0] - width, bottom))
        width *= 1.5
    r = round(max(x_p, 0.0) * 2.0 ** 20) * 2.0 ** -20
    half_scale = 0.5 / (1.0 - p)
    k = n - 2
    terms = []
    for lo, hi in zip(edges, edges[1:]):
        width = hi - lo
        for fraction, weight in _GL_PAIRS:
            x = lo + width * fraction
            t = math.erfc(x) * half_scale
            if t < 1.0:  # else v <= 0: erfc rounded to 2, or x next to x_p
                terms.append(weight * width * math.exp(k * math.log1p(-t) - 2.0 * (x - r) * (x + r)))
    anchor = math.exp(-r * r) / (1.0 - p)
    return n * (n - 1) / (_SQRT2 * math.pi) * anchor * anchor * math.fsum(terms)


def _ndtri(x):
    """Standard normal quantile of a float in (0, 1) or of an array."""
    return _ndtri_array(x) if isinstance(x, np.ndarray) else _ndtri_float(x)


def _in_unit(x, what: str):
    # VaR at p=0 would be -inf by convention; we reject it instead.
    if not isinstance(x, np.ndarray):
        x = float(x)
    if not _holds((x > 0.0) & (x < 1.0)):
        raise LevelOutOfRange(f"{what} must lie in (0, 1), got {x}")
    return x


def _inside(x, low, high) -> bool:
    # low < x < high for a float, or for every element of an array in one
    # combined test; 0-d bounds spare numpy its Python-float scalar path.
    if isinstance(x, np.ndarray):
        return bool(((x > np.asarray(low)) & (x < np.asarray(high))).all())
    return low < x < high


class _Family:
    """Checked entry points over each family's unchecked ``_quantile`` and
    ``_tail_quantile`` formulas.  level_floor >= 0, so one test of
    level_floor < p < 1 (or 0 < t < 1 - level_floor) stands for both range
    checks; only when it fails do the separate checks run, to raise."""

    level_floor = 0.0

    def __post_init__(self):
        # Every field of every family is a real number, and none admits nan
        # or an infinity: past this check the formulas only see finite ones.
        for field in fields(self):
            value = getattr(self, field.name)
            if not math.isfinite(value):
                raise InvalidParameter(
                    f"{type(self).__name__} requires finite parameters, got {field.name}={value}"
                )
        self._check_parameters()

    def quantile(self, p):
        """Value at Risk at level ``p`` in (level_floor, 1): the lower
        quantile inf{x : F(x) >= p}, by the family's closed form."""
        if not isinstance(p, np.ndarray):
            p = float(p)
        if not _inside(p, self.level_floor, 1.0):
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
        if not isinstance(t, np.ndarray):
            t = float(t)
        if not _inside(t, 0.0, 1.0 - self.level_floor):
            t = _in_unit(t, "tail probability")
            if not _holds(t < 1.0 - self.level_floor):
                raise ExcessGPDLevelBelowBase(
                    "tail probability must be below 1 - base_cdf_at_u = "
                    f"{1.0 - self.level_floor}"
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

    def _check_parameters(self):
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

    def _check_parameters(self):
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

    def _check_parameters(self):
        if not self.stddev > 0:
            raise InvalidParameter("Normal requires stddev > 0")

    def cdf(self, x: float) -> float:
        return 0.5 * math.erfc((self.mean - x) / (self.stddev * math.sqrt(2.0)))

    def _quantile(self, p):
        return self.mean + self.stddev * _ndtri(p)

    def _tail_quantile(self, t):
        return self.mean - self.stddev * _ndtri(t)

    def es_closed(self, n: int, p: float) -> float:
        """ES_n at level p in [0, 1), every order: closed forms at orders 1
        and 2, the erfc integral of ``_normal_es`` above them."""
        if n > 2:
            return self.mean + self.stddev * _normal_es(n, p)
        # z = -inf at p = 0, where exp gives 0 and erfc gives 2.
        z = _ndtri_float(p) if p > 0.0 else -math.inf
        if n == 1:
            phi_z = math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
            return self.mean + self.stddev * phi_z / (1.0 - p)
        # 1 - Phi(sqrt(2) z), without the cancellation of 1 - Phi.
        tail = 0.5 * math.erfc(z)
        return self.mean + self.stddev * tail / (math.sqrt(math.pi) * (1.0 - p) ** 2)


@dataclass(frozen=True)
class Pareto(_Family):
    scale: float  # k, left endpoint of the support
    tail: float   # alpha; first moment needs tail > 1

    def _check_parameters(self):
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

    def es_closed(self, n: int, p: float) -> float:
        """Closed-form ES_n at level p in [0, 1), for tail > 1."""
        s, _ = _kernel_moment(n, 1.0 / self.tail)
        return self.scale * s * (1.0 - p) ** (-1.0 / self.tail)

    def closed_multiplier(self, n: int) -> tuple[float, float]:
        s, _ = _kernel_moment(n, 1.0 / self.tail)
        return s ** self.tail, s ** -self.tail


class _GPDFormulas(_Family):
    """Formulas of the excess-over-threshold generalized Pareto model, read
    from ``threshold`` (u), ``shape`` (kappa), ``scale`` (beta) and
    ``base_cdf_at_u`` (F(u))."""

    @property
    def level_floor(self) -> float:
        return self.base_cdf_at_u

    def _quantile(self, p):
        return self._excess(_log1p(-p) - math.log1p(-self.base_cdf_at_u))

    def _tail_quantile(self, t):
        return self._excess(_log(t) - math.log1p(-self.base_cdf_at_u))

    def _excess(self, log_x, log_s=0.0, h=0.0):
        # u + (beta/kappa)(S x^-kappa - 1) at x = (1 - s)/(1 - F(u)), given as
        # log x, and S = exp(log_s): the quantile at s for S = 1, ES_n at s
        # for S = S_n.  At kappa = 0 it is the limit u + beta(h - log x), h
        # the derivative of log S in kappa at 0 (H_n for S_n).  expm1 keeps
        # the digits of a small kappa.
        k, b, u = self.shape, self.scale, self.threshold
        if k == 0.0:
            return u + b * (h - log_x)
        return u + (b / k) * _expm1(log_s - k * log_x)

    def es_closed(self, n: int, p: float) -> float:
        """Closed-form ES_n at level p in [base_cdf_at_u, 1), every order,
        for shape < 1."""
        k, fu = self.shape, self.base_cdf_at_u
        _, log_s = _kernel_moment(n, k)
        if p < fu:
            # The excess model is silent below its threshold; p = fu itself is
            # fine (the ES then averages the whole modeled tail).
            raise LevelOutOfRange(
                f"excess model requires level >= base_cdf_at_u={fu}, got {p}"
            )
        h = harmonic_number(n) if k == 0.0 else 0.0
        return self._excess(math.log1p(-p) - math.log1p(-fu), log_s, h)

    def closed_multiplier(self, n: int) -> tuple[float, float]:
        k = self.shape
        s, _ = _kernel_moment(n, k)
        value = math.exp(harmonic_number(n)) if k == 0.0 else s ** (1.0 / k)
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

    def _check_parameters(self):
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

    def _check_parameters(self):
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
    # A quantile beyond the float range comes out as inf, which the callers
    # reject as a non-finite sample; numpy need not warn about it as well.
    with np.errstate(over="ignore"):
        return dist.quantile(floor + (1.0 - floor) * u)
