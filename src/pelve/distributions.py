"""Analytic distribution families: exact CDFs, quantile (VaR) functions,
closed-form n-th-order Expected Shortfall and equivalent-level multipliers,
and inverse-transform sampling.

Families
--------
Uniform(a, b), Exponential(rate), Normal(mean, stddev), Pareto(scale, tail),
GeneralizedPareto(shape, scale) and ExcessGPD -- a random variable whose
excess distribution over a threshold ``u`` is generalized Pareto, described
by the scalar base CDF value at ``u`` only.

Every family but the normal is such an excess model.  Their formulas are one
set, ``_GPDFormulas``, which reads the threshold u, shape kappa, scale beta
and F(u) from each family's ``_gpd``: (a, -1, b - a, 0) for the uniform,
(0, 0, 1/rate, 0) for the exponential, (k, 1/alpha, k/alpha, 0) for
Pareto(k, alpha) and (0, kappa, beta, 0) for GeneralizedPareto(kappa, beta).
The normal's formulas are its own.  Pareto keeps its power-form quantile,
which its draws go through.

``quantile(p)`` and ``tail_quantile(t)`` (the quantile at 1 - t) map a float
to a Python float and a numpy array, 0-d included, to a new float64 array of
the same shape.  An array is evaluated on one copy, which the formula
overwrites in fixed chunks (``_in_chunks``), so the caller's array is never
written and the temporaries stay chunk-sized whatever its size.
``es_closed(n, p)`` and ``closed_multiplier(n)`` give ES_n and PELVE_n in
closed form, or raise NoClosedForm.  These four methods check the level,
tail probability or order of every family evaluation; the formulas behind
them check nothing.  Every family has ES_n at every order while its tail
has a first moment; the excess models take theirs from the logarithm of one
kernel moment S_n = n B(n, 1 - kappa) (``_log_kernel_moment``).  The normal
has no closed multiplier.  ``level_floor`` is the lowest level the model
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
so results are bit-reproducible for a given seed.  Seed 0 is legal.  A
sequence of seeds draws a block with one seed's sample per row.  The levels
go through the quantile in the same chunks, in place in the block.
"""

from __future__ import annotations

import functools
import math
import operator
import sys
from collections.abc import Sequence
from dataclasses import dataclass, fields
from types import SimpleNamespace
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
    "harmonic_number",
    "quantile",
    "tail_quantile",
    "sample",
]


def _check_order(n: int) -> None:
    if not (isinstance(n, (int, np.integer)) and not isinstance(n, bool) and n >= 1):
        raise OrderOutOfRange(f"order must be a positive integer, got {n!r}")


def _check_count(name: str, value: int, low: int) -> None:
    # A count of draws, replicates or bins, a seed or a window: an integer,
    # but not a bool, at or above low.
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)):
        raise InvalidParameter(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise InvalidParameter(f"{name} must be >= {low}, got {value}")


def _check_tail_level(p: float) -> None:
    # The level of an ES_n, of any family, quantile callable or sample.
    if not 0.0 <= p < 1.0:
        raise LevelOutOfRange(f"level must lie in [0, 1), got {p}")


# A solve calls es_closed many times at one (n, kappa): H_n and log S_n are
# O(n) sums, so each is computed once.  typed keeps harmonic_number(True)
# from hitting the entry of 1.
@functools.lru_cache(maxsize=256, typed=True)
def harmonic_number(n: int) -> float:
    """H_n = 1 + 1/2 + ... + 1/n by direct summation."""
    _check_order(n)
    return sum(1.0 / k for k in range(1, n + 1))


@functools.lru_cache(maxsize=256, typed=True)
def _log_kernel_moment(n: int, k: float) -> float:
    """log S_n of the kernel moment S_n = n B(n, 1 - k) = prod over j <= n
    of j/(j - k).

    S_n is ES_n of the tail quantile x^-k, x = 1 - s, at level 0, so every
    generalized-Pareto ES_n and PELVE_n follows from it: the quantile
    u + (beta/k)(x^-k - 1) has ES_n = u + (beta/k)(x^-k S_n - 1), and
    PELVE_n = S_n^(1/k).  A tail of shape k >= 1 has no first moment, and no
    closed form.

    The sum runs over log1p(k/(j - k)), which keeps the digits of a small k.
    Below k = -1 each term is -log1p(-k/j) instead: there j/(j - k) < 1/2,
    where the first form loses digits, and k/(j - k) rounds to -1 for a k
    near the float limit.
    """
    if k >= 1.0:
        raise NoClosedForm(f"no closed form: the tail x^-{k} has no first moment")
    if k < -1.0:
        return -math.fsum([math.log1p(-k / j) for j in range(1, n + 1)])
    return math.fsum([math.log1p(k / (j - k)) for j in range(1, n + 1)])


# The operations of the family formulas that form a new value.  Floats go
# through ``math`` and ``operator``: numpy on one float costs several times
# the formula itself, and its vectorised log may differ from libm by an ulp.
# Arrays go through numpy's ufuncs, each writing over its last argument, an
# array the formula owns; +=, *= and **= serve both kinds.
_FLOAT_OPS = SimpleNamespace(log=math.log, log1p=math.log1p, expm1=math.expm1,
                             negative=operator.neg, subtract=operator.sub)


def _overwriting(ufunc):
    return lambda *args: ufunc(*args, out=args[-1])


_ARRAY_OPS = SimpleNamespace(**{name: _overwriting(getattr(np, name)) for name in vars(_FLOAT_OPS)})


def _ops(x):
    return _ARRAY_OPS if isinstance(x, np.ndarray) else _FLOAT_OPS


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
_HALF, _ONE, _SPLIT, _BODY_R, _TAIL_R, _FAR_R, _TINY = map(
    np.array, (0.5, 1.0, 0.425, 0.180625, 1.6, 5.0, sys.float_info.min)
)


def _ratio(branch: int, x, a=None, b=None):
    # One AS241 rational by Horner on a float or a 1-d array.  Each step runs
    # in place on an array, in the arrays a and b of x's size where given,
    # and the ratio lands in a; on a float += and *= rebind, so a float gets
    # (a + c) * x.  Two 1-d passes per step measured faster than one pass
    # over a stacked (2, N) array, whose constants must broadcast.
    num, den = (_AS241_ARRAYS if isinstance(x, np.ndarray) else _AS241)[branch]
    if a is None:
        a, b = num[0] * x, den[0] * x
    else:
        np.multiply(num[0], x, out=a)
        np.multiply(den[0], x, out=b)
    for cn, cd in zip(num[1:-1], den[1:-1]):
        a += cn
        a *= x
        b += cd
        b *= x
    a += num[-1]
    b += den[-1]
    a /= b
    return a


def _ndtri_float(p: float) -> float:
    q = p - 0.5
    if abs(q) <= 0.425:
        return q * _ratio(_BODY, 0.180625 - q * q)
    r = math.sqrt(-math.log(min(p, 1.0 - p)))
    z = _ratio(_TAIL, r - 1.6) if r <= 5.0 else _ratio(_FAR, r - 5.0)
    return math.copysign(z, q)


def _ndtri_array(p: np.ndarray, q: np.ndarray, x: np.ndarray, den: np.ndarray) -> np.ndarray:
    # _ndtri_float node by node, over a 1-d array p in place, with work
    # arrays q, x and den of its size.  The body's rational runs on every
    # node, where it stays finite (its denominator is positive down to
    # 0.180625 - 0.25).  The tail's then overwrites the gathered tail nodes,
    # in the work arrays' heads: its terms stay positive on the far ones, so
    # it warns nowhere.  The far tail's overwrites those.  Each node gets
    # the float path's operations.
    np.subtract(p, _HALF, out=q)
    tail = (np.abs(q, out=x) > _SPLIT).nonzero()[0]
    r, q_tail = p[tail], q[tail]
    np.multiply(q, q, out=x)
    _ratio(_BODY, np.subtract(_BODY_R, x, out=x), p, den)
    p *= q
    q, x, den = q[:tail.size], x[:tail.size], den[:tail.size]
    np.minimum(r, np.subtract(_ONE, r, out=q), out=r)
    np.sqrt(np.negative(np.log(r, out=r), out=r), out=r)
    w = _ratio(_TAIL, np.subtract(r, _TAIL_R, out=q), x, den)
    far = (r > _FAR_R).nonzero()[0]
    if far.size:  # rare, min(p, 1 - p) < exp(-25): an empty pass is a tenth of 5,000 draws
        w[far] = _ratio(_FAR, r[far] - _FAR_R)
    np.copysign(w, q_tail, out=w)
    p[tail] = w
    return p


# The 15-node Gauss-Legendre rule as (fraction, weight) pairs of Python
# floats: node positions as fractions of a panel's width from its lower
# edge, and weights summing to 1.
_GL_PAIRS = tuple((0.5 * (1.0 + x), 0.5 * w) for x, w in zip(
    *(a.tolist() for a in np.polynomial.legendre.leggauss(15))))
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


def _ndtri(x, work=None):
    """Standard normal quantile of a float in (0, 1), or of a 1-d array in
    place with the three rows of ``work`` as its work arrays."""
    return _ndtri_array(x, *work) if isinstance(x, np.ndarray) else _ndtri_float(x)


# An array formula runs over this many values at a time, in place, with one
# set of three work arrays of this size per call.  On a 2-vCPU Xeon with
# numpy 2.4, 100 x 5,000 studies of Normal(0, 1), Pareto(1, 3) and
# ExcessGPD(1, 0.3, 1, 0.9) took 53.4 ms at 8,192 values, 50.1 ms at 16,384
# and 49.8-50.0 ms from 32,768 up, where a study's 6-row block is one chunk;
# 2^20 draws of each took 37.5, 34.3, 33.7, 33.7 and 38.4 ms at 8,192,
# 16,384, 32,768, 65,536 and 131,072 values (medians of 15).
_CHUNK = 32768


def _in_chunks(formula, flat: np.ndarray) -> None:
    """Run ``formula(x, work)`` over the 1-d float64 array ``flat`` in place,
    ``_CHUNK`` values x at a time; ``work`` is three arrays of x's size,
    allocated once."""
    work = np.empty((3, min(flat.size, _CHUNK)))
    for start in range(0, flat.size, _CHUNK):
        x = flat[start:start + _CHUNK]
        formula(x, work[:, :x.size])


class _Family:
    """The one checked entry to every family evaluation.  ``quantile``,
    ``tail_quantile``, ``es_closed`` and ``closed_multiplier`` check the
    level, tail probability or order, then call the family's unchecked
    ``_quantile``, ``_tail_quantile``, ``_es_closed`` or
    ``_closed_multiplier``, which check nothing again.  ``_quantile(x,
    work)`` and ``_tail_quantile(x, work)`` overwrite a 1-d array x, with
    the three rows of ``work`` as work arrays of its size."""

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
        quantile inf{x : F(x) >= p}, by the family's closed form.  An array
        is evaluated on one copy, in chunks."""
        return self._evaluate(self._quantile, p, "level", self.level_floor, 1.0,
                              "quantile requires p > base_cdf_at_u={low}, got p={x}")

    def tail_quantile(self, t):
        """The quantile at level 1 - t, computed from the tail probability
        ``t`` directly, so it stays accurate for t far below the float
        spacing at 1 (which matters when integrating heavy tails).  An array
        is evaluated on one copy, in chunks."""
        return self._evaluate(self._tail_quantile, t, "tail probability", 0.0, 1.0 - self.level_floor,
                              "tail probability must be below 1 - base_cdf_at_u = {high}")

    def _evaluate(self, formula, x, what: str, low: float, high: float, below_base: str):
        # formula(x) for a float x, or every element of an array x, in
        # (low, high), 0 <= low < high <= 1.  Only when that one test fails
        # do the (0, 1) check and then the model's bound run, to raise (VaR
        # at level 0 would be -inf by convention; it is rejected instead).
        # A float quantile past the float range raises; an array passes inf
        # through.
        if isinstance(x, np.ndarray):
            # 0-d bounds spare numpy its Python-float scalar path.
            inside = bool(((x > np.asarray(low)) & (x < np.asarray(high))).all())
        else:
            x = float(x)
            inside = low < x < high
        if not inside:
            if not np.all((x > 0.0) & (x < 1.0)):
                raise LevelOutOfRange(f"{what} must lie in (0, 1), got {x}")
            raise ExcessGPDLevelBelowBase(below_base.format(low=low, high=high, x=x))
        if isinstance(x, np.ndarray):
            # On a C-ordered float64 copy, which the formula overwrites chunk
            # by chunk through its 1-d view: the caller's array is never
            # written, and a 0-d array is not taken for a float by _ops or
            # numpy's scalar paths and gets the array's bits.
            x = np.array(x, dtype=float, order="C")
            _in_chunks(formula, x.reshape(-1))
            return x
        try:
            value = formula(x)
        except OverflowError:  # raised by float ** and by math.expm1
            value = math.inf
        if not math.isfinite(value):
            raise QuantileOverflow(f"quantile of {self!r} at {what} {x} exceeds the float range")
        return value

    def es_closed(self, n: int, p: float) -> float:
        """ES_n at level p in [level_floor, 1) in closed form; raises
        NoClosedForm where the tail has no first moment."""
        _check_order(n)
        _check_tail_level(p)
        if p < self.level_floor:
            # The excess model is silent below its threshold; p = F(u) itself
            # is fine (the ES then averages the whole modeled tail).
            raise LevelOutOfRange(
                f"excess model requires level >= base_cdf_at_u={self.level_floor}, got {p}"
            )
        return self._es_closed(n, p)

    def closed_multiplier(self, n: int) -> tuple[float, float]:
        """(PELVE_n, largest eps it holds for) in closed form; above that
        eps the multiplier is infinite.  Raises NoClosedForm where the
        family has none."""
        _check_order(n)
        return self._closed_multiplier(n)

    def _closed_multiplier(self, n: int) -> tuple[float, float]:
        raise NoClosedForm(f"no closed multiplier for {self!r}")


def _excess(u, k, b, log_x, log_s=0.0, h=0.0):
    # u + (b/k)(S x^-k - 1) at x = (1 - s)/(1 - F(u)), given as log x, and
    # S = exp(log_s): the quantile at s for S = 1, ES_n at s for S = S_n.  At
    # k = 0 it is the limit u + b(h - log x), h the derivative of log S in k
    # at 0 (H_n for S_n).  expm1 keeps the digits of a small k.  An array
    # log_x is overwritten with the result.
    ops = _ops(log_x)
    if k == 0.0:
        x = ops.subtract(h, log_x)
        x *= b
    else:
        log_x *= k
        x = ops.expm1(ops.subtract(log_s, log_x))
        x *= b / k
    x += u
    return x


class _GPDFormulas(_Family):
    """Formulas of the excess-over-threshold generalized Pareto model, read
    from the threshold u, shape kappa, scale beta and base CDF value F(u)
    that ``_gpd`` returns."""

    def __post_init__(self):
        super().__post_init__()
        # 1/alpha, k/alpha, 1/rate and b - a overflow for some finite fields,
        # and b/k, the factor of every quantile and ES, can overflow or
        # underflow to 0, where the formulas would give inf or nan.  A
        # subnormal k carries too few digits: k log x then loses up to all
        # of them.
        u, k, b, fu = self._gpd()
        if not (all(map(math.isfinite, (u, k, b, fu)))
                and (k == 0.0 or (abs(k) >= sys.float_info.min and 0.0 < abs(b / k) < math.inf))):
            raise InvalidParameter(
                f"{self!r} has a generalized-Pareto shape or scale beyond the float range"
            )

    def _gpd(self) -> tuple[float, float, float, float]:
        return self.threshold, self.shape, self.scale, self.base_cdf_at_u

    def cdf(self, x: float) -> float:
        # F(u) + (1 - F(u)) G(x - u), 0 below u.  G(y) = 1 - (1 + k y/b)^(-1/k)
        # is -expm1(-log1p(k y/b)/k), which keeps its digits next to u; it is
        # 1 from the upper end -b/k of a negative k on, 1 - exp(-y/b) at k = 0.
        u, k, b, fu = self._gpd()
        y = x - u
        if y < 0.0:
            return 0.0
        if k == 0.0:
            g = -math.expm1(-y / b)
        else:
            z = k * (y / b)
            g = 1.0 if z <= -1.0 else -math.expm1(-math.log1p(z) / k)
        return fu + (1.0 - fu) * g

    def _quantile(self, p, work=None):
        u, k, b, fu = self._gpd()
        ops = _ops(p)
        log_x = ops.log1p(ops.negative(p))
        log_x -= math.log1p(-fu)
        return _excess(u, k, b, log_x)

    def _tail_quantile(self, t, work=None):
        u, k, b, fu = self._gpd()
        log_x = _ops(t).log(t)
        log_x -= math.log1p(-fu)
        return _excess(u, k, b, log_x)

    def _es_closed(self, n: int, p: float) -> float:
        # Every order, for shape < 1.
        u, k, b, fu = self._gpd()
        log_x = math.log1p(-p) - math.log1p(-fu)
        return _excess(u, k, b, log_x, _log_kernel_moment(n, k), harmonic_number(n))

    def _closed_multiplier(self, n: int) -> tuple[float, float]:
        _, k, _, fu = self._gpd()
        if k == 0.0:
            value = math.exp(harmonic_number(n))
        elif k == -1.0:
            # S_n = 1/(n + 1), whose rounded log sum need not invert to n + 1.
            value = float(n + 1)
        else:
            # exp(log S_n / k), not S_n ** (1/k): the power would multiply the
            # rounding of S_n by 1/k, and S_n may underflow to 0 below k = -1.
            value = math.exp(_log_kernel_moment(n, k) / k)
        # The applicable eps range is scaled down by the survival mass above
        # the threshold; the endpoint is treated as attained.
        return value, (1.0 - fu) / value


@dataclass(frozen=True)
class Uniform(_GPDFormulas):
    lower: float
    upper: float

    def _check_parameters(self):
        if not self.lower < self.upper:
            raise InvalidParameter("Uniform requires lower < upper")

    def _gpd(self):
        return self.lower, -1.0, self.upper - self.lower, 0.0


@dataclass(frozen=True)
class Exponential(_GPDFormulas):
    rate: float

    def _check_parameters(self):
        if not self.rate > 0:
            raise InvalidParameter("Exponential requires rate > 0")

    def _gpd(self):
        return 0.0, 0.0, 1.0 / self.rate, 0.0


@dataclass(frozen=True)
class Normal(_Family):
    mean: float
    stddev: float

    def _check_parameters(self):
        if not self.stddev > 0:
            raise InvalidParameter("Normal requires stddev > 0")

    def cdf(self, x: float) -> float:
        return 0.5 * math.erfc((self.mean - x) / (self.stddev * math.sqrt(2.0)))

    def _quantile(self, p, work=None):
        z = _ndtri(p, work)
        z *= self.stddev
        z += self.mean
        return z

    def _tail_quantile(self, t, work=None):
        z = _ndtri(t, work)
        z *= self.stddev
        return _ops(z).subtract(self.mean, z)

    def _es_closed(self, n: int, p: float) -> float:
        # Every order: closed forms at orders 1 and 2, the erfc integral of
        # ``_normal_es`` above them.
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
class Pareto(_GPDFormulas):
    scale: float  # k, left endpoint of the support
    tail: float   # alpha; first moment needs tail > 1

    def _check_parameters(self):
        if not (self.scale > 0 and self.tail > 0):
            raise InvalidParameter("Pareto requires scale > 0 and tail > 0")

    def _gpd(self):
        return self.scale, 1.0 / self.tail, self.scale / self.tail, 0.0

    # Pareto's own power form, which the draws of ``sample`` go through.
    def _quantile(self, p, work=None):
        return self._tail_quantile(_ops(p).subtract(1.0, p))

    def _tail_quantile(self, t, work=None):
        # **= keeps numpy's fast paths for some exponents, such as -1.
        t **= -1.0 / self.tail
        t *= self.scale
        return t


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

    @property
    def level_floor(self) -> float:
        return self.base_cdf_at_u

    def cdf(self, x: float) -> float:
        if x < self.threshold:
            raise ExcessGPDBelowThreshold(
                f"CDF undefined below threshold u={self.threshold}, got x={x}"
            )
        return super().cdf(x)

DistributionModel = Union[
    Uniform, Exponential, Normal, Pareto, GeneralizedPareto, ExcessGPD
]


def quantile(dist: DistributionModel, p):
    """Value at Risk of ``dist`` at level ``p``, a float or an array, which
    is evaluated on one copy, in chunks; see the family's ``quantile``."""
    return dist.quantile(p)


def tail_quantile(dist: DistributionModel, t):
    """VaR of ``dist`` at level 1 - t from the tail probability ``t``, a
    float or an array, which is evaluated on one copy, in chunks; see the
    family's ``tail_quantile``."""
    return dist.tail_quantile(t)


def sample(dist: DistributionModel, seed: int | Sequence[int], count: int) -> np.ndarray:
    """Draw ``count`` inverse-transform samples, deterministic in ``seed``.

    Uses PCG64 uniforms mapped into (level_floor, 1) and pushed through the
    family's quantile, so samples of any family share one reproducible
    source of randomness.  Given a sequence of seeds, returns a new
    C-contiguous (len(seed), count) block whose row i is
    ``sample(dist, seed[i], count)`` bit for bit: each row is filled by its
    own generator, then the levels of the whole block go through the map
    and the quantile in place, in the chunks of ``_in_chunks``, so the
    temporaries stay chunk-sized whatever the count.  An int seed is the
    one-row case.
    """
    _check_count("count", count, 1)
    one = not isinstance(seed, Sequence)
    seeds = [seed] if one else seed
    for s in seeds:
        _check_count("seed", s, 0)
    floor = dist.level_floor
    if floor > 0.0:
        # Above F(u) > 0 the level rounds to F(u) for the smallest u and to 1
        # for the largest: both lie outside the model.
        low, high = math.nextafter(floor, 1.0), math.nextafter(1.0, 0.0)
        if low == 1.0:
            raise InvalidParameter(
                f"no level lies strictly between base_cdf_at_u={floor} and 1: "
                "the model has no level to sample above F(u)"
            )
    block = np.empty((len(seeds), count))
    for row, s in zip(block, seeds):
        np.random.Generator(np.random.PCG64(s)).random(out=row)

    def draws(u, work):
        # random() yields multiples of 2^-53 in [0, 1): shift exact zeros off
        # the rejected level 0.  Past the map and the clip every level lies
        # in (level_floor, 1), so the quantile's range check is not repeated.
        np.maximum(u, _TINY, out=u)
        if floor > 0.0:
            # The level floor + (1 - floor) u, which is u itself at floor 0.
            u *= 1.0 - floor
            u += floor
            np.clip(u, low, high, out=u)
        dist._quantile(u, work)

    # A quantile beyond the float range comes out as inf, which the callers
    # reject as a non-finite sample; numpy need not warn about it as well.
    with np.errstate(over="ignore"):
        _in_chunks(draws, block.reshape(-1))
    return block[0] if one else block
