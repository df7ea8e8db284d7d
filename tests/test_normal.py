"""The normal family without scipy: the AS241 quantile, the erfc CDF and the
closed ES forms against 50-digit mpmath values."""

import math
import sys

import mpmath
import numpy as np
import pytest

from pelve import Normal, es_n, quantile, tail_quantile

STD = Normal(0, 1)
EPS = sys.float_info.epsilon

# Levels log-spaced through both tails and evenly through the body, plus
# both neighbours of every branch edge: |p - 1/2| = 0.425 and
# sqrt(-log(min(p, 1 - p))) = 5.
_FAR_EDGE = math.exp(-25.0)
_EDGES = [x for e in (0.075, 0.925, _FAR_EDGE, 1.0 - _FAR_EDGE)
          for x in (math.nextafter(e, 0.0), e, math.nextafter(e, 1.0))]
LEVELS = np.unique(np.concatenate([
    np.logspace(-300, math.log10(0.075), 120),
    np.linspace(0.075, 0.925, 41),
    1.0 - np.logspace(math.log10(0.075), -16, 80),
    _EDGES,
]))


def _exact_quantile(p: float) -> mpmath.mpf:
    # The standard normal quantile of the double p at 50 digits: Newton's
    # method on log Phi(z) = log t for the lower tail probability
    # t = min(p, 1 - p), which mpmath holds exactly.  log Phi is increasing
    # and concave and the start lies below the root, so every iterate does.
    with mpmath.workdps(50):
        p = mpmath.mpf(p)
        t = min(p, 1 - p)
        if t == 0.5:
            return mpmath.mpf(0)
        target = mpmath.log(t)
        z = -mpmath.sqrt(-2 * target)
        for _ in range(100):
            step = (mpmath.log(mpmath.ncdf(z)) - target) * mpmath.ncdf(z) / mpmath.npdf(z)
            z -= step
            if abs(step) <= mpmath.mpf(10) ** -40 * max(1, abs(z)):
                break
        return z if p < 0.5 else -z


def _rel_errors(got, exact) -> list:
    return [abs(mpmath.mpf(float(g)) - e) / abs(e) if e else abs(g) for g, e in zip(got, exact)]


@pytest.fixture(scope="module")
def exact_levels():
    return [_exact_quantile(float(p)) for p in LEVELS]


def test_quantile_floats_are_within_1e15_relative(exact_levels):
    got = [quantile(STD, float(p)) for p in LEVELS]
    assert all(type(v) is float for v in got)
    assert max(_rel_errors(got, exact_levels)) <= 1e-15


def test_quantile_arrays_are_within_1e15_relative(exact_levels):
    got = quantile(STD, LEVELS)
    assert got.shape == LEVELS.shape
    assert max(_rel_errors(got, exact_levels)) <= 1e-15


def test_tail_quantile_is_within_1e15_relative_down_to_1e300():
    t = np.concatenate([np.logspace(-300, math.log10(0.5), 100), [_FAR_EDGE]])
    exact = [-_exact_quantile(float(v)) for v in t]
    assert max(_rel_errors([tail_quantile(STD, float(v)) for v in t], exact)) <= 1e-15
    assert max(_rel_errors(tail_quantile(STD, t), exact)) <= 1e-15


def test_array_bits_do_not_depend_on_shape_or_position():
    # Every node gets the float path's operations whatever array it sits
    # in; the blocked Monte Carlo study relies on this to match per-sample
    # solves bit for bit.
    singles = np.array([quantile(STD, LEVELS[i:i + 1])[0] for i in range(LEVELS.size)])
    order = np.random.default_rng(1).permutation(LEVELS.size)
    body = np.abs(LEVELS - 0.5) <= 0.425
    far = np.minimum(LEVELS, 1.0 - LEVELS) < _FAR_EDGE
    tail = ~body & ~far
    picks = [
        np.arange(LEVELS.size), order, order[::-1], order[::3],
        *(np.flatnonzero(m) for m in (body, tail, far, body | far, tail | far, body | tail)),
    ]
    for pick in picks:
        assert np.array_equal(quantile(STD, LEVELS[pick]), singles[pick])
    panels = LEVELS[:-(LEVELS.size % 15) or None].reshape(-1, 15)
    for levels in (panels, panels.T, np.asfortranarray(panels), panels[::2, ::3]):
        assert np.array_equal(quantile(STD, levels), singles[np.searchsorted(LEVELS, levels)])
    # A 0-d array keeps its shape, and so does an empty one.
    zero_d = [quantile(STD, np.array(p)) for p in LEVELS]
    assert all(np.shape(v) == () for v in zero_d)
    assert np.array_equal(zero_d, singles)
    for shape in ((0,), (0, 3)):
        assert quantile(STD, np.empty(shape)).shape == shape
    # The float path matches in the body, which takes only + - * /.  The
    # tails are not asserted: there floats take math.log and arrays np.log,
    # which may differ by an ulp.
    floats = np.array([quantile(STD, float(p)) for p in LEVELS[body]])
    assert np.array_equal(floats.view(np.uint64), singles[body].view(np.uint64))


def test_cdf_matches_mpmath():
    # Rounding the argument (mean - x)/(stddev*sqrt(2)) by a relative delta
    # moves Phi(u) by about u^2*delta relative, so that is the bound; below
    # u = -37 Phi is subnormal.
    for d in (STD, Normal(2, 0.5)):
        for u in np.concatenate([np.linspace(-37.0, 8.5, 181), [0.0, -1e-10]]).tolist():
            x = d.mean + d.stddev * u
            with mpmath.workdps(50):
                exact = mpmath.ncdf((mpmath.mpf(x) - d.mean) / d.stddev)
                err = abs(d.cdf(x) - exact) / exact
            assert err <= 2 * EPS * max(1.0, u * u), (d, x)


def test_es_at_level_zero_takes_the_infinite_quantile():
    # z = -inf at p = 0: ES_1 is the mean and ES_2 the mean of the larger of
    # two draws, mean + stddev/sqrt(pi).
    for d in (STD, Normal(2, 0.5)):
        assert es_n(d, 1, 0.0).value == d.mean
        assert es_n(d, 2, 0.0).value == pytest.approx(
            d.mean + d.stddev / math.sqrt(math.pi), rel=2 * EPS
        )


@pytest.mark.parametrize("p", [0.5, 0.9, 0.99, 1 - 1e-4, 1 - 1e-6, 1 - 1e-9])
def test_es2_closed_form_has_no_cancellation(p):
    # ES_2(p) = (1 - Phi(sqrt(2) z))/(sqrt(pi) (1 - p)^2) with z the
    # quantile at p.  Forming 1 - Phi lost every digit by p = 1 - 1e-9,
    # where it returned 0; erfc keeps them.  The bound covers the quantile's
    # own error, amplified by the (1 - p)^-2.
    with mpmath.workdps(50):
        z = _exact_quantile(p)
        exact = mpmath.erfc(z) / 2 / (mpmath.sqrt(mpmath.pi) * (1 - mpmath.mpf(p)) ** 2)
        assert abs(es_n(STD, 2, p).value - exact) <= 1e-12 * exact
