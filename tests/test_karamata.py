"""karamata_ratio near its lower index limit kappa = -1."""

import math
import warnings

import numpy as np
import pytest

from pelve import DEFAULT_REL_TOL, KappaOutOfRange, karamata_ratio


@pytest.mark.parametrize("kappa", [-0.94, -0.95])
def test_karamata_ratio_converges_close_to_minus_one(kappa):
    # Doubling from 1024 levels sent the closing panel's nodes past the
    # normal floats, where v^kappa overflows; grading that stops at the
    # last normal level converges here.
    got = karamata_ratio(kappa, 0.05)
    assert abs(got - 1.0 / (kappa + 1.0)) <= DEFAULT_REL_TOL / (kappa + 1.0)


@pytest.mark.parametrize("eps", [0.05, 0.3, 1e-6])
def test_karamata_ratio_near_minus_one_returns_right_or_raises(eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kappa in np.linspace(-0.9, -1.0 + 1e-6, 120).tolist():
            try:
                got = karamata_ratio(kappa, eps)
            except KappaOutOfRange:
                continue
            exact = 1.0 / (kappa + 1.0)
            assert math.isfinite(got) and abs(got - exact) <= 10.0 * DEFAULT_REL_TOL * exact, (kappa, got)


@pytest.mark.parametrize("eps", [1e-300, 1e-12, 0.05])
@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.3, 1.0, 2.5, 7.0])
def test_karamata_ratio_holds_for_every_eps(kappa, eps):
    # The ratio does not depend on eps; eps ** (kappa + 1) underflowed to 0
    # at eps = 1e-300 when it entered the arithmetic.
    got = karamata_ratio(kappa, eps)
    assert got == pytest.approx(1.0 / (kappa + 1.0), rel=DEFAULT_REL_TOL)
