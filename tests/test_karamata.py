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
