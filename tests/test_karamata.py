"""The Karamata ratio of the power kernel, integral(0..eps) v^kappa dv /
(eps * eps^kappa) = 1/(kappa + 1), through ``es_n_quadrature``.

The substitution v = eps*u makes it the integral over (0, 1) of
(eps*u / eps)^kappa du: ES_1 at level 0 of the quantile whose tail quantile
is that integrand at u = t.  The integrand is formed in logs,
exp(kappa * ((log eps + log t) - log eps)), so that eps enters the
arithmetic without eps**kappa under- or overflowing.  For kappa < 0 the
tail table carries an integrable singularity at t = 0, which near
kappa = -1 no longer converges.
"""

import math
import warnings

import numpy as np
import pytest

from pelve import DEFAULT_REL_TOL, QuadratureNonConvergence, es_n_quadrature


def karamata_ratio(kappa: float, rel_tol: float = DEFAULT_REL_TOL, *, eps: float = 1.0) -> float:
    log_eps = math.log(eps)

    def tail(t: float) -> float:
        return math.exp(kappa * ((log_eps + math.log(t)) - log_eps))

    return es_n_quadrature(lambda s: tail(1.0 - s), 1, 0.0, rel_tol, tail_quantile_fn=tail).value


@pytest.mark.parametrize("kappa", [-0.94, -0.95])
def test_karamata_ratio_converges_close_to_minus_one(kappa):
    # Doubling from 1024 levels sent the closing panel's nodes past the
    # normal floats, where v^kappa overflows; grading that stops at the
    # last normal level converges here.
    got = karamata_ratio(kappa, eps=0.05)
    assert abs(got - 1.0 / (kappa + 1.0)) <= DEFAULT_REL_TOL / (kappa + 1.0)


@pytest.mark.parametrize("eps", [0.05, 0.3, 1e-6])
def test_karamata_ratio_near_minus_one_returns_right_or_raises(eps):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for kappa in np.linspace(-0.9, -1.0 + 1e-6, 120).tolist():
            try:
                got = karamata_ratio(kappa, eps=eps)
            except QuadratureNonConvergence:
                continue
            exact = 1.0 / (kappa + 1.0)
            assert math.isfinite(got) and abs(got - exact) <= 10.0 * DEFAULT_REL_TOL * exact, (kappa, got)


@pytest.mark.parametrize("eps", [1e-300, 1e-12, 0.05])
@pytest.mark.parametrize("kappa", [-0.5, 0.0, 0.3, 0.5, 1.0, 2.5, 7.0])
def test_karamata_ratio_holds_for_every_eps(kappa, eps):
    # The ratio does not depend on eps; eps ** (kappa + 1) underflows to 0
    # at eps = 1e-300, so eps enters only through its logarithm.
    got = karamata_ratio(kappa, eps=eps)
    assert got == pytest.approx(1.0 / (kappa + 1.0), rel=DEFAULT_REL_TOL)

