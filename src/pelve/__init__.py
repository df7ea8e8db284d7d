"""Value at Risk, n-th-order Expected Shortfall, Gini Shortfall and the
probability-equivalent-level multiplier (PELVE), with analytic, numeric and
sample-based estimators plus a Monte Carlo study harness.

The public API is the union of each module's ``__all__``."""

from . import distributions, empirical, errors, montecarlo, pelve_solver, risk_measures
from .distributions import *  # noqa: F403
from .empirical import *  # noqa: F403
from .errors import *  # noqa: F403
from .montecarlo import *  # noqa: F403
from .pelve_solver import *  # noqa: F403
from .risk_measures import *  # noqa: F403

__version__ = "0.1.0"

__all__ = ["__version__"] + [
    name
    for module in (distributions, risk_measures, pelve_solver, empirical, montecarlo, errors)
    for name in module.__all__
]
