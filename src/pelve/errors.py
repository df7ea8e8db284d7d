"""Exception and warning types shared across the package."""

__all__ = [
    "PelveError", "LevelOutOfRange", "OrderOutOfRange", "InvalidParameter",
    "ExcessGPDBelowThreshold", "ExcessGPDLevelBelowBase", "NoClosedForm",
    "QuadratureNonConvergence", "QuantileOverflow", "AlphaOutOfRange",
    "NoFiniteEstimates", "MalformedCsv", "NonPositivePrice",
    "NonMonotoneDates", "SampleTooSmall",
]


class PelveError(Exception):
    """Base class for all errors raised by this package."""


class LevelOutOfRange(PelveError):
    """Probability level outside its admissible range."""


class OrderOutOfRange(PelveError):
    """Order must be a positive integer."""


class InvalidParameter(PelveError):
    """Distribution or solver parameter violates its constraints."""


class ExcessGPDBelowThreshold(PelveError):
    """Excess-over-threshold model is undefined below its threshold."""


class ExcessGPDLevelBelowBase(PelveError):
    """Quantile of an excess-over-threshold model requested at or below
    the base CDF value at the threshold."""


class NoClosedForm(PelveError):
    """No closed form is available for the requested (family, order) pair."""


class QuantileOverflow(PelveError, OverflowError):
    """A quantile lies beyond the largest float, as far out in a very heavy
    tail.  Also an OverflowError, which the float formulas raised before,
    so existing handlers (the quadrature's among them) still catch it."""


class QuadratureNonConvergence(PelveError):
    """Panel budget exhausted before the requested tolerance was met.
    Usually signals a quantile function without a finite first moment."""


class AlphaOutOfRange(PelveError):
    """Tail index must exceed 1."""


class NoFiniteEstimates(PelveError):
    """A histogram was requested but every estimate was infinite."""


class MalformedCsv(PelveError):
    """CSV input does not match the expected header/row format."""


class NonPositivePrice(PelveError):
    """Price series must be strictly positive to form returns."""


class NonMonotoneDates(PelveError):
    """Dates in an input series must be strictly increasing."""


class SampleTooSmall(UserWarning):
    """m * epsilon < 1: the empirical VaR sits on the sample maximum and
    the PELVE estimate is degenerate."""
