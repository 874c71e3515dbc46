"""Exception types shared across the package."""

__all__ = [
    "MarkovFlightError", "DomainError", "NonFinite", "TruncationNotConverged",
    "QuadratureNotConverged", "RadiusOutsideBall",
]


class MarkovFlightError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MarkovFlightError, ValueError):
    """Argument outside the mathematical domain of a function."""


class NonFinite(DomainError):
    """A parameter required to be finite is NaN or infinite."""


class TruncationNotConverged(MarkovFlightError):
    """Series truncation budget exhausted before the tail tolerance was met."""


class QuadratureNotConverged(MarkovFlightError):
    """Adaptive quadrature could not reach the requested accuracy."""


class RadiusOutsideBall(DomainError):
    """Radius argument must lie strictly inside the support ball of radius c*t."""
