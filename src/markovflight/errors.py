"""Exception types shared across the package."""

__all__ = [
    "MarkovFlightError", "DomainError", "NonPositiveSpeed", "NonPositiveIntensity", "NonFinite",
    "UnsupportedPower", "InvalidParameter", "TruncationNotConverged", "QuadratureNotConverged",
    "RadiusOutsideBall",
]


class MarkovFlightError(Exception):
    """Base class for all package-specific errors."""


class DomainError(MarkovFlightError, ValueError):
    """Argument outside the mathematical domain of a function."""


class NonPositiveSpeed(DomainError):
    """Speed c must be strictly positive."""


class NonPositiveIntensity(DomainError):
    """Switching intensity lambda must be strictly positive."""


class NonFinite(DomainError):
    """A parameter required to be finite is NaN or infinite."""


class UnsupportedPower(DomainError):
    """arctan power series only covers exponents 1 through 4."""


class InvalidParameter(DomainError):
    """Parameter excluded by the identity being evaluated."""


class TruncationNotConverged(MarkovFlightError):
    """Series truncation budget exhausted before the tail tolerance was met."""


class QuadratureNotConverged(MarkovFlightError):
    """Adaptive quadrature could not reach the requested accuracy."""


class RadiusOutsideBall(DomainError):
    """Radius argument must lie strictly inside the support ball of radius c*t."""
