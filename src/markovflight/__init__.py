"""Symmetric Markov random flight in R^3 at finite speed.

A particle starts at the origin, moves at constant speed c, and picks a fresh
direction uniformly on the unit sphere at each event of a Poisson process of
intensity lam.  The package evaluates the closed-form objects attached to the
distribution of the position X(t) -- conditional characteristic functions,
the small-time transition density, subball probabilities and the interior
mass functions -- and ships a Monte Carlo engine plus a quadrature-backed
cross-check suite that ties every formula to an independent oracle.
"""
from .arctan_series import arctan_pow, gamma_sum_identity, quartic_gamma
from .charfun import FreqQuery, h0, h1, h2_series, h3_series, h_asymptotic
from .density import (
    RadialProfile,
    ac_density,
    ball_prob_asymptotic,
    density_at,
    g_exact,
    g_tilde,
    radial_profile,
    singular_weight,
    switch_tail_error,
)
from .errors import (
    DomainError,
    InvalidParameter,
    MarkovFlightError,
    NonFinite,
    NonPositiveIntensity,
    NonPositiveSpeed,
    QuadratureNotConverged,
    RadiusOutsideBall,
    TruncationNotConverged,
    UnsupportedPower,
)
from .model import (
    DEFAULT_TRUNCATION,
    DensityValue,
    FlightParams,
    McConfig,
    McEstimate,
    SeriesTruncation,
    Vec3,
)
from .montecarlo import (
    CfEstimate,
    PathSample,
    RadialHistogram,
    estimate_ball_prob,
    estimate_cf,
    estimate_conditional_cf,
    radial_histogram,
    sample_direction,
    sample_position,
    sample_position_given_n,
    sample_positions,
    sample_positions_given_n,
    substream,
)
from .specfun import Order, bessel_j, hyp5f4_unit, neg_cin, si
from .validate import (
    DEFAULT_SEED,
    CheckReport,
    integrate_ac_density,
    integrate_ac_density_ball,
    report_lines,
    reports_to_csv,
    run_suite,
)

__version__ = "0.1.0"

__all__ = [
    "arctan_pow",
    "gamma_sum_identity",
    "quartic_gamma",
    "FreqQuery",
    "h0",
    "h1",
    "h2_series",
    "h3_series",
    "h_asymptotic",
    "RadialProfile",
    "ac_density",
    "ball_prob_asymptotic",
    "density_at",
    "g_exact",
    "g_tilde",
    "radial_profile",
    "singular_weight",
    "switch_tail_error",
    "DomainError",
    "InvalidParameter",
    "MarkovFlightError",
    "NonFinite",
    "NonPositiveIntensity",
    "NonPositiveSpeed",
    "QuadratureNotConverged",
    "RadiusOutsideBall",
    "TruncationNotConverged",
    "UnsupportedPower",
    "DEFAULT_TRUNCATION",
    "DensityValue",
    "FlightParams",
    "McConfig",
    "McEstimate",
    "SeriesTruncation",
    "Vec3",
    "CfEstimate",
    "PathSample",
    "RadialHistogram",
    "estimate_ball_prob",
    "estimate_cf",
    "estimate_conditional_cf",
    "radial_histogram",
    "sample_direction",
    "sample_position",
    "sample_position_given_n",
    "sample_positions",
    "sample_positions_given_n",
    "substream",
    "Order",
    "bessel_j",
    "hyp5f4_unit",
    "neg_cin",
    "si",
    "DEFAULT_SEED",
    "CheckReport",
    "integrate_ac_density",
    "integrate_ac_density_ball",
    "report_lines",
    "reports_to_csv",
    "run_suite",
    "__version__",
]
