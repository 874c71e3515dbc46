"""Small-time transition density, subball probabilities and accuracy curves.

The position law at time t splits into an atom of mass e^(-lam t) on the
sphere r = ct and an absolutely continuous part inside the open ball.  The
a.c. part admits a three-term small-time approximation whose radial integrals
have elementary closed forms; those integrals give the accuracy functions
G (exact a.c. mass) and G-tilde (mass of the approximation), whose gap is
exactly the Poisson tail Pr{N(t) >= 4}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import DensityValue, FlightParams, Vec3, check_radius, check_time

__all__ = [
    "RadialProfile",
    "singular_weight",
    "ac_density",
    "density_at",
    "ball_prob_asymptotic",
    "g_exact",
    "g_tilde",
    "switch_tail_error",
    "radial_profile",
]


@dataclass
class RadialProfile:
    """Table of a.c. density values on an ascending radial grid inside the ball."""

    t: float
    radii: np.ndarray
    values: np.ndarray


def singular_weight(t: float, p: FlightParams) -> float:
    """Mass e^(-lam t) of the sphere atom (no switch up to time t)."""
    check_time(t)
    return math.exp(-p.lam * t)


def ac_density(r: float, t: float, p: FlightParams) -> float:
    """Absolutely continuous density at radius r, small-time approximation.

    e^(-lam t) [ lam/(4 pi c^2 t r) * ln((ct+r)/(ct-r))
                 + lam^2/(2 pi^2 c^2 sqrt(c^2 t^2 - r^2))
                 + lam^3/(8 pi c^3) ]          for r < ct,

    and 0 for r >= ct (the boundary itself reports 0; the blow-up is only
    approached from inside).  The log term has a removable 0/0 at r = 0 with
    limit lam/(2 pi c^3 t^2), switched to below r = 1e-9 ct.
    """
    check_time(t)
    check_radius(r)
    ct = p.c * t
    if r >= ct:
        return 0.0
    if r < 1e-9 * ct:
        log_part = p.lam / (2.0 * math.pi * p.c**3 * t * t)
    else:
        # log((ct+r)/(ct-r)) as log1p: the quotient rounds away digits near r = 0
        log_part = p.lam / (4.0 * math.pi * p.c**2 * t * r) * math.log1p(2.0 * r / (ct - r))
    sqrt_part = p.lam**2 / (2.0 * math.pi**2 * p.c**2 * math.sqrt(ct * ct - r * r))
    const_part = p.lam**3 / (8.0 * math.pi * p.c**3)
    return math.exp(-p.lam * t) * (log_part + sqrt_part + const_part)


def density_at(x: Vec3, t: float, p: FlightParams) -> DensityValue:
    """Full decomposition at a point: sphere atom plus interior a.c. value."""
    return DensityValue(
        atom_radius=p.c * t,
        atom_mass=singular_weight(t, p),
        ac_value=ac_density(x.norm(), t, p),
    )


# Below this r/ct both brackets of ball_prob_asymptotic cancel down to their
# leading 2 rho^3/3, so they are summed from their series there instead; 14
# terms leave a tail below 1e-16 of the sum (the terms fall by rho^2 <= 1/16).
_SMALL_RATIO = 0.25


def ball_prob_asymptotic(r: float, t: float, p: FlightParams) -> float:
    """Probability that the position lies in the ball of radius r < ct.

    e^(-lam t) [ lam t (rho - (1 - rho^2) artanh(rho))
                 + (lam^2 t^2/pi)(arcsin(rho) - rho sqrt(1 - rho^2))
                 + lam^3 r^3/(6 c^3) ]          with rho = r/ct,

    the integral of 4 pi s^2 ac_density(s) over [0, r].  As r -> ct the value
    tends to g_tilde(t): the first bracket reaches 1 and the arcsin pi/2.
    """
    check_time(t)
    ct = p.c * t
    check_radius(r, ct)
    if r == 0.0:
        return 0.0
    ratio = r / ct
    if ratio < _SMALL_RATIO:
        # rho - (1 - rho^2) artanh(rho) = 2 rho sum_{k>=1} rho^(2k)/(4k^2-1)
        # arcsin(rho) - rho sqrt(1 - rho^2) = 2 rho^3 sum_{k>=0} C(2k,k) (rho/2)^(2k)/(2k+3)
        q = ratio * ratio
        log_part = 2.0 * ratio * sum(q**k / (4.0 * k * k - 1.0) for k in range(1, 15))
        arc = 2.0 * ratio * q * sum(
            math.comb(2 * k, k) * (q / 4.0) ** k / (2 * k + 3) for k in range(14)
        )
    else:
        # 1 -+ rho taken as (ct -+ r)/ct, which stays exact as r -> ct
        log_part = ratio - (ct - r) * (ct + r) / (2.0 * ct * ct) * math.log((ct + r) / (ct - r))
        arc = math.asin(ratio) - ratio * math.sqrt(1.0 - ratio * ratio)
    lt = p.lam * t
    return math.exp(-lt) * (
        lt * log_part + lt * lt / math.pi * arc + p.lam**3 * r**3 / (6.0 * p.c**3)
    )


def g_exact(t: float, p: FlightParams) -> float:
    """Exact mass of the absolutely continuous part, 1 - e^(-lam t)."""
    check_time(t)
    return 1.0 - math.exp(-p.lam * t)


def g_tilde(t: float, p: FlightParams) -> float:
    """Mass of the three-term density approximation,
    e^(-lam t)(lam t + (lam t)^2/2 + (lam t)^3/6); never exceeds g_exact."""
    check_time(t)
    lt = p.lam * t
    return math.exp(-lt) * (lt + lt * lt / 2.0 + lt**3 / 6.0)


def switch_tail_error(t: float, p: FlightParams) -> float:
    """Poisson tail Pr{N(t) >= 4} = 1 - e^(-lam t) sum_{k<=3} (lam t)^k / k!.

    Identically equal to g_exact - g_tilde: the approximation accounts for
    paths with at most three switches, so its mass deficit is exactly the
    probability of four or more.
    """
    check_time(t)
    lt = p.lam * t
    return 1.0 - math.exp(-lt) * (1.0 + lt + lt * lt / 2.0 + lt**3 / 6.0)


def radial_profile(t: float, p: FlightParams, n_points: int, r_max: float) -> RadialProfile:
    """Density table on the uniform grid [0, r_max] with n_points entries."""
    check_time(t)
    if n_points < 2:
        raise DomainError(f"n_points must be >= 2, got {n_points}")
    check_radius(r_max, p.c * t, "r_max")
    radii = np.linspace(0.0, r_max, n_points)
    values = np.array([ac_density(float(r), t, p) for r in radii])
    return RadialProfile(t=t, radii=radii, values=values)
