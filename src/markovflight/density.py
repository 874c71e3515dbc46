"""Small-time transition density, subball probabilities and accuracy curves.

The position law at time t splits into an atom of mass P{N(t)=0} on the sphere
r = ct and an absolutely continuous part inside the open ball, approximated by
the Poisson mixture sum_{n=1..3} P{N(t)=n} times a fixed radial shape in
rho = r/ct, with the weights of `model.switch_weights`.  The shapes integrate
in closed form to the subball probabilities and to G-tilde = P{1 <= N <= 3},
whose gap to the exact a.c. mass G = P{N >= 1} is the tail P{N(t) >= 4}.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .model import FlightParams, check_count, check_radius, check_time, switch_weights

__all__ = [
    "RadialProfile",
    "singular_weight",
    "ac_density",
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
    """Mass P{N(t)=0} = e^(-lam t) of the sphere atom (no switch up to time t)."""
    return switch_weights(t, p)[0]


def ac_density(r: float, t: float, p: FlightParams) -> float:
    """Absolutely continuous density at radius r, small-time approximation.

    [ P1 ln((1+rho)/(1-rho))/(4 pi rho) + P2/(pi^2 sqrt(1-rho^2)) + P3 3/(4 pi) ] / (ct)^3

    with rho = r/ct and Pn = P{N(t)=n}, for r < ct, and 0 for r >= ct (the
    blow-up is only approached from inside).  The log shape has a removable
    0/0 at r = 0 with limit 1/(2 pi), switched to below r = 1e-9 ct.  Raises
    DomainError where the value leaves the float range (r = 0, t = 1e-300).
    """
    _, w1, w2, w3, _ = switch_weights(t, p)
    check_radius(r)
    ct = p.c * t
    if ct == 0.0:
        raise DomainError(f"ct underflows to 0 at c={p.c}, t={t}")
    if r >= ct:
        return 0.0
    if r <= 1e-9 * ct:
        log_shape = 1.0 / (2.0 * math.pi)
    else:
        # log((ct+r)/(ct-r)) as log1p: the quotient rounds away digits near r = 0
        log_shape = ct * math.log1p(2.0 * r / (ct - r)) / (4.0 * math.pi * r)
    # sqrt(1 - rho^2) from ct - r, which is exact as r -> ct, and ct + r
    sqrt_shape = ct / (math.pi**2 * math.sqrt(ct - r) * math.sqrt(ct + r))
    value = math.fsum((w1 * log_shape, w2 * sqrt_shape, w3 * 0.75 / math.pi)) / ct / ct / ct
    if not math.isfinite(value):
        raise DomainError(f"the density at r={r}, t={t} is outside the float range")
    return value


# Below this r/ct both brackets of ball_prob_asymptotic cancel down to their
# leading 2 rho^3/3, so they are summed from their series there instead; 14
# terms leave a tail below 1e-16 of the sum (the terms fall by rho^2 <= 1/16).
_SMALL_RATIO = 0.25


def ball_prob_asymptotic(r: float, t: float, p: FlightParams) -> float:
    """Probability that the position lies in the ball of radius r < ct.

    P1 [rho - (1 - rho^2) artanh(rho)] + P2 (2/pi) [arcsin(rho) - rho sqrt(1 - rho^2)]
    + P3 rho^3          with rho = r/ct and Pn = P{N(t)=n},

    the integral of 4 pi s^2 ac_density(s) over [0, r].  As r -> ct each
    bracket, the mass of its shape inside r, tends to 1 and the sum to g_tilde.
    """
    _, w1, w2, w3, _ = switch_weights(t, p)
    check_radius(r, p.c * t)  # where c t overflows, ct exceeds every float
    if r == 0.0:
        return 0.0
    # ct = m 2^e with m = mc mt: in units of 2^e no rounding changes, ct * ct
    # stays a normal float, and c t can neither overflow nor underflow
    (mc, ec), (mt, et) = math.frexp(p.c), math.frexp(t)
    ct, e = mc * mt, ec + et
    r = math.ldexp(r, -e)
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
    return math.fsum((w1 * log_part, w2 * 2.0 / math.pi * arc, w3 * ratio * ratio * ratio))


def g_exact(t: float, p: FlightParams) -> float:
    """Exact mass of the absolutely continuous part, 1 - e^(-lam t) = P{N(t) >= 1}."""
    check_time(t)
    return -math.expm1(-p.lam * t)


def g_tilde(t: float, p: FlightParams) -> float:
    """Mass P{1 <= N(t) <= 3} of the three-term density; never exceeds g_exact."""
    _, w1, w2, w3, _ = switch_weights(t, p)
    return w1 + w2 + w3


def switch_tail_error(t: float, p: FlightParams) -> float:
    """Poisson tail P{N(t) >= 4}, exact at every lam t: the mass g_exact - g_tilde
    of the paths with four switches or more, which the approximation leaves out."""
    return switch_weights(t, p)[4]


def radial_profile(t: float, p: FlightParams, n_points: int, r_max: float) -> RadialProfile:
    """Density table on the uniform grid [0, r_max] with n_points entries."""
    check_time(t)
    check_count(n_points, "n_points", 2)
    check_radius(r_max, p.c * t, "r_max")
    radii = np.linspace(0.0, r_max, n_points)
    values = np.array([ac_density(float(r), t, p) for r in radii])
    return RadialProfile(t=t, radii=radii, values=values)
