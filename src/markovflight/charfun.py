"""Characteristic functions of the flight position.

H_n is the characteristic function of X(t) conditioned on exactly n direction
switches; by isotropy each is a real radial function of x = c*t*||alpha||.
H_0 and H_1 have elementary closed forms, H_2 and H_3 are Bessel series summed by
`specfun.sum_series` past their peak (k + 1 > x); they raise past x ~ 37.
`h_asymptotic`, the small-time approximation of the unconditional one, is the
Poisson mixture sum_{n<=3} P{N(t)=n} times a fixed function of x: H_0, H_1
and the leading Bessel terms of H_2 and H_3.  It is o(t^3) at fixed frequency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFinite
from .model import FlightParams, check_radius, check_time, switch_weights
from .specfun import bessel_j, hyp5f4_unit, log_gamma, neg_cin, si, sum_series
from .arctan_series import quartic_gamma

__all__ = ["FreqQuery", "h0", "h1", "h2_series", "h3_series", "h_asymptotic"]

# Below this value of x = c*t*||alpha|| each H_n and each leading Bessel term
# is within x^2/6 < 2e-17 of 1, so all of them round to 1; the direct forms
# are 0/0 at x = 0.
_SMALL_X = 1e-8

_LOG2 = math.log(2.0)
_SQRT_PI = math.sqrt(math.pi)


@dataclass(frozen=True)
class FreqQuery:
    """Radial frequency ||alpha|| paired with the elapsed time t."""

    alpha_norm: float
    t: float

    def __post_init__(self):
        check_radius(self.alpha_norm, name="alpha_norm")
        check_time(self.t)


def _x(q: FreqQuery, p: FlightParams) -> float:
    x = p.c * q.t * q.alpha_norm if q.alpha_norm else 0.0  # 0 even where c t overflows
    if x == math.inf:
        raise NonFinite(f"x = c t ||alpha|| overflows at t={q.t}, alpha_norm={q.alpha_norm}")
    return x


def h0(q: FreqQuery, p: FlightParams) -> float:
    """No-switch characteristic function sin(x)/x (uniform law on the sphere r = ct)."""
    x = _x(q, p)
    if x < _SMALL_X:
        return 1.0
    return math.sin(x) / x


def h1(q: FreqQuery, p: FlightParams) -> float:
    """One-switch characteristic function [sin(x) Si(2x) + cos(x) negCin(2x)] / x^2.

    Independent of the switching intensity: given one switch, the epoch is
    uniform on (0, t) and only x matters.
    """
    x = _x(q, p)
    if x < _SMALL_X:
        return 1.0
    return (math.sin(x) * si(2.0 * x) + math.cos(x) * neg_cin(2.0 * x)) / (x * x)


def h2_series(q: FreqQuery, p: FlightParams) -> float:
    """Two-switch characteristic function as a Bessel series.

    H_2 = sum_k x^(k-1) / (2^(k-1) k! (2k+1)^2) * F(k) * J_{k+1}(x), where
    F(k) is the terminating hypergeometric factor hyp5f4_unit(k).
    """
    x = _x(q, p)
    if x < _SMALL_X:
        return 1.0
    log_half_x = math.log(0.5 * x)
    return sum_series(f"H2 series at x={x}", lambda k: (
        math.exp((k - 1) * log_half_x - log_gamma(k + 1.0)) / (2 * k + 1) ** 2
        * hyp5f4_unit(k) * bessel_j(k + 1, x)
    ), past=x)


def h3_series(q: FreqQuery, p: FlightParams) -> float:
    """Three-switch characteristic function as a half-integer Bessel series.

    H_3 = 3 pi^(3/2) sum_k gamma_k x^(k-3/2) / (2^(k+3/2) (k+1)!) * J_{k+3/2}(x)
    with the quartic_gamma coefficients.
    """
    x = _x(q, p)
    if x < _SMALL_X:
        return 1.0
    log_x = math.log(x)
    return sum_series(f"H3 series at x={x}", lambda k: (
        3.0
        * math.pi**1.5
        * quartic_gamma(k)
        * math.exp((k - 1.5) * log_x - (k + 1.5) * _LOG2 - log_gamma(k + 2.0))
        * bessel_j(k + 1.5, x)
    ), past=x)


def _leads(x: float) -> tuple:
    """Leading Bessel terms L_2 = 2 J_1(x)/x of H_2 and L_3 = 6 sqrt(pi) (2x)^(-3/2) J_{3/2}(x)
    of H_3, each 1 at x = 0."""
    if x < _SMALL_X:
        return 1.0, 1.0
    return 2.0 * bessel_j(1, x) / x, 6.0 * _SQRT_PI * (2.0 * x) ** -1.5 * bessel_j(1.5, x)


def h_asymptotic(q: FreqQuery, p: FlightParams) -> float:
    """Small-time approximation of the unconditional characteristic function.

    P0 H_0 + P1 H_1 + P2 L_2 + P3 L_3 with Pn = P{N(t)=n} and L_2, L_3 the
    leading Bessel terms of H_2 and H_3 (`_leads`).  It deviates from the exact
    mixture sum_{n<=3} Pn H_n by o(t^3) at fixed ||alpha||; at zero frequency
    every shape is 1 and the value is P{N(t) <= 3}.
    """
    w0, w1, w2, w3, _ = switch_weights(q.t, p)
    l2, l3 = _leads(_x(q, p))
    return math.fsum((w0 * h0(q, p), w1 * h1(q, p), w2 * l2, w3 * l3))
