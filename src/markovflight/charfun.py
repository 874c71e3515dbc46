"""Characteristic functions of the flight position.

H_n is the characteristic function of X(t) conditioned on exactly n direction
switches; by isotropy each is a real radial function of x = c*t*||alpha||.
As the Laplace transform of t^n H_n(ct a) is n! (atan(ca/s)/(ca))^(n+1), each
H_n is one Bessel series over the arctan^(n+1) coefficients (`_term`).  H_0 and
H_1 also have closed forms; H_2 and H_3 are the series, summed by `sum_series`
past its peak (k + 1 > x), and raise past x ~ 37.  `h_asymptotic`, the small-time
approximation of the unconditional one, is sum_{n<=3} P{N(t)=n} times H_0, H_1
and the k = 0 terms of H_2 and H_3: o(t^3) at fixed frequency.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import NonFinite
from .model import FlightParams, check_radius, check_time, switch_weights
from .specfun import bessel_j, neg_cin, si, sum_series
from .specfun import hyp5f4_unit  # noqa: F401  unused; perfbench's tracer test reads it here
from .arctan_series import _coefficient

__all__ = ["FreqQuery", "h0", "h1", "h2_series", "h3_series", "h_asymptotic"]

# Below this value of x = c*t*||alpha|| each H_n and each leading Bessel term
# is within x^2/6 < 2e-17 of 1, so all of them round to 1; the direct forms
# are 0/0 at x = 0.
_SMALL_X = 1e-8


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


def _term(n: int, k: int, x: float) -> float:
    """k-th Bessel term of H_n at x > 0, with a_{n+1,k} the arctan^(n+1) coefficient:
    n! sqrt(pi) 2^-n a_{n+1,k} (x/2)^(k-n/2) J_{k+n/2}(x) / Gamma(k+(n+1)/2).  The power and
    Gamma round closer than an exp of log-gammas, and overflow only well past x ~ 37."""
    return (math.factorial(n) * math.sqrt(math.pi) / 2**n * _coefficient(n + 1, k)
            * (x / 2) ** (k - n / 2) / math.gamma(k + (n + 1) / 2) * bessel_j(k + n / 2, x))


def _series(n: int, q: FreqQuery, p: FlightParams) -> float:
    x = _x(q, p)
    if x < _SMALL_X:
        return 1.0
    return sum_series(f"H{n} series at x={x}", lambda k: _term(n, k, x), past=x)


def h2_series(q: FreqQuery, p: FlightParams) -> float:
    """Two-switch characteristic function as a Bessel series.

    H_2 = sum_k x^(k-1) / (2^(k-1) k! (2k+1)^2) * F(k) * J_{k+1}(x), where
    F(k) is the terminating 5F4 factor of `specfun.hyp5f4_unit`.
    """
    return _series(2, q, p)


def h3_series(q: FreqQuery, p: FlightParams) -> float:
    """Three-switch characteristic function as a half-integer Bessel series.

    H_3 = 3 pi^(3/2) sum_k gamma_k x^(k-3/2) / (2^(k+3/2) (k+1)!) * J_{k+3/2}(x)
    with gamma_k the quartic arctan coefficients of `arctan_series`.
    """
    return _series(3, q, p)


def _leads(x: float) -> tuple:
    """The k = 0 terms L_2 = 2 J_1(x)/x of H_2 and L_3 = 6 sqrt(pi) (2x)^(-3/2) J_{3/2}(x)
    of H_3, each 1 at x = 0."""
    if x < _SMALL_X:
        return 1.0, 1.0
    return _term(2, 0, x), _term(3, 0, x)


def h_asymptotic(q: FreqQuery, p: FlightParams) -> float:
    """Small-time approximation of the unconditional characteristic function.

    P0 H_0 + P1 H_1 + P2 L_2 + P3 L_3 with Pn = P{N(t)=n} and L_2, L_3 the
    k = 0 terms of H_2 and H_3 (`_leads`).  It deviates from the exact
    mixture sum_{n<=3} Pn H_n by o(t^3) at fixed ||alpha||; at zero frequency
    every shape is 1 and the value is P{N(t) <= 3}.
    """
    w0, w1, w2, w3, _ = switch_weights(q.t, p)
    l2, l3 = _leads(_x(q, p))
    return math.fsum((w0 * h0(q, p), w1 * h1(q, p), w2 * l2, w3 * l3))
