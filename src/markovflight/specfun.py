"""Special functions underlying every closed-form expression in the package.

Log-gamma, Bessel J of integer and half-integer order, the sine integral Si,
the nonstandard cosine integral used by the characteristic functions, and two
terminating hypergeometric sums at unit argument (log-gamma and the 3F2 sum
are internal helpers, not exported).

`sum_series`, the one truncation rule of the paper's series (H_2, H_3, the arctan powers),
sums to a term below 1e-14 within 400 terms; `_quad` is the one integrator.  Neither is public.
"""
from __future__ import annotations

import heapq
import math

import numpy as np
from scipy import special

from .errors import DomainError, InvalidParameter, QuadratureNotConverged, TruncationNotConverged
from .model import check_radius

__all__ = ["bessel_j", "si", "neg_cin", "hyp5f4_unit"]

# neg_cin switches from its entire Taylor series to scipy's Ci here; the
# series loses digits to cancellation once x is well past 10.
_TAYLOR_CUTOFF = 10.0

# sum_series stops at the first term below _TAIL_TOL.  _MAX_TERMS covers the
# geometric arctan tails for |z| <= 3.9 (n = 4 needs 243 terms at z = 3, 409 at
# z = 4).  The Bessel sums keep about (largest term) * 2^-52 of rounding error,
# which passes _ROUNDING_TOL past x ~ 37; below that they need under 200 terms.
_MAX_TERMS = 400
_TAIL_TOL = 1e-14
_ROUNDING_TOL = 1e-13


def sum_series(name: str, term, past: float = 0.0) -> float:
    """Sum term(k) for k = 0, 1, ... to the first term below _TAIL_TOL with k + 1 > past,
    before which the terms may still grow.  Raises TruncationNotConverged, led by name, after
    _MAX_TERMS terms, once the largest term's rounding passes _ROUNDING_TOL, or on overflow."""
    total = peak = 0.0
    for k in range(_MAX_TERMS):
        try:
            value = term(k)
        except OverflowError:
            raise TruncationNotConverged(f"{name}: term {k} overflows") from None
        peak = max(peak, abs(value))
        if peak * 2.0**-52 > _ROUNDING_TOL:
            raise TruncationNotConverged(f"{name}: precision lost to terms of {peak:.3g}")
        total += value
        if abs(value) < _TAIL_TOL and k + 1 > past:
            return total
    raise TruncationNotConverged(f"{name}: {_MAX_TERMS} terms left tail above {_TAIL_TOL}")


_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(16)


def _quad(f, a: float, b: float, tol: float) -> float:
    """Adaptive composite 16-point Gauss-Legendre integral over [a, b] of f,
    which takes an array of nodes.  A panel's value is the sum of its halves'
    rules and its error estimate their gap to its own rule.  The worst panel
    is halved until the estimates sum to at most max(min(tol/4, 1e-12),
    1e-13 |value|) or 400 panels are in use."""

    def gauss(lo, hi):
        half = 0.5 * (hi - lo)
        return half * float(_GL_WEIGHTS @ f(lo + half * (_GL_NODES + 1.0)))

    def panel(lo, hi, whole):
        left, right = gauss(lo, 0.5 * (lo + hi)), gauss(0.5 * (lo + hi), hi)
        return -abs(whole - left - right), lo, hi, left, right

    panels = [panel(a, b, gauss(a, b))]
    while True:
        err = -math.fsum(q[0] for q in panels)
        val = math.fsum(q[3] + q[4] for q in panels)
        if err <= max(min(tol / 4.0, 1e-12), 1e-13 * abs(val)) or len(panels) >= 400:
            break
        _, lo, hi, left, right = heapq.heappop(panels)
        heapq.heappush(panels, panel(lo, 0.5 * (lo + hi), left))
        heapq.heappush(panels, panel(0.5 * (lo + hi), hi, right))
    if not err <= tol:
        raise QuadratureNotConverged(
            f"quadrature error estimate {err:.3g} exceeds tol {tol:.3g}"
        )
    return val


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x) for nu >= 0 and x >= 0.

    J_{1/2} and J_{3/2} use their closed trigonometric forms; other orders
    delegate to scipy's jv, which is stable across the needed range.
    """
    check_radius(nu, name="nu")
    check_radius(x, name="x")
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if nu == 0.5:
        return math.sqrt(2.0 / (math.pi * x)) * math.sin(x)
    if nu == 1.5:
        pref = math.sqrt(2.0 / (math.pi * x))
        if x < 0.5:
            # sin(x)/x - cos(x) cancels catastrophically near 0; its own series
            # sum_m (-1)^(m+1) 2m x^(2m)/(2m+1)!, term ratio -x^2/(2m(2m+3)), is exact here
            x2 = x * x
            poly = x2 / 3.0 * (1.0 - x2 / 10.0 * (1.0 - x2 / 28.0 * (1.0 - x2 / 54.0 * (
                1.0 - x2 / 88.0 * (1.0 - x2 / 130.0 * (1.0 - x2 / 180.0))
            ))))
            return pref * poly
        return pref * (math.sin(x) / x - math.cos(x))
    value = float(special.jv(nu, x))
    # jv gives nan past nu ~ 1e17; |J_nu(x)| <= (x/2)^nu / Gamma(nu + 1) says where J underflows
    if math.isnan(value) and nu * math.log(0.5 * x) - math.lgamma(nu + 1.0) > -746.0:
        raise DomainError(f"bessel_j({nu}, {x}): scipy's jv returns nan")
    return 0.0 if math.isnan(value) else value


def si(x: float) -> float:
    """Sine integral Si(x) = integral of sin(u)/u over [0, x]."""
    check_radius(x, name="x")
    return float(special.sici(x)[0])


def neg_cin(x: float) -> float:
    """The cosine integral variant used here: integral of (cos u - 1)/u on [0, x].

    This is the negative of the standard entire function Cin, NOT the
    classical Ci (there is no log x + Euler-Mascheroni part).  It is
    nonpositive, vanishes at 0, and is what makes the one-switch
    characteristic function tend to 1 at zero frequency.
    """
    check_radius(x, name="x")
    if x > _TAYLOR_CUTOFF:
        # Ci(x) = gamma + ln x + neg_cin(x), with Euler's gamma
        return float(special.sici(x)[1]) - math.log(x) - 0.57721566490153286
    # sum_{k>=1} (-1)^k x^(2k) / ((2k)(2k)!)
    total = 0.0
    term = -x * x / 4.0
    k = 1
    # stop once a term no longer moves the sum; an absolute floor zeroes tiny x
    while total + term != total and k < 60:
        total += term
        k += 1
        term *= -x * x * (2 * k - 2) / ((2 * k) * (2 * k) * (2 * k - 1))
    return total


def hyp5f4_unit(k: int) -> float:
    """5F4(1,1,1,-k,-k-1/2; -k+1/2,-k+1/2,3/2,2; 1), a terminating sum.

    The -k numerator parameter truncates the series after k+1 terms.  Terms
    are built by multiplying the j-th Pochhammer factors incrementally; every
    term is positive and the partial sums stay below 8, so plain double
    arithmetic is exact to machine precision (checked against big-rational
    summation in the tests).
    """
    if k < 0:
        raise DomainError(f"hyp5f4_unit requires k >= 0, got {k}")
    total, term = 0.0, 1.0
    for j in range(k + 1):
        total += term
        if j < k:
            num = (1.0 + j) ** 3 * (-k + j) * (-k - 0.5 + j)
            den = (-k + 0.5 + j) ** 2 * (1.5 + j) * (2.0 + j) * (1.0 + j)
            term *= num / den
    return total


def hyp3f2_unit_terminating(n: int, a: float) -> float:
    """3F2(-n, 1/2, a/2; -n+1/2, a/2+1; 1), terminating after n+1 terms."""
    if n < 0:
        raise DomainError(f"hyp3f2_unit_terminating requires n >= 0, got {n}")
    if a <= 0 and a == int(a):
        raise InvalidParameter(f"a must not be a nonpositive integer, got {a}")
    total = 0.0
    term = 1.0
    for j in range(n + 1):
        total += term
        if j < n:
            num = (-n + j) * (0.5 + j) * (a / 2.0 + j)
            den = (-n + j + 0.5) * (a / 2.0 + 1.0 + j) * (1.0 + j)
            term *= num / den
    return total
