"""Special functions underlying every closed-form expression in the package.

Log-gamma, Bessel J of float order, the sine integral Si, the nonstandard
cosine integral used by the characteristic functions, and two terminating
hypergeometric sums at unit argument (log-gamma and the 3F2 sum are internal
helpers, not exported).  All are plain Python on numpy, Bessel J where the package reads it.

`sum_series` (the one truncation rule of the paper's series: H_2, H_3, the arctan powers)
and `_quad` (the one integrator, on a stored 16-point Gauss-Legendre rule) are private.
"""
from __future__ import annotations

import functools
import heapq
import math

import numpy as np

from .errors import DomainError, QuadratureNotConverged, TruncationNotConverged
from .model import check_count, check_radius

__all__ = ["bessel_j", "si", "neg_cin", "hyp5f4_unit"]

# Above this, si and neg_cin leave their Taylor series for the continued fraction of E_1(ix):
# on [4, 10] the series lose up to 6.5e-14 and 1.9e-14 relative, the fraction 3.2e-16.
_TAYLOR_CUTOFF = 4.0
# bessel_j sums J itself where 2 nu is whole, nu <= _SWEEP_TOP and x <= _SWEEP_X.
_SWEEP_TOP = 500
_SWEEP_X = 64.0

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


# numpy's leggauss(16) byte for byte, stored: its upper halves, mirrored (the rule is symmetric)
_GL_NODES, _GL_WEIGHTS = np.array([
    [0.09501250983763744, 0.2816035507792589, 0.45801677765722737, 0.6178762444026438,
     0.755404408355003, 0.8656312023878318, 0.9445750230732326, 0.9894009349916499],
    [0.18945061045506864, 0.18260341504492364, 0.16915651939500265, 0.1495959888165767,
     0.12462897125553407, 0.0951585116824926, 0.062253523938647456, 0.027152459411754176],
])
_GL_NODES = np.concatenate([-_GL_NODES[::-1], _GL_NODES])
_GL_WEIGHTS = np.concatenate([_GL_WEIGHTS[::-1], _GL_WEIGHTS])


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


def _power_series(nu: float, x: float) -> float:
    """J_nu(x) for whole 2 nu and nu + 1 >= x^2, where each term is at most 1/4 of the last
    (4^-27 < 2^-53), so nothing cancels; (x/2)^nu / Gamma(nu + 1) is built factor by factor."""
    frac, half = nu % 1.0, 0.5 * x
    lead = math.sqrt(2.0 * x / math.pi) if frac else 1.0  # (x/2)^frac / Gamma(frac + 1)
    for j in range(1, int(nu) + 1):
        lead *= half / (frac + j)
    total = term = 1.0
    for m in range(1, 28):
        term *= -half * half / (m * (nu + m))
        total += term
    return lead * total


@functools.lru_cache(maxsize=256)
def _sweep(frac: float, x: float) -> np.ndarray:
    """[J_frac(x), J_{frac+1}(x), ...] as float64, frac 0 or 1/2, good to order min(_SWEEP_TOP,
    x^2), by Miller's backward recurrence from 40 orders higher (Gautschi, SIAM Review 9, 1967).
    A value past 2^900 scales the run by 2^-900; what that drives below 2^-1022 is subnormal
    once normalised too.  J_0 + 2 sum J_2k = 1 normalises the whole orders, and
    sqrt(2/(pi x)) sin x = J_1/2 or cos x = J_-1/2, the larger, the half orders."""
    above, here, values = 0.0, 2.0**-900, []
    for v in range(min(_SWEEP_TOP, int(x * x)) + 40, -1 if frac else 0, -1):
        above, here = here, 2.0 * (v + frac) / x * here - above  # J_{frac+v-1}
        if abs(here) > 2.0**900:
            values = [w * 2.0**-900 for w in values]
            above, here = above * 2.0**-900, here * 2.0**-900
        values.append(here)
    values = np.array(values[::-1])  # values[i] is J_{frac+i}, from i = -1 for the half orders
    if frac:
        sin, cos = math.sin(x), math.cos(x)
        form, at = (sin, 1) if abs(sin) > abs(cos) else (cos, 0)
        return values[1:] * (math.sqrt(2.0 / (math.pi * x)) * form / values[at])
    return values * (1.0 / math.fsum([values[0], *(2.0 * values[2::2])]))


def _hankel_j1(x: float) -> float:
    """J_1(x) for x > _SWEEP_X by Hankel's expansion (DLMF 10.17.3): sqrt(2/(pi x)) times
    Re[(P + iQ) e^(i(x - 3 pi/4))], P + iQ = sum_k i^k a_k(1) x^-k, whose terms are below
    1e-17 by k = 11 at x = 64; e^(-3i pi/4) = -(1 + i)/sqrt 2, so x itself is never shifted."""
    total = term = 1.0 + 0.0j
    for k in range(1, 14):
        term *= 1j * (4.0 - (2 * k - 1) ** 2) / (8.0 * k * x)
        total += term
    sin, cos = math.sin(x), math.cos(x)
    return (total * complex(sin - cos, -sin - cos)).real / math.sqrt(math.pi * x)


def bessel_j(nu: float, x: float) -> float:
    """Bessel function of the first kind J_nu(x) on the domain the package reads: 2 nu whole,
    nu <= _SWEEP_TOP and x <= _SWEEP_X, as at every order of the H_2 and H_3 series, and
    nu = 1/2, 1 and 3/2 at any x >= 0.  J is its power series where that cannot cancel
    (nu + 1 >= x^2), else the closed forms at 1/2 and 3/2, Hankel's expansion of J_1 past
    _SWEEP_X, or a cached backward sweep (`_sweep`).  Elsewhere it raises DomainError."""
    check_radius(nu, name="nu")
    check_radius(x, name="x")
    whole = nu <= _SWEEP_TOP and (2.0 * nu).is_integer()
    if whole and nu + 1.0 >= x * x:
        return _power_series(nu, x)
    if nu == 0.5 or nu == 1.5:
        form = math.sin(x) if nu == 0.5 else math.sin(x) / x - math.cos(x)
        return math.sqrt(2.0 / (math.pi * x)) * form
    if nu == 1.0 and x > _SWEEP_X:
        return _hankel_j1(x)
    if whole and x <= _SWEEP_X:
        return float(_sweep(nu % 1.0, x)[int(nu)])
    raise DomainError(f"bessel_j({nu}, {x}) is outside its domain")


def _e1_imaginary(x: float) -> complex:
    """E_1(ix) = -Ci(x) + i (Si(x) - pi/2) for x >= 4, by its continued fraction summed
    by modified Lentz (Numerical Recipes, section 6.8)."""
    b = complex(1.0, x)
    c, d = math.inf, 1.0 / b  # c = inf makes the first c equal to b
    h = d
    for i in range(1, 100):
        b += 2.0
        d = 1.0 / (b - i * i * d)
        c = b - i * i / c
        h *= c * d
        if abs(c * d - 1.0) <= 2.0**-53:
            break
    return h * complex(math.cos(x), -math.sin(x))


def si(x: float) -> float:
    """Sine integral Si(x) = integral of sin(u)/u over [0, x]."""
    check_radius(x, name="x")
    if x > _TAYLOR_CUTOFF:
        return 0.5 * math.pi + _e1_imaginary(x).imag
    # sum_k (-1)^k x^(2k+1) / ((2k+1) (2k+1)!); at x = 4 the term k = 17 is below 1e-20
    total = power = x
    for k in range(1, 18):
        power *= -x * x / ((2 * k) * (2 * k + 1))
        total += power / (2 * k + 1)
    return total


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
        return -_e1_imaginary(x).real - math.log(x) - 0.57721566490153286
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
    check_count(k, "k")
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
    check_count(n, "n")
    if a <= 0 and a == int(a):
        raise DomainError(f"a must not be a nonpositive integer, got {a}")
    total = 0.0
    term = 1.0
    for j in range(n + 1):
        total += term
        if j < n:
            num = (-n + j) * (0.5 + j) * (a / 2.0 + j)
            den = (-n + j + 0.5) * (a / 2.0 + 1.0 + j) * (1.0 + j)
            term *= num / den
    return total
