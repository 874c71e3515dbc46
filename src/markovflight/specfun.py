"""Special functions underlying every closed-form expression in the package.

Log-gamma, Bessel J of integer and half-integer order, the sine integral Si,
the nonstandard cosine integral used by the characteristic functions, and two
terminating hypergeometric sums at unit argument.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from scipy import integrate, special

from .errors import DomainError, InvalidParameter

__all__ = [
    "Order",
    "log_gamma",
    "bessel_j",
    "si",
    "neg_cin",
    "hyp5f4_unit",
    "hyp3f2_unit_terminating",
]

# Si/neg_cin switch from their entire Taylor series to adaptive quadrature
# here; the series loses digits to cancellation once x is well past 10.
_TAYLOR_CUTOFF = 10.0


def log_gamma(x: float) -> float:
    """Natural log of Gamma(x) for x > 0."""
    if x <= 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


@dataclass(frozen=True)
class Order:
    """Bessel order represented exactly: n for integer, n + 1/2 for half."""

    kind: str
    n: int

    def __post_init__(self):
        if self.kind not in ("integer", "half"):
            raise DomainError(f"unknown order kind {self.kind!r}")
        if self.n < 0:
            raise DomainError(f"order index must be >= 0, got {self.n}")

    @classmethod
    def integer(cls, n: int) -> "Order":
        return cls("integer", n)

    @classmethod
    def half(cls, n: int) -> "Order":
        """The half-integer order n + 1/2."""
        return cls("half", n)

    @property
    def value(self) -> float:
        return float(self.n) if self.kind == "integer" else self.n + 0.5


def bessel_j(order: Order, x: float) -> float:
    """Bessel function of the first kind J_order(x) for x >= 0.

    J_{1/2} and J_{3/2} use their closed trigonometric forms; other orders
    delegate to scipy's jv, which is stable across the needed range.
    """
    if x < 0:
        raise DomainError(f"bessel_j requires x >= 0, got {x}")
    nu = order.value
    if x == 0.0:
        return 1.0 if nu == 0.0 else 0.0
    if order.kind == "half":
        pref = math.sqrt(2.0 / (math.pi * x))
        if order.n == 0:
            return pref * math.sin(x)
        if order.n == 1:
            if x < 0.1:
                # sin(x)/x - cos(x) cancels catastrophically near 0; its own
                # series sum_m (-1)^(m+1) 2m x^(2m)/(2m+1)! is exact here
                x2 = x * x
                poly = x2 / 3.0 * (
                    1.0 - x2 / 10.0 * (1.0 - x2 / 28.0 * (1.0 - x2 / 54.0))
                )
                return pref * poly
            return pref * (math.sin(x) / x - math.cos(x))
    return float(special.jv(nu, x))


def si(x: float) -> float:
    """Sine integral Si(x) = integral of sin(u)/u over [0, x]."""
    if x < 0:
        raise DomainError(f"si requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x > _TAYLOR_CUTOFF:
        val, _ = integrate.quad(lambda u: math.sin(u) / u, 0.0, x, limit=400)
        return val
    # sum_k (-1)^k x^(2k+1) / ((2k+1)(2k+1)!)
    total = 0.0
    term = x
    k = 0
    while abs(term) > 1e-18 and k < 60:
        total += term
        k += 1
        term *= -x * x * (2 * k - 1) / ((2 * k) * (2 * k + 1) ** 2)
    return total


def neg_cin(x: float) -> float:
    """The cosine integral variant used here: integral of (cos u - 1)/u on [0, x].

    This is the negative of the standard entire function Cin, NOT the
    classical Ci (there is no log x + Euler-Mascheroni part).  It is
    nonpositive, vanishes at 0, and is what makes the one-switch
    characteristic function tend to 1 at zero frequency.
    """
    if x < 0:
        raise DomainError(f"neg_cin requires x >= 0, got {x}")
    if x == 0.0:
        return 0.0
    if x > _TAYLOR_CUTOFF:
        val, _ = integrate.quad(lambda u: (math.cos(u) - 1.0) / u, 0.0, x, limit=400)
        return val
    # sum_{k>=1} (-1)^k x^(2k) / ((2k)(2k)!)
    total = 0.0
    term = -x * x / 4.0
    k = 1
    while abs(term) > 1e-18 and k < 60:
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
    total = 0.0
    term = 1.0
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
