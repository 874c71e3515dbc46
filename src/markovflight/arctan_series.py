"""Series expansions of arctan(z)^n for n = 1..4 and the identities behind them.

Each power of the inverse tangent admits a series in w = z^2/(1+z^2) with the
prefactor (z/sqrt(1+z^2))^n.  The n = 3 coefficients involve a terminating
5F4 sum, and the n = 4 coefficients are the quartic gamma_k weights.  Each
a_{n+1,k}, computed once per process, also weighs the k-th Bessel term of the
n-switch characteristic function (`charfun`).  The series in w is summed by
`specfun.sum_series`, the package's one truncation rule.
"""
from __future__ import annotations

import functools
import math

from .errors import DomainError, InvalidParameter, NonFinite, UnsupportedPower
from .specfun import hyp3f2_unit_terminating, hyp5f4_unit, log_gamma, sum_series

__all__ = ["arctan_pow", "quartic_gamma", "gamma_sum_identity"]

_SQRT_PI = math.sqrt(math.pi)


def quartic_gamma(k: int) -> float:
    """Coefficient gamma_k of the quartic arctan series.

    gamma_k = 1/(k+2) * sum_{l=0}^{k} l!(k-l)! / [(l+1) Gamma(l+3/2) Gamma(k-l+3/2)]

    gamma_0 = 2/pi; the sequence is positive and decreasing.
    """
    if k < 0:
        raise DomainError(f"quartic_gamma requires k >= 0, got {k}")
    total = 0.0
    for l in range(k + 1):
        total += math.exp(log_gamma(l + 1.0) + log_gamma(k - l + 1.0) - math.log(l + 1.0)
                          - log_gamma(l + 1.5) - log_gamma(k - l + 1.5))
    return total / (k + 2.0)


# Callers ask for k below their series' term budget, so the cache stays small.
@functools.cache
def _coefficient(n: int, k: int) -> float:
    # k-th series coefficient a_{n,k} of (arctan z)^n in powers of w = z^2/(1+z^2)
    if n == 1:
        return math.exp(log_gamma(k + 0.5) - log_gamma(k + 1.0)) / (_SQRT_PI * (2 * k + 1))
    if n == 2:
        return _SQRT_PI / 2.0 * math.exp(log_gamma(k + 1.0) - log_gamma(k + 1.5)) / (k + 1.0)
    if n == 3:
        return _coefficient(1, k) * hyp5f4_unit(k)
    return math.pi / 2.0 * quartic_gamma(k)


def arctan_pow(n: int, z: float) -> float:
    """Series evaluation of (arctan z)^n for n in 1..4.

    The tail is geometric in w = z^2/(1+z^2) < 1, so convergence is slowest
    for large |z|; `specfun.sum_series` reaches its 1e-14 tail within its 400
    terms for |z| <= 3.9 and raises TruncationNotConverged beyond.
    """
    if n not in (1, 2, 3, 4):
        raise UnsupportedPower(f"arctan_pow supports n in 1..4, got {n}")
    if not math.isfinite(z):
        raise NonFinite(f"arctan_pow requires a finite z, got {z}")
    if z == 0.0:
        return 0.0
    s = z / math.sqrt(1.0 + z * z)
    w = z * z / (1.0 + z * z)
    return s**n * sum_series(f"arctan_pow({n}, {z})", lambda k: _coefficient(n, k) * w**k)


def gamma_sum_identity(n: int, a: float) -> tuple:
    """Both sides of the gamma-sum identity

        sum_{k=0}^{n} Gamma(k+1/2) Gamma(n-k+1/2) / (k!(n-k)!(2k+a))
            = pi Gamma(a/2) Gamma(n+(a+1)/2) / [(2n+a) Gamma((a+1)/2) Gamma(n+a/2)]

    valid for real a not in {0, -1, -2, ...}.  Returns (lhs, rhs); the left
    side is evaluated through its terminating 3F2 form, the right side as the
    Pochhammer ratio pi/(2n+a) prod_{j<n} ((a+1)/2 + j)/(a/2 + j), so the two
    routes share no code.  Raises DomainError where a side is not a finite float.
    """
    if n < 0:
        raise InvalidParameter(f"n must be >= 0, got {n}")
    if not math.isfinite(a):
        raise NonFinite(f"a must be finite, got {a}")
    if a <= 0 and a == int(a):
        raise InvalidParameter(f"a must not be in {{0, -1, -2, ...}}, got {a}")
    # lhs: the sum equals sqrt(pi) Gamma(n+1/2)/(a n!) * 3F2(-n,1/2,a/2; -n+1/2,a/2+1; 1)
    pref = _SQRT_PI * math.exp(log_gamma(n + 0.5) - log_gamma(n + 1.0)) / a
    lhs = pref * hyp3f2_unit_terminating(n, a)
    rhs = math.pi / (2.0 * n + a) * math.prod((a / 2 + 0.5 + j) / (a / 2 + j) for j in range(n))
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise DomainError(f"gamma_sum_identity({n}, {a}) leaves the float range: ({lhs}, {rhs})")
    return lhs, rhs
