"""Arctan power series and the gamma-sum identity against exact arithmetic.

The quartic coefficients gamma_k are rational multiples of 1/pi, so the
oracle computes the rational part with fractions.Fraction via
Gamma(m + 3/2) = sqrt(pi) (2m+2)! / (4^(m+1) (m+1)!).  The gamma-sum identity
is rebuilt term by term from Gamma(k+1/2) = sqrt(pi) (2k)!/(4^k k!), making
the left side pi times an exact rational for rational a.
"""
import functools
import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from markovflight import arctan_pow, arctan_series, gamma_sum_identity, quartic_gamma
from markovflight.errors import DomainError, TruncationNotConverged


def gamma_half_rational(m: int) -> Fraction:
    """Gamma(m + 3/2) / sqrt(pi) as an exact rational."""
    return Fraction(math.factorial(2 * m + 2), 4 ** (m + 1) * math.factorial(m + 1))


def quartic_gamma_rational(k: int) -> Fraction:
    """quartic_gamma(k) * pi as an exact rational."""
    total = Fraction(0)
    for l in range(k + 1):
        total += Fraction(
            math.factorial(l) * math.factorial(k - l), l + 1
        ) / (gamma_half_rational(l) * gamma_half_rational(k - l))
    return total / (k + 2)


def gamma_sum_direct_rational(n: int, a: Fraction) -> Fraction:
    """The defining sum divided by pi, exactly, for rational a."""
    total = Fraction(0)
    for k in range(n + 1):
        # Gamma(k+1/2)Gamma(n-k+1/2) = pi (2k)!(2n-2k)! / (4^n k!(n-k)!)
        num = Fraction(
            math.factorial(2 * k) * math.factorial(2 * (n - k)),
            4**n * math.factorial(k) * math.factorial(n - k),
        )
        total += num / (math.factorial(k) * math.factorial(n - k)) / (2 * k + a)
    return total


class TestQuarticGamma:
    def test_gamma0_is_two_over_pi(self):
        assert quartic_gamma(0) == pytest.approx(2.0 / math.pi, abs=1e-14)

    @pytest.mark.parametrize("k", list(range(10)))
    def test_vs_rational_oracle(self, k):
        ref = float(quartic_gamma_rational(k)) / math.pi
        assert quartic_gamma(k) == pytest.approx(ref, rel=1e-13)

    def test_positive_decreasing(self):
        vals = [quartic_gamma(k) for k in range(40)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))


@functools.cache
def exact_coefficients() -> list:
    """[a_1, a_2, a_3, a_4] for k < 400 as exact rationals: a_1 = C(2k, k)/(4^k (2k+1)),
    a_2 = 2 4^k k!^2/(2k+2)!, and their Cauchy products a_3 = a_1 * a_2, a_4 = a_2 * a_2."""
    a1 = [Fraction(math.comb(2 * k, k), 4**k * (2 * k + 1)) for k in range(400)]
    a2 = [Fraction(2 * 4**k * math.factorial(k) ** 2, math.factorial(2 * k + 2))
          for k in range(400)]

    def cauchy(a, b):
        return [sum(a[j] * b[k - j] for j in range(k + 1)) for k in range(400)]

    return [a1, a2, cauchy(a1, a2), cauchy(a2, a2)]


class TestCoefficientTable:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_against_exact_rationals(self, n):
        # the table once summed a_3 and a_4 from exp(lgamma ...) terms, 5.5e-13 off by k = 400
        for k, ref in enumerate(exact_coefficients()[n - 1]):
            got = Fraction(arctan_series._coefficient(n, k))
            assert abs(got - ref) <= Fraction(2e-15) * ref, (n, k)

    def test_quartic_is_half_the_quartic_gamma_rational(self):
        for k in range(0, 400, 13):
            assert exact_coefficients()[3][k] == quartic_gamma_rational(k) / 2, k


class TestArctanPow:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_grid(self, n):
        for i in range(-30, 31):
            z = i / 10.0
            assert arctan_pow(n, z) == pytest.approx(math.atan(z) ** n, abs=1e-10)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_parity(self, n):
        for z in (0.4, 1.3, 2.7):
            assert arctan_pow(n, -z) == pytest.approx(
                (-1.0) ** n * arctan_pow(n, z), abs=1e-15
            )

    def test_zero(self):
        for n in (1, 2, 3, 4):
            assert arctan_pow(n, 0.0) == 0.0

    def test_unsupported_power(self):
        for n in (0, 5, -1):
            with pytest.raises(DomainError, match="arctan_pow supports n in 1..4"):
                arctan_pow(n, 1.0)

    @pytest.mark.parametrize("n", [2.0, 1.5, np.float64(3)])
    def test_float_power(self, n):
        # a whole float once passed as its integer: arctan_pow(2.0, z) gave the n = 2 value
        with pytest.raises(DomainError, match="arctan_pow supports n in 1..4"):
            arctan_pow(n, 1.0)

    def test_budget_exhaustion_raises(self):
        # past |z| = 3.9 the term budget runs out before the tail tolerance
        with pytest.raises(TruncationNotConverged):
            arctan_pow(4, 10.0)

    def test_default_converges_at_z3(self):
        for n in (1, 2, 3, 4):
            for z in (-3.0, 3.0):
                assert arctan_pow(n, z) == pytest.approx(math.atan(z) ** n, abs=1e-12)


class TestGammaSumIdentity:
    @pytest.mark.parametrize("n", [0, 1, 2, 5, 11, 20])
    @pytest.mark.parametrize("a_num,a_den", [(1, 2), (1, 1), (2, 1), (7, 2)])
    def test_both_sides_vs_direct_sum(self, n, a_num, a_den):
        a = Fraction(a_num, a_den)
        ref = float(gamma_sum_direct_rational(n, a)) * math.pi
        lhs, rhs = gamma_sum_identity(n, float(a))
        assert lhs == pytest.approx(ref, rel=1e-12)
        assert rhs == pytest.approx(ref, rel=1e-12)

    def test_sides_agree(self):
        for n in range(21):
            for a in (0.5, 1.0, 2.0, 3.5):
                lhs, rhs = gamma_sum_identity(n, a)
                assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_negative_non_integer_a(self):
        a = Fraction(-1, 2)
        ref = float(gamma_sum_direct_rational(3, a)) * math.pi
        lhs, rhs = gamma_sum_identity(3, float(a))
        assert lhs == pytest.approx(ref, rel=1e-11)
        assert rhs == pytest.approx(ref, rel=1e-11)

    @pytest.mark.parametrize("n,a", [(300, -0.5), (24, -1.5), (24, -2.5)])
    def test_negative_a_at_large_n(self, n, a):
        # the right side once took Gamma itself for a < 0, which overflows
        # past Gamma(171.6): n = 300 raised OverflowError
        ref = float(gamma_sum_direct_rational(n, Fraction(a))) * math.pi
        lhs, rhs = gamma_sum_identity(n, a)
        assert lhs == pytest.approx(ref, rel=1e-12)
        assert rhs == pytest.approx(ref, rel=1e-12)

    @pytest.mark.parametrize("n,a", [(5, 1e15), (1, 1e10), (2, 1e8), (20, 1e6), (3, 1e4)])
    def test_right_side_at_large_a_against_mpmath(self, n, a):
        # four log-gammas once cancelled here: 403x off at (5, 1e15), 1.5e-5 at (1, 1e10)
        with mpmath.workdps(50):
            a_mp = mpmath.mpf(a)
            ref = mpmath.pi * mpmath.gamma(a_mp / 2) * mpmath.gamma(n + (a_mp + 1) / 2) / (
                (2 * n + a_mp) * mpmath.gamma((a_mp + 1) / 2) * mpmath.gamma(n + a_mp / 2)
            )
            for side in gamma_sum_identity(n, a):
                assert abs(side - ref) <= 1e-13 * abs(ref)

    def test_sides_outside_the_float_range_raise(self):
        # 1/a overflows both sides; the log-gamma route leaked OverflowError
        with pytest.raises(DomainError, match="leaves the float range"):
            gamma_sum_identity(1, 2.2250738585e-313)

    @pytest.mark.parametrize("a", [2.56e305, 5.12e305])
    def test_huge_a_keeps_its_finite_sides(self, a):
        # both sides are pi/a, inside the float range; the log-gamma route
        # raised OverflowError at 5.12e305
        lhs, rhs = gamma_sum_identity(0, a)
        assert lhs == pytest.approx(math.pi / a, rel=1e-15)
        assert rhs == math.pi / a

    def test_invalid_parameters(self):
        with pytest.raises(DomainError, match="a must not be in"):
            gamma_sum_identity(2, 0.0)
        with pytest.raises(DomainError, match="a must not be in"):
            gamma_sum_identity(2, -2.0)
        with pytest.raises(DomainError, match="n must be an integer >= 0"):
            gamma_sum_identity(-1, 1.0)
