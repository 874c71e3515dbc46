"""Special functions against independent oracles.

Hypergeometric sums are checked against big-rational summation built from
their textbook definitions (fractions.Fraction, no floats until the final
comparison), Si and the entire cosine integral against scipy's sici, and
Bessel values against the defining power series.
"""
import math
from fractions import Fraction

import pytest
from scipy import special

from markovflight import Order, bessel_j, hyp5f4_unit, neg_cin, si
from markovflight.errors import DomainError, InvalidParameter
from markovflight.specfun import hyp3f2_unit_terminating, log_gamma

EULER_GAMMA = 0.5772156649015328606


def rational_poch(x: Fraction, k: int) -> Fraction:
    out = Fraction(1)
    for j in range(k):
        out *= x + j
    return out


def hyp5f4_rational(k: int) -> Fraction:
    """5F4(1,1,1,-k,-k-1/2; -k+1/2,-k+1/2,3/2,2; 1) in exact arithmetic."""
    total = Fraction(0)
    for j in range(k + 1):
        num = (
            rational_poch(Fraction(1), j) ** 3
            * rational_poch(Fraction(-k), j)
            * rational_poch(Fraction(-2 * k - 1, 2), j)
        )
        den = (
            rational_poch(Fraction(-2 * k + 1, 2), j) ** 2
            * rational_poch(Fraction(3, 2), j)
            * rational_poch(Fraction(2), j)
            * math.factorial(j)
        )
        total += Fraction(num, 1) / den
    return total


def hyp3f2_rational(n: int, a: Fraction) -> Fraction:
    """3F2(-n, 1/2, a/2; -n+1/2, a/2+1; 1) in exact arithmetic."""
    total = Fraction(0)
    for j in range(n + 1):
        num = (
            rational_poch(Fraction(-n), j)
            * rational_poch(Fraction(1, 2), j)
            * rational_poch(a / 2, j)
        )
        den = (
            rational_poch(Fraction(-2 * n + 1, 2), j)
            * rational_poch(a / 2 + 1, j)
            * math.factorial(j)
        )
        total += num / den
    return total


def bessel_series(nu: float, x: float, terms: int = 40) -> float:
    total = 0.0
    for m in range(terms):
        total += (-1.0) ** m * (x / 2.0) ** (2 * m + nu) / (
            math.factorial(m) * math.gamma(m + nu + 1.0)
        )
    return total


class TestLogGammaPochhammer:
    def test_log_gamma_matches_lgamma(self):
        for x in (0.5, 1.0, 2.5, 17.0):
            assert log_gamma(x) == math.lgamma(x)

    def test_log_gamma_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestOrder:
    def test_values(self):
        assert Order.integer(3).value == 3.0
        assert Order.half(1).value == 1.5

    def test_invalid(self):
        with pytest.raises(DomainError):
            Order("quarter", 1)
        with pytest.raises(DomainError):
            Order.integer(-1)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(Order.integer(0), 0.0) == 1.0
        assert bessel_j(Order.integer(1), 0.0) == 0.0
        assert bessel_j(Order.half(0), 0.0) == 0.0

    def test_negative_argument(self):
        with pytest.raises(DomainError):
            bessel_j(Order.integer(1), -0.1)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_integer_orders_vs_series(self, n):
        for x in (0.1, 0.7, 1.0, 3.0, 5.0):
            ref = bessel_series(float(n), x)
            assert bessel_j(Order.integer(n), x) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_half_orders_vs_series(self, n):
        for x in (0.1, 0.7, 1.0, 3.0, 5.0):
            ref = bessel_series(n + 0.5, x)
            assert bessel_j(Order.half(n), x) == pytest.approx(ref, abs=1e-12)

    def test_trig_forms_vs_scipy(self):
        # the closed trig forms for orders 1/2 and 3/2 vs scipy's generic jv
        for x in (0.05, 0.5, 2.0, 10.0, 40.0):
            assert bessel_j(Order.half(0), x) == pytest.approx(
                float(special.jv(0.5, x)), abs=1e-13
            )
            assert bessel_j(Order.half(1), x) == pytest.approx(
                float(special.jv(1.5, x)), abs=1e-13
            )


class TestSi:
    def test_endpoints(self):
        assert si(0.0) == 0.0
        with pytest.raises(DomainError):
            si(-1.0)

    def test_frozen_value(self):
        assert si(1.0) == pytest.approx(0.94608307036718298, abs=1e-15)

    @pytest.mark.parametrize("x", [1e-8, 0.3, 1.0, 5.0, 9.99, 10.01, 20.0, 50.0])
    def test_vs_scipy_across_cutoff(self, x):
        assert si(x) == pytest.approx(float(special.sici(x)[0]), abs=1e-12)


class TestNegCin:
    def test_endpoints_and_sign(self):
        assert neg_cin(0.0) == 0.0
        for x in (0.1, 1.0, 4.0, 15.0):
            assert neg_cin(x) < 0.0
        with pytest.raises(DomainError):
            neg_cin(-0.5)

    def test_frozen_values(self):
        assert neg_cin(1.0) == pytest.approx(-0.23981174200056471, abs=1e-15)
        assert neg_cin(2.0) == pytest.approx(-0.84738201668661339, abs=1e-15)

    @pytest.mark.parametrize("x", [1e-6, 0.5, 2.0, 7.0, 9.99, 10.01, 25.0])
    def test_vs_scipy_across_cutoff(self, x):
        # Ci(x) = gamma + ln x + neg_cin(x), so neg_cin = Ci - ln x - gamma
        ref = float(special.sici(x)[1]) - math.log(x) - EULER_GAMMA
        assert neg_cin(x) == pytest.approx(ref, abs=1e-12)

    def test_not_the_classical_ci(self):
        # the classical Ci is negative at small x with a log singularity;
        # this function instead vanishes quadratically at 0 (next term x^4/96)
        assert abs(neg_cin(1e-4) + 1e-8 / 4.0) < 2e-18


class TestHyp5F4:
    def test_spot_values_exact(self):
        assert hyp5f4_unit(0) == 1.0
        assert hyp5f4_unit(1) == 3.0

    @pytest.mark.parametrize("k", list(range(12)))
    def test_vs_rational_oracle(self, k):
        ref = float(hyp5f4_rational(k))
        assert hyp5f4_unit(k) == pytest.approx(ref, rel=1e-14)

    def test_bounded(self):
        vals = [hyp5f4_unit(k) for k in range(80)]
        assert all(1.0 <= v < 8.0 for v in vals)
        assert vals == sorted(vals)  # increasing toward its limit

    def test_domain(self):
        with pytest.raises(DomainError):
            hyp5f4_unit(-1)


class TestHyp3F2:
    @pytest.mark.parametrize("n", [0, 1, 2, 4, 7, 12])
    @pytest.mark.parametrize("a_num,a_den", [(1, 2), (1, 1), (2, 1), (7, 2)])
    def test_vs_rational_oracle(self, n, a_num, a_den):
        a = Fraction(a_num, a_den)
        ref = float(hyp3f2_rational(n, a))
        assert hyp3f2_unit_terminating(n, float(a)) == pytest.approx(ref, rel=1e-13)

    def test_known_rationals(self):
        assert hyp3f2_rational(1, Fraction(1)) == Fraction(4, 3)
        assert hyp3f2_rational(4, Fraction(3)) == Fraction(16384, 8085)

    def test_invalid_parameter(self):
        with pytest.raises(InvalidParameter):
            hyp3f2_unit_terminating(2, 0.0)
        with pytest.raises(InvalidParameter):
            hyp3f2_unit_terminating(2, -3.0)
        with pytest.raises(DomainError):
            hyp3f2_unit_terminating(-1, 1.0)
