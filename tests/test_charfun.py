"""Conditional characteristic functions and the small-time approximation.

h1 is rebuilt in the test from mpmath's sine/cosine integrals; h2/h3 carry
frozen regression values (checked against conditional Monte Carlo in the
acceptance tests) plus structural properties: value 1 at zero frequency,
|H| <= 1, continuity across the small-argument guard.  They are also pinned
to the same Bessel series in 40-digit mpmath, its coefficients summed there
from their terminating sums, and the series kernel `charfun._term` must sum
to h0 and h1 at n = 0 and 1.
"""
import math

import mpmath
import numpy as np
import pytest

from markovflight import (
    FlightParams,
    FreqQuery,
    h0,
    h1,
    h2_series,
    h3_series,
    h_asymptotic,
    specfun,
)
from markovflight import charfun
from markovflight.errors import DomainError, TruncationNotConverged

P = FlightParams(c=5.0, lam=2.0)


def query_for_x(x: float, t: float = 0.1) -> FreqQuery:
    return FreqQuery(alpha_norm=x / (P.c * t), t=t)


def h1_reference(x: float) -> float:
    """[sin(x) Si(2x) + cos(x) (Ci(2x) - ln(2x) - gamma)] / x^2 in mpmath at 40 digits.

    Shares no code path with h1, which takes Si and Ci from scipy.
    """
    with mpmath.workdps(40):
        x = mpmath.mpf(x)
        cin = mpmath.ci(2 * x) - mpmath.log(2 * x) - mpmath.euler
        return float((mpmath.sin(x) * mpmath.si(2 * x) + mpmath.cos(x) * cin) / (x * x))


class TestFreqQuery:
    def test_validation(self):
        with pytest.raises(DomainError):
            FreqQuery(alpha_norm=-1.0, t=0.1)
        with pytest.raises(DomainError):
            FreqQuery(alpha_norm=1.0, t=0.0)
        with pytest.raises(DomainError):
            FreqQuery(alpha_norm=math.nan, t=0.1)


class TestH0:
    def test_closed_form(self):
        for x in (0.01, 0.5, 1.0, 3.0, 10.0):
            assert h0(query_for_x(x), P) == pytest.approx(math.sin(x) / x, abs=1e-15)

    def test_zero_frequency(self):
        assert h0(FreqQuery(alpha_norm=0.0, t=0.1), P) == 1.0

    def test_guard_continuity(self):
        lo = h0(query_for_x(1e-8 * (1 - 1e-9)), P)
        hi = h0(query_for_x(1e-8 * (1 + 1e-9)), P)
        assert abs(lo - hi) < 1e-13


class TestH1:
    @pytest.mark.parametrize("x", [0.05, 0.3, 0.5, 1.0, 2.0, 3.0, 5.0, 10.0, 20.0, 60.0])
    def test_vs_scipy_reference(self, x):
        assert h1(query_for_x(x), P) == pytest.approx(h1_reference(x), abs=1e-13)

    def test_zero_frequency(self):
        assert h1(FreqQuery(alpha_norm=0.0, t=0.1), P) == 1.0

    def test_absolute_error_from_tiny_x(self):
        # just past the Taylor guard negCin(2x) is ~x^2, so a cosine-integral
        # series cut at an absolute 1e-18 left errors up to 2e-13 here
        with mpmath.workdps(90):
            for x in np.geomspace(1e-14, 12.0, 150):
                u = mpmath.mpf(float(x))
                cin = mpmath.ci(2 * u) - mpmath.log(2 * u) - mpmath.euler
                ref = (mpmath.sin(u) * mpmath.si(2 * u) + mpmath.cos(u) * cin) / (u * u)
                assert abs(h1(query_for_x(float(x)), P) - ref) <= 2e-15, x

    def test_guard_continuity(self):
        lo = h1(query_for_x(1e-8 * (1 - 1e-9)), P)
        hi = h1(query_for_x(1e-8 * (1 + 1e-9)), P)
        assert abs(lo - hi) < 1e-13

    def test_intensity_free(self):
        # all conditional characteristic functions depend on lam only through x
        q = FreqQuery(alpha_norm=0.4, t=0.1)
        other = FlightParams(c=5.0, lam=9.0)
        assert h1(q, P) == h1(q, other)
        assert h2_series(q, P) == h2_series(q, other)
        assert h3_series(q, P) == h3_series(q, other)


class TestH2H3:
    # frozen values, independently confirmed by 1e6-sample conditional
    # Monte Carlo in the acceptance suite
    H2 = {
        0.3: 0.99252096872809625,
        1.0: 0.9192167632659235,
        2.0: 0.70551070765041235,
        3.0: 0.43143495171990071,
        5.0: 0.012477099156303788,
        10.0: 0.021399427251629487,
    }
    H3 = {
        0.3: 0.99401412455594607,
        1.0: 0.93505446904731326,
        2.0: 0.75971940349433964,
        3.0: 0.52454242152253416,
        5.0: 0.10929199958285243,
        10.0: 0.0072861253267325612,
    }

    @pytest.mark.parametrize("x", sorted(H2))
    def test_h2_frozen(self, x):
        assert h2_series(query_for_x(x), P) == pytest.approx(self.H2[x], rel=1e-12)

    @pytest.mark.parametrize("x", sorted(H3))
    def test_h3_frozen(self, x):
        assert h3_series(query_for_x(x), P) == pytest.approx(self.H3[x], rel=1e-12)

    def test_zero_frequency(self):
        q = FreqQuery(alpha_norm=0.0, t=0.1)
        assert h2_series(q, P) == 1.0
        assert h3_series(q, P) == 1.0

    def test_guard_continuity(self):
        for fn in (h2_series, h3_series):
            lo = fn(query_for_x(1e-8 * (1 - 1e-9)), P)
            hi = fn(query_for_x(1e-8 * (1 + 1e-9)), P)
            assert abs(lo - hi) < 1e-13

    def test_bounded_by_one(self):
        for i in range(1, 101):
            q = query_for_x(0.2 * i)
            for fn in (h0, h1, h2_series, h3_series):
                assert abs(fn(q, P)) <= 1.0 + 1e-12

    def test_truncation_not_converged(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 3)
        with pytest.raises(TruncationNotConverged):
            h2_series(query_for_x(5.0), P)
        with pytest.raises(TruncationNotConverged):
            h3_series(query_for_x(5.0), P)

    @pytest.mark.parametrize("x", [60.0, 100.0, 1e3, 1e4, 1e9, 1e12])
    @pytest.mark.parametrize("fn", [h2_series, h3_series])
    def test_large_x_raises(self, fn, x):
        # past x ~ 37 the alternating terms outgrow the double-precision sum;
        # at x = 100 H_2 used to come back as -13.08 and at 1e4 as an
        # OverflowError; at 1e9 and 1e12 the sum used to stop at its first,
        # tiny terms, before they peak, and return about -1e-18
        with pytest.raises(TruncationNotConverged):
            fn(query_for_x(x), P)


def h_reference(n: int, x: float) -> float:
    """H_n(x), n = 2 or 3, as sum_k n! sqrt(pi) 2^-n a_{n+1,k} (x/2)^(k-n/2)
    J_{k+n/2}(x) / Gamma(k+(n+1)/2) in mpmath at 40 digits, with the arctan^3
    coefficient a_{3,k} = Gamma(k+1/2) 5F4(k) / (k! sqrt(pi) (2k+1)) from the
    terminating 5F4 sum and a_{4,k} = (pi/2) gamma_k from its gamma sum.
    """
    with mpmath.workdps(40):
        half = mpmath.mpf(1) / 2
        x = mpmath.mpf(x)
        total = mpmath.mpf(0)
        for k in range(400):
            if n == 2:
                f5, term = mpmath.mpf(0), mpmath.mpf(1)
                for j in range(k + 1):
                    f5 += term
                    term *= (1 + j) ** 3 * (j - k) * (j - k - half) / (
                        (j - k + half) ** 2 * (j + 1 + half) * (j + 2) * (j + 1))
                a = mpmath.gamma(k + half) * f5 / (mpmath.factorial(k) * mpmath.sqrt(mpmath.pi) * (2 * k + 1))
            else:
                gamma_k = mpmath.fsum(
                    mpmath.factorial(l) * mpmath.factorial(k - l)
                    / ((l + 1) * mpmath.gamma(l + 1 + half) * mpmath.gamma(k - l + 1 + half))
                    for l in range(k + 1)
                ) / (k + 2)
                a = mpmath.pi / 2 * gamma_k
            term = (mpmath.factorial(n) * mpmath.sqrt(mpmath.pi) / 2**n * a * (x / 2) ** (k - n * half)
                    * mpmath.besselj(k + n * half, x) / mpmath.gamma(k + (n + 1) * half))
            total += term
            if k > x and abs(term) < mpmath.mpf(10) ** -30:
                return float(total)
        raise AssertionError(f"reference H{n} did not converge at x={x}")


@pytest.mark.parametrize("x", [0.3, 1.0, 3.0, 5.0, 10.0, 15.0])
@pytest.mark.parametrize("n,fn", [(2, h2_series), (3, h3_series)], ids=["H2", "H3"])
def test_series_match_the_mpmath_reference(n, fn, x):
    assert abs(fn(query_for_x(x), P) - h_reference(n, x)) <= 2e-15


@pytest.mark.parametrize("n,fn", [(0, h0), (1, h1)], ids=["H0", "H1"])
def test_series_kernel_sums_to_the_closed_forms(n, fn):
    # the k = 0 terms of H_2 and H_3 are h_asymptotic's leading shapes; at
    # n = 0 and 1 the same kernel must sum to sin(x)/x and h1
    xs = np.concatenate([np.geomspace(1e-8, 10.0, 80)[1:], np.linspace(0.1, 10.0, 100)])
    for x in map(float, xs):
        series = specfun.sum_series(f"H{n}", lambda k: charfun._term(n, k, x), past=x)
        assert abs(series - fn(query_for_x(x), P)) <= 1e-14, x


# the quartic Taylor polynomials once used below x = 1e-3, kept as an oracle
# for the direct forms and series that now run down to x = 1e-8
TAYLOR = {
    h0: lambda xx: 1.0 - xx / 6.0 + xx * xx / 120.0,
    h1: lambda xx: 1.0 - xx / 9.0 + 23.0 * xx * xx / 5400.0,
    h2_series: lambda xx: 1.0 - xx / 12.0 + 7.0 * xx * xx / 2700.0,
    h3_series: lambda xx: 1.0 - xx / 15.0 + 11.0 * xx * xx / 6300.0,
}


@pytest.mark.parametrize("fn", list(TAYLOR), ids=lambda fn: fn.__name__)
def test_small_x_matches_quartic_taylor(fn):
    for x in np.geomspace(1e-8, 1e-2, 200):
        assert abs(fn(query_for_x(float(x)), P) - TAYLOR[fn](float(x) ** 2)) <= 1e-14, x


class TestHAsymptotic:
    def test_zero_frequency_is_poisson_partial_sum(self):
        for t in (0.05, 0.1, 0.3):
            lt = P.lam * t
            expected = math.exp(-lt) * (1.0 + lt + lt**2 / 2.0 + lt**3 / 6.0)
            got = h_asymptotic(FreqQuery(alpha_norm=0.0, t=t), P)
            assert got == pytest.approx(expected, abs=1e-15)

    def test_frozen_values(self):
        assert h_asymptotic(FreqQuery(alpha_norm=2.0, t=0.1), P) == pytest.approx(
            0.85057191186277858, rel=1e-13
        )
        assert h_asymptotic(FreqQuery(alpha_norm=1.0, t=0.1), P) == pytest.approx(
            0.96121469216513078, rel=1e-13
        )

    def test_matches_conditional_sum_to_cubic_order(self):
        # at fixed frequency the gap to the exact four-term sum is o(t^3)
        for t in (0.2, 0.1, 0.05):
            budget = 5.0 * t**3
            for alpha in (0.3, 0.5, 1.0, 2.0, 3.0):
                q = FreqQuery(alpha_norm=alpha, t=t)
                lt = P.lam * t
                exact = math.exp(-lt) * (
                    h0(q, P)
                    + lt * h1(q, P)
                    + lt**2 / 2.0 * h2_series(q, P)
                    + lt**3 / 6.0 * h3_series(q, P)
                )
                assert abs(h_asymptotic(q, P) - exact) <= budget

    def test_gap_shrinks_like_o_t3(self):
        alpha = 2.0
        normalized = []
        for t in (0.2, 0.1, 0.05, 0.025):
            q = FreqQuery(alpha_norm=alpha, t=t)
            lt = P.lam * t
            exact = math.exp(-lt) * (
                h0(q, P)
                + lt * h1(q, P)
                + lt**2 / 2.0 * h2_series(q, P)
                + lt**3 / 6.0 * h3_series(q, P)
            )
            normalized.append(abs(h_asymptotic(q, P) - exact) / t**3)
        assert all(a > b for a, b in zip(normalized, normalized[1:]))
        assert normalized[-1] < 0.25 * normalized[0]
