"""Special functions against independent oracles.

Hypergeometric sums are checked against big-rational summation built from
their textbook definitions (fractions.Fraction, no floats until the final
comparison), Si and the entire cosine integral against mpmath's si and ci
at 40 digits (the implementation is a Taylor series and the continued fraction
of E_1(ix)), and Bessel values against the defining power series and mpmath's besselj.
"""
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from scipy import special

from markovflight import (
    arctan_pow, bessel_j, gamma_sum_identity, hyp5f4_unit, neg_cin, quartic_gamma, si, specfun,
)
from markovflight.errors import DomainError, NonFinite, TruncationNotConverged
from markovflight.specfun import hyp3f2_unit_terminating, log_gamma, sum_series


def mp_reference(fn, x: float) -> float:
    with mpmath.workdps(40):
        return float(fn(mpmath.mpf(x)))


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


def test_stored_gauss_legendre_rule_is_numpys():
    # the stored upper halves, mirrored, are leggauss(16) to the last bit
    nodes, weights = np.polynomial.legendre.leggauss(16)
    assert specfun._GL_NODES.tobytes() == nodes.tobytes()
    assert specfun._GL_WEIGHTS.tobytes() == weights.tobytes()


class TestLogGammaPochhammer:
    def test_log_gamma_matches_lgamma(self):
        for x in (0.5, 1.0, 2.5, 17.0):
            assert log_gamma(x) == math.lgamma(x)

    def test_log_gamma_domain(self):
        with pytest.raises(DomainError):
            log_gamma(0.0)
        with pytest.raises(DomainError):
            log_gamma(-1.5)


class TestBesselJ:
    def test_at_zero(self):
        assert bessel_j(0.0, 0.0) == 1.0
        assert bessel_j(1.0, 0.0) == 0.0
        assert bessel_j(0.5, 0.0) == 0.0

    def test_negative_argument(self):
        with pytest.raises(DomainError):
            bessel_j(1.0, -0.1)

    def test_negative_order(self):
        with pytest.raises(DomainError):
            bessel_j(-1.0, 1.0)
        with pytest.raises(DomainError):
            bessel_j(-0.5, 0.0)

    @pytest.mark.parametrize("n", [0, 1, 2, 5])
    def test_integer_orders_vs_series(self, n):
        for x in (0.1, 0.7, 1.0, 3.0, 5.0):
            ref = bessel_series(float(n), x)
            assert bessel_j(float(n), x) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_half_orders_vs_series(self, n):
        for x in (0.1, 0.7, 1.0, 3.0, 5.0):
            ref = bessel_series(n + 0.5, x)
            assert bessel_j(n + 0.5, x) == pytest.approx(ref, abs=1e-12)

    @pytest.mark.parametrize(
        "x", [1e-204, 1e-200, 1e-160, 1e-150, 1e-100, 1e-9, 0.0999, 0.11, 0.3, 0.49, 0.51]
    )
    def test_three_halves_relative_error_near_zero(self, x):
        # the power series serves x <= sqrt(5/2); an x^8 polynomial gave 7.4e-15 at
        # x = 0.0999 and sin(x)/x - cos(x) 2.5e-14 at 0.11; pytest.approx's 1e-12 absolute
        # floor would hide both.  A prefactor times x^2/3 lost 4.8e-4 at 1e-160 and gave 0.0
        # from 1e-180
        with mpmath.workdps(40):
            ref = mpmath.besselj(1.5, mpmath.mpf(x))
            err = abs((mpmath.mpf(bessel_j(1.5, x)) - ref) / ref)
        assert err <= 2e-15

    @pytest.mark.parametrize("x", [64.5, 70.0, 100.0, 200.0, 1e3, 12345.6, 1e5, 1e6, 1e9, 1e12])
    def test_j1_past_the_sweep(self, x):
        # Hankel's expansion, within 2.5e-16 of J_1's envelope sqrt(2/(pi x)); relative
        # error would blow up at J_1's zeros
        with mpmath.workdps(40):
            err = abs(mpmath.mpf(bessel_j(1.0, x)) - mpmath.besselj(1, mpmath.mpf(x)))
        assert err <= 2.5e-16 * math.sqrt(2.0 / (math.pi * x))

    @pytest.mark.parametrize("nu, x", [(2.5, 100.0), (0.3, 1.0), (501.0, 30.0), (1e17, 3.0)])
    def test_outside_the_domain(self, nu, x):
        # a half order past the sweep, an order with 2 nu not whole, past the sweep's top
        # order, and where scipy's jv gave nan
        with pytest.raises(DomainError, match="outside its domain"):
            bessel_j(nu, x)

    def test_trig_forms_vs_scipy(self):
        # the closed trig forms for orders 1/2 and 3/2 vs scipy's generic jv
        for x in (0.05, 0.5, 2.0, 10.0, 40.0):
            assert bessel_j(0.5, x) == pytest.approx(
                float(special.jv(0.5, x)), abs=1e-13
            )
            assert bessel_j(1.5, x) == pytest.approx(
                float(special.jv(1.5, x)), abs=1e-13
            )


# x where the sweep's two normalisations meet a zero of sin x or cos x, and
# where the power series hands over (nu + 1 = x^2) or the sweep ends (x = 64)
SWEEP_XS = [1e-8, 1e-3, 0.3, 0.99, 1.0, 1.3, 2.0, math.pi, 1.5 * math.pi, 5.0, 10.0,
            10.0 * math.pi, 10.5 * math.pi, 22.3, 22.5, 30.0, 37.0, 45.0, 19.5 * math.pi,
            63.9, 64.0]


@pytest.mark.parametrize("x", SWEEP_XS)
def test_bessel_j_at_every_order_the_series_read(x):
    # H_2 reads J at k + 1 and H_3 at k + 3/2; the 40-digit oracle shares no code with
    # either method.  Relative where nu >= x and J is a normal float, where J is small
    with mpmath.workdps(40):
        for nu in [k + half for k in range(101) for half in (0.5, 1.0)]:
            ref = mpmath.besselj(nu, mpmath.mpf(x))
            err = abs(mpmath.mpf(bessel_j(nu, x)) - ref)
            assert err <= 5e-16, (nu, x)
            if nu >= x and abs(ref) > 1e-300:
                assert err <= 1e-14 * abs(ref), (nu, x)


def _list_sweep(frac: float, x: float) -> list:
    """specfun._sweep as it was when its cache held lists of Python floats."""
    above, here, values = 0.0, 2.0**-900, []
    for v in range(min(specfun._SWEEP_TOP, int(x * x)) + 40, -1 if frac else 0, -1):
        above, here = here, 2.0 * (v + frac) / x * here - above
        if abs(here) > 2.0**900:
            values = [w * 2.0**-900 for w in values]
            above, here = above * 2.0**-900, here * 2.0**-900
        values.append(here)
    values.reverse()
    if frac:
        sin, cos = math.sin(x), math.cos(x)
        form, at = (sin, 1) if abs(sin) > abs(cos) else (cos, 0)
        scale = math.sqrt(2.0 / (math.pi * x)) * form / values[at]
        return [w * scale for w in values[1:]]
    scale = 1.0 / math.fsum([values[0], *(2.0 * w for w in values[2::2])])
    return [w * scale for w in values]


@pytest.mark.parametrize("x", SWEEP_XS + [12.25])
def test_sweep_arrays_keep_the_list_values(x):
    # the cache holds float64 arrays, not lists of Python floats, and bessel_j still
    # returns a Python float; x = 12.25 reaches the top order, 500
    for frac in (0.0, 0.5):
        want = _list_sweep(frac, x)
        got = specfun._sweep(frac, x)
        assert np.array_equal(got.view(np.uint64), np.array(want).view(np.uint64))
        for k in range(len(want)):
            nu = k + frac
            if nu + 1.0 < x * x and nu not in (0.5, 1.5) and nu <= 500:  # read from the sweep
                j = bessel_j(nu, x)
                assert type(j) is float and j.hex() == want[k].hex(), nu


@pytest.mark.parametrize("x", [3.9, 4.0, 4.1, 7.0, 9.99, 10.01, 1e5])
def test_sine_and_cosine_integrals_at_their_switches(x):
    # si and neg_cin leave their Taylor series at 4 for the continued fraction of E_1(ix);
    # on [4, 10] neg_cin's series was off by up to 1.9e-14 relative, the fraction 3.2e-16
    with mpmath.workdps(40):
        u = mpmath.mpf(x)
        si_ref, cin_ref = mpmath.si(u), mpmath.ci(u) - mpmath.log(u) - mpmath.euler
        assert abs(si(x) - si_ref) <= 5e-16
        assert abs(neg_cin(x) - cin_ref) <= 5e-16 * abs(cin_ref)


class TestSi:
    def test_endpoints(self):
        assert si(0.0) == 0.0
        with pytest.raises(DomainError):
            si(-1.0)

    def test_frozen_value(self):
        assert si(1.0) == pytest.approx(0.94608307036718298, abs=1e-15)

    @pytest.mark.parametrize(
        "x", [1e-8, 0.3, 1.0, 5.0, 9.99, 10.01, 20.0, 50.0, 1e3, 2e4]
    )
    def test_vs_scipy_across_cutoff(self, x):
        # the oracle is mpmath; a warning from the evaluation fails the test
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = si(x)
        assert got == pytest.approx(mp_reference(mpmath.si, x), abs=1e-12)


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

    @pytest.mark.parametrize(
        "x", [1e-6, 0.5, 2.0, 7.0, 9.99, 10.01, 25.0, 1e3, 2e4]
    )
    def test_vs_scipy_across_cutoff(self, x):
        # the oracle is mpmath; a warning from the evaluation fails the test.
        # Ci(x) = gamma + ln x + neg_cin(x), so neg_cin = Ci - ln x - gamma
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = neg_cin(x)
        ref = mp_reference(lambda u: mpmath.ci(u) - mpmath.log(u) - mpmath.euler, x)
        assert got == pytest.approx(ref, abs=1e-12)

    def test_relative_error_down_to_tiny_x(self):
        # the series stops once a term no longer moves the sum; a fixed
        # absolute floor returned 0 below x ~ 2e-9.  At 40 digits the oracle
        # Ci - ln x - gamma itself cancels below 1e-12, so it runs at 90
        with mpmath.workdps(90):
            for x in np.geomspace(1e-14, 10.0, 120):
                u = mpmath.mpf(float(x))
                ref = mpmath.ci(u) - mpmath.log(u) - mpmath.euler
                assert abs(neg_cin(float(x)) - ref) <= 1e-14 * abs(ref), x

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
        with pytest.raises(DomainError, match="a must not be a nonpositive integer"):
            hyp3f2_unit_terminating(2, 0.0)
        with pytest.raises(DomainError, match="a must not be a nonpositive integer"):
            hyp3f2_unit_terminating(2, -3.0)
        with pytest.raises(DomainError):
            hyp3f2_unit_terminating(-1, 1.0)


NAN, INF = math.nan, math.inf


@pytest.mark.parametrize("call,error", [
    (lambda: bessel_j(1.0, NAN), NonFinite),
    (lambda: bessel_j(1.0, INF), NonFinite),
    (lambda: bessel_j(NAN, 1.0), NonFinite),
    (lambda: bessel_j(0.5, INF), NonFinite),
    (lambda: bessel_j(1.5, INF), NonFinite),
    (lambda: si(NAN), NonFinite),
    (lambda: neg_cin(NAN), NonFinite),
    (lambda: neg_cin(INF), NonFinite),
    (lambda: gamma_sum_identity(3, INF), NonFinite),
    (lambda: gamma_sum_identity(3, NAN), NonFinite),
    (lambda: quartic_gamma(-1), DomainError),
    *[(lambda n=n, z=z: arctan_pow(n, z), NonFinite) for n in (1, 4) for z in (NAN, INF, -INF)],
], ids=[
    "bessel_j_x_nan", "bessel_j_x_inf", "bessel_j_nu_nan", "bessel_j_half_x_inf",
    "bessel_j_three_halves_x_inf", "si_nan", "neg_cin_nan", "neg_cin_inf",
    "gamma_sum_a_inf", "gamma_sum_a_nan", "quartic_gamma_negative_k",
    *[f"arctan_pow_{n}_{z}" for n in (1, 4) for z in ("nan", "inf", "-inf")],
])
def test_bad_input_raises_its_domain_error(call, error):
    # each of these once returned nan, -inf or 0.0, leaked a bare ValueError,
    # or spent the whole term budget before raising TruncationNotConverged
    with pytest.raises(error):
        call()


class TestSumSeries:
    def test_geometric_sum(self):
        assert sum_series("geometric", lambda k: 0.5**k) == pytest.approx(2.0, abs=1e-13)

    def test_does_not_stop_before_past(self):
        # terms below the tail tolerance must not stop the sum while k + 1 <= past
        terms = [0.0] * 10 + [1.0, 0.0]
        assert sum_series("late", terms.__getitem__, past=10.0) == 1.0
        assert sum_series("early", terms.__getitem__) == 0.0

    def test_term_budget(self, monkeypatch):
        monkeypatch.setattr(specfun, "_MAX_TERMS", 5)
        with pytest.raises(TruncationNotConverged, match=r"^slow: 5 terms left tail"):
            sum_series("slow", lambda k: 1.0 / (k + 1))

    def test_rounding_loss(self):
        with pytest.raises(TruncationNotConverged, match=r"^big: precision lost to terms of 1e\+04"):
            sum_series("big", lambda k: 1e4 if k == 0 else 0.0)

    def test_callers_name_leads_the_message(self):
        with pytest.raises(TruncationNotConverged, match=r"^arctan_pow\(4, 10.0\): 400 terms"):
            arctan_pow(4, 10.0)
