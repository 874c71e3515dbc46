"""Density, subball probabilities and the accuracy functions.

Subball probabilities are checked against the quadrature of the density
terms in `integrate_ac_density_ball`, which shares no code with their
closed form.  The accuracy-gap identity is checked against scipy's Poisson
survival function.
"""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, stats

from markovflight import (
    FlightParams,
    ac_density,
    ball_prob_asymptotic,
    g_exact,
    g_tilde,
    integrate_ac_density_ball,
    radial_profile,
    singular_weight,
    switch_tail_error,
)
from markovflight.errors import DomainError, RadiusOutsideBall
from markovflight.model import switch_weights

P = FlightParams(c=5.0, lam=2.0)
T = 0.1
CT = P.c * T


class TestSingularWeight:
    def test_value(self):
        assert singular_weight(T, P) == math.exp(-0.2)

    def test_t_domain(self):
        with pytest.raises(DomainError):
            singular_weight(0.0, P)

    @pytest.mark.parametrize("t, mass", [(1e-20, 1.0), (400.0, 0.0)])
    def test_atom_mass_rounds_to_an_end(self, t, mass):
        # e^(-lam t) is 1.0 at lam t = 2e-20 and 0.0 at 800; the density stays finite
        assert singular_weight(t, P) == mass
        assert ac_density(0.0, t, P) >= 0.0 and math.isfinite(ac_density(0.0, t, P))


class TestAcDensity:
    def test_frozen_values(self):
        assert ac_density(0.0, T, P) == pytest.approx(0.22384571804235565, rel=1e-14)
        assert ac_density(0.25, T, P) == pytest.approx(0.24645850779305986, rel=1e-14)
        assert ac_density(0.45, T, P) == pytest.approx(0.37357936110857304, rel=1e-14)

    def test_origin_limit_matches_formula(self):
        # the removable singularity: lam/(2 pi c^3 t^2) plus the two
        # regular terms, all damped by the atom weight
        expected = math.exp(-0.2) * (
            P.lam / (2.0 * math.pi * P.c**3 * T * T)
            + P.lam**2 / (2.0 * math.pi**2 * P.c**2 * CT)
            + P.lam**3 / (8.0 * math.pi * P.c**3)
        )
        assert ac_density(0.0, T, P) == pytest.approx(expected, rel=1e-15)

    def test_limit_switch_is_continuous(self):
        just_inside = ac_density(1e-10 * CT, T, P)
        at_zero = ac_density(0.0, T, P)
        assert abs(just_inside - at_zero) < 1e-12

    def test_relative_error_across_radii(self):
        # log((ct+r)/(ct-r)) lost up to 8e-8 relative just above the
        # r = 1e-9 ct switch; log1p(2r/(ct-r)) keeps every digit
        lam, c, t = (mpmath.mpf(v) for v in (P.lam, P.c, T))
        with mpmath.workdps(50):
            for rho in np.geomspace(1.01e-9, 0.9, 120):
                r = float(rho) * CT
                s, ct = mpmath.mpf(r), mpmath.mpf(CT)
                ref = mpmath.exp(-lam * t) * (
                    lam / (4 * mpmath.pi * c**2 * t * s) * mpmath.log((ct + s) / (ct - s))
                    + lam**2 / (2 * mpmath.pi**2 * c**2 * mpmath.sqrt(ct * ct - s * s))
                    + lam**3 / (8 * mpmath.pi * c**3)
                )
                assert abs(ac_density(r, T, P) - ref) <= 1e-14 * ref, rho

    def test_zero_at_and_beyond_boundary(self):
        assert ac_density(CT, T, P) == 0.0
        assert ac_density(2.0 * CT, T, P) == 0.0

    def test_blow_up_near_boundary(self):
        # the inverse-square-root term dominates: the value passes 1e3 only
        # around ct(1 - 1e-10), not at ct(1 - 1e-8); the pins are mpmath's
        # values at ct = 0.5 and lam t = 0.2, 50 digits
        assert ac_density(CT * (1.0 - 1e-8), T, P) == pytest.approx(
            95.847194977436859, rel=1e-14
        )
        assert ac_density(CT * (1.0 - 1e-12), T, P) == pytest.approx(
            9388.3192727287438, rel=1e-14
        )
        assert ac_density(CT * (1.0 - 1e-12), T, P) > 1e3

    @pytest.mark.parametrize("t", [0.1, 0.25])
    def test_mass_is_g_tilde(self, t):
        # the radial integral of the density itself, not of hand-copied
        # terms, must give the mass of paths with one to three switches;
        # this pins all three coefficients at lam t = 0.2 and 0.5
        ct = P.c * t
        mass, _ = integrate.quad(lambda r: 4.0 * math.pi * r * r * ac_density(r, t, P), 0.0, ct)
        assert mass == pytest.approx(g_tilde(t, P), abs=1e-10)

    def test_strictly_increasing(self):
        prof = radial_profile(T, P, 500, CT * (1.0 - 1.0 / 500))
        assert np.all(np.diff(prof.values) > 0)

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            ac_density(-0.1, T, P)


class TestBallProbAsymptotic:
    @pytest.mark.parametrize("ratio", [0.05, 0.2, 0.5, 0.8, 0.95])
    def test_vs_closed_form(self, ratio):
        # the closed form against quadrature of the density terms
        r = ratio * CT
        assert ball_prob_asymptotic(r, T, P) == pytest.approx(
            integrate_ac_density_ball(r, T, P), abs=5e-12
        )

    def test_frozen_values(self):
        assert ball_prob_asymptotic(0.1, T, P) == pytest.approx(
            0.00094543359312007527, rel=1e-12
        )
        assert ball_prob_asymptotic(0.25, T, P) == pytest.approx(
            0.015493761253261989, rel=1e-12
        )

    def test_zero_radius(self):
        assert ball_prob_asymptotic(0.0, T, P) == 0.0

    def test_monotone_in_r(self):
        rs = np.linspace(0.01, 0.49, 49)
        vals = [ball_prob_asymptotic(float(r), T, P) for r in rs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_boundary_raises(self):
        with pytest.raises(RadiusOutsideBall):
            ball_prob_asymptotic(CT, T, P)
        with pytest.raises(RadiusOutsideBall):
            ball_prob_asymptotic(CT * 1.5, T, P)
        with pytest.raises(DomainError):
            ball_prob_asymptotic(-0.1, T, P)

    def test_limit_recovers_g_tilde(self):
        val = ball_prob_asymptotic(np.nextafter(CT, 0.0), T, P)
        assert val == pytest.approx(g_tilde(T, P), abs=1e-8)

    def test_extreme_ratios_vs_quadrature(self):
        # next to the boundary, where a truncated series of the log term
        # drifts, and next to the origin, where its closed form cancels
        for ratio in (0.99, 0.999):
            r = ratio * CT
            assert ball_prob_asymptotic(r, T, P) == pytest.approx(
                integrate_ac_density_ball(r, T, P), abs=1e-10
            )
        r = 1e-4 * CT
        assert ball_prob_asymptotic(r, T, P) == pytest.approx(
            integrate_ac_density_ball(r, T, P), rel=1e-9
        )


class TestAccuracyFunctions:
    def test_g_exact(self):
        # 1 - e^(-0.2) in mpmath at 50 digits
        assert g_exact(T, P) == pytest.approx(0.18126924692201815, rel=1e-14)

    @pytest.mark.parametrize("lt", [1e-12, 1e-8, 1e-5, 1e-4, 1e-2, 0.2, 1.0, 3.0, 20.0,
                                    700.0, 710.0, 720.0, 730.0, 745.0])
    def test_against_mpmath(self, lt):
        # every weight, the tail and both masses to 1e-14 relative, at the
        # small lam t where 1 - sum P{N=n} and 1 - e^(-lam t) cancel to nothing
        # and at the large lam t where e^(-lam t) is subnormal; a subnormal
        # value keeps only its absolute rounding, half its last place
        pp = FlightParams(c=5.0, lam=1.0)
        with mpmath.workdps(50):
            mu = mpmath.mpf(lt)
            pmf = [mpmath.exp(-mu) * mu**n / mpmath.factorial(n) for n in range(4)]
            tail = mpmath.gammainc(4, 0, mu, regularized=True)
            want = pmf + [tail, -mpmath.expm1(-mu), sum(pmf[1:]), tail]
            got = [*switch_weights(lt, pp), g_exact(lt, pp), g_tilde(lt, pp),
                   switch_tail_error(lt, pp)]
            for g, w in zip(got, want, strict=True):
                assert abs(g - w) <= 1e-14 * w + mpmath.mpf(2) ** -1075
        assert switch_tail_error(lt, pp) >= 0.0

    def test_g_tilde_frozen(self):
        assert g_tilde(T, P) == pytest.approx(0.18121240668125999, rel=1e-15)

    def test_gap_identity(self):
        for lam in (1.0, 1.5, 2.0, 2.5):
            pp = FlightParams(c=5.0, lam=lam)
            for t in (0.1, 0.4, 0.9):
                gap = switch_tail_error(t, pp)
                assert gap == pytest.approx(g_exact(t, pp) - g_tilde(t, pp), abs=1e-15)

    def test_gap_is_poisson_tail(self):
        # independent oracle: scipy's Poisson survival function Pr{N >= 4}
        for lam, t in ((1.0, 0.7), (1.5, 0.5), (2.0, 0.4), (2.5, 0.3)):
            pp = FlightParams(c=5.0, lam=lam)
            assert switch_tail_error(t, pp) == pytest.approx(
                float(stats.poisson.sf(3, lam * t)), abs=1e-14
            )

    def test_window_endpoints_below_threshold(self):
        frozen = {
            (1.0, 0.7): 0.0057534575922996156,
            (1.5, 0.5): 0.0072921665052113616,
            (2.0, 0.4): 0.0090798578001540786,
            (2.5, 0.3): 0.0072921665052113616,
        }
        for (lam, t), want in frozen.items():
            gap = switch_tail_error(t, FlightParams(c=5.0, lam=lam))
            assert gap == pytest.approx(want, rel=1e-12)
            assert gap < 0.01

    def test_gap_increasing_in_t(self):
        gaps = [switch_tail_error(t, P) for t in (0.1, 0.2, 0.4, 0.8)]
        assert all(a < b for a, b in zip(gaps, gaps[1:]))

    def test_g_tilde_below_g_exact(self):
        for t in (0.05, 0.1, 0.5, 1.0, 3.0):
            assert g_tilde(t, P) < g_exact(t, P)


class TestRadialProfile:
    def test_shape_and_values(self):
        prof = radial_profile(T, P, 100, 0.4)
        assert len(prof.radii) == 100 and len(prof.values) == 100
        assert prof.radii[0] == 0.0 and prof.radii[-1] == 0.4
        assert prof.values[7] == ac_density(float(prof.radii[7]), T, P)

    def test_r_max_must_be_inside(self):
        with pytest.raises(RadiusOutsideBall):
            radial_profile(T, P, 10, CT)

    def test_point_count(self):
        with pytest.raises(DomainError):
            radial_profile(T, P, 1, 0.4)


@settings(derandomize=True, deadline=None)
@given(lam=st.floats(1e-300, 1e300), t=st.floats(1e-300, 1e300))
def test_switch_weights_form_a_distribution(lam, t):
    # lam t runs from underflow to overflow; neither end is filtered out
    pp = FlightParams(c=5.0, lam=lam)
    weights = switch_weights(t, pp)
    assert all(0.0 <= w <= 1.0 for w in weights)
    assert abs(math.fsum(weights) - 1.0) <= 4 * math.ulp(1.0)
    assert switch_tail_error(t, pp) >= 0.0
    assert abs(g_exact(t, pp) - g_tilde(t, pp) - switch_tail_error(t, pp)) <= 1e-15


# a NaN or infinite time or radius is outside every function's domain: each
# call below returned nan (or the limit 1.0, for g_exact) instead of raising
@pytest.mark.parametrize("call", [
    lambda: g_tilde(math.nan, P),
    lambda: ac_density(0.1, math.nan, P),
    lambda: ac_density(math.nan, 0.1, P),
    lambda: ball_prob_asymptotic(math.nan, 0.1, P),
    lambda: switch_tail_error(math.inf, P),
    lambda: g_exact(math.inf, P),
], ids=[
    "g_tilde_t_nan", "ac_density_t_nan", "ac_density_r_nan",
    "ball_prob_r_nan", "switch_tail_t_inf", "g_exact_t_inf",
])
def test_non_finite_time_or_radius_is_domain_error(call):
    with pytest.raises(DomainError, match="must be finite"):
        call()
