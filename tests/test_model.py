"""Domain type validation, and the one time and radius domain of every entry point."""
import dataclasses
import math
import re

import numpy as np
import pytest

from markovflight import (
    FlightParams,
    FreqQuery,
    MarkovFlightError,
    McConfig,
    McEstimate,
    NonFinite,
    ac_density,
    ball_prob_asymptotic,
    estimate_ball_prob,
    estimate_cf,
    g_exact,
    g_tilde,
    h0,
    h_asymptotic,
    integrate_ac_density,
    integrate_ac_density_ball,
    radial_histogram,
    radial_profile,
    run_suite,
    sample_positions,
    sample_positions_given_n,
    singular_weight,
    switch_tail_error,
)
from markovflight.errors import DomainError


class TestFlightParams:
    def test_valid(self):
        p = FlightParams(c=5.0, lam=2.0)
        assert p.c == 5.0 and p.lam == 2.0

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_nonpositive_speed(self, c):
        with pytest.raises(DomainError, match="speed c must be > 0"):
            FlightParams(c=c, lam=1.0)

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_nonpositive_intensity(self, lam):
        with pytest.raises(DomainError, match="intensity lam must be > 0"):
            FlightParams(c=1.0, lam=lam)

    @pytest.mark.parametrize("c,lam", [(math.nan, 1.0), (1.0, math.inf), (math.inf, 1.0)])
    def test_nonfinite(self, c, lam):
        with pytest.raises(NonFinite):
            FlightParams(c=c, lam=lam)

    def test_errors_are_domain_and_value_errors(self):
        with pytest.raises(DomainError):
            FlightParams(c=-1.0, lam=1.0)
        with pytest.raises(ValueError):
            FlightParams(c=-1.0, lam=1.0)

    def test_frozen(self):
        p = FlightParams(c=1.0, lam=1.0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.c = 2.0


class TestMcConfig:
    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_positive(self, samples):
        with pytest.raises(DomainError):
            McConfig(samples=samples, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_range(self, seed):
        with pytest.raises(DomainError):
            McConfig(samples=10, seed=seed)

    def test_numpy_integers_are_counts(self):
        cfg = McConfig(samples=np.int64(20000), seed=np.uint64(2**64 - 1))
        assert (cfg.samples, cfg.seed) == (20000, 2**64 - 1)


class TestMcEstimate:
    def test_fields(self):
        e = McEstimate(mean=0.5, std_error=0.01, samples=100)
        assert (e.mean, e.std_error, e.samples) == (0.5, 0.01, 100)


P = FlightParams(c=5.0, lam=2.0)
CFG = McConfig(samples=10**4, seed=1)


def rng():
    return np.random.default_rng(0)


# every public callable that takes a time t, at t = 0.1 (ct = 0.5) otherwise
TIME_TAKERS = {
    "singular_weight": lambda t: singular_weight(t, P),
    "ac_density": lambda t: ac_density(0.1, t, P),
    "ball_prob_asymptotic": lambda t: ball_prob_asymptotic(0.1, t, P),
    "g_exact": lambda t: g_exact(t, P),
    "g_tilde": lambda t: g_tilde(t, P),
    "switch_tail_error": lambda t: switch_tail_error(t, P),
    "radial_profile": lambda t: radial_profile(t, P, 5, 0.1),
    "FreqQuery": lambda t: FreqQuery(1.0, t),
    "sample_positions": lambda t: sample_positions(t, P, 10, rng()),
    "sample_positions_given_n": lambda t: sample_positions_given_n(1, t, P, 10, rng()),
    "estimate_cf": lambda t: estimate_cf(2.0, t, P, CFG),
    "estimate_ball_prob": lambda t: estimate_ball_prob(0.1, t, P, CFG),
    "radial_histogram": lambda t: radial_histogram(t, P, CFG, bins=4),
    "integrate_ac_density": lambda t: integrate_ac_density(t, P),
    "integrate_ac_density_ball": lambda t: integrate_ac_density_ball(0.1, t, P),
    "run_suite": lambda t: run_suite(P, t, quick=True),
}

# every public callable that takes a radius, with its name for the radius
RADIUS_TAKERS = {
    "ac_density": (lambda r: ac_density(r, 0.1, P), "r"),
    "ball_prob_asymptotic": (lambda r: ball_prob_asymptotic(r, 0.1, P), "r"),
    "radial_profile": (lambda r: radial_profile(0.1, P, 5, r), "r_max"),
    "estimate_ball_prob": (lambda r: estimate_ball_prob(r, 0.1, P, CFG), "r"),
    "integrate_ac_density_ball": (lambda r: integrate_ac_density_ball(r, 0.1, P), "r"),
}


@pytest.mark.parametrize("t", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("name", list(TIME_TAKERS))
def test_time_domain(name, t):
    message = re.escape(f"t must be finite and > 0, got {t}")
    with pytest.raises(DomainError, match=message) as info:
        TIME_TAKERS[name](t)
    assert isinstance(info.value, NonFinite) == (not math.isfinite(t))


@pytest.mark.parametrize("r", [-1.0, math.nan, math.inf])
@pytest.mark.parametrize("name", list(RADIUS_TAKERS))
def test_radius_domain(name, r):
    call, arg = RADIUS_TAKERS[name]
    message = re.escape(f"{arg} must be finite and >= 0, got {r}")
    with pytest.raises(DomainError, match=message) as info:
        call(r)
    assert isinstance(info.value, NonFinite) == (not math.isfinite(r))


HUGE_LAM = FlightParams(c=5.0, lam=1e300)

# extreme scales inside the time and radius rule, each with the value it
# returns or the error it raises: they leaked OverflowError from (lam t)^3,
# ZeroDivisionError, math.sin's ValueError, NaN where lam t overflows, or a
# density of 0.0 where ct underflows to 0; the CF at x = 5e307 is below 1e-300
EXTREMES = {
    "g_tilde_lam_1e300": (lambda: g_tilde(1.0, HUGE_LAM), 0.0),
    "ac_density_lam_1e300": (lambda: ac_density(0.1, 1.0, HUGE_LAM), 0.0),
    "ball_prob_lam_1e300": (lambda: ball_prob_asymptotic(0.1, 1.0, HUGE_LAM), 0.0),
    "h_asymptotic_lam_1e300": (lambda: h_asymptotic(FreqQuery(1.0, 1.0), HUGE_LAM), 0.0),
    "h_asymptotic_x_5e307": (lambda: h_asymptotic(FreqQuery(1e307, 1.0), P), 0.0),
    "g_tilde_lam_t_inf": (lambda: g_tilde(1e300, HUGE_LAM), 0.0),
    "switch_tail_lam_t_inf": (lambda: switch_tail_error(1e300, HUGE_LAM), 1.0),
    "ac_density_t_1e-300": (lambda: ac_density(0.0, 1e-300, P), (DomainError, "t=1e-300")),
    "ac_density_ct_subnormal": (
        lambda: ac_density(0.0, 1e-160, FlightParams(1e-160, 2.0)), (DomainError, "t=1e-160"),
    ),
    "ac_density_ct_zero": (
        lambda: ac_density(0.0, 1e-300, FlightParams(1e-30, 2.0)), (DomainError, "underflows"),
    ),
    "h0_x_inf": (lambda: h0(FreqQuery(1e308, 1.0), P), (NonFinite, "overflows")),
}


@pytest.mark.parametrize("name", list(EXTREMES))
def test_extreme_scales(name):
    call, want = EXTREMES[name]
    if isinstance(want, tuple):
        with pytest.raises(want[0], match=want[1]) as info:
            call()
        assert isinstance(info.value, MarkovFlightError)
    else:
        got = call()
        assert math.isfinite(got) and got == pytest.approx(want, abs=1e-300)
