"""Every public scalar function is total: a finite value or a MarkovFlightError.

A derandomized hypothesis sweep over the public scalar functions of `specfun`,
`arctan_series`, `charfun` and `density`, the two radial quadratures of
`validate`, the samplers, `substream` and the Monte Carlo estimators.  Float
arguments may be NaN, infinite, negative or subnormal, and `FlightParams`
spans [1e-300, 1e300] log-uniformly.  Every count, `McConfig`'s sample count
and seed among them, is drawn from the integers and from the floats, NaN and
2.5 included.  A NaN, an inf, or a raw `ValueError`, `TypeError`,
`ZeroDivisionError` or `OverflowError` fails the sweep.  The unconditional
sampler and the estimators run at a t cut to at most 1/lam: their draws grow
as lam t times the sample count.

`--hypothesis-profile=ci` (tests/conftest.py) runs ten times the examples.
"""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from markovflight import (
    FlightParams, McConfig, g_tilde, integrate_ac_density, integrate_ac_density_ball,
)
from markovflight import arctan_series, charfun, density, montecarlo, specfun
from markovflight.errors import DomainError, MarkovFlightError, TruncationNotConverged

SCALE = st.floats(-300.0, 300.0).map(lambda e: 10.0**e)
ANY = st.one_of(st.floats(), SCALE)
PARAMS = st.builds(FlightParams, SCALE, SCALE)


def _count(lo, hi):
    """A count argument: an integer in [lo, hi], or a float."""
    return st.one_of(st.integers(lo, hi), st.floats(), st.sampled_from([2.5, math.nan]))


SAMPLES = _count(-1, 12_000)
SEED = _count(-1, 2**64)
CONDITION = st.one_of(st.none(), _count(-1, 4))


def _h(h):
    return lambda alpha, t, p: h(charfun.FreqQuery(alpha, t), p)


def _brief(t, p):
    # lam t <= 1: a path draws two segments on average
    return min(t, 1.0 / p.lam)


def _estimate_cf(alpha, t, p, samples, seed, condition):
    cfg = McConfig(samples, seed)
    return dataclasses.astuple(montecarlo.estimate_cf(alpha, _brief(t, p), p, cfg, condition))


def _histogram(t, p, samples, seed, bins):
    hist = montecarlo.radial_histogram(_brief(t, p), p, McConfig(samples, seed), bins)
    return np.concatenate([hist.edges, hist.masses, [hist.atom_fraction]])


def _positions(t, p, size):
    pos, counts = montecarlo.sample_positions(_brief(t, p), p, size, montecarlo.substream(1, 0))
    return np.concatenate([pos.ravel(), counts])


# name: (strategy of the argument tuple, call returning a float or a tuple of floats)
CASES = {
    "bessel_j": (st.tuples(ANY, ANY), specfun.bessel_j),
    "si": (st.tuples(ANY), specfun.si),
    "neg_cin": (st.tuples(ANY), specfun.neg_cin),
    "hyp5f4_unit": (st.tuples(_count(-3, 400)), specfun.hyp5f4_unit),
    "arctan_pow": (st.tuples(_count(-1, 5), ANY), arctan_series.arctan_pow),
    "quartic_gamma": (st.tuples(_count(-3, 400)), arctan_series.quartic_gamma),
    "gamma_sum_identity": (st.tuples(_count(-2, 300), ANY), arctan_series.gamma_sum_identity),
    **{name: (st.tuples(ANY, ANY, PARAMS), _h(getattr(charfun, name)))
       for name in ("h0", "h1", "h2_series", "h3_series", "h_asymptotic")},
    **{name: (st.tuples(ANY, PARAMS), getattr(density, name))
       for name in ("singular_weight", "g_exact", "g_tilde", "switch_tail_error")},
    **{name: (st.tuples(ANY, ANY, PARAMS), getattr(density, name))
       for name in ("ac_density", "ball_prob_asymptotic")},
    "radial_profile": (
        st.tuples(ANY, PARAMS, _count(0, 6), ANY),
        lambda *args: density.radial_profile(*args).values,
    ),
    "integrate_ac_density": (st.tuples(ANY, PARAMS), integrate_ac_density),
    "integrate_ac_density_ball": (st.tuples(ANY, ANY, PARAMS), integrate_ac_density_ball),
    "substream": (st.tuples(SEED, _count(-1, 2**64)),
                  lambda seed, k: montecarlo.substream(seed, k).random(2)),
    "sample_positions": (st.tuples(ANY, PARAMS, _count(-3, 300)), _positions),
    "sample_positions_given_n": (
        st.tuples(_count(-3, 40), ANY, PARAMS, _count(-3, 300)),
        lambda n, t, p, size: montecarlo.sample_positions_given_n(
            n, t, p, size, montecarlo.substream(1, 0)
        ),
    ),
    "estimate_cf": (st.tuples(ANY, ANY, PARAMS, SAMPLES, SEED, CONDITION), _estimate_cf),
    "estimate_ball_prob": (
        st.tuples(ANY, ANY, PARAMS, SAMPLES, SEED),
        lambda r, t, p, samples, seed: dataclasses.astuple(
            montecarlo.estimate_ball_prob(r, _brief(t, p), p, McConfig(samples, seed))
        ),
    ),
    "radial_histogram": (
        st.tuples(ANY, PARAMS, SAMPLES, SEED, _count(-1, 6)), _histogram,
    ),
}


def _assert_total(call, args):
    try:
        value = call(*args)
    except MarkovFlightError:
        return
    assert np.all(np.isfinite(np.asarray(value, dtype=float))), (args, value)


@pytest.mark.parametrize("name", CASES)
@settings(derandomize=True, deadline=None, database=None)
@given(data=st.data())
def test_is_total(name, data):
    strategy, call = CASES[name]
    _assert_total(call, data.draw(strategy))


P, T = FlightParams(5.0, 2.0), 0.1

# counts that were truncated to an integer, silently, or leaked a raw TypeError,
# ValueError or OverflowError
BAD_COUNTS = {
    "McConfig_seed_1.5": lambda: McConfig(20000, seed=1.5),
    "McConfig_seed_1.9": lambda: McConfig(20000, seed=1.9),
    "McConfig_seed_2.0": lambda: McConfig(20000, seed=2.0),
    "McConfig_samples_nan": lambda: McConfig(math.nan),
    "McConfig_samples_20000.5": lambda: McConfig(20000.5),
    "substream_seed_1.5": lambda: montecarlo.substream(1.5, 0),
    "substream_seed_-1": lambda: montecarlo.substream(-1, 0),
    "substream_seed_2**64": lambda: montecarlo.substream(2**64, 0),
    "sample_positions_size_-1": lambda: montecarlo.sample_positions(
        T, P, -1, montecarlo.substream(1, 0)),
    "sample_positions_size_2.5": lambda: montecarlo.sample_positions(
        T, P, 2.5, montecarlo.substream(1, 0)),
    "sample_positions_given_n_size_2.5": lambda: montecarlo.sample_positions_given_n(
        1, T, P, 2.5, montecarlo.substream(1, 0)),
    "radial_histogram_bins_2.5": lambda: montecarlo.radial_histogram(
        T, P, McConfig(20000), bins=2.5),
    "radial_profile_n_points_2.5": lambda: density.radial_profile(T, P, 2.5, 0.1),
    "hyp5f4_unit_1.5": lambda: specfun.hyp5f4_unit(1.5),
    "quartic_gamma_1.5": lambda: arctan_series.quartic_gamma(1.5),
    "gamma_sum_identity_1.5": lambda: arctan_series.gamma_sum_identity(1.5, 1.0),
}


@pytest.mark.parametrize("name", BAD_COUNTS)
def test_bad_count_is_domain_error(name):
    with pytest.raises(DomainError, match="must be an integer"):
        BAD_COUNTS[name]()


# points where the sweep or a direct probe once met a leak: nan, or a raw
# OverflowError or ZeroDivisionError
@pytest.mark.parametrize("name", ["h0", "h1", "h2_series", "h3_series", "h_asymptotic"])
def test_zero_frequency_where_ct_overflows(name):
    # c t is inf there and inf * 0 was nan
    q, p = charfun.FreqQuery(0.0, 1e10), FlightParams(1e300, 1.0)
    shape = getattr(charfun, name)(q, p)
    assert shape == (0.0 if name == "h_asymptotic" else 1.0)  # P{N <= 3} is 0 at lam t = 1e10


@pytest.mark.parametrize("name", ["H2", "H3"])
def test_overflowing_series_term_is_truncation_error(name):
    # at x = 3.6e207 the k = 3 term of H3 raised OverflowError from math.exp
    series = charfun.h2_series if name == "H2" else charfun.h3_series
    with pytest.raises(TruncationNotConverged, match=f"^{name} series at x="):
        series(charfun.FreqQuery(1.0, 1.0), FlightParams(3.6e207, 1.0))


def test_sum_series_names_an_overflowing_term():
    with pytest.raises(TruncationNotConverged, match=r"^huge: term 1 overflows"):
        specfun.sum_series("huge", lambda k: math.exp(1000.0 * k))


@pytest.mark.parametrize("call,exact", [
    (lambda: integrate_ac_density(1.0, FlightParams(1.0, 1e103)), 0.0),
    (lambda: integrate_ac_density_ball(0.5, 1.0, FlightParams(1.0, 1e103)), 0.0),
    (lambda: integrate_ac_density(1.0, FlightParams(1e103, 1.0)),
     g_tilde(1.0, FlightParams(1e103, 1.0))),
    (lambda: integrate_ac_density(1.0, FlightParams(5e102, 1.0)),
     g_tilde(1.0, FlightParams(5e102, 1.0))),
], ids=["whole_ball_lam", "subball_lam", "whole_ball_c", "whole_ball_c_silent"])
def test_quadrature_where_the_const_bracket_overflows(call, exact):
    # lam**3 and c**3 raised OverflowError inside the const bracket, and at
    # c = 5e102 the bracket's 2 c^3 was inf, dropping it: 0.5518 for 0.6131;
    # in rho = r/ct no bracket carries c, and P{N=n} is 0.0 at lam t = 1e103
    assert call() == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_quadrature_where_c2t_overflows():
    # the log bracket divided by c^2 t = inf and was dropped: 0.1839 for 0.6131
    p = FlightParams(1e102, 1e-110)
    assert integrate_ac_density(1e110, p) == pytest.approx(g_tilde(1e110, p), rel=1e-12)


def test_quadrature_where_lam_t_overflows():
    # the Poisson pmf's inf - inf was nan; P{N <= 3} is 0 there, as g_tilde says
    assert integrate_ac_density(1e10, FlightParams(1.0, 1e300)) == 0.0


def test_whole_ball_quadrature_where_ct_underflows():
    # asin(r / ct) divided 0 by 0; in rho = r/ct the whole ball is rho = 1
    p = FlightParams(1e-200, 1.0)
    assert integrate_ac_density(1e-200, p) == pytest.approx(g_tilde(1e-200, p), rel=1e-12)


@pytest.mark.parametrize("ball", [integrate_ac_density_ball, density.ball_prob_asymptotic],
                         ids=["quadrature", "series"])
def test_subball_where_ct_overflows(ball):
    # r / (c t) was r / inf = 0.0, and both returned 0.0; rho = 0.75 and lam t = 1
    exact = density.ball_prob_asymptotic(0.75, 1.0, FlightParams(1.0, 1.0))
    assert ball(1.5e308, 2e8, FlightParams(1e300, 5e-9)) == pytest.approx(exact, rel=1e-12)
