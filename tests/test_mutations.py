"""The sampler faults the Monte Carlo rows must catch, each one private piece swapped.

Every entry replaces one piece of the sampler (a chunk's generator, `_uniform`'s
colatitudes or longitudes, `_endpoints`, `_draw`) with a wrong one and names rows of
the suite's Monte Carlo passes that must fail at 1e5 samples.  A fault that no row
catches is a strict xfail, which names the ROADMAP item planned to catch it, if any.
"""
import math

import numpy as np
import pytest

from markovflight import DEFAULT_SEED, FlightParams, McConfig, montecarlo, validate

P = FlightParams(c=5.0, lam=2.0)
CFG = McConfig(samples=10**5, seed=DEFAULT_SEED)
TWO_PI = 2.0 * math.pi


def _generator(**draws):
    """Every chunk's generator with the named draws replaced: draw(rng, size) -> values."""
    substream = montecarlo.substream
    swapped = type("Swapped", (np.random.Generator,), {
        name: lambda self, *args, draw=draw: draw(super(swapped, self), *args)
        for name, draw in draws.items()
    })
    return "substream", lambda seed, k: swapped(substream(seed, k).bit_generator)


def _uniform(low: float, high: float, transform):
    """`_uniform` with its draws on [low, high) passed through transform."""
    uniform = montecarlo._uniform

    def patched(rng, size, lo, hi):
        u = uniform(rng, size, lo, hi)
        return transform(u) if (lo, hi) == (low, high) else u

    return "_uniform", patched


def _colatitude(transform):
    return _uniform(-1.0, 1.0, transform)


def _longitude(transform):
    return _uniform(0.0, TWO_PI, transform)


def _signed_power(a: float):
    return lambda z: np.sign(z) * np.abs(z) ** a


def _endpoints(counts=lambda ns: ns, scale=1.0):
    endpoints = montecarlo._endpoints
    return "_endpoints", lambda ns, t, p, rng, x3=False: (
        scale * endpoints(counts(ns), t, p, rng, x3)
    )


def _rolled_counts():
    draw = montecarlo._draw

    def rolled(*args, **kwargs):
        positions, counts = draw(*args, **kwargs)
        return positions, np.roll(counts, 1)

    return "_draw", rolled


def _cond(*ns, xs=("0.3", "0.5", "1", "2", "3")) -> list:
    return [f"mc_conditional_cf_n{n}_x{x}" for n in ns for x in xs]


CF = _cond(1, 2, 3) + ["mc_uncond_cf_t0.1"]
BALL, MEAN = "mc_ball_prob_t0.1", "mc_mean_position_t0.1"


def _hole(item: int):
    return pytest.mark.xfail(strict=True, reason=f"no row fails it; ROADMAP item {item} plans one")


# each fault's rows are those it fails at 1e5 and at 1e6 samples alike
FAULTS = [
    pytest.param(lambda: _generator(standard_exponential=lambda rng, size: rng.random(size)),
                 CF + [BALL], id="gaps_uniform"),
    pytest.param(lambda: _generator(
        standard_exponential=lambda rng, size: rng.standard_gamma(2.0, size),
    ), _cond(1, 2, 3) + [BALL], id="gaps_gamma2"),
    pytest.param(lambda: _generator(poisson=lambda rng, lam, size: rng.poisson(1.05 * lam, size)),
                 ["mc_atom_fraction_t0.1", "mc_switch_chisquare_t0.1"], id="poisson_1.05_lambda"),
    pytest.param(lambda: _colatitude(np.abs), CF + [BALL, MEAN], id="z_folded"),
    pytest.param(lambda: _colatitude(lambda z: np.cos(0.5 * math.pi * (z + 1.0))), CF,
                 id="z_cos_pi_u"),
    pytest.param(lambda: _colatitude(_signed_power(1.1)), CF, id="z_pow_1.1"),
    pytest.param(lambda: _colatitude(_signed_power(1.02)),
                 _cond(1, xs=("3",)) + _cond(2, 3) + ["mc_uncond_cf_t0.1"], id="z_pow_1.02"),
    # unclipped, z + delta puts ||X|| past ct, which mc_support fails at any delta
    pytest.param(lambda: _colatitude(lambda z: np.clip(z + 1e-2, -1.0, 1.0)), [MEAN],
                 id="z_plus_1e-2_clipped"),
    pytest.param(lambda: _colatitude(lambda z: np.clip(z + 1e-3, -1.0, 1.0)), [],
                 id="z_plus_1e-3_clipped", marks=pytest.mark.xfail(
                     strict=True, reason="below every row's bound at 1e5 and 1e6 samples")),
    pytest.param(lambda: _longitude(lambda phi: 0.5 * phi), [BALL, MEAN], id="phi_on_0_pi"),
    pytest.param(lambda: _longitude(lambda phi: TWO_PI * (phi / TWO_PI) ** 1.1), [MEAN],
                 id="phi_pow_1.1"),
    pytest.param(lambda: _longitude(lambda phi: TWO_PI * (phi / TWO_PI) ** 1.02), [MEAN],
                 id="phi_pow_1.02"),
    pytest.param(lambda: _endpoints(counts=lambda ns: np.maximum(ns - 1, 0)), CF + [BALL],
                 id="counts_minus_1"),
    pytest.param(lambda: _endpoints(scale=0.999), [], id="positions_x0.999", marks=_hole(11)),
    pytest.param(lambda: _endpoints(scale=1.001), ["mc_support_t0.1"], id="positions_x1.001"),
    pytest.param(_rolled_counts, [], id="counts_rolled", marks=_hole(10)),
]


def failing_rows(fault, cfg: McConfig = CFG) -> list:
    """The Monte Carlo rows at t = 0.1 that fail with the fault in place."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(montecarlo, *fault())
        reports = validate._run(validate._mc_rows(P, 0.1, cfg))
    return [r.name for r in reports if not r.passed]


@pytest.mark.parametrize("fault,rows", FAULTS)
def test_fault_fails_its_rows(fault, rows):
    failed = failing_rows(fault)
    assert failed, "no row failed"
    assert set(rows) <= set(failed), failed
