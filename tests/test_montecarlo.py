"""Monte Carlo engine: support, determinism, substreams, histograms.

Distributional agreement with the closed forms at production sample counts
lives in the acceptance tests; here the samples are small and the assertions
are structural (exact support, exact determinism, partition of mass) or
generous (4 sigma) so the suite stays fast and seed-robust.  The batch law
is checked against `sample_position`, a literal one-path simulator defined
here that shares no code with the package's samplers, and the blocked
endpoint kernel against `whole_array_endpoints`, the same arithmetic done
once over the whole batch.
"""
import math
import os
import threading
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy import stats

from markovflight import (
    FlightParams,
    FreqQuery,
    McConfig,
    Vec3,
    estimate_ball_prob,
    estimate_cf,
    h1,
    h_asymptotic,
    radial_histogram,
    sample_positions,
    sample_positions_given_n,
    substream,
)
from markovflight import montecarlo
from markovflight.errors import DomainError, NonFinite

P = FlightParams(c=5.0, lam=2.0)
T = 0.1
CT = P.c * T
SEED = 20260814
# dense switching: about three switches per path
P_DENSE = FlightParams(c=5.0, lam=3.0)
T_DENSE = 1.0
CT_DENSE = P_DENSE.c * T_DENSE


@dataclass(frozen=True)
class PathSample:
    """One simulated endpoint with its switch count."""

    position: Vec3
    n_switches: int


def _reference_direction(rng: np.random.Generator) -> np.ndarray:
    # a normalised standard normal vector is uniform on the sphere
    v = rng.standard_normal(3)
    return v / math.sqrt(float(v @ v))


def sample_position(t: float, p: FlightParams, rng: np.random.Generator) -> PathSample:
    """One endpoint, simulated literally: exponential gaps, straight segments."""
    if t <= 0:
        raise DomainError(f"t must be > 0, got {t}")
    pos = np.zeros(3)
    elapsed = 0.0
    n = 0
    while True:
        gap = rng.exponential(1.0 / p.lam)
        direction = _reference_direction(rng)
        if elapsed + gap >= t:
            pos += (t - elapsed) * direction
            break
        pos += gap * direction
        elapsed += gap
        n += 1
    pos *= p.c
    return PathSample(position=Vec3(*map(float, pos)), n_switches=n)


def whole_array_endpoints(counts, t, p, rng):
    """Endpoints from one pass over every segment of the batch, no blocks."""
    if len(counts) == 0:
        return np.zeros((0, 3))
    segments = counts + 1
    starts = np.concatenate([[0], np.cumsum(segments)[:-1]])
    gaps = rng.standard_exponential(int(segments.sum()))
    z = rng.uniform(-1.0, 1.0, len(gaps))
    phi = rng.uniform(0.0, 2.0 * math.pi, len(gaps))
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    # the package's longitude factors, so the comparison checks the blocking bit for bit
    cos_phi, sin_phi = montecarlo._cos_sin(phi)
    steps = np.stack([s * cos_phi, s * sin_phi, z], axis=1) * gaps[:, None]
    scale = (p.c * t) / np.add.reduceat(gaps, starts)
    return np.add.reduceat(steps, starts, axis=0) * scale[:, None]


def _angles(kind: str, size: int) -> np.ndarray:
    rng = substream(SEED, 70)
    if kind == "0,2pi":
        return rng.uniform(0.0, 2.0 * math.pi, size)
    if kind == "-3,3":
        return rng.uniform(-3.0, 3.0, size)
    # |a| log-uniform on [1e-300, 1e300], either sign
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)


class TestCosSin:
    """cos and sin by the half-angle identities on one tan."""

    KINDS = ["0,2pi", "-3,3", "to1e300"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_libm(self, kind):
        a = _angles(kind, 10**6)
        cos_a, sin_a = montecarlo._cos_sin(a)
        assert np.max(np.abs(cos_a - np.cos(a))) <= 4.5e-16
        assert np.max(np.abs(sin_a - np.sin(a))) <= 4.5e-16

    def test_against_mpmath(self):
        a = np.concatenate([_angles(kind, 2000)[i::3] for i, kind in enumerate(self.KINDS)])
        assert len(a) == 2000
        cos_a, sin_a = montecarlo._cos_sin(a)
        with mpmath.workdps(50):
            for x, c, s in zip(a.tolist(), cos_a.tolist(), sin_a.tolist()):
                assert abs(c - mpmath.cos(x)) <= 3e-16
                assert abs(s - mpmath.sin(x)) <= 3e-16

    def test_unit_vectors_have_norm_one(self):
        rng = substream(SEED, 71)
        z = rng.uniform(-1.0, 1.0, 10**6)
        v = montecarlo._unit_vectors(z, rng.uniform(0.0, 2.0 * math.pi, 10**6))
        assert np.max(np.abs(np.linalg.norm(v, axis=1) - 1.0)) <= 1e-15


class TestRadii:
    """_radii is np.linalg.norm(pos, axis=1) bit for bit."""

    def test_sampler_output(self):
        pos, _ = sample_positions(T_DENSE, P_DENSE, 100_000, substream(SEED, 72))
        assert np.array_equal(montecarlo._radii(pos), np.linalg.norm(pos, axis=1))

    def test_gaussian_rows(self):
        pos = substream(SEED, 73).standard_normal((10**6, 3))
        assert np.array_equal(montecarlo._radii(pos), np.linalg.norm(pos, axis=1))


@pytest.mark.parametrize("scale", [2.0**664, 2.0**-664], ids=["huge_c", "tiny_c"])
def test_estimates_where_ct_squared_leaves_the_float_range(scale):
    # the endpoints are exactly `scale` times those at c = 1; unscaled squares
    # overflowed (all mass in the last bin, P = 0.0) or underflowed (all mass
    # in the first bin, P = 1.0)
    cfg = McConfig(10_000, 7)

    def estimates(c):
        p = FlightParams(c, 1.0)
        hist = radial_histogram(1.0, p, cfg, bins=4)
        return hist.masses.tolist(), hist.atom_fraction, estimate_ball_prob(c / 2, 1.0, p, cfg).mean

    assert estimates(scale) == estimates(1.0)


class TestSubstream:
    def test_reproducible(self):
        a = substream(7, 3).uniform(size=5)
        b = substream(7, 3).uniform(size=5)
        assert np.array_equal(a, b)

    def test_chunks_differ(self):
        a = substream(7, 3).uniform(size=5)
        b = substream(7, 4).uniform(size=5)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        a = substream(7, 3).uniform(size=5)
        b = substream(8, 3).uniform(size=5)
        assert not np.array_equal(a, b)

    def test_top_seeds_are_distinct_keys(self):
        # a key rounded through float64 would map all three seeds to key 0
        draws = [substream(s, 0).uniform(size=5) for s in (0, 2**64 - 2, 2**64 - 1)]
        assert not any(np.array_equal(a, b) for i, a in enumerate(draws) for b in draws[:i])
        assert substream(2**64 - 1, 0).bit_generator.state["state"]["key"][0] == 2**64 - 1


class TestSampling:
    def test_scalar_position_support_and_counts(self):
        rng = substream(SEED, 1)
        for _ in range(500):
            s = sample_position(T, P, rng)
            assert isinstance(s.position, Vec3)
            assert s.n_switches >= 0
            assert s.position.norm() <= CT * (1.0 + 1e-12)

    def test_scalar_position_time_domain(self):
        with pytest.raises(DomainError):
            sample_position(0.0, P, substream(SEED, 0))

    def test_conditional_batch_zero_switches_is_atom(self):
        pos = sample_positions_given_n(0, T, P, 1000, substream(SEED, 3))
        assert np.allclose(np.linalg.norm(pos, axis=1), CT, rtol=1e-12)

    def test_conditional_support(self):
        for n in (1, 2, 3, 7):
            pos = sample_positions_given_n(n, T, P, 2000, substream(SEED, 4))
            assert np.linalg.norm(pos, axis=1).max() <= CT * (1.0 + 1e-12)

    def test_conditional_negative_n(self):
        with pytest.raises(DomainError):
            sample_positions_given_n(-1, T, P, 10, substream(SEED, 0))

    def test_batch_support_and_counts(self):
        pos, ns = sample_positions(T, P, 5000, substream(SEED, 5))
        assert pos.shape == (5000, 3) and ns.shape == (5000,)
        assert np.linalg.norm(pos, axis=1).max() <= CT * (1.0 + 1e-12)
        assert ns.min() >= 0

    def test_no_switch_batch_rows_sit_on_sphere(self):
        pos, ns = sample_positions(T, P, 5000, substream(SEED, 6))
        radii = np.linalg.norm(pos[ns == 0], axis=1)
        assert np.allclose(radii, CT, rtol=1e-12)

    def test_batch_switch_rate_matches_poisson_mean(self):
        n = 200_000
        _, ns = sample_positions(T, P, n, substream(SEED, 7))
        lt = P.lam * T
        se = math.sqrt(lt / n)
        assert ns.mean() == pytest.approx(lt, abs=4.0 * se)

    def test_scalar_and_batch_same_law(self):
        # mean radius from the literal path simulator vs the vectorized one
        n = 20_000
        rng = substream(SEED, 8)
        scalar = np.array([sample_position(T, P, rng).position.norm() for _ in range(n)])
        batch = np.linalg.norm(sample_positions(T, P, n, substream(SEED, 9))[0], axis=1)
        se = math.sqrt(scalar.var() / n + batch.var() / n)
        assert scalar.mean() == pytest.approx(batch.mean(), abs=4.0 * se)


class TestDenseSwitching:
    """The ragged samplers at lambda*t = 3, where paths carry several segments."""

    def test_radial_law_per_count_matches_reference(self):
        # two-sample KS of ||X|| given N = n: literal paths against both batch samplers
        rng = substream(SEED, 11)
        ref = [sample_position(T_DENSE, P_DENSE, rng) for _ in range(20_000)]
        ref_r = np.array([s.position.norm() for s in ref])
        ref_n = np.array([s.n_switches for s in ref])
        pos, ns = sample_positions(T_DENSE, P_DENSE, 100_000, substream(SEED, 12))
        radii = np.linalg.norm(pos, axis=1)
        for n in (1, 2, 3):
            given = sample_positions_given_n(n, T_DENSE, P_DENSE, 20_000, substream(SEED, 12 + n))
            for sample in (radii[ns == n], np.linalg.norm(given, axis=1)):
                assert stats.ks_2samp(ref_r[ref_n == n], sample).pvalue > 1e-3

    def test_support(self):
        pos, _ = sample_positions(T_DENSE, P_DENSE, 50_000, substream(SEED, 16))
        given = sample_positions_given_n(7, T_DENSE, P_DENSE, 20_000, substream(SEED, 17))
        for batch in (pos, given):
            assert np.linalg.norm(batch, axis=1).max() <= CT_DENSE * (1.0 + 1e-12)

    def test_no_switch_rows_sit_on_sphere(self):
        pos, ns = sample_positions(T_DENSE, P_DENSE, 50_000, substream(SEED, 18))
        assert np.count_nonzero(ns == 0) > 1000
        radii = np.linalg.norm(pos[ns == 0], axis=1)
        assert np.allclose(radii, CT_DENSE, rtol=1e-12)

    def test_histogram_worker_invariant(self):
        cfg = McConfig(samples=200_000, seed=SEED)
        a = radial_histogram(T_DENSE, P_DENSE, cfg, bins=40, workers=1)
        b = radial_histogram(T_DENSE, P_DENSE, cfg, bins=40, workers=3)
        assert np.array_equal(a.masses, b.masses)
        assert a.atom_fraction == b.atom_fraction


class TestBlockedEndpoints:
    """The blocked kernel gives the whole-array result bit for bit."""

    SIZES = [0, 1, 4095, 4097, 65_536]

    @staticmethod
    def assert_same(counts, t, p, key):
        got = montecarlo._endpoints(counts, t, p, substream(SEED, key))
        want = whole_array_endpoints(counts, t, p, substream(SEED, key))
        assert got.shape == (len(counts), 3)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("p, t", [(P, T), (P_DENSE, T_DENSE)], ids=["lt0.2", "lt3"])
    def test_poisson_counts(self, p, t, size):
        counts = substream(SEED, 40).poisson(p.lam * t, size)
        self.assert_same(counts, t, p, 41)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("n", [0, 3])
    def test_conditional_counts(self, n, size):
        self.assert_same(np.full(size, n), T, P, 42)

    def test_long_paths_at_block_edges(self):
        # the paths either side of each block edge carry many segments
        block = montecarlo._BLOCK
        counts = substream(SEED, 43).poisson(3.0, 3 * block + 5)
        for edge in (block, 2 * block, 3 * block):
            counts[edge - 2:edge + 2] = [17, 40, 1, 25]
        self.assert_same(counts, T_DENSE, P_DENSE, 44)

    def test_public_samplers_use_the_kernel(self):
        pos, ns = sample_positions(T_DENSE, P_DENSE, 5000, substream(SEED, 45))
        rng = substream(SEED, 45)
        counts = rng.poisson(P_DENSE.lam * T_DENSE, 5000)
        assert np.array_equal(ns, counts)
        assert np.array_equal(pos, whole_array_endpoints(counts, T_DENSE, P_DENSE, rng))


class TestDefaultWorkers:
    """workers=None runs on every CPU the process may use, with the same bits."""

    CFG = McConfig(samples=200_001, seed=SEED)  # four chunks, the last partial

    @pytest.mark.parametrize("condition", [None, 2])
    def test_estimate_cf(self, condition):
        a = estimate_cf(2.0, T, P, self.CFG, condition=condition)
        b = estimate_cf(2.0, T, P, self.CFG, condition=condition, workers=1)
        assert a == b

    def test_estimate_ball_prob(self):
        a = estimate_ball_prob(0.25, T, P, self.CFG)
        assert a == estimate_ball_prob(0.25, T, P, self.CFG, workers=1)

    def test_radial_histogram(self):
        a = radial_histogram(T_DENSE, P_DENSE, self.CFG, bins=40)
        b = radial_histogram(T_DENSE, P_DENSE, self.CFG, bins=40, workers=1)
        assert np.array_equal(a.masses, b.masses)
        assert a.atom_fraction == b.atom_fraction

    def chunk_threads(self, monkeypatch, cpus):
        # the identity of the thread that ran each chunk
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        return set(montecarlo._per_chunk(T, P, self.CFG, lambda pos, ns: threading.get_ident()))

    def test_one_cpu_runs_serially(self, monkeypatch):
        assert self.chunk_threads(monkeypatch, 1) == {threading.get_ident()}

    def test_several_cpus_use_a_pool(self, monkeypatch):
        assert threading.get_ident() not in self.chunk_threads(monkeypatch, 3)


def test_empty_batches():
    pos, ns = sample_positions(T, P, 0, substream(SEED, 0))
    assert pos.shape == (0, 3) and ns.shape == (0,)
    assert sample_positions_given_n(2, T, P, 0, substream(SEED, 0)).shape == (0, 3)


_CFG = McConfig(samples=10_000, seed=SEED)


@pytest.mark.parametrize("call", [
    lambda: sample_positions(-0.1, P, 10, substream(SEED, 0)),
    lambda: sample_positions_given_n(2, -0.1, P, 10, substream(SEED, 0)),
    lambda: estimate_cf(2.0, -0.1, P, _CFG),
    lambda: estimate_cf(2.0, -0.1, P, _CFG, condition=1),
    lambda: estimate_ball_prob(0.1, -0.1, P, _CFG),
    lambda: radial_histogram(-0.1, P, _CFG, bins=10),
    lambda: radial_histogram(-0.1, P, _CFG, bins=10, condition=0),
    lambda: radial_histogram(T, P, _CFG, bins=10, condition=-2),
    lambda: estimate_ball_prob(math.nan, T, P, _CFG),
    lambda: estimate_ball_prob(math.inf, T, P, _CFG),
    lambda: estimate_cf(math.nan, T, P, _CFG),
    lambda: estimate_cf(math.inf, T, P, _CFG, condition=1),
    lambda: estimate_cf(-2.0, T, P, _CFG),
    lambda: sample_positions_given_n(2, math.nan, P, 10, substream(SEED, 0)),
    lambda: sample_positions_given_n(2, math.inf, P, 10, substream(SEED, 0)),
    lambda: sample_positions(math.nan, P, 10, substream(SEED, 0)),
    lambda: sample_positions(math.inf, P, 10, substream(SEED, 0)),
    lambda: estimate_cf(2.0, math.nan, P, _CFG),
    lambda: estimate_cf(2.0, math.inf, P, _CFG),
    lambda: estimate_ball_prob(0.1, math.nan, P, _CFG),
    lambda: estimate_ball_prob(0.1, math.inf, P, _CFG),
    lambda: radial_histogram(math.nan, P, _CFG, bins=10),
    lambda: radial_histogram(math.inf, P, _CFG, bins=10, condition=0),
    lambda: estimate_cf(2.0, T, P, _CFG, workers=0),
    lambda: estimate_ball_prob(0.1, T, P, _CFG, workers=-2),
    lambda: estimate_ball_prob(CT, T, P, _CFG, workers=0),
    lambda: radial_histogram(T, P, _CFG, bins=10, workers=0),
    lambda: radial_histogram(T, P, _CFG, bins=10, condition=0, workers=-2),
], ids=[
    "sample_positions", "sample_positions_given_n", "estimate_cf",
    "estimate_conditional_cf", "estimate_ball_prob", "radial_histogram",
    "radial_histogram_no_switch", "radial_histogram_negative_condition",
    "ball_prob_r_nan", "ball_prob_r_inf", "cf_alpha_nan", "conditional_cf_alpha_inf",
    "cf_alpha_negative",
    "given_n_t_nan", "given_n_t_inf", "positions_t_nan", "positions_t_inf",
    "cf_t_nan", "cf_t_inf", "ball_prob_t_nan", "ball_prob_t_inf",
    "histogram_t_nan", "histogram_no_switch_t_inf",
    "cf_workers_0", "ball_prob_workers_-2", "ball_prob_whole_ball_workers_0",
    "histogram_workers_0", "histogram_no_switch_workers_-2",
])
def test_bad_time_or_count_is_domain_error(call):
    # numpy's own ValueError (lam < 0 or NaN, negative dimensions) must not
    # leak out, and a non-finite t, r or frequency must not give a silently
    # wrong number; worker counts below 1 must not quietly run serially
    with pytest.raises(DomainError):
        call()


# c t = inf; the generator is None, so a draw before the check would raise AttributeError
P_HUGE, T_LONG = FlightParams(1e300, 1e-300), 1e10


@pytest.mark.parametrize("call", [
    lambda: sample_positions(T_LONG, P_HUGE, 10, None),
    lambda: sample_positions_given_n(2, T_LONG, P_HUGE, 10, None),
    lambda: estimate_ball_prob(1.0, T_LONG, P_HUGE, _CFG),
    lambda: radial_histogram(T_LONG, P_HUGE, _CFG, bins=4),
], ids=["sample_positions", "sample_positions_given_n", "estimate_ball_prob", "radial_histogram"])
def test_overflowing_ct_is_non_finite(call):
    # the histogram's edges were nan and inf, and the ball estimate read 0.0
    with pytest.raises(NonFinite, match="ct must be finite"):
        call()


@pytest.mark.parametrize("call", [
    lambda: sample_positions(1.0, FlightParams(1.0, 1e20), 10, None),
    lambda: sample_positions_given_n(2**26, T, P, 1, None),
    lambda: estimate_cf(1.0, 1.0, FlightParams(1.0, 1e20), McConfig(10_000, 7)),
], ids=["sample_positions", "sample_positions_given_n", "estimate_cf"])
def test_segment_budget_is_checked_before_any_draw(call):
    # rng.poisson raised numpy's ValueError at lam t = 1e20; below that the
    # draws grow as lam t times the sample count
    with pytest.raises(DomainError, match="segments exceed the budget"):
        call()


class TestEstimateCf:
    CFG = McConfig(samples=50_000, seed=SEED)

    def test_deterministic_and_worker_invariant(self):
        a = estimate_cf(2.0, T, P, self.CFG, workers=1)
        b = estimate_cf(2.0, T, P, self.CFG, workers=1)
        c = estimate_cf(2.0, T, P, self.CFG, workers=4)
        assert a == b
        assert a == c

    def test_against_h_asymptotic(self):
        est = estimate_cf(2.0, T, P, self.CFG)
        target = h_asymptotic(FreqQuery(alpha_norm=2.0, t=T), P)
        assert abs(est.real.mean - target) <= 4.0 * est.real.std_error + 5.0 * T**3

    def test_imaginary_part_compatible_with_zero(self):
        est = estimate_cf(2.0, T, P, self.CFG)
        assert abs(est.imag.mean) <= 4.0 * est.imag.std_error

    def test_conditional_against_h1(self):
        est = estimate_cf(2.0, T, P, self.CFG, condition=1)
        target = h1(FreqQuery(alpha_norm=2.0, t=T), P)
        assert abs(est.real.mean - target) <= 4.0 * est.real.std_error

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            estimate_cf(2.0, T, P, McConfig(samples=100, seed=SEED))
        with pytest.raises(DomainError):
            estimate_cf(2.0, T, P, McConfig(samples=100, seed=SEED), condition=1)

    def test_overflowing_frequency_is_nonfinite(self):
        # x = c t alpha = inf: no mean of cos(inf) exists, so no NaN comes back
        with pytest.raises(NonFinite):
            estimate_cf(1e308, 1.0, FlightParams(5.0, 2.0), McConfig(10_000, 1), workers=1)

    def test_huge_finite_frequency(self):
        est = estimate_cf(1e300, T, P, McConfig(10_000, 1), workers=1)
        assert abs(est.real.mean) <= 1.0 and est.real.std_error > 0.0

    def test_partial_last_chunk(self):
        # sample count deliberately not a multiple of the chunk size
        cfg = McConfig(samples=70_001, seed=SEED)
        est = estimate_cf(2.0, T, P, cfg)
        assert est.real.samples == 70_001
        assert math.isfinite(est.real.mean) and est.real.std_error > 0


class TestEstimateBallProb:
    def test_boundary_short_circuit(self):
        cfg = McConfig(samples=10_000, seed=SEED)
        est = estimate_ball_prob(CT, T, P, cfg)
        assert est.mean == 1.0 and est.std_error == 0.0

    def test_interior_estimate(self):
        cfg = McConfig(samples=200_000, seed=SEED)
        est = estimate_ball_prob(0.25, T, P, cfg)
        # binomial error against the independent quadrature value 0.0178399
        # (the series value 0.0154938 differs by the o(t^3) remainder)
        assert est.std_error > 0
        assert abs(est.mean - 0.0178) < 4.0 * est.std_error + 1e-3

    def test_negative_radius(self):
        with pytest.raises(DomainError):
            estimate_ball_prob(-0.1, T, P, McConfig(samples=10_000, seed=SEED))


class TestRadialHistogram:
    CFG = McConfig(samples=100_000, seed=SEED)

    def test_partition_of_mass(self):
        hist = radial_histogram(T, P, self.CFG, bins=25)
        assert float(np.sum(hist.masses)) + hist.atom_fraction == pytest.approx(
            1.0, abs=1e-15
        )
        assert len(hist.edges) == 26

    def test_atom_fraction_near_no_switch_mass(self):
        hist = radial_histogram(T, P, self.CFG, bins=25)
        target = math.exp(-P.lam * T)
        se = math.sqrt(target * (1.0 - target) / self.CFG.samples)
        assert hist.atom_fraction == pytest.approx(target, abs=4.0 * se)

    def test_condition_zero_is_all_atom(self):
        hist = radial_histogram(T, P, self.CFG, bins=10, condition=0)
        assert hist.atom_fraction == 1.0
        assert float(np.sum(hist.masses)) == 0.0

    def test_condition_positive_has_no_atom(self):
        hist = radial_histogram(T, P, self.CFG, bins=10, condition=2)
        assert hist.atom_fraction == 0.0
        assert float(np.sum(hist.masses)) == pytest.approx(1.0, abs=1e-15)

    def test_deterministic(self):
        a = radial_histogram(T, P, self.CFG, bins=10)
        b = radial_histogram(T, P, self.CFG, bins=10, workers=3)
        assert np.array_equal(a.masses, b.masses)
        assert a.atom_fraction == b.atom_fraction

    def test_bins_domain(self):
        with pytest.raises(DomainError):
            radial_histogram(T, P, self.CFG, bins=0)
