"""Monte Carlo engine: support, determinism, substreams, histograms.

Distributional agreement with the closed forms at production sample counts
lives in the acceptance tests; here the samples are small and the assertions
are structural (exact support, exact determinism, partition of mass) or
generous (4 sigma) so the suite stays fast and seed-robust.  The batch law
is checked against `sample_position`, a literal one-path simulator defined
here that shares no code with the package's samplers, and the blocked
endpoint kernel against `whole_array_endpoints`, the same arithmetic done
once over all the paths of each count.
"""
import math
import sys
import threading
import tracemalloc
from dataclasses import dataclass

import mpmath
import numpy as np
import pytest
from scipy import stats

from markovflight import (
    FlightParams,
    FreqQuery,
    McConfig,
    estimate_ball_prob,
    estimate_cf,
    h1,
    h2_series,
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
    """One simulated endpoint (x1, x2, x3) with its switch count."""

    position: tuple
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
    return PathSample(position=tuple(map(float, pos)), n_switches=n)


def whole_array_endpoints(counts, t, p, rng):
    """Endpoints drawn count by count in ascending order, each count's paths in one
    pass over all their segments, no blocks."""
    out = np.zeros((len(counts), 3))
    for n in sorted(set(counts.tolist())):
        paths = np.flatnonzero(counts == n)
        starts = np.arange(len(paths)) * (n + 1)
        gaps = rng.standard_exponential(len(paths) * (n + 1))
        z = rng.uniform(-1.0, 1.0, len(gaps))
        phi = rng.uniform(0.0, 2.0 * math.pi, len(gaps))
        s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
        # the package's longitude factors, so the comparison checks the blocking bit for bit
        trig = np.empty((3, len(phi)))
        montecarlo._cos_sin(phi, trig)
        cos_phi, sin_phi = trig[:2]
        steps = np.stack([s * cos_phi, s * sin_phi, z], axis=1) * gaps[:, None]
        scale = (p.c * t) / np.add.reduceat(gaps, starts)
        out[paths] = np.add.reduceat(steps, starts, axis=0) * scale[:, None]
    return out


def _angles(kind: str, size: int) -> np.ndarray:
    rng = substream(SEED, 70)
    if kind == "0,2pi":
        return rng.uniform(0.0, 2.0 * math.pi, size)
    if kind == "-3,3":
        return rng.uniform(-3.0, 3.0, size)
    # |a| log-uniform on [1e-300, 1e300], either sign
    return rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)


def _cos_sin(a: np.ndarray) -> tuple:
    # the package's factors, on a copy: _cos_sin takes its argument as scratch
    out = np.empty((3, len(a)))
    montecarlo._cos_sin(a.copy(), out)
    return out[0], out[1]


class TestCosSin:
    """cos and sin by the half-angle identities on one tan."""

    KINDS = ["0,2pi", "-3,3", "to1e300"]

    @pytest.mark.parametrize("kind", KINDS)
    def test_against_libm(self, kind):
        a = _angles(kind, 10**6)
        cos_a, sin_a = _cos_sin(a)
        assert np.max(np.abs(cos_a - np.cos(a))) <= 4.5e-16
        assert np.max(np.abs(sin_a - np.sin(a))) <= 4.5e-16

    def test_against_mpmath(self):
        a = np.concatenate([_angles(kind, 2000)[i::3] for i, kind in enumerate(self.KINDS)])
        assert len(a) == 2000
        cos_a, sin_a = _cos_sin(a)
        with mpmath.workdps(50):
            for x, c, s in zip(a.tolist(), cos_a.tolist(), sin_a.tolist()):
                assert abs(c - mpmath.cos(x)) <= 3e-16
                assert abs(s - mpmath.sin(x)) <= 3e-16

    @pytest.mark.parametrize("kind", KINDS)
    def test_in_place_form_keeps_the_values(self, kind):
        # the out-of-place expression _cos_sin computed before it took scratch buffers
        a = _angles(kind, 10**5)
        tau = np.tan(0.5 * a)
        d = tau * tau + 1.0
        for got, want in zip(_cos_sin(a), ((1.0 + tau) * (1.0 - tau) / d, 2.0 * tau / d)):
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

    def test_unit_vectors_have_norm_one(self):
        # a path with no switch ends at ct times its one direction
        pos = sample_positions_given_n(0, T, P, 10**6, substream(SEED, 71))
        assert np.max(np.abs(np.linalg.norm(pos / CT, axis=1) - 1.0)) <= 1e-15


class TestRadii:
    """_radii(pos, e) is np.linalg.norm(np.ldexp(pos, -e), axis=1) bit for bit."""

    def test_sampler_output(self):
        pos, _ = sample_positions(T_DENSE, P_DENSE, 100_000, substream(SEED, 72))
        assert np.array_equal(montecarlo._radii(pos), np.linalg.norm(pos, axis=1))

    def test_gaussian_rows(self):
        pos = substream(SEED, 73).standard_normal((10**6, 3))
        assert np.array_equal(montecarlo._radii(pos), np.linalg.norm(pos, axis=1))

    @pytest.mark.parametrize("e", [3, -7, 600])
    def test_rows_in_units_of_a_power_of_two(self, e):
        # e = 3 is the histogram's unit at ct = 5; e = 600 takes some squares below the
        # normal range
        pos, _ = sample_positions(T_DENSE, P_DENSE, 100_000, substream(SEED, 74))
        want = np.linalg.norm(np.ldexp(pos, -e), axis=1)
        assert np.array_equal(montecarlo._radii(pos, e), want)


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


def test_endpoints_where_ct_over_a_path_sum_overflows():
    # ct / (a path's sum of exponentials) overflowed at c = 1e308: 2,959 of 65,536 rows came
    # back infinite.  Scaled in units of 2^e, each row is 2^1000 times its row at 2^-1000 c
    def draw(c):
        return sample_positions(0.1, FlightParams(c, 2.0), 2**16, substream(SEED, 9))[0]

    pos = draw(1e308)
    assert np.all(np.isfinite(pos))
    assert np.array_equal(pos, np.ldexp(draw(math.ldexp(1e308, -1000)), 1000))


class TestSampling:
    def test_scalar_position_support_and_counts(self):
        rng = substream(SEED, 1)
        for _ in range(500):
            s = sample_position(T, P, rng)
            assert len(s.position) == 3
            assert s.n_switches >= 0
            assert math.hypot(*s.position) <= CT * (1.0 + 1e-12)

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
        scalar = np.array([math.hypot(*sample_position(T, P, rng).position) for _ in range(n)])
        batch = np.linalg.norm(sample_positions(T, P, n, substream(SEED, 9))[0], axis=1)
        se = math.sqrt(scalar.var() / n + batch.var() / n)
        assert scalar.mean() == pytest.approx(batch.mean(), abs=4.0 * se)


class TestDenseSwitching:
    """The ragged samplers at lambda*t = 3, where paths carry several segments."""

    def test_radial_law_per_count_matches_reference(self):
        # two-sample KS of ||X|| given N = n: literal paths against both batch samplers
        rng = substream(SEED, 11)
        ref = [sample_position(T_DENSE, P_DENSE, rng) for _ in range(20_000)]
        ref_r = np.array([math.hypot(*s.position) for s in ref])
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

    def test_histogram_worker_invariant(self, cpus):
        cfg = McConfig(samples=200_000, seed=SEED)
        cpus(1)
        a = radial_histogram(T_DENSE, P_DENSE, cfg, bins=40)
        cpus(3)
        b = radial_histogram(T_DENSE, P_DENSE, cfg, bins=40)
        assert np.array_equal(a.masses, b.masses)
        assert a.atom_fraction == b.atom_fraction


class _EndpointCases:
    """The batches the endpoint kernel is checked on; a subclass's assert_same
    says what it must match on each."""

    SIZES = [0, 1, 4095, 4097, 65_536]

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("p, t", [(P, T), (P_DENSE, T_DENSE)], ids=["lt0.2", "lt3"])
    def test_poisson_counts(self, p, t, size):
        counts = substream(SEED, 40).poisson(p.lam * t, size)
        self.assert_same(counts, t, p, 41)

    @pytest.mark.parametrize("size", SIZES)
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 8])
    def test_conditional_counts(self, n, size):
        # up to n = 7 a block's rows are summed by columns; n = 8 is the first reduceat count
        self.assert_same(np.full(size, n), T, P, 42)

    @pytest.mark.parametrize("p, t", [(P, T), (P_DENSE, T_DENSE)], ids=["lt0.2", "lt3"])
    def test_poisson_counts_with_one_equal_count_block(self, p, t):
        # a run of 4096 paths of one count among Poisson counts
        block = montecarlo._BLOCK
        counts = substream(SEED, 50).poisson(p.lam * t, 3 * block + 5)
        counts[block:2 * block] = 2
        self.assert_same(counts, t, p, 51)

    @pytest.mark.parametrize("n", [4, 40, 20_000])
    def test_counts_split_by_the_segment_cap(self, n):
        # a block holds _SEGMENTS // (n + 1) paths (X_3 blocks twice that), fewer than _BLOCK,
        # or one path past _SEGMENTS
        step = max(1, montecarlo._SEGMENTS // (n + 1))
        assert step < montecarlo._BLOCK
        self.assert_same(np.full(2 * step + 3, n), T, P, 46)

    def test_poisson_counts_split_by_the_segment_cap(self):
        # lambda t = 20: every count past 3 is split into blocks of fewer than _BLOCK paths
        counts = substream(SEED, 40).poisson(20.0, 3 * montecarlo._BLOCK + 5)
        self.assert_same(counts, 1.0, FlightParams(5.0, 20.0), 41)

    def test_long_paths_at_block_edges(self):
        # a few paths carry many segments, each the only path of its count
        block = montecarlo._BLOCK
        counts = substream(SEED, 43).poisson(3.0, 3 * block + 5)
        for edge in (block, 2 * block, 3 * block):
            counts[edge - 2:edge + 2] = [17, 40, 1, 25]
        self.assert_same(counts, T_DENSE, P_DENSE, 44)


def _draws_by_count(counts) -> list:
    # (count, segments of all its paths), in the order the kernel draws the counts
    return [(n, int(np.sum(counts == n)) * (n + 1)) for n in sorted(set(counts.tolist()))]


# batches whose draws are followed word by word through the Philox stream
STREAM_COUNTS = [
    np.full(4097, 3),
    substream(SEED, 48).poisson(3.0, 3 * montecarlo._BLOCK + 5),
    np.zeros(10, dtype=np.int64),
    substream(SEED, 48).poisson(20.0, 3 * montecarlo._BLOCK + 5),
]
STREAM_IDS = ["n3", "poisson3", "n0", "poisson20"]


def _philox_state(rng: np.random.Generator) -> list:
    state = rng.bit_generator.state
    inner = state["state"]
    return [inner["counter"].tolist(), inner["key"].tolist(), state["buffer"].tolist(),
            state["buffer_pos"], state["has_uint32"], state["uinteger"]]


class TestBlockedEndpoints(_EndpointCases):
    """The blocked kernel gives the whole-array result bit for bit."""

    @staticmethod
    def assert_same(counts, t, p, key):
        got = montecarlo._endpoints(counts, t, p, substream(SEED, key))
        want = whole_array_endpoints(counts, t, p, substream(SEED, key))
        assert got.shape == (len(counts), 3)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("counts", STREAM_COUNTS, ids=STREAM_IDS)
    def test_stream_reads_gaps_colatitudes_longitudes(self, counts):
        # count by count, the longitudes, drawn block by block, read what one draw of them would
        rng = substream(SEED, 52)
        montecarlo._endpoints(counts, T, P, rng)
        ref = substream(SEED, 52)
        for _, total in _draws_by_count(counts):
            ref.standard_exponential(total)
            ref.random(total)
            ref.random(total)
        assert _philox_state(rng) == _philox_state(ref)

    def test_public_samplers_use_the_kernel(self):
        pos, ns = sample_positions(T_DENSE, P_DENSE, 5000, substream(SEED, 45))
        rng = substream(SEED, 45)
        counts = rng.poisson(P_DENSE.lam * T_DENSE, 5000)
        assert np.array_equal(ns, counts)
        assert np.array_equal(pos, whole_array_endpoints(counts, T_DENSE, P_DENSE, rng))


class TestX3Endpoints(_EndpointCases):
    """x3=True gives the kernel's third column bit for bit, and draws no longitude."""

    @staticmethod
    def assert_same(counts, t, p, key):
        got = montecarlo._endpoints(counts, t, p, substream(SEED, key), x3=True)
        want = montecarlo._endpoints(counts, t, p, substream(SEED, key))[:, 2]
        assert got.shape == (len(counts),)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("counts", STREAM_COUNTS, ids=STREAM_IDS)
    def test_stream_stops_after_the_colatitudes(self, counts):
        # every count's longitudes are drawn and dropped but the last one's
        rng = substream(SEED, 49)
        montecarlo._endpoints(counts, T, P, rng, x3=True)
        ref = substream(SEED, 49)
        draws = _draws_by_count(counts)
        for n, total in draws:
            ref.standard_exponential(total)
            ref.random(total)
            if n != draws[-1][0]:
                ref.random(total)
        assert _philox_state(rng) == _philox_state(ref)


def test_x3_kernel_peak_memory():
    # 65,536 paths given 3 switches: a chunk-sized colatitude draw took the peak to 6.3 MiB
    counts = np.full(1 << 16, 3)
    tracemalloc.start()
    try:
        montecarlo._endpoints(counts, T, P, substream(SEED, 53), x3=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.5 * 2**20


@pytest.mark.parametrize("lam_t, bound_mib", [(3.0, 5.0), (20.0, 11.0)])
def test_poisson_kernel_peak_memory(lam_t, bound_mib):
    # 65,536 Poisson counts: one draw of all their segments took the peak to 7.6 and 30.3 MiB
    counts = substream(SEED, 57).poisson(lam_t, 1 << 16)
    montecarlo._endpoints(counts[:100], 1.0, P, substream(SEED, 58))  # numpy's first-call caches
    tracemalloc.start()
    try:
        montecarlo._endpoints(counts, 1.0, P, substream(SEED, 58))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mib * 2**20


def _traced_peak(fn) -> int:
    fn()  # numpy's first-call caches
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# One 65,536-path chunk each.  Each bound lies between the traced peak and that of a kernel
# whose blocks made copies and counted paths alone, held a count's draws into the next
# count's, and built a count array and an index for an equal-count draw.
def test_histogram_chunk_peak_memory():
    # sample_positions and _radial_counts at lambda t = 3, c t = 5: 4.84 MiB there, 4.08 with
    # 16,384-segment blocks and fresh trig temporaries, 3.46 here
    edges = np.linspace(0.0, CT_DENSE, 41)

    def chunk():
        rng = substream(SEED, 59)
        return montecarlo._radial_counts(*sample_positions(T_DENSE, P_DENSE, 1 << 16, rng), edges)

    assert _traced_peak(chunk) <= 3.8 * 2**20


def test_dense_kernel_peak_memory():
    # 65,536 Poisson(20) counts: 9.70 MiB there, 4.40 with 16,384-segment blocks, 3.75 here
    counts = substream(SEED, 57).poisson(20.0, 1 << 16)
    peak = _traced_peak(lambda: montecarlo._endpoints(counts, 1.0, P, substream(SEED, 58)))
    assert peak <= 4.1 * 2**20


def test_equal_count_x3_draw_peak_memory():
    # X_3 given 3 switches: 3.91 MiB there (3.41 of them in the kernel), 2.81 here
    def draw():
        return montecarlo._draw(T, P, 1 << 16, substream(SEED, 53), 3, x3=True)

    assert _traced_peak(draw) <= 3.2 * 2**20


def _signed_terms(rng: np.random.Generator, size: int) -> np.ndarray:
    # either sign, magnitudes 1e-300 to 1e300, comparable runs, and signed zeros
    terms = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-300.0, 300.0, size)
    near = rng.random(size) < 0.4
    terms[near] = rng.standard_normal(int(near.sum()))
    zero = rng.random(size) < 0.15
    terms[zero] = rng.choice([0.0, -0.0], int(zero.sum()))
    return terms


class TestRowSums:
    """_row_sums by columns is np.add.reduceat bit for bit, on rows of 1 to 8 terms: the
    column form rests on reduceat's order for short rows, under every SIMD dispatch."""

    @pytest.mark.parametrize("width", range(1, 9))
    def test_columns_follow_reduceat_order(self, width):
        rng = substream(SEED, 54 + width)
        for trial in range(20):
            col = _signed_terms(rng, 999 * width)
            if trial % 4 == 0:  # all terms zero, of either sign
                col = rng.choice([0.0, -0.0], col.size)
            got = montecarlo._row_sums(col, width)
            want = np.add.reduceat(col, np.arange(0, col.size, width))
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), trial


class _NoUniform(np.random.Generator):
    def uniform(self, *args, **kwargs):
        raise AssertionError("Generator.uniform holds the GIL")


def test_kernel_draws_without_uniform():
    # the kernel's scaled random() is uniform() bit for bit, long paths at the block edges included
    block = montecarlo._BLOCK
    counts = substream(SEED, 46).poisson(3.0, 3 * block + 5)
    for edge in (block, 2 * block, 3 * block):
        counts[edge - 2:edge + 2] = [17, 40, 1, 25]
    key = np.array([SEED, 47], np.uint64)
    got = montecarlo._endpoints(counts, T_DENSE, P_DENSE, _NoUniform(np.random.Philox(key=key)))
    want = whole_array_endpoints(counts, T_DENSE, P_DENSE, substream(SEED, 47))
    assert np.array_equal(got, want)


class TestDefaultWorkers:
    """Chunks run on every CPU the process may use, with the same bits as on one."""

    CFG = McConfig(samples=200_001, seed=SEED)  # four chunks, the last partial

    @pytest.mark.parametrize("condition", [None, 2])
    def test_estimate_cf(self, cpus, condition):
        a = estimate_cf(2.0, T, P, self.CFG, condition=condition)
        cpus(1)
        assert a == estimate_cf(2.0, T, P, self.CFG, condition=condition)

    def test_estimate_ball_prob(self, cpus):
        a = estimate_ball_prob(0.25, T, P, self.CFG)
        cpus(1)
        assert a == estimate_ball_prob(0.25, T, P, self.CFG)

    def test_radial_histogram(self, cpus):
        a = radial_histogram(T_DENSE, P_DENSE, self.CFG, bins=40)
        cpus(1)
        b = radial_histogram(T_DENSE, P_DENSE, self.CFG, bins=40)
        assert np.array_equal(a.masses, b.masses)
        assert a.atom_fraction == b.atom_fraction

    def chunk_threads(self, cpus, k):
        # the identity of the thread that ran each chunk
        cpus(k)
        return set(montecarlo._per_chunk(T, P, self.CFG, lambda pos, ns: threading.get_ident()))

    def test_one_cpu_runs_serially(self, cpus):
        assert self.chunk_threads(cpus, 1) == {threading.get_ident()}

    def test_several_cpus_run_chunks_at_once_the_caller_among_them(self, cpus):
        # the barrier lets three chunks through only when all three are in flight at
        # once, so a serial runner breaks it; the caller runs one rather than waiting
        cpus(3)
        barrier = threading.Barrier(3, timeout=10)

        def meet(pos, ns):
            barrier.wait()
            return threading.get_ident()

        cfg = McConfig(samples=3 * montecarlo._CHUNK, seed=SEED)
        threads = montecarlo._per_chunk(T, P, cfg, meet)
        assert len(set(threads)) == 3 and threading.get_ident() in threads

    def test_each_chunk_runs_once_under_fast_switching(self, cpus, monkeypatch):
        # eight threads share one iterator over 201 small chunks, switching every
        # microsecond: a chunk handed out twice or never changes the calls or the results
        monkeypatch.setattr(montecarlo, "_CHUNK", 64)
        cfg, calls = McConfig(samples=64 * 200 + 5, seed=SEED), []

        def first(pos, ns):
            calls.append(len(pos))
            return pos[0, 0]

        cpus(1)
        serial = montecarlo._per_chunk(T, P, cfg, first)
        cpus(8)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threaded = montecarlo._per_chunk(T, P, cfg, first)
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial and len(serial) == 201 and sum(calls) == 2 * cfg.samples

    @pytest.mark.parametrize("k", [1, 3])
    def test_the_lowest_failing_chunk_raises(self, cpus, monkeypatch, k):
        # chunks 2 and 3 of 0..3 raise, chunk 2 last where they overlap: the caller
        # gets chunk 2's exception, as pool.map gave it, whichever raised first
        cpus(k)
        local, third_raised = threading.local(), threading.Event()
        substream = montecarlo.substream

        def tagged(seed, i):
            local.chunk = i
            return substream(seed, i)

        def fail(pos, ns):
            if local.chunk == 2 and k > 1:
                assert third_raised.wait(10)
            if local.chunk == 3:
                third_raised.set()
            if local.chunk >= 2:
                raise ValueError(f"chunk {local.chunk}")

        monkeypatch.setattr(montecarlo, "substream", tagged)
        with pytest.raises(ValueError, match="chunk 2"):
            montecarlo._per_chunk(T, P, self.CFG, fail)


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
    lambda: radial_histogram(0.0, P, _CFG, bins=10),
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
    lambda: radial_histogram(math.inf, P, _CFG, bins=10),
], ids=[
    "sample_positions", "sample_positions_given_n", "estimate_cf",
    "estimate_conditional_cf", "estimate_ball_prob", "radial_histogram",
    "radial_histogram_t_zero",
    "ball_prob_r_nan", "ball_prob_r_inf", "cf_alpha_nan", "conditional_cf_alpha_inf",
    "cf_alpha_negative",
    "given_n_t_nan", "given_n_t_inf", "positions_t_nan", "positions_t_inf",
    "cf_t_nan", "cf_t_inf", "ball_prob_t_nan", "ball_prob_t_inf",
    "histogram_t_nan", "histogram_t_inf",
])
def test_bad_time_or_count_is_domain_error(call):
    # numpy's own ValueError (lam < 0 or NaN, negative dimensions) must not
    # leak out, and a non-finite t, r or frequency must not give a silently
    # wrong number
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

    def test_deterministic_and_worker_invariant(self, cpus):
        cpus(1)
        a = estimate_cf(2.0, T, P, self.CFG)
        b = estimate_cf(2.0, T, P, self.CFG)
        cpus(4)
        c = estimate_cf(2.0, T, P, self.CFG)
        assert a == b
        assert a == c

    def test_against_h_asymptotic(self):
        est = estimate_cf(2.0, T, P, self.CFG)
        target = h_asymptotic(FreqQuery(alpha_norm=2.0, t=T), P)
        assert abs(est.mean - target) <= 4.0 * est.std_error + 5.0 * T**3

    def test_conditional_against_h1(self):
        est = estimate_cf(2.0, T, P, self.CFG, condition=1)
        target = h1(FreqQuery(alpha_norm=2.0, t=T), P)
        assert abs(est.mean - target) <= 4.0 * est.std_error

    def test_std_error_scales_as_frequency_squared(self):
        # 1 - cos a ~ a^2 X_3^2 / 2, so the standard error is alpha^2 times a constant,
        # down to where a sum of cos a ~ 1 keeps no digits of the spread
        cfg = McConfig(samples=200_000, seed=SEED)
        ref = estimate_cf(1e-2, T, P, cfg, condition=2).std_error
        for alpha in (1e-4, 1e-6):
            se = estimate_cf(alpha, T, P, cfg, condition=2).std_error
            assert se == pytest.approx(ref * (alpha / 1e-2) ** 2, rel=0.01, abs=0.0)

    @pytest.mark.parametrize("alpha", [1e-4, 1e-6, 1e-8])
    def test_small_frequency_against_the_series(self, alpha):
        # near 1 the estimate rounds to a double (2^-53) and the series to a few ulps,
        # so a check against H_n there needs the 2^-50 floor of validate._remainder_bound
        est = estimate_cf(alpha, T, P, McConfig(samples=200_000, seed=SEED), condition=2)
        series = h2_series(FreqQuery(alpha_norm=alpha, t=T), P)
        assert abs(est.mean - series) <= 3.0 * est.std_error + 2.0**-50

    def test_sample_floor(self):
        with pytest.raises(DomainError):
            estimate_cf(2.0, T, P, McConfig(samples=100, seed=SEED))
        with pytest.raises(DomainError):
            estimate_cf(2.0, T, P, McConfig(samples=100, seed=SEED), condition=1)

    def test_overflowing_frequency_is_nonfinite(self):
        # x = c t alpha = inf: no mean of cos(inf) exists, so no NaN comes back
        with pytest.raises(NonFinite):
            estimate_cf(1e308, 1.0, FlightParams(5.0, 2.0), McConfig(10_000, 1))

    def test_huge_finite_frequency(self):
        est = estimate_cf(1e300, T, P, McConfig(10_000, 1))
        assert abs(est.mean) <= 1.0 and est.std_error > 0.0

    def test_partial_last_chunk(self):
        # sample count deliberately not a multiple of the chunk size
        cfg = McConfig(samples=70_001, seed=SEED)
        est = estimate_cf(2.0, T, P, cfg)
        assert est.samples == 70_001
        assert math.isfinite(est.mean) and est.std_error > 0


class TestCfSums:
    """_cf_sums in two buffers gives the sums of the out-of-place expression bit for bit; both
    rest on tan, so CI also runs this with the AVX-512 dispatch off."""

    @pytest.mark.parametrize("n", [1, 2, 3, None], ids=["n1", "n2", "n3", "poisson"])
    def test_out_of_place_sums(self, n):
        rng = substream(SEED, 90 + (n or 0))
        if n is None:  # the unconditional pass's column, a strided view of the chunk
            x3 = sample_positions(T, P, 1 << 16, rng)[0][:, 2]
        else:
            x3 = montecarlo._draw(T, P, 1 << 16, rng, n, x3=True)[0]
        # the suite's frequencies x / ct, and one where v is about 1e-18
        for alpha in (0.3 / CT, 0.5 / CT, 1.0 / CT, 2.0 / CT, 3.0 / CT, 1e-8):
            tau2 = np.tan((0.5 * alpha) * x3) ** 2
            v = 2.0 * tau2 / (1.0 + tau2)
            assert montecarlo._cf_sums(x3, alpha) == (np.sum(v), np.sum(v * v)), alpha


@pytest.mark.parametrize("n", [1, 2, 3, None], ids=["n1", "n2", "n3", "poisson"])
def test_x3_draws_are_symmetric(n):
    # X_3 is symmetric in law, so E sin(alpha X_3) = 0 at every alpha; estimate_cf returns
    # the cosine mean alone, so the draws themselves are checked at the suite's five x
    size = 200_000
    rng = substream(SEED, 80 + (n or 0))
    if n is None:
        x3 = sample_positions(T, P, size, rng)[0][:, 2]
    else:
        x3 = montecarlo._draw(T, P, size, rng, n, x3=True)[0]
    for x in (0.3, 0.5, 1.0, 2.0, 3.0):
        sines = np.sin(x / CT * x3)
        assert abs(sines.mean()) <= 4.0 * sines.std() / math.sqrt(size), x


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

    def test_deterministic(self, cpus):
        a = radial_histogram(T, P, self.CFG, bins=10)
        cpus(3)
        b = radial_histogram(T, P, self.CFG, bins=10)
        assert np.array_equal(a.masses, b.masses)
        assert a.atom_fraction == b.atom_fraction

    def test_bins_domain(self):
        with pytest.raises(DomainError):
            radial_histogram(T, P, self.CFG, bins=0)
