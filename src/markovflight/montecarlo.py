"""Exact simulation of the random flight; the oracle side of every formula check.

Sampling law: direction switches occur at the events of a Poisson(lam)
process; between events the particle travels straight at speed c with a
direction drawn uniformly on the unit sphere.  Conditioned on N(t) = n the
switch epochs are the order statistics of n uniforms on (0, t), so the n + 1
segment lengths are n + 1 standard exponentials scaled to sum to t.  The
batch samplers draw exactly that many segments per path, laid end to end in
one flat array, and add each path's segments with np.add.reduceat, one block
of whole paths at a time.  Longitudes and characteristic-function terms get
their cosine and sine from one vectorised tan by the half-angle identities
(`_cos_sin`), within 2.6e-16 of the exact values.

Determinism: work is split into fixed-size chunks and chunk k draws from a
counter-based Philox stream keyed by (seed, k).  Chunks run on every CPU the
process may use unless `workers` says otherwise; their results are reduced in
index order, so estimates are bit-identical for any worker count.  The suite
in `validate` reduces its passes with the same private per-chunk statistics.
"""
from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from typing import NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .model import FlightParams, McConfig, McEstimate, check_radius, check_time

__all__ = [
    "CfEstimate",
    "RadialHistogram",
    "sample_positions",
    "sample_positions_given_n",
    "estimate_cf",
    "estimate_ball_prob",
    "radial_histogram",
    "substream",
]

# Fewest samples the characteristic-function estimator accepts.
_MIN_CF_SAMPLES = 10_000
# Samples per chunk: chunk k of a stream is drawn from substream(seed, k).
_CHUNK = 1 << 16
# Paths per block of the endpoint kernel: its trig and reduction temporaries
# are a block's size, so a chunk's working memory stays flat.
_BLOCK = 1 << 12
# Most segments one sampler call may draw: three float64 draws each, about 1.5 GB.
_MAX_SEGMENTS = 1 << 26


class CfEstimate(NamedTuple):
    """Empirical characteristic function: real part and imaginary part."""

    real: McEstimate
    imag: McEstimate


class RadialHistogram(NamedTuple):
    """Interior radial masses plus the separately reported sphere-atom mass."""

    edges: np.ndarray
    masses: np.ndarray
    atom_fraction: float


def substream(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent generator for one chunk, a pure function of (seed, index)."""
    # a plain list would round seeds >= 2^63 through float64, so they collide
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], np.uint64)))


def _cos_sin(a: np.ndarray) -> tuple:
    """(cos a, sin a) from one tau = tan(a / 2) by the half-angle identities.

    numpy runs float64 tan in SIMD where the CPU has it, but cos and sin in
    scalar libm, so this costs a third of the pair; both are within 2.3e-16 of
    libm and 2.6e-16 of the exact values.
    """
    tau = np.tan(0.5 * a)
    d = 1.0 + tau * tau
    return (1.0 - tau) * (1.0 + tau) / d, 2.0 * tau / d


def _radii(pos: np.ndarray, e: int = 0) -> np.ndarray:
    """Row norms of an (n, 3) array over 2^e, bit for bit np.linalg.norm(pos, axis=1) / 2^e by
    the same additions, without its strided reduction, while no square leaves the float range;
    at e = frexp(ct)[1] rows are within 1, and only coordinates below 2^-511 ct lose squares."""
    x, y, z = (np.ldexp(pos, -e) if e else pos).T
    return np.sqrt(x * x + y * y + z * z)


def _unit_vectors(z: np.ndarray, phi: np.ndarray) -> np.ndarray:
    """Points on S^2 at cos(colatitude) z and longitude phi; shape (len(z), 3).

    With z uniform on [-1, 1] and phi uniform on [0, 2 pi) they are uniform.
    """
    s = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    cos_phi, sin_phi = _cos_sin(phi)
    out = np.empty((len(z), 3))
    np.multiply(s, cos_phi, out=out[:, 0])
    np.multiply(s, sin_phi, out=out[:, 1])
    out[:, 2] = z
    return out


def _check_draw(t: float, p: FlightParams, segments: float) -> None:
    """Raise unless t is in the domain, ct is finite and segments <= _MAX_SEGMENTS."""
    check_time(t)
    check_radius(p.c * t, name="ct")
    if not segments <= _MAX_SEGMENTS:
        raise DomainError(f"{segments:.3g} segments exceed the budget of {_MAX_SEGMENTS}")


def _endpoints(counts: np.ndarray, t: float, p: FlightParams, rng: np.random.Generator) -> np.ndarray:
    """Endpoints of paths with counts[i] switches each; shape (len(counts), 3).

    Row i has counts[i] + 1 segments, all rows laid end to end.  A row's
    segment lengths are its standard exponentials scaled to sum to t: the
    gaps between n sorted uniform epochs on (0, t) have exactly that law.
    Nothing is sorted, so no rounding can reorder epochs into a negative
    segment, and each row's length sums to ct up to rounding.  Every draw is
    made first; the rest runs over blocks of _BLOCK whole paths, and each
    row is reduced over the same segments as in one whole-array pass.
    """
    size = len(counts)
    if size == 0:
        return np.zeros((0, 3))
    segments = counts + 1
    ends = np.cumsum(segments)
    starts = ends - segments
    total = int(ends[-1])
    gaps = rng.standard_exponential(total)
    z = rng.uniform(-1.0, 1.0, total)
    phi = rng.uniform(0.0, 2.0 * math.pi, total)
    out = np.empty((size, 3))
    for i in range(0, size, _BLOCK):
        j = min(i + _BLOCK, size)
        lo, hi = starts[i], ends[j - 1]
        rows = starts[i:j] - lo
        steps = _unit_vectors(z[lo:hi], phi[lo:hi])
        steps *= gaps[lo:hi, None]
        scale = (p.c * t) / np.add.reduceat(gaps[lo:hi], rows)
        np.multiply(np.add.reduceat(steps, rows, axis=0), scale[:, None], out=out[i:j])
    return out


def sample_positions_given_n(
    n: int, t: float, p: FlightParams, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of `size` endpoints conditioned on exactly n switches; shape (size, 3)."""
    if n < 0:
        raise DomainError(f"n must be >= 0, got {n}")
    _check_draw(t, p, size * (n + 1))
    return _endpoints(np.full(size, n), t, p, rng)


def sample_positions(
    t: float, p: FlightParams, size: int, rng: np.random.Generator
) -> tuple:
    """Batch of `size` unconditional endpoints.

    Returns (positions, counts) with shapes (size, 3) and (size,).  Counts are
    Poisson(lam t); each path then draws exactly counts + 1 segments, so no
    row is padded and nothing is sorted.
    """
    _check_draw(t, p, size * (p.lam * t + 1.0))
    counts = rng.poisson(p.lam * t, size)
    return _endpoints(counts, t, p, rng), counts


def _workers(workers: Optional[int] = None) -> int:
    """The thread count a Monte Carlo call uses: workers, or by default every
    CPU this process may run on.  Raises DomainError for workers < 1."""
    if workers is not None:
        if workers < 1:
            raise DomainError(f"workers must be >= 1, got {workers}")
        return workers
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _per_chunk(
    t: float, p: FlightParams, cfg: McConfig, fn,
    condition: Optional[int] = None, workers: Optional[int] = None,
) -> list:
    """fn(positions, counts) of every chunk of the (seed, k) stream, in chunk order.

    Chunk k is drawn once from substream(cfg.seed, k); with condition=n it
    is drawn given exactly n switches and counts is None.  Chunks run on
    _workers(workers) threads; fn must be safe to call from any of them.
    """
    full, rem = divmod(cfg.samples, _CHUNK)
    sizes = [_CHUNK] * full + ([rem] if rem else [])

    def one(i: int, size: int):
        rng = substream(cfg.seed, i)
        if condition is None:
            return fn(*sample_positions(t, p, size, rng))
        return fn(sample_positions_given_n(condition, t, p, size, rng), None)

    workers = min(_workers(workers), len(sizes))
    if workers <= 1:
        return [one(i, s) for i, s in enumerate(sizes)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(one, range(len(sizes)), sizes))


def _mean_with_error(sums: np.ndarray, sumsqs: np.ndarray, n: int) -> McEstimate:
    # per-chunk partial sums are combined with np.sum (pairwise) in chunk order
    s1 = float(np.sum(sums))
    s2 = float(np.sum(sumsqs))
    mean = s1 / n
    if n < 2:
        return McEstimate(mean=mean, std_error=0.0, samples=n)
    var = max(0.0, (s2 - s1 * s1 / n) / (n - 1))
    return McEstimate(mean=mean, std_error=math.sqrt(var / n), samples=n)


def _cf_sums(pos: np.ndarray, alpha_norm: float) -> tuple:
    cos_v, sin_v = _cos_sin(alpha_norm * pos[:, 0])
    return np.sum(cos_v), np.sum(cos_v * cos_v), np.sum(sin_v), np.sum(sin_v * sin_v)


def _cf_estimate(parts, n: int) -> CfEstimate:
    parts = np.array(parts)
    return CfEstimate(
        real=_mean_with_error(parts[:, 0], parts[:, 1], n),
        imag=_mean_with_error(parts[:, 2], parts[:, 3], n),
    )


def _ball_hits(pos: np.ndarray, r: float, ct: float) -> float:
    e = math.frexp(ct)[1]
    return float(np.sum(_radii(pos, e) <= math.ldexp(r, -e)))


def _radial_counts(pos: np.ndarray, counts, edges: np.ndarray) -> tuple:
    # no-switch rows are the atom (none given n); radii and edges over 2^e keep every bin exact
    e = math.frexp(edges[-1])[1]
    radii = _radii(pos, e) if counts is None else _radii(pos, e)[counts > 0]
    atom = len(pos) - len(radii)
    edges = np.ldexp(edges, -e)
    # array edges: numpy 2.4's sort-free uniform-bin path measured 2-4x slower
    hist, _ = np.histogram(np.clip(radii, 0.0, edges[-1]), bins=edges)
    return hist.astype(float), atom


def _radial_histogram(edges: np.ndarray, parts, n: int) -> RadialHistogram:
    counts = np.sum([c for c, _ in parts], axis=0)
    atom_total = sum(a for _, a in parts)
    return RadialHistogram(edges=edges, masses=counts / n, atom_fraction=atom_total / n)


def estimate_cf(
    alpha_norm: float,
    t: float,
    p: FlightParams,
    cfg: McConfig,
    condition: Optional[int] = None,
    workers: Optional[int] = None,
) -> CfEstimate:
    """Empirical characteristic function at alpha = (alpha_norm, 0, 0).

    With condition=n the paths are drawn given exactly n switches.  By radial
    symmetry the direction of alpha is irrelevant; the imaginary part is 0 in
    law and its estimate is returned for the symmetry check.
    """
    if cfg.samples < _MIN_CF_SAMPLES:
        raise DomainError(f"estimate_cf needs at least {_MIN_CF_SAMPLES} samples")
    check_time(t)
    check_radius(alpha_norm, name="alpha_norm")
    # charfun._x's rule; it also keeps every projection alpha x_1 finite for the tan
    check_radius(p.c * t * alpha_norm, name="x = c t ||alpha||")
    parts = _per_chunk(t, p, cfg, lambda pos, _: _cf_sums(pos, alpha_norm), condition, workers)
    return _cf_estimate(parts, cfg.samples)


def estimate_ball_prob(
    r: float, t: float, p: FlightParams, cfg: McConfig, workers: Optional[int] = None
) -> McEstimate:
    """Fraction of endpoints with ||X|| <= r, with its binomial standard error."""
    check_time(t)
    check_radius(r)
    workers = _workers(workers)
    if r >= p.c * t:  # ct = inf raises in the sampler
        # whole support: exactly 1 without sampling noise at the boundary
        return McEstimate(mean=1.0, std_error=0.0, samples=cfg.samples)
    hits = _per_chunk(t, p, cfg, lambda pos, _: _ball_hits(pos, r, p.c * t), workers=workers)
    return _mean_with_error(hits, hits, cfg.samples)  # an indicator is its own square


def radial_histogram(
    t: float,
    p: FlightParams,
    cfg: McConfig,
    bins: int,
    condition: Optional[int] = None,
    workers: Optional[int] = None,
) -> RadialHistogram:
    """Empirical radial mass per bin on [0, ct], atom mass reported separately.

    Unconditional runs classify no-switch samples as the sphere atom and
    histogram the rest; conditioned on n the histogram covers all samples
    (for n = 0 everything is atom).  Masses are fractions of the total sample
    count, so masses.sum() + atom_fraction == 1 exactly.
    """
    check_time(t)
    check_radius(p.c * t, name="ct")  # the edges span [0, ct]
    workers = _workers(workers)
    if bins < 1:
        raise DomainError(f"bins must be >= 1, got {bins}")
    edges = np.linspace(0.0, p.c * t, bins + 1)
    if condition == 0:
        return RadialHistogram(edges=edges, masses=np.zeros(bins), atom_fraction=1.0)
    parts = _per_chunk(
        t, p, cfg, lambda pos, counts: _radial_counts(pos, counts, edges), condition, workers
    )
    return _radial_histogram(edges, parts, cfg.samples)
