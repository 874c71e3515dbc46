"""Exact simulation of the random flight; the oracle side of every formula check.

Sampling law: direction switches occur at the events of a Poisson(lam)
process; between events the particle travels straight at speed c with a
direction drawn uniformly on the unit sphere.  Conditioned on N(t) = n the
switch epochs are the order statistics of n uniforms on (0, t), so the n + 1
segment lengths are n + 1 standard exponentials scaled to sum to t.  X(t) is
the Poisson mixture of these laws, and the samplers draw it so: the counts,
then each count present in ascending order as sample_positions_given_n draws it, a block
of at most 4096 paths and 8,192 segments at a time (16,384 for X_3 alone), in place in
one buffer that holds the block's steps and gaps, summed by columns in np.add.reduceat's
order up to 8 terms and by a 1-D reduceat past them.  The uniforms are random() scaled,
Generator.uniform bit for bit: uniform and a 2-D reduceat hold the GIL, so chunks on two
threads would take turns; the last draw is made block by block.
Longitudes get their cosine and sine from one vectorised tan by the half-angle
identities (`_cos_sin`), within 2.6e-16 of the exact values.  The CF estimates
take alpha = (0, 0, ||alpha||), as the law is isotropic, draw X_3 alone (two
row sums a block, not four), and sum 1 - cos a = 2 tau^2/(1 + tau^2),
tau = tan(a/2), which keeps its digits near a = 0.

Determinism: work is split into fixed-size chunks and chunk k draws from a
counter-based Philox stream keyed by (seed, k).  The caller and one plain thread per
further CPU the process may use (set from outside, as by taskset) run them; results
are reduced in index order, so estimates are bit-identical for any CPU count.  Each pass of
the suite in `validate` is one `_per_chunk` call over a table of these statistics.
"""
from __future__ import annotations

import math
import os
import threading
from typing import NamedTuple, Optional

import numpy as np
import numpy.random  # noqa: F401  numpy loads it lazily, in the first draw otherwise

from .errors import DomainError
from .model import FlightParams, McConfig, McEstimate, check_count, check_radius, check_time

__all__ = [
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
# Paths and segments per block of the endpoint kernel: its trig and reduction temporaries
# are a block's size, 64 KiB at 8,192 segments (X_3 alone makes one, of twice that), so a
# chunk's working memory stays flat as lam t grows.
_BLOCK = 1 << 12
_SEGMENTS = 1 << 13
# Most segments one sampler call may draw: it holds one count's gaps and colatitudes, 1 GiB.
_MAX_SEGMENTS = 1 << 26


class RadialHistogram(NamedTuple):
    """Interior radial masses plus the separately reported sphere-atom mass."""

    edges: np.ndarray
    masses: np.ndarray
    atom_fraction: float


def substream(seed: int, chunk_index: int) -> np.random.Generator:
    """Independent generator for one chunk, a pure function of (seed, index)."""
    check_count(seed, "seed", 0, 1 << 64)
    check_count(chunk_index, "chunk_index", 0, 1 << 64)
    # a plain list would round seeds >= 2^63 through float64, so they collide
    return np.random.Generator(np.random.Philox(key=np.array([seed, chunk_index], np.uint64)))


def _cos_sin(a: np.ndarray, out: np.ndarray) -> None:
    """cos a and sin a into out[0] and out[1] from one tau = tan(a / 2) by the half-angle
    identities; a and out[2] are scratch, overwritten.

    numpy runs float64 tan in SIMD where the CPU has it, but cos and sin in
    scalar libm, so this costs a third of the pair; both are within 2.3e-16 of
    libm and 2.6e-16 of the exact values.
    """
    tau = np.multiply(0.5, a, out=a)
    d = np.multiply(tau, np.tan(tau, out=tau), out=out[2])
    d += 1.0
    np.multiply(2.0, tau, out=out[1])
    np.multiply(np.add(1.0, tau, out=out[0]), np.subtract(1.0, tau, out=tau), out=out[0])
    out[:2] /= d


def _radii(pos: np.ndarray, e: int = 0) -> np.ndarray:
    """Row norms of (n, 3) pos over 2^e, np.linalg.norm(np.ldexp(pos, -e), axis=1) bit for bit
    by its additions, a scaled column at a time: no (n, 3) copy, no strided reduction.  At
    e = frexp(ct)[1] rows are within 1, and only coordinates below 2^-511 ct lose squares."""
    r, sq = np.zeros(len(pos)), np.empty(len(pos))
    for k in range(3):  # x*x, + y*y, + z*z, one scaled column at a time
        r += np.square(np.ldexp(pos[:, k], -e, out=sq), out=sq)
    return np.sqrt(r, out=r)


def _check_draw(t: float, p: FlightParams, segments: float) -> None:
    """Raise unless t is in the domain, ct is finite and segments <= _MAX_SEGMENTS."""
    check_time(t)
    check_radius(p.c * t, name="ct")
    if not segments <= _MAX_SEGMENTS:
        raise DomainError(f"{segments:.3g} segments exceed the budget of {_MAX_SEGMENTS}")


def _uniform(rng: np.random.Generator, size: int, low: float, high: float) -> np.ndarray:
    """rng.uniform(low, high, size) bit for bit, as numpy computes it, low + (high - low) *
    random(): random() releases the GIL, uniform holds it."""
    u = rng.random(size)
    u *= high - low
    u += low
    return u


def _row_sums(col: np.ndarray, width: int) -> np.ndarray:
    """np.add.reduceat(col, np.arange(0, col.size, width)) bit for bit.  Rows up to 8 terms
    are summed by columns, a0 + (((a1 + a2) + a3) + ...): reduceat adds a0 to the rest summed
    in turn from -0.0 in rows that short, and its per-row call costs far more than the adds."""
    if width > 8:
        return np.add.reduceat(col, np.arange(0, col.size, width))
    if width == 1:
        return col
    m = col.reshape(-1, width)
    rest = m[:, 1]
    for k in range(2, width):
        rest = rest + m[:, k]
    return m[:, 0] + rest


def _endpoints(counts: np.ndarray, t: float, p: FlightParams, rng: np.random.Generator,
               x3: bool = False) -> np.ndarray:
    """Endpoints of paths with counts[i] switches each; shape (len(counts), 3).

    Each count n present, in ascending order, is drawn as sample_positions_given_n
    draws it and written into its paths' rows: its n + 1 standard exponential
    gaps a path, scaled to sum to t (the law of the gaps between n sorted uniform
    epochs on (0, t)), then cos(colatitude) uniform on [-1, 1], then longitudes on [0, 2 pi)
    a block at a time, at most _BLOCK paths and _SEGMENTS segments (2 _SEGMENTS with x3; or
    one path), the same Philox words in the same order.  Nothing is sorted, so no rounding can
    reorder epochs into a negative segment.  Blocks work in place; `_row_sums` gives each row
    the whole-array 2-D reduceat's sum bit for bit.  x3=True gives [:, 2] alone bit for bit: it
    draws and drops the longitudes of every count but the last, and ends after the colatitudes.
    """
    unit, e = math.frexp(p.c * t)  # ct = unit 2^e; rows in units of 2^e, so no ct / sum overflows
    out = np.empty((len(counts), 1 if x3 else 3))
    # bincount takes max - least + 1 slots, unique sorts at 7 times its cost; one count needs
    # neither, nor an index: its rows are written by slices, 4 times faster than by an index
    least, most = (counts.min(), counts.max()) if len(counts) else (0, -1)
    present = [most] if least == most else least + np.flatnonzero(np.bincount(counts - least))
    for n in present:
        # int32 halves a count's index: sizes stay below _MAX_SEGMENTS = 2^26
        paths = None if least == most else np.flatnonzero(counts == n).astype(np.int32)
        _count_rows(out, paths, int(n) + 1, unit, rng, x3, x3 and n != present[-1])
    np.ldexp(out, e, out=out)
    return out[:, 0] if x3 else out


def _count_rows(out, paths, w: int, unit: float, rng, x3: bool, drop: bool) -> None:
    """Draw one count's w-segment paths into out[paths] (every row if None); its draws die here.
    A block's X, Y and Z steps and its gaps are the rows of one contiguous buffer, so one
    `_row_sums` call sums them all: two threads take turns on each numpy call's set-up.
    X_3 alone needs no buffer, so its blocks are twice as long."""
    m = len(out) if paths is None else len(paths)
    step = min(_BLOCK, (2 if x3 else 1) * _SEGMENTS // w) or 1
    gaps = rng.standard_exponential(m * w)
    z = None if x3 else _uniform(rng, gaps.size, -1.0, 1.0)
    flat = None if x3 else np.empty(4 * min(gaps.size, step * w))
    for i in range(0, m, step):
        lo, hi = i * w, min(gaps.size, (i + step) * w)
        gap = gaps[lo:hi]
        rows = slice(i, i + step) if paths is None else paths[i:i + step]
        if x3:
            z_b = _uniform(rng, hi - lo, -1.0, 1.0)
            row = _row_sums(np.multiply(z_b, gap, out=z_b), w)
            row *= unit / _row_sums(gap, w)
            out[rows, 0] = row
            continue
        b = flat[:4 * (hi - lo)].reshape(4, hi - lo)
        a = _uniform(rng, hi - lo, 0.0, 2.0 * math.pi)
        _cos_sin(a, b)  # its scratch row is the Z steps' below
        s = np.multiply(z[lo:hi], z[lo:hi], out=a)  # sqrt(1 - z z), as z z <= 1 on [-1, 1]
        b[:2] *= np.sqrt(np.subtract(1.0, s, out=s), out=s)
        b[:2] *= gap
        np.multiply(z[lo:hi], gap, out=b[2])
        b[3] = gap
        sums = _row_sums(b.reshape(-1), w).reshape(4, -1)
        sums[:3] *= unit / sums[3]
        out[rows] = sums[:3].T
    for lo in range(0, gaps.size if drop else 0, step * w):  # drop longitudes, a block at a time
        rng.random(min(step * w, gaps.size - lo))


def _draw(t: float, p: FlightParams, size: int, rng: np.random.Generator,
          n: Optional[int] = None, x3: bool = False) -> tuple:
    """(endpoints, counts) of `size` paths with Poisson(lam t) switches, or n each."""
    if n is not None:
        check_count(n, "n")
    check_count(size, "size")
    _check_draw(t, p, size * (p.lam * t + 1.0) if n is None else size * (n + 1))
    counts = rng.poisson(p.lam * t, size) if n is None else np.broadcast_to(n, size)
    return _endpoints(counts, t, p, rng, x3), counts


def sample_positions_given_n(
    n: int, t: float, p: FlightParams, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Batch of `size` endpoints conditioned on exactly n switches; shape (size, 3)."""
    return _draw(t, p, size, rng, n)[0]


def sample_positions(
    t: float, p: FlightParams, size: int, rng: np.random.Generator
) -> tuple:
    """Batch of `size` unconditional endpoints.

    Returns (positions, counts) with shapes (size, 3) and (size,).  The Poisson(lam t)
    counts are drawn first, then each count present, in ascending order, as
    sample_positions_given_n draws it, so no row is padded and nothing is sorted.
    """
    return _draw(t, p, size, rng)


def _workers() -> int:
    """The thread count a Monte Carlo call uses: every CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _per_chunk(
    t: float, p: FlightParams, cfg: McConfig, fn, condition: Optional[int] = None, x3=False
) -> list:
    """fn(positions, counts) of every chunk of the (seed, k) stream, in chunk order.

    Chunk k is drawn once from substream(cfg.seed, k); with condition=n it is
    drawn given exactly n switches, with x3=True positions is the X_3 column
    alone, and either way counts is None.  The caller and min(_workers(), chunks) - 1
    plain threads pull chunks from one iterator, so fn must be safe on any of them;
    after the join the lowest-index chunk that raised re-raises, as pool.map would.
    """
    full, rem = divmod(cfg.samples, _CHUNK)
    sizes = [_CHUNK] * full + ([rem] if rem else [])
    results, errors, chunks = [None] * len(sizes), {}, enumerate(sizes)

    def run() -> None:
        for i, size in chunks:  # each chunk is handed out once, to whichever thread is free
            try:
                rng = substream(cfg.seed, i)
                if condition is None and not x3:
                    results[i] = fn(*sample_positions(t, p, size, rng))
                else:
                    results[i] = fn(_draw(t, p, size, rng, condition, x3)[0], None)
            except Exception as exc:
                errors[i] = exc

    threads = [threading.Thread(target=run) for _ in range(min(_workers(), len(sizes)) - 1)]
    for thread in threads:
        thread.start()
    run()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[min(errors)]
    return results


def _mean_with_error(sums: np.ndarray, sumsqs: np.ndarray, n: int) -> McEstimate:
    # per-chunk partial sums are combined with np.sum (pairwise) in chunk order
    s1 = float(np.sum(sums))
    s2 = float(np.sum(sumsqs))
    mean = s1 / n
    if n < 2:
        return McEstimate(mean=mean, std_error=0.0, samples=n)
    var = max(0.0, (s2 - s1 * s1 / n) / (n - 1))
    return McEstimate(mean=mean, std_error=math.sqrt(var / n), samples=n)


def _cf_sums(proj: np.ndarray, alpha_norm: float) -> tuple:
    # v = 1 - cos(alpha x_3) by the half-angle identity: no cancellation as alpha x_3 -> 0;
    # in two buffers, each op on the operands and in the order of 2 tau^2 / (1 + tau^2)
    tau2 = np.multiply(0.5 * alpha_norm, proj)
    np.square(np.tan(tau2, out=tau2), out=tau2)
    v = np.add(1.0, tau2)
    np.divide(np.multiply(2.0, tau2, out=tau2), v, out=v)
    return np.sum(v), np.sum(np.multiply(v, v, out=tau2))


def _cf_estimate(parts, n: int) -> McEstimate:
    # E cos = 1 - E v; v's sums keep the digits that sums of cos a ~ 1 cancel
    v = _mean_with_error(*np.array(parts).T, n)
    return McEstimate(mean=1.0 - v.mean, std_error=v.std_error, samples=n)


def _ball_hits(radii: np.ndarray, r: float, e: int) -> float:
    # radii in units of 2^e, as _radii(pos, e) gives them
    return float(np.sum(radii <= math.ldexp(r, -e)))


def _radial_counts(pos: np.ndarray, counts: np.ndarray, edges: np.ndarray) -> tuple:
    # no-switch rows are the atom; radii and edges over 2^e keep every bin exact
    e = math.frexp(edges[-1])[1]
    radii = _radii(pos, e)[counts > 0]
    atom = len(pos) - len(radii)
    edges = np.ldexp(edges, -e)
    # array edges: numpy 2.4's sort-free uniform-bin path measured 2-4x slower
    hist, _ = np.histogram(np.clip(radii, 0.0, edges[-1], out=radii), bins=edges)
    return hist.astype(float), atom


def estimate_cf(
    alpha_norm: float, t: float, p: FlightParams, cfg: McConfig, condition: Optional[int] = None
) -> McEstimate:
    """Empirical characteristic function E cos(alpha_norm X_3) at alpha = (0, 0, alpha_norm).

    With condition=n the paths are drawn given exactly n switches.  By radial
    symmetry the direction of alpha is irrelevant and the imaginary part is 0
    in law, so X_3 alone is drawn and the real part alone is estimated.  Near 1
    the estimate rounds to a double (2^-53), so a check against H_n there needs
    a floor of 2^-50, as validate._remainder_bound has.
    """
    if cfg.samples < _MIN_CF_SAMPLES:
        raise DomainError(f"estimate_cf needs at least {_MIN_CF_SAMPLES} samples")
    check_time(t)
    check_radius(alpha_norm, name="alpha_norm")
    # charfun._x's rule; it also keeps every projection alpha x_3 finite for the tan
    check_radius(p.c * t * alpha_norm, name="x = c t ||alpha||")
    parts = _per_chunk(t, p, cfg, lambda x, _: _cf_sums(x, alpha_norm), condition, x3=True)
    return _cf_estimate(parts, cfg.samples)


def estimate_ball_prob(r: float, t: float, p: FlightParams, cfg: McConfig) -> McEstimate:
    """Fraction of endpoints with ||X|| <= r, with its binomial standard error."""
    check_time(t)
    check_radius(r)
    if r >= p.c * t:  # ct = inf raises in the sampler
        # whole support: exactly 1 without sampling noise at the boundary
        return McEstimate(mean=1.0, std_error=0.0, samples=cfg.samples)
    e = math.frexp(p.c * t)[1]
    hits = _per_chunk(t, p, cfg, lambda pos, _: _ball_hits(_radii(pos, e), r, e))
    return _mean_with_error(hits, hits, cfg.samples)  # an indicator is its own square


def radial_histogram(t: float, p: FlightParams, cfg: McConfig, bins: int) -> RadialHistogram:
    """Empirical radial mass per bin on [0, ct], atom mass reported separately.

    No-switch samples are the sphere atom and the rest are histogrammed.
    Masses are fractions of the total sample count, so
    masses.sum() + atom_fraction == 1 exactly.
    """
    check_time(t)
    check_radius(p.c * t, name="ct")  # the edges span [0, ct]
    check_count(bins, "bins", 1)
    edges = np.linspace(0.0, p.c * t, bins + 1)
    hists, atoms = zip(*_per_chunk(t, p, cfg, lambda pos, ns: _radial_counts(pos, ns, edges)))
    return RadialHistogram(edges, np.sum(hists, axis=0) / cfg.samples, sum(atoms) / cfg.samples)
