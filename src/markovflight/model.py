"""Shared parameter and result types with their invariants, the input domain
of every function of time, radius or count, and the Poisson weights of the switch count."""
from __future__ import annotations

import math
import operator
from dataclasses import dataclass

from .errors import DomainError, NonFinite, RadiusOutsideBall

__all__ = [
    "FlightParams",
    "McConfig",
    "McEstimate",
]


def check_time(t: float) -> None:
    """Raise unless t is finite and > 0, where every object of the flight is defined."""
    if not 0.0 < t < math.inf:
        error = DomainError if math.isfinite(t) else NonFinite
        raise error(f"t must be finite and > 0, got {t}")


def switch_weights(t: float, p: FlightParams) -> tuple:
    """(P{N=0}, ..., P{N=3}, P{N>=4}) for the switch count N(t) ~ Poisson(lam t).

    Each weight is the last times lam t / n, so no power of lam t is formed.  Above
    lam t = 700, where e^(-lam t) nears the subnormals, the recurrence runs on
    e^(-lam t / 2) and each weight takes the other half at the end.  Below lam t = 1
    the tail is summed on by the same recurrence; from there up it is at least
    0.019, and 1 - sum P{N=n} keeps its digits."""
    check_time(t)
    lt = p.lam * t
    if lt == math.inf:
        return 0.0, 0.0, 0.0, 0.0, 1.0
    half = 0.5 * lt if lt > 700.0 else 0.0
    weights = [math.exp(half - lt)]
    for n in (1, 2, 3):
        weights.append(weights[-1] * lt / n)
    weights = [w * math.exp(-half) for w in weights]
    if lt >= 1.0:
        return (*weights, 1.0 - math.fsum(weights))
    tail, term, n = 0.0, weights[3], 3
    while term > tail * 1e-17:
        n += 1
        term = term * lt / n
        tail += term
    return (*weights, tail)


def check_radius(r: float, ct: float = math.inf, name: str = "r") -> None:
    """Raise unless r is finite and 0 <= r < ct: RadiusOutsideBall when r >= ct,
    the open ball of radius ct being where the density lives."""
    if not 0.0 <= r < math.inf:
        error = DomainError if math.isfinite(r) else NonFinite
        raise error(f"{name} must be finite and >= 0, got {r}")
    if r >= ct:
        raise RadiusOutsideBall(f"{name}={r} must be < ct={ct}")


def check_count(n, name: str, low: int = 0, high: float = math.inf) -> None:
    """Raise DomainError unless n is an integer, as operator.index takes it, with
    low <= n < high.  A float is no count, not even a whole one: int() would read
    a seed of 1.5 as 1."""
    try:
        ok = low <= operator.index(n) < high
    except TypeError:
        ok = False
    if not ok:
        below = f" and < {high}" if high < math.inf else ""
        raise DomainError(f"{name} must be an integer >= {low}{below}, got {n!r}")


@dataclass(frozen=True)
class FlightParams:
    """Process parameters: constant speed c and Poisson switching intensity lam.

    The particle starts at the origin, moves at speed ``c`` and takes on a
    fresh uniformly random direction at each event of a Poisson process of
    rate ``lam`` (written lambda elsewhere; it is a reserved word in Python).
    """

    c: float
    lam: float

    def __post_init__(self):
        if not (math.isfinite(self.c) and math.isfinite(self.lam)):
            field = "c" if not math.isfinite(self.c) else "lam"
            raise NonFinite(f"FlightParams.{field} must be finite")
        if self.c <= 0:
            raise DomainError(f"speed c must be > 0, got {self.c}")
        if self.lam <= 0:
            raise DomainError(f"intensity lam must be > 0, got {self.lam}")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run shape: sample count and seed.

    Estimates are a pure function of (config, params, query): chunk k is
    generated from a counter-based substream keyed by (seed, k), so runs
    agree bit-for-bit no matter how chunks are scheduled.
    """

    samples: int
    seed: int = 0

    def __post_init__(self):
        check_count(self.samples, "samples", 1)
        check_count(self.seed, "seed", 0, 1 << 64)


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    samples: int
