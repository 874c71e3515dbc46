"""Shared parameter and result types with their invariants, the input domain
of every function of time and radius, and the Poisson weights of the switch count."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import (
    DomainError, NonFinite, NonPositiveIntensity, NonPositiveSpeed, RadiusOutsideBall,
)

__all__ = [
    "FlightParams",
    "Vec3",
    "DensityValue",
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
            raise NonPositiveSpeed(f"speed c must be > 0, got {self.c}")
        if self.lam <= 0:
            raise NonPositiveIntensity(f"intensity lam must be > 0, got {self.lam}")


@dataclass(frozen=True)
class Vec3:
    """Cartesian position vector."""

    x1: float
    x2: float
    x3: float

    def __post_init__(self):
        if not all(map(math.isfinite, (self.x1, self.x2, self.x3))):
            raise NonFinite("Vec3 components must be finite")

    def norm(self) -> float:
        return math.hypot(self.x1, self.x2, self.x3)

    def as_tuple(self) -> tuple:
        return (self.x1, self.x2, self.x3)


@dataclass(frozen=True)
class DensityValue:
    """Decomposition of the position law at one point.

    The distribution has an atom of mass exp(-lam*t) spread uniformly over
    the sphere of radius c*t (paths with no direction switch) plus an
    absolutely continuous part inside the open ball.  A pointwise density
    cannot encode the atom, so it is carried structurally as
    (atom_radius, atom_mass) alongside the interior density value.
    """

    atom_radius: float
    atom_mass: float
    ac_value: float

    def __post_init__(self):
        # closed: e^(-lam t) rounds to 1 for tiny lam t and to 0 for large
        if not 0.0 <= self.atom_mass <= 1.0:
            raise DomainError(f"atom_mass must lie in [0,1], got {self.atom_mass}")
        if self.ac_value < 0:
            raise DomainError("ac_value must be nonnegative")


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
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 1 << 64:
            raise DomainError("seed must be an unsigned 64-bit integer")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    samples: int
