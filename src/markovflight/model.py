"""Shared parameter and result types with their invariants; no algorithms."""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, NonFinite, NonPositiveIntensity, NonPositiveSpeed

__all__ = [
    "FlightParams",
    "Vec3",
    "SeriesTruncation",
    "DensityValue",
    "McConfig",
    "McEstimate",
]


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
class SeriesTruncation:
    """Stopping rule for infinite series: tolerance first, then term budget.

    Evaluation stops at the first term whose absolute value drops below
    ``tail_tol``; if that never happens it stops after ``max_terms`` terms.
    """

    max_terms: int = 200
    tail_tol: float = 1e-14

    def __post_init__(self):
        if self.max_terms < 1:
            raise DomainError(f"max_terms must be >= 1, got {self.max_terms}")
        if not (self.tail_tol >= 0):
            raise DomainError(f"tail_tol must be >= 0, got {self.tail_tol}")


DEFAULT_TRUNCATION = SeriesTruncation()


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
        if not 0.0 < self.atom_mass < 1.0:
            raise DomainError(f"atom_mass must lie in (0,1), got {self.atom_mass}")
        if self.ac_value < 0:
            raise DomainError("ac_value must be nonnegative")


@dataclass(frozen=True)
class McConfig:
    """Monte Carlo run shape: sample count, seed and chunk size.

    Estimates are a pure function of (config, params, query): chunk k is
    generated from a counter-based substream keyed by (seed, k), so runs
    agree bit-for-bit no matter how chunks are scheduled.
    """

    samples: int
    seed: int = 0
    chunk: int = 1 << 16

    def __post_init__(self):
        if self.samples < 1:
            raise DomainError(f"samples must be >= 1, got {self.samples}")
        if not 0 <= self.seed < 1 << 64:
            raise DomainError("seed must be an unsigned 64-bit integer")
        if self.chunk < 1:
            raise DomainError(f"chunk must be >= 1, got {self.chunk}")


@dataclass(frozen=True)
class McEstimate:
    """Sample mean with its standard error (sample std / sqrt(n))."""

    mean: float
    std_error: float
    samples: int
