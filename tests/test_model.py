"""Domain type validation."""
import dataclasses
import math

import pytest

from markovflight import (
    DEFAULT_TRUNCATION,
    DensityValue,
    FlightParams,
    McConfig,
    McEstimate,
    NonFinite,
    NonPositiveIntensity,
    NonPositiveSpeed,
    SeriesTruncation,
    Vec3,
)
from markovflight.errors import DomainError


class TestFlightParams:
    def test_valid(self):
        p = FlightParams(c=5.0, lam=2.0)
        assert p.c == 5.0 and p.lam == 2.0

    @pytest.mark.parametrize("c", [0.0, -1.0])
    def test_nonpositive_speed(self, c):
        with pytest.raises(NonPositiveSpeed):
            FlightParams(c=c, lam=1.0)

    @pytest.mark.parametrize("lam", [0.0, -0.5])
    def test_nonpositive_intensity(self, lam):
        with pytest.raises(NonPositiveIntensity):
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


class TestVec3:
    def test_norm_pythagorean(self):
        assert Vec3(3.0, 4.0, 12.0).norm() == 13.0

    def test_as_tuple(self):
        assert Vec3(1.0, -2.0, 0.5).as_tuple() == (1.0, -2.0, 0.5)

    def test_nonfinite_rejected(self):
        with pytest.raises(NonFinite):
            Vec3(math.nan, 0.0, 0.0)


class TestSeriesTruncation:
    def test_defaults(self):
        assert DEFAULT_TRUNCATION.max_terms == 200
        assert DEFAULT_TRUNCATION.tail_tol == 1e-14

    def test_invalid(self):
        with pytest.raises(DomainError):
            SeriesTruncation(max_terms=0)
        with pytest.raises(DomainError):
            SeriesTruncation(max_terms=10, tail_tol=-1.0)


class TestDensityValue:
    def test_valid(self):
        d = DensityValue(atom_radius=0.5, atom_mass=0.8, ac_value=0.2)
        assert d.atom_mass == 0.8

    @pytest.mark.parametrize("mass", [0.0, 1.0, 1.5, -0.1])
    def test_atom_mass_open_interval(self, mass):
        with pytest.raises(DomainError):
            DensityValue(atom_radius=0.5, atom_mass=mass, ac_value=0.0)

    def test_negative_ac_value(self):
        with pytest.raises(DomainError):
            DensityValue(atom_radius=0.5, atom_mass=0.5, ac_value=-1e-9)


class TestMcConfig:
    def test_defaults(self):
        cfg = McConfig(samples=10, seed=1)
        assert cfg.chunk == 1 << 16

    @pytest.mark.parametrize("samples", [0, -5])
    def test_samples_positive(self, samples):
        with pytest.raises(DomainError):
            McConfig(samples=samples, seed=1)

    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_range(self, seed):
        with pytest.raises(DomainError):
            McConfig(samples=10, seed=seed)

    def test_chunk_positive(self):
        with pytest.raises(DomainError):
            McConfig(samples=10, seed=1, chunk=0)


class TestMcEstimate:
    def test_fields(self):
        e = McEstimate(mean=0.5, std_error=0.01, samples=100)
        assert (e.mean, e.std_error, e.samples) == (0.5, 0.01, 100)
