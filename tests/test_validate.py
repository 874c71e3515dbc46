"""Quadrature oracles and the cross-check suite machinery."""
import math

import pytest

from markovflight import (
    CheckReport,
    FlightParams,
    McConfig,
    ball_prob_asymptotic,
    g_tilde,
    integrate_ac_density,
    integrate_ac_density_ball,
    report_lines,
    reports_to_csv,
    run_suite,
)
from markovflight import montecarlo, specfun, validate
from markovflight.errors import DomainError, QuadratureNotConverged, RadiusOutsideBall
from markovflight.validate import _quad

P = FlightParams(c=5.0, lam=2.0)

# the suite's check names in run order, frozen so that no check is dropped,
# renamed or reordered without this list changing with it
QUICK_NAMES = [
    "arctan_pow_grid_n1",
    "arctan_pow_grid_n2",
    "arctan_pow_grid_n3",
    "arctan_pow_grid_n4",
    "gamma_sum_identity_grid",
    "arctan_coefficient_sum",
    "hyp5f4_at_1",
    "quartic_gamma_0",
    "bessel_half_order_forms",
    "si_against_reference",
    "neg_cin_against_reference",
    "est_log_term_t0.1",
    "est_sqrt_term_t0.1",
    "est_const_term_t0.1",
    "est_full_vs_gtilde_t0.1",
    "ball_series_vs_quadrature_t0.1_r0.2",
    "ball_series_vs_quadrature_t0.1_r0.5",
    "ball_series_vs_quadrature_t0.1_r0.8",
    "ball_series_vs_quadrature_t0.1_r0.95",
    "ball_limit_gtilde_t0.1",
    "gap_identity_t0.1",
    "density_origin_continuity_t0.1",
    "profile_monotone_t0.1",
    "h_bound_grid",
    "window_endpoint_lam1",
    "window_endpoint_lam1.5",
    "window_endpoint_lam2",
    "window_endpoint_lam2.5",
    "h2_leading_term_decay",
    "h3_leading_term_decay",
    "h_asym_vs_conditional_sum_t0.2",
    "h_asym_vs_conditional_sum_t0.1",
    "h_asym_vs_conditional_sum_t0.05",
]
FULL_NAMES = QUICK_NAMES + [
    f"mc_conditional_cf_n{n}_x{x}" for n in (1, 2, 3) for x in ("0.3", "0.5", "1", "2", "3")
] + [
    "mc_cf_imag_symmetry",
    "mc_uncond_cf_t0.1",
    "mc_atom_fraction_t0.1",
    "mc_ball_prob_t0.1",
    "mc_support_t0.1",
    "mc_switch_chisquare_t0.1",
    "mc_mean_position_t0.1",
    "mc_mixture_coherence",
    "mc_direction_component_means",
    "mc_direction_ks_uniform",
    "mc_determinism_rerun",
    "mc_worker_invariance",
]


class TestCheckReport:
    def test_consistent_pass(self):
        r = CheckReport("x", 1.0, 1.0 + 1e-12, 1e-10, True)
        assert r.passed

    def test_consistent_fail(self):
        r = CheckReport("x", 1.0, 2.0, 1e-10, False)
        assert not r.passed

    def test_inconsistent_flag_rejected(self):
        with pytest.raises(DomainError):
            CheckReport("x", 1.0, 2.0, 1e-10, True)
        with pytest.raises(DomainError):
            CheckReport("x", 1.0, 1.0, 1e-10, False)

    def test_nan_must_fail(self):
        r = CheckReport("x", math.nan, 0.0, 1.0, False)
        assert not r.passed
        with pytest.raises(DomainError):
            CheckReport("x", math.nan, 0.0, 1.0, True)


class TestIntegrateAcDensity:
    # exact targets: each bracket term integrates over the ball to a bare
    # power of lam t, and the full integral carries the atom weight
    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("t", [0.1, 0.3, 0.5])
    def test_termwise_targets(self, lam, t):
        p = FlightParams(c=5.0, lam=lam)
        lt = lam * t
        assert integrate_ac_density(t, p, term="log") == pytest.approx(lt, abs=1e-8)
        assert integrate_ac_density(t, p, term="sqrt") == pytest.approx(
            lt * lt / 2.0, abs=1e-8
        )
        assert integrate_ac_density(t, p, term="const") == pytest.approx(
            lt**3 / 6.0, abs=1e-10
        )

    def test_full_integral_is_g_tilde(self):
        for t in (0.1, 0.4):
            assert integrate_ac_density(t, P) == pytest.approx(
                g_tilde(t, P), abs=1e-6
            )

    def test_invalid_term(self):
        with pytest.raises(DomainError):
            integrate_ac_density(0.1, P, term="cubic")

    def test_invalid_tol(self):
        with pytest.raises(DomainError):
            integrate_ac_density(0.1, P, tol=0.0)


class TestIntegrateAcDensityBall:
    def test_matches_series(self):
        for ratio in (0.2, 0.5, 0.8, 0.95):
            r = ratio * P.c * 0.1
            assert integrate_ac_density_ball(r, 0.1, P) == pytest.approx(
                ball_prob_asymptotic(r, 0.1, P), abs=1e-6
            )

    def test_radius_domain(self):
        with pytest.raises(RadiusOutsideBall):
            integrate_ac_density_ball(0.5, 0.1, P)
        with pytest.raises(DomainError):
            integrate_ac_density_ball(0.0, 0.1, P)


class TestQuad:
    def test_quadrature_not_converged(self):
        f = lambda x: 1.0 if x < math.pi / 10.0 else 0.0
        with pytest.raises(QuadratureNotConverged):
            _quad(f, 0.0, 1.0, 1e-15)


class TestRunSuite:
    def test_quick_suite_all_pass(self):
        reports = run_suite(quick=True)
        assert [r.name for r in reports] == QUICK_NAMES
        failed = [r.name for r in reports if not r.passed]
        assert failed == []

    def test_quick_suite_deterministic(self):
        a = run_suite(quick=True)
        b = run_suite(quick=True)
        assert a == b

    def test_small_mc_suite_all_pass(self):
        cfg = McConfig(samples=10**5, seed=20260814)
        reports = run_suite(cfg=cfg)
        assert [r.name for r in reports] == FULL_NAMES
        failed = [r.name for r in reports if not r.passed]
        assert failed == []

    def test_raising_rows_fail_every_name(self, monkeypatch):
        # each grouped row reports all of its names as failed when it raises,
        # so the suite's total never shrinks
        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(specfun, "si", boom)
        monkeypatch.setattr(montecarlo, "estimate_cf", boom)
        monkeypatch.setattr(validate.stats, "kstest", boom)
        reports = run_suite(cfg=McConfig(samples=10**4, seed=20260814))
        assert [r.name for r in reports] == FULL_NAMES
        failed = {r.name: r for r in reports if not r.passed}
        for name in (
            "si_against_reference",
            "neg_cin_against_reference",
            "mc_uncond_cf_t0.1",
            "mc_direction_component_means",
            "mc_direction_ks_uniform",
            "mc_determinism_rerun",
            "mc_worker_invariance",
        ):
            assert name in failed
            assert math.isnan(failed[name].lhs)
            assert failed[name].detail == "RuntimeError: injected"

    def test_report_lines_format(self):
        reports = run_suite(quick=True)
        lines = report_lines(reports)
        assert len(lines) == len(reports)
        assert all(line.startswith(("PASS ", "FAIL ")) for line in lines)

    def test_csv_format(self):
        reports = run_suite(quick=True)
        csv = reports_to_csv(reports)
        rows = csv.strip().split("\n")
        assert rows[0] == "name,lhs,rhs,tolerance,passed"
        assert len(rows) == len(reports) + 1
        assert rows[1].endswith(("true", "false"))
