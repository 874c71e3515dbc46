"""Quadrature oracles and the cross-check suite machinery."""
import dataclasses
import math
import threading
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from scipy import stats

from markovflight import (
    DEFAULT_SEED,
    CheckReport,
    FlightParams,
    McConfig,
    ball_prob_asymptotic,
    estimate_ball_prob,
    estimate_cf,
    g_tilde,
    integrate_ac_density,
    integrate_ac_density_ball,
    radial_histogram,
    report_lines,
    reports_to_csv,
    run_suite,
)
from markovflight import charfun, density, montecarlo, specfun, validate
from markovflight.errors import DomainError, QuadratureNotConverged, RadiusOutsideBall
from markovflight.model import switch_weights
from markovflight.specfun import _quad

P = FlightParams(c=5.0, lam=2.0)

# the suite's check names in run order, frozen so that no check is dropped,
# renamed or reordered without this list changing with it
QUICK_NAMES = [
    "arctan_pow_grid_n1",
    "arctan_pow_grid_n2",
    "arctan_pow_grid_n3",
    "arctan_pow_grid_n4",
    "gamma_sum_identity_grid",
    "hyp5f4_at_1",
    "quartic_gamma_0",
    "bessel_half_order_forms",
    "si_against_reference",
    "neg_cin_against_reference",
    "shape_mass_log",
    "shape_mass_sqrt",
    "shape_mass_const",
    "est_full_vs_gtilde_t0.1",
    "ball_series_vs_quadrature_t0.1_r0.2",
    "ball_series_vs_quadrature_t0.1_r0.5",
    "ball_series_vs_quadrature_t0.1_r0.8",
    "ball_series_vs_quadrature_t0.1_r0.95",
    "ball_limit_gtilde_t0.1",
    "gap_identity_t0.1",
    "density_origin_continuity_t0.1",
    "density_vs_shapes_t0.1",
    "profile_monotone_t0.1",
    "h_bound_grid",
    "window_endpoint_lam1",
    "window_endpoint_lam1.5",
    "window_endpoint_lam2",
    "window_endpoint_lam2.5",
    "h_asym_vs_conditional_sum_t0.2",
    "h_asym_vs_conditional_sum_t0.1",
    "h_asym_vs_conditional_sum_t0.05",
]
FULL_NAMES = QUICK_NAMES + [
    f"mc_conditional_cf_n{n}_x{x}" for n in (1, 2, 3) for x in ("0.3", "0.5", "1", "2", "3")
] + [
    "mc_uncond_cf_t0.1",
    "mc_atom_fraction_t0.1",
    "mc_ball_prob_t0.1",
    "mc_support_t0.1",
    "mc_switch_chisquare_t0.1",
    "mc_mean_position_t0.1",
]


class TestCheckReport:
    def test_consistent_pass(self):
        r = CheckReport("x", 1.0, 1.0 + 1e-12, 1e-10)
        assert r.passed

    def test_consistent_fail(self):
        r = CheckReport("x", 1.0, 2.0, 1e-10)
        assert not r.passed

    def test_nan_must_fail(self):
        r = CheckReport("x", math.nan, 0.0, 1.0)
        assert not r.passed

    def test_nan_shortfall_must_fail(self):
        # max(0.0, nan) is 0.0, which passed
        assert not CheckReport("x", *validate._bound(math.nan)).passed
        assert CheckReport("x", *validate._bound(-1.0)).passed

    def test_nan_at_one_point_fails_its_row(self, monkeypatch):
        # Python's max drops a NaN that is not its first argument; x = 20.30 is the
        # 41st of the row's 80 points
        si = specfun.si
        monkeypatch.setattr(specfun, "si", lambda x: math.nan if 20.0 < x < 20.5 else si(x))
        si_row, cin_row = validate._si_cin_reference()
        assert not CheckReport("si_against_reference", *si_row).passed
        assert CheckReport("neg_cin_against_reference", *cin_row).passed

    def test_pass_flag_is_derived_not_stored(self):
        assert "passed" not in {f.name for f in dataclasses.fields(CheckReport)}
        assert CheckReport("x", 1.0, 1.0, 0.0, "detail").detail == "detail"


class TestIntegrateAcDensity:
    # exact targets: bracket n is (lam t)^n/n! times a shape of mass 1 on [0, 1)
    # in rho = r/ct, so the full integral is P{1 <= N <= 3} = g_tilde
    @pytest.mark.parametrize("lam", [1.0, 1.5, 2.0, 2.5])
    @pytest.mark.parametrize("t", [0.1, 0.3, 0.5])
    def test_termwise_targets(self, lam, t):
        p = FlightParams(c=5.0, lam=lam)
        # the integrators' 1e-8 for each shape
        for mass in validate._shape_masses(1.0, 1e-8):
            assert mass == pytest.approx(1.0, abs=2e-12)
        assert integrate_ac_density(t, p) == pytest.approx(g_tilde(t, p), abs=1e-8)

    def test_full_integral_is_g_tilde(self):
        for t in (0.1, 0.4):
            assert integrate_ac_density(t, P) == pytest.approx(
                g_tilde(t, P), abs=1e-6
            )

    @pytest.mark.parametrize("lam", [0.5, 2.0, 20.0])
    @pytest.mark.parametrize("t", [0.01, 0.1, 1.0])
    def test_termwise_targets_to_roundoff(self, lam, t):
        # the suite's shape_mass_* tol; the full integral is within 2e-12 of g_tilde relative
        # from lam t = 0.005, where g_tilde is 0.005, to lam t = 20, where it is 3.2e-6
        p = FlightParams(c=5.0, lam=lam)
        for mass in validate._shape_masses(1.0, 1e-11):
            assert abs(mass - 1.0) <= 2e-12
        assert integrate_ac_density(t, p) == pytest.approx(g_tilde(t, p), rel=2e-12, abs=0.0)


@pytest.mark.parametrize("integrate,exact", [
    (lambda p, t: integrate_ac_density(t, p), lambda p, t: g_tilde(t, p)),
    (lambda p, t: integrate_ac_density_ball(0.999 * p.c * t, t, p),
     lambda p, t: ball_prob_asymptotic(0.999 * p.c * t, t, p)),
], ids=["whole_ball", "subball"])
def test_tol_bounds_the_value_at_large_lambda_t(integrate, exact):
    # at lam t = 600 the value is ~1e-254 while the bare const bracket is
    # 3.6e7: a tol on each bare bracket raised QuadratureNotConverged
    p = FlightParams(c=5.0, lam=20.0)
    assert integrate(p, 30.0) == pytest.approx(exact(p, 30.0), rel=1e-12)


@pytest.mark.parametrize("lam", [0.1, 2.0, 20.0])
@pytest.mark.parametrize("t", [1e-6, 1e-3, 0.1, 1.0, 30.0])
def test_integrators_warn_never(lam, t):
    # a finite value or QuadratureNotConverged, and no warning on the way
    p = FlightParams(c=5.0, lam=lam)
    calls = [lambda: integrate_ac_density(t, p)] + [
        lambda ratio=ratio: integrate_ac_density_ball(ratio * p.c * t, t, p)
        for ratio in (0.2, 0.999999)
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            try:
                assert math.isfinite(call())
            except QuadratureNotConverged:
                pass


@pytest.mark.parametrize("t", [0.0, -0.1, math.nan, math.inf])
@pytest.mark.parametrize("integrate", [
    lambda t: integrate_ac_density(t, P),
    lambda t: integrate_ac_density_ball(0.1, t, P),
], ids=["whole_ball", "subball"])
def test_time_outside_domain_is_domain_error(integrate, t):
    # raised before any quadrature: no ZeroDivisionError, nan, or a value at t <= 0
    with pytest.raises(DomainError, match="t must be finite and > 0") as info:
        integrate(t)
    assert not isinstance(info.value, RadiusOutsideBall)


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
        # check_radius admits r = 0, where the series reads 0
        assert integrate_ac_density_ball(0.0, 0.1, P) == ball_prob_asymptotic(0.0, 0.1, P) == 0.0


class TestQuad:
    def test_quadrature_not_converged(self):
        f = lambda x: np.where(x < math.pi / 10.0, 1.0, 0.0)
        with pytest.raises(QuadratureNotConverged):
            _quad(f, 0.0, 1.0, 1e-15)

    def test_sine_and_cosine_integrals_against_mpmath(self):
        # the suite's si/neg_cin reference rows, at their 80 points
        for x in np.linspace(0.1, 40.0, 80):
            x = float(x)
            si = _quad(lambda u: np.sin(u) / u, 0.0, x, 1e-11)
            cin = _quad(lambda u: (np.cos(u) - 1.0) / u, 0.0, x, 1e-11)
            assert abs(si - float(mpmath.si(x))) <= 1e-13, x
            assert abs(cin - float(mpmath.ci(x) - mpmath.euler - mpmath.log(x))) <= 1e-13, x


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

    @pytest.mark.parametrize("lam", [1e-2, 1e-9])
    def test_full_suite_passes_at_small_lambda_t(self, lam):
        # a mixture row once failed a correct sampler here on its plug-in
        # variance, and at 1e-9 a forced third chi-square bucket expected 0 paths
        cfg = McConfig(samples=10**5, seed=DEFAULT_SEED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = run_suite(FlightParams(c=5.0, lam=lam), 0.1, cfg)
        assert [r.name for r in reports] == FULL_NAMES
        assert [r.name for r in reports if not r.passed] == []
        assert all(math.isfinite(r.lhs) for r in reports)

    @pytest.mark.parametrize("c", [100.0, 1e160, 1e308])
    def test_full_suite_passes_at_large_c(self, c):
        # a fixed ||alpha|| ran the asymptotic rows' H_2 series to x = 40 at c = 100, at
        # c = 1e160 the squared positions overflowed and failed the unconditional pass, and
        # at 1e308 ct over a path's sum of exponentials overflowed
        cfg = McConfig(samples=10**5, seed=DEFAULT_SEED)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reports = run_suite(FlightParams(c=c, lam=2.0), 0.1, cfg)
        assert [r.name for r in reports] == FULL_NAMES
        assert [r.name for r in reports if not r.passed] == []

    def test_draws_do_not_grow_with_lambda_t(self, monkeypatch):
        # a weight-sized stream for each n from 4 to 46 was once drawn at lam t = 20;
        # every pass, the X_3 ones too, draws its paths through _draw
        drawn = []  # the sizes asked for; list.append is atomic across the chunk threads
        draw = montecarlo._draw
        monkeypatch.setattr(montecarlo, "_draw", lambda t, p, size, *rest: (
            drawn.append(size) or draw(t, p, size, *rest)
        ))
        cfg = McConfig(samples=10**4, seed=DEFAULT_SEED)
        totals = []
        for p, t in ((FlightParams(c=5.0, lam=2.0), 0.1), (FlightParams(c=5.0, lam=20.0), 1.0)):
            drawn.clear()
            reports = run_suite(p, t, cfg)
            assert all(math.isfinite(r.lhs) for r in reports), p
            totals.append(sum(drawn))
        assert totals[0] == totals[1] == 4 * cfg.samples

    def test_largest_seed_runs_every_row(self):
        # the conditional streams are keyed seed + n, which wraps modulo 2^64
        reports = run_suite(cfg=McConfig(samples=10**4, seed=2**64 - 1))
        assert [r.name for r in reports] == FULL_NAMES
        assert all(math.isfinite(r.lhs) for r in reports)

    def test_numpy_seed_gives_the_int_seeds_reports(self):
        # McConfig admits numpy integers; np.uint64(2**64 - 1) + 3 overflows with a
        # RuntimeWarning, so the conditional streams' keys are summed as Python integers
        seed = 2**64 - 1
        reports = run_suite(cfg=McConfig(samples=10**4, seed=np.uint64(seed)))
        assert reports == run_suite(cfg=McConfig(samples=10**4, seed=seed))

    def test_raising_rows_fail_every_name(self, monkeypatch):
        # each row that raises, or reads a pass that raises, reports all of
        # its names as failed, so the suite's total never shrinks
        def boom(*args, **kwargs):
            raise RuntimeError("injected")

        monkeypatch.setattr(specfun, "si", boom)
        monkeypatch.setattr(montecarlo, "sample_positions", boom)
        reports = run_suite(cfg=McConfig(samples=10**4, seed=20260814))
        assert [r.name for r in reports] == FULL_NAMES
        failed = {r.name: r for r in reports if not r.passed}
        for name in (
            "si_against_reference",
            "neg_cin_against_reference",
            "mc_uncond_cf_t0.1",
            "mc_atom_fraction_t0.1",
            "mc_ball_prob_t0.1",
            "mc_support_t0.1",
            "mc_switch_chisquare_t0.1",
            "mc_mean_position_t0.1",
        ):
            assert name in failed
            assert math.isnan(failed[name].lhs)
            assert failed[name].detail == "RuntimeError: injected"

    def test_too_few_samples_raises_before_any_row(self, monkeypatch):
        monkeypatch.setattr(validate, "_run", None)  # the floor comes before any row
        with pytest.raises(DomainError):
            run_suite(cfg=McConfig(samples=montecarlo._MIN_CF_SAMPLES - 1, seed=1))

    @pytest.mark.parametrize("t", [0.0, -0.1, math.nan, math.inf])
    def test_bad_times_raise_before_any_row(self, monkeypatch, t):
        monkeypatch.setattr(validate, "_run", None)
        with pytest.raises(DomainError):
            run_suite(t=t)

    def test_overflowing_ct_raises_before_any_row(self, monkeypatch):
        # at c t = 1e309 ball_limit_gtilde_t10 compared a point at r = 1.8e308
        monkeypatch.setattr(validate, "_run", None)
        with pytest.raises(DomainError, match="ct must be finite"):
            run_suite(FlightParams(c=1e308, lam=2.0), 10.0, quick=True)

    def test_quadrature_rows_at_large_lambda_t(self):
        # at lam t = 20 the bare const bracket was 1333; an absolute quadrature
        # tol of 1e-11 there raised on an estimate of 1.5e-11
        reports = run_suite(FlightParams(c=5.0, lam=20.0), 1.0, quick=True)
        quad = [r for r in reports if r.name.startswith(("shape_mass_", "est_", "ball_series_"))]
        assert len(quad) == 8
        assert [r.name for r in quad if not r.passed] == []

    def test_shape_rows_catch_a_scaled_const_shape(self, monkeypatch):
        # at lam t = 1e-3 the const bracket is 1.7e-10: the per-t rows compared it
        # with (lam t)^3/6 under an absolute 1e-10, and all 31 rows passed; the density
        # row reads the shapes too, and ac_density no longer matches them
        f, upper = validate._SHAPES["const"]
        monkeypatch.setitem(validate._SHAPES, "const", (lambda x: 1.5 * f(x), upper))
        reports = run_suite(FlightParams(c=5.0, lam=1e-2), quick=True)
        assert [r.name for r in reports if not r.passed] == [
            "shape_mass_const", "density_vs_shapes_t0.1",
        ]

    def test_ball_rows_catch_a_one_percent_error_in_p2(self, monkeypatch):
        # ball_prob_asymptotic reading P_2 1% high: at lam t = 1e-3 the r0.8 and r0.95
        # gaps are 1.4e-9 and 3.0e-9, which a flat tol of 1e-6 passed
        weights, ball = density.switch_weights, density.ball_prob_asymptotic

        def skewed(t, p):
            w0, w1, w2, w3, tail = weights(t, p)
            return w0, w1, 1.01 * w2, w3, tail

        def skewed_ball(r, t, p):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(density, "switch_weights", skewed)
                return ball(r, t, p)

        monkeypatch.setattr(density, "ball_prob_asymptotic", skewed_ball)
        reports = run_suite(FlightParams(c=5.0, lam=1e-2), quick=True)
        assert [r.name for r in reports if not r.passed] == [
            "ball_series_vs_quadrature_t0.1_r0.8", "ball_series_vs_quadrature_t0.1_r0.95",
        ]

    @pytest.mark.parametrize("lam,scales", [
        (2.0, (1.000001, 1.000001, 1.000001)),  # ac_density 1e-6 high
        (1e-2, (1.0, 1.001, 1.0)),  # its P_2 term 1e-3 high, at lam t = 1e-3
    ])
    def test_density_row_catches_a_skewed_density(self, monkeypatch, lam, scales):
        # the quadrature rows integrate _SHAPES, not ac_density: with ac_density at
        # 1.1 times its value every other row passed
        weights, ac = density.switch_weights, density.ac_density

        def skewed(t, p):
            w0, *ws, tail = weights(t, p)
            return w0, *(s * w for s, w in zip(scales, ws)), tail

        def skewed_ac(r, t, p):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(density, "switch_weights", skewed)
                return ac(r, t, p)

        monkeypatch.setattr(density, "ac_density", skewed_ac)
        reports = run_suite(FlightParams(c=5.0, lam=lam), quick=True)
        assert [r.name for r in reports if not r.passed] == ["density_vs_shapes_t0.1"]

    def test_asymptotic_rows_pass_at_large_lambda(self):
        # the bound on h_asymptotic's remainder scales with lam; a flat 5 t^3
        # failed all three rows at lam t = 10
        reports = run_suite(FlightParams(c=5.0, lam=10.0), 1.0, quick=True)
        assert [r.name for r in reports if not r.passed] == []

    def test_asymptotic_rows_catch_dropped_bessel_shapes(self, monkeypatch):
        # with L_2 = L_3 = 1 the remainder is twice the bound; 5 t^3 passed it
        monkeypatch.setattr(charfun, "_leads", lambda x: (1.0, 1.0))
        reports = run_suite(quick=True)
        asym = [r for r in reports if r.name.startswith("h_asym_vs_conditional_sum_")]
        assert len(asym) == 3
        assert not any(r.passed for r in asym)
        assert all(1.9 < r.lhs < 2.0 for r in asym), [r.lhs for r in asym]

    @pytest.mark.parametrize("name,scale", [
        ("h2_series", 1e-3), ("h3_series", 1e-3), ("h3_series", 1e-5),
    ])
    def test_asymptotic_rows_catch_a_scaled_series(self, monkeypatch, name, scale):
        # the remainder bound also decides what the deleted leading-term decay
        # rows checked; they passed h3_series scaled by 1 + 1e-5
        series = getattr(charfun, name)
        monkeypatch.setattr(charfun, name, lambda q, p: (1.0 + scale) * series(q, p))
        reports = run_suite(quick=True)
        asym = [r for r in reports if r.name.startswith("h_asym_vs_conditional_sum_")]
        assert len(asym) == 3
        assert not all(r.passed for r in asym), [r.lhs for r in asym]

    def test_remainder_bound_covers_the_remainder(self):
        for p in (FlightParams(1.0, 0.5), FlightParams(5.0, 10.0), FlightParams(20.0, 50.0)):
            for t in (0.4, 0.1, 0.01):
                weights = switch_weights(t, p)
                for alpha in (0.3, 1.0, 3.0):
                    q = charfun.FreqQuery(alpha_norm=alpha, t=t)
                    hs = (charfun.h0, charfun.h1, charfun.h2_series, charfun.h3_series)
                    exact = math.fsum(w * h(q, p) for w, h in zip(weights, hs))
                    gap = abs(charfun.h_asymptotic(q, p) - exact)
                    assert gap <= validate._remainder_bound(p, t, alpha), (p, t, alpha)

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


MC_CFG = McConfig(samples=10**5, seed=DEFAULT_SEED)


@pytest.fixture(scope="module")
def counted_suite():
    """run_suite at 1e5 samples, with the samples each batch sampler was asked for,
    and the paths drawn as X_3 alone under "x3"."""
    drawn = {"sample_positions": 0, "sample_positions_given_n": 0}
    originals = {name: getattr(montecarlo, name) for name in drawn}
    drawn["x3"] = 0
    endpoints = montecarlo._endpoints
    lock = threading.Lock()  # chunks are drawn on several threads

    def endpoints_counting(counts, t, p, rng, x3=False):
        if x3:
            with lock:
                drawn["x3"] += len(counts)
        return endpoints(counts, t, p, rng, x3)

    def counting(name):
        def sampler(*args):
            with lock:
                drawn[name] += args[-2]  # size comes just before the generator
            return originals[name](*args)

        return sampler

    with pytest.MonkeyPatch.context() as mp:
        for name in originals:
            mp.setattr(montecarlo, name, counting(name))
        mp.setattr(montecarlo, "_endpoints", endpoints_counting)
        reports = run_suite(cfg=MC_CFG)
    return {r.name: r for r in reports}, drawn


class TestSinglePass:
    def test_each_stream_is_drawn_once(self, counted_suite):
        # one unconditional pass and one X_3 pass per switch count n = 1..3
        _, drawn = counted_suite
        assert drawn == {
            "sample_positions": 10**5, "sample_positions_given_n": 0, "x3": 3 * 10**5,
        }

    def test_rows_equal_the_public_estimators(self, counted_suite):
        reports, _ = counted_suite
        t = 0.1
        assert reports["mc_uncond_cf_t0.1"].lhs == estimate_cf(2.0, t, P, MC_CFG).mean
        assert reports["mc_ball_prob_t0.1"].lhs == (
            estimate_ball_prob(0.5 * P.c * t, t, P, MC_CFG).mean
        )
        assert reports["mc_atom_fraction_t0.1"].lhs == (
            radial_histogram(t, P, MC_CFG, bins=40).atom_fraction
        )
        cond_cfg = McConfig(samples=MC_CFG.samples, seed=MC_CFG.seed + 2)
        assert reports["mc_conditional_cf_n2_x1"].lhs == (
            estimate_cf(1.0 / (P.c * t), t, P, cond_cfg, condition=2).mean
        )


def test_unconditional_pass_takes_each_radius_once(monkeypatch):
    # mc_atom_fraction, mc_ball_prob and mc_support once took _radii three times a
    # chunk, and the atom count came from a 20-bin histogram
    calls = []  # list.append is atomic across the chunk threads
    radii = montecarlo._radii
    monkeypatch.setattr(montecarlo, "_radii", lambda *args: calls.append(1) or radii(*args))
    monkeypatch.setattr(np, "histogram", None)
    rows = validate._mc_rows(P, 0.1, MC_CFG)
    assert len(rows) == 3 * 5 + 5  # the X_3 passes' rows, then the unconditional pass's
    reports = validate._run(rows[15:])
    assert [r.name for r in reports] == FULL_NAMES[-6:]
    assert all(r.passed for r in reports), [r.detail for r in reports]
    assert len(calls) == -(-MC_CFG.samples // montecarlo._CHUNK)


def test_csv_bytes_equal_on_one_and_three_workers(cpus):
    # what CI checks by running the suite on every core and under taskset -c 0
    csvs = []
    for k in (1, 3):
        cpus(k)
        csvs.append(reports_to_csv(run_suite(cfg=MC_CFG)))
    assert csvs[0] == csvs[1]


def test_position_sums_equal_sum_over_axis_0():
    # the mean-position row's per-chunk sums add rows in turn, as sum(axis=0) does, and
    # einsum("ij,ij->j", pos, pos) adds the rounded products so, with no fused multiply-add
    rng = np.random.default_rng(29)
    for size in [*range(1, 201), 4095, 4096, 4097, 16960, 65536]:
        pos = rng.standard_normal((size, 3)) * 10.0 ** rng.integers(-8, 8, (size, 3))
        assert np.array_equal(np.einsum("ij->j", pos), pos.sum(axis=0)), size
        assert np.array_equal(np.einsum("ij,ij->j", pos, pos), (pos * pos).sum(axis=0)), size


def _unconditional_table(p: FlightParams) -> list:
    """The unconditional pass's (names, statistic, finisher) entries at t = 0.1."""
    tables = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(validate, "_pass", lambda t, p, cfg, table, **kw: tables.append(table) or [])
        validate._mc_rows(p, 0.1, MC_CFG)
    return tables[-1]


@pytest.mark.parametrize("c", [5.0, 1e160, 0.3], ids=["e0", "e529", "e-5"])
def test_moment_sums_equal_those_of_a_squared_copy(c):
    # the statistic sums squares with no (m, 3) copy, bit for bit the sums of pos * pos;
    # at c t = 0.5 it reads the chunk itself (e = 0), elsewhere a copy in units of 2^e
    p = FlightParams(c, 2.0)
    [stat] = [f for names, f, _ in _unconditional_table(p) if names == "mc_mean_position_t0.1"]
    pos, ns = montecarlo.sample_positions(0.1, p, 1 << 16, montecarlo.substream(DEFAULT_SEED, 91))
    e = math.frexp(p.c * 0.1)[1]
    scaled = np.ldexp(pos, -e)
    want = np.stack([np.einsum("ij->j", scaled), np.einsum("ij->j", scaled * scaled)])
    assert np.array_equal(stat(pos, ns).view(np.uint64), want.view(np.uint64))


def test_unconditional_statistics_peak_memory():
    # the five statistics on one live 65,536-path chunk: 1.50 MiB with a squared copy for the
    # moments and the CF sums out of place, 1.00 here (the radii's two columns, or the CF's)
    table = _unconditional_table(P)
    pos, ns = montecarlo.sample_positions(0.1, P, 1 << 16, montecarlo.substream(DEFAULT_SEED, 92))

    def statistics():
        return [stat(pos, ns) for _, stat, _ in table]

    statistics()  # numpy's first-call caches
    tracemalloc.start()
    try:
        statistics()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * 2**20


def test_shape_and_h_rows_at_tiny_and_huge_ct():
    # c = 1/t overflowed below t = 5.6e-309, and ||alpha|| = x/(ct) at tiny ct; where ct
    # overflowed ||alpha|| was 0, and max|H| read 1 from H(0) alone.  A ct that overflows
    # is now refused before any row, so the huge case takes ct = 1.7e308, near the float limit
    tiny = {r.name: r for r in run_suite(t=1e-310, quick=True)}
    assert tiny["density_vs_shapes_t1e-310"].passed
    huge = {r.name: r for r in run_suite(FlightParams(1e308, 2.0), 1.7, quick=True)}
    default = {r.name: r for r in run_suite(quick=True)}
    assert tiny["h_bound_grid"] == huge["h_bound_grid"] == default["h_bound_grid"]
    assert default["h_bound_grid"].detail == "max|H|=0.997336"


class TestStatisticsMatchScipyStats:
    """The suite's Poisson and chi-square arithmetic, against scipy.stats and mpmath."""

    SUITE_CFG = McConfig(samples=10**6, seed=DEFAULT_SEED)

    @pytest.mark.parametrize("mu", [0.2, 3.0, 20.0, 700.0])
    def test_poisson_pmf_against_mpmath(self, mu):
        # math.lgamma is not scipy's gammaln, so the pmf is no longer scipy's bit for bit;
        # this measures 8.6e-14, and scipy.stats itself needs 1.05e-13 at mu = 700
        got = validate._poisson_pmf(np.arange(64), mu)
        with mpmath.workdps(50):
            m = mpmath.mpf(mu)
            for k in range(64):
                ref = mpmath.exp(-m) * m**k / mpmath.factorial(k)
                assert abs(got[k] - ref) <= 1.5e-13 * ref, k

    def test_poisson_pmf_at_zero_mean(self):
        # xlogy's rule 0 log 0 = 0; np.log(0) would warn and math.log(0) raise
        assert validate._poisson_pmf(np.arange(4), 0.0).tolist() == [1.0, 0.0, 0.0, 0.0]

    def test_chisquare_on_the_suite_counts(self, monkeypatch):
        chisquare = validate._chisquare
        seen = []

        def recording(observed, expected):
            seen.append((observed, expected))
            return chisquare(observed, expected)

        monkeypatch.setattr(validate, "_chisquare", recording)
        rows = validate._mc_rows(P, 0.1, self.SUITE_CFG)
        dict(rows)["mc_switch_chisquare_t0.1"]()
        [(observed, expected)] = seen
        assert len(observed) >= 3
        stat, pvalue = chisquare(observed, expected)
        assert stat == stats.chisquare(observed, expected).statistic
        with mpmath.workdps(50):
            ref = mpmath.gammainc((len(observed) - 1) / mpmath.mpf(2), mpmath.mpf(stat) / 2,
                                  regularized=True)
            assert abs(pvalue - ref) <= 1e-14 * ref

    @pytest.mark.parametrize("df", range(1, 64))
    def test_chisquare_tail_against_mpmath(self, df):
        # the worst is 3.9e-14 at df = 1, y = 350: erfc(sqrt y) carries the rounding of
        # sqrt y times 2y; scipy's chdtrc is off by up to 1.1e-13 on the same grid
        expected = np.ones(df + 1)
        for target in (0.0, 1e-10, 0.5, 2.0, 10.0, 63.0, 300.0, 700.0, 1e4, 1e6):
            observed = expected.copy()
            observed[0] += math.sqrt(target)
            stat, pvalue = validate._chisquare(observed, expected)
            with mpmath.workdps(50):
                ref = mpmath.gammainc(mpmath.mpf(df) / 2, mpmath.mpf(stat) / 2, regularized=True)
                # a NaN fails the comparison; below the normal floats only absolutely
                assert abs(pvalue - ref) <= 5e-14 * ref + 2.0**-1022, (df, target)
