"""Quadrature engine and the cross-check suite tying each formula to an oracle.

Checks never compare a formula to itself through a shared code path: series
implementations are paired with Monte Carlo, densities with quadrature, and
closed forms with independent library routines.  Each check yields a
CheckReport whose pass flag is exactly |lhs - rhs| <= tolerance; one-sided
bounds are encoded with lhs = shortfall and rhs = 0.

The suite is one table of rows (names, thunk), run in order by one loop.  A
thunk returns (lhs, rhs, tolerance[, detail]) for its one name, or one such
tuple per name when a row carries several; a row that raises fails every one
of its names.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special, stats

from . import arctan_series, charfun, density, montecarlo, specfun
from .errors import DomainError, QuadratureNotConverged, RadiusOutsideBall
from .model import FlightParams, McConfig, SeriesTruncation

__all__ = [
    "CheckReport",
    "integrate_ac_density",
    "integrate_ac_density_ball",
    "run_suite",
    "report_lines",
    "reports_to_csv",
    "DEFAULT_SEED",
]

DEFAULT_SEED = 20260814


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __post_init__(self):
        want = (
            math.isfinite(self.lhs)
            and math.isfinite(self.rhs)
            and abs(self.lhs - self.rhs) <= self.tolerance
        )
        if self.passed != want:
            raise DomainError(
                f"CheckReport {self.name}: passed flag inconsistent with values"
            )


def _report(name: str, lhs: float, rhs: float, tolerance: float, detail: str = "") -> CheckReport:
    lhs = float(lhs)
    rhs = float(rhs)
    passed = math.isfinite(lhs) and math.isfinite(rhs) and abs(lhs - rhs) <= tolerance
    return CheckReport(name, lhs, rhs, float(tolerance), passed, detail)


def _bound(shortfall: float, detail: str = "") -> tuple:
    # one-sided check: passes iff the measured shortfall is zero
    return max(0.0, shortfall), 0.0, 0.0, detail


def report_lines(reports) -> list:
    out = []
    for r in reports:
        tag = "PASS" if r.passed else "FAIL"
        line = f"{tag} {r.name}: lhs={r.lhs:.12g} rhs={r.rhs:.12g} tol={r.tolerance:.3g}"
        if r.detail:
            line += f" ({r.detail})"
        out.append(line)
    return out


def reports_to_csv(reports) -> str:
    rows = ["name,lhs,rhs,tolerance,passed"]
    for r in reports:
        rows.append(
            f"{r.name},{r.lhs:.17g},{r.rhs:.17g},{r.tolerance:.17g},{str(r.passed).lower()}"
        )
    return "\n".join(rows) + "\n"


# ---------------------------------------------------------------------------
# quadrature


def _quad(f, a: float, b: float, tol: float) -> float:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        val, err = integrate.quad(
            f, a, b, limit=400, epsabs=min(tol / 4.0, 1e-10), epsrel=1e-12
        )
    if err > tol:
        raise QuadratureNotConverged(
            f"quadrature error estimate {err:.3g} exceeds tol {tol:.3g}"
        )
    return val


def _log_term_integrand(p: FlightParams, t: float):
    ct = p.c * t

    def f(r: float) -> float:
        if r <= 0.0:
            return 0.0
        return p.lam * r * math.log((ct + r) / (ct - r)) / (p.c * p.c * t)

    return f


def _sqrt_term_integrand(p: FlightParams, t: float):
    # after r = ct sin(theta) the inverse-square-root factor cancels exactly
    lt = p.lam * t

    def f(theta: float) -> float:
        s = math.sin(theta)
        return 2.0 * lt * lt / math.pi * s * s

    return f


def _const_term_integrand(p: FlightParams):
    def f(r: float) -> float:
        return p.lam**3 * r * r / (2.0 * p.c**3)

    return f


def integrate_ac_density(t: float, p: FlightParams, tol: float = 1e-8, term=None) -> float:
    """Radial integral of the a.c. density approximation over the whole ball.

    With term=None returns the full integral of 4 pi r^2 ac_density(r), which
    equals g_tilde(t) up to quadrature error.  With term in {"log", "sqrt",
    "const"} returns the bare integral of that single bracket term (no
    exponential prefactor), whose exact values are lam t, (lam t)^2/2 and
    (lam t)^3/6 respectively.
    """
    if tol <= 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    ct = p.c * t
    pieces = {
        "log": lambda: _quad(_log_term_integrand(p, t), 0.0, ct, tol),
        "sqrt": lambda: _quad(_sqrt_term_integrand(p, t), 0.0, math.pi / 2.0, tol),
        "const": lambda: _quad(_const_term_integrand(p), 0.0, ct, tol),
    }
    if term is not None:
        if term not in pieces:
            raise DomainError(f"term must be one of {sorted(pieces)}, got {term!r}")
        return pieces[term]()
    total = sum(fn() for fn in pieces.values())
    return math.exp(-p.lam * t) * total


def integrate_ac_density_ball(r: float, t: float, p: FlightParams, tol: float = 1e-8) -> float:
    """Radial integral of 4 pi rho^2 ac_density(rho) over [0, r], r < ct."""
    if tol <= 0:
        raise DomainError(f"tol must be > 0, got {tol}")
    ct = p.c * t
    if r <= 0:
        raise DomainError(f"r must be > 0, got {r}")
    if r >= ct:
        raise RadiusOutsideBall(f"r={r} must be < ct={ct}")
    part_log = _quad(_log_term_integrand(p, t), 0.0, r, tol)
    part_sqrt = _quad(_sqrt_term_integrand(p, t), 0.0, math.asin(r / ct), tol)
    part_const = _quad(_const_term_integrand(p), 0.0, r, tol)
    return math.exp(-p.lam * t) * (part_log + part_sqrt + part_const)


# ---------------------------------------------------------------------------
# the static rows: series, closed forms and densities against their oracles


def _arctan_grid(n: int) -> tuple:
    zs = np.arange(-30, 31) / 10.0
    worst = max(abs(arctan_series.arctan_pow(n, z) - math.atan(z) ** n) for z in zs)
    return worst, 0.0, 1e-10


def _gamma_sum() -> tuple:
    worst = 0.0
    for n in range(21):
        for a in (0.5, 1.0, 2.0, 3.5):
            lhs, rhs = arctan_series.gamma_sum_identity(n, a)
            worst = max(worst, abs(lhs - rhs) / abs(rhs))
    return worst, 0.0, 1e-11


def _coefficient_sum() -> tuple:
    # sum_k Gamma(k+1/2)/(k!(2k+1)) = pi^(3/2)/2; the terms decay like
    # k^(-3/2) so the partial-sum error at K terms is about K^(-1/2)
    K = 10_000
    partial = sum(
        math.exp(specfun.log_gamma(k + 0.5) - specfun.log_gamma(k + 1.0)) / (2 * k + 1)
        for k in range(K)
    )
    return (
        partial, math.pi**1.5 / 2.0, 1.1 / math.sqrt(K),
        "algebraic tail, error ~ 1/sqrt(terms)",
    )


def _bessel_forms() -> tuple:
    worst = 0.0
    for x in np.linspace(0.05, 50.0, 120):
        x = float(x)
        worst = max(
            worst,
            abs(specfun.bessel_j(specfun.Order.half(0), x) - special.jv(0.5, x)),
            abs(specfun.bessel_j(specfun.Order.half(1), x) - special.jv(1.5, x)),
        )
    return worst, 0.0, 1e-12


def _si_cin_reference() -> list:
    worst_si = worst_cin = 0.0
    for x in np.linspace(0.1, 40.0, 80):
        x = float(x)
        s_ref, c_ref = special.sici(x)
        worst_si = max(worst_si, abs(specfun.si(x) - s_ref))
        cin_ref = c_ref - math.log(x) - np.euler_gamma
        worst_cin = max(worst_cin, abs(specfun.neg_cin(x) - cin_ref))
    return [(worst_si, 0.0, 1e-10), (worst_cin, 0.0, 1e-10)]


def _static_rows_at(p: FlightParams, t: float) -> list:
    lt = p.lam * t

    def ball_limit():
        val = density.ball_prob_asymptotic(
            np.nextafter(p.c * t, 0.0), t, p, SeriesTruncation(10_000, 0.0)
        )
        return val, density.g_tilde(t, p), 1e-8

    def monotone():
        prof = density.radial_profile(t, p, 500, p.c * t * (1.0 - 1.0 / 500))
        return _bound(-float(np.min(np.diff(prof.values))))

    rows = [
        (f"est_log_term_t{t:g}",
         lambda: (integrate_ac_density(t, p, 1e-9, term="log"), lt, 1e-8)),
        (f"est_sqrt_term_t{t:g}",
         lambda: (integrate_ac_density(t, p, 1e-9, term="sqrt"), lt * lt / 2.0, 1e-8)),
        (f"est_const_term_t{t:g}",
         lambda: (integrate_ac_density(t, p, 1e-11, term="const"), lt**3 / 6.0, 1e-10)),
        (f"est_full_vs_gtilde_t{t:g}",
         lambda: (integrate_ac_density(t, p), density.g_tilde(t, p), 1e-6)),
    ]
    for ratio in (0.2, 0.5, 0.8, 0.95):
        rows.append((
            f"ball_series_vs_quadrature_t{t:g}_r{ratio:g}",
            lambda r=ratio * p.c * t: (
                density.ball_prob_asymptotic(r, t, p), integrate_ac_density_ball(r, t, p), 1e-6
            ),
        ))
    return rows + [
        (f"ball_limit_gtilde_t{t:g}", ball_limit),
        (f"gap_identity_t{t:g}", lambda: (
            density.switch_tail_error(t, p),
            density.g_exact(t, p) - density.g_tilde(t, p),
            1e-15,
        )),
        (f"density_origin_continuity_t{t:g}", lambda: (
            density.ac_density(1e-6 * p.c * t, t, p), density.ac_density(0.0, t, p), 1e-10
        )),
        (f"profile_monotone_t{t:g}", monotone),
    ]


def _h_bound(p: FlightParams, t: float) -> tuple:
    worst = 0.0
    for x in np.linspace(0.2, 20.0, 100):
        q = charfun.FreqQuery(alpha_norm=float(x) / (p.c * t), t=t)
        vals = (
            charfun.h0(q, p),
            charfun.h1(q, p),
            charfun.h2_series(q, p),
            charfun.h3_series(q, p),
        )
        worst = max(worst, max(abs(v) for v in vals))
    return _bound(worst - 1.0 - 1e-12, detail=f"max|H|={worst:.6f}")


def _decay(p: FlightParams, power: int) -> tuple:
    # the (lam t)^k/k! H_k term collapses onto its leading Bessel term as
    # t -> 0 at fixed frequency; the gap over t^3 must itself shrink
    alpha = 2.0
    ratios = []
    for t in (0.1, 0.05, 0.025, 0.0125):
        q = charfun.FreqQuery(alpha_norm=alpha, t=t)
        x = p.c * t * alpha
        lt = p.lam * t
        if power == 2:
            exact = lt * lt / 2.0 * charfun.h2_series(q, p)
            lead = lt * lt * specfun.bessel_j(specfun.Order.integer(1), x) / x
            ratios.append(abs(exact - lead) / t**3)
        else:
            exact = lt**3 / 6.0 * charfun.h3_series(q, p)
            lead = lt**3 * math.sqrt(math.pi) / (2.0 * x) ** 1.5 * specfun.bessel_j(
                specfun.Order.half(1), x
            )
            ratios.append(abs(exact - lead) / t**4)
    return (
        ratios[-1] / ratios[0], 0.0, 0.2,
        f"normalized gaps {['%.3g' % r for r in ratios]}",
    )


def _asym_vs_sum(p: FlightParams, t: float) -> tuple:
    worst = 0.0
    for alpha in (0.3, 0.5, 1.0, 2.0, 3.0):
        q = charfun.FreqQuery(alpha_norm=alpha, t=t)
        lt = p.lam * t
        exact = math.exp(-lt) * (
            charfun.h0(q, p)
            + lt * charfun.h1(q, p)
            + lt * lt / 2.0 * charfun.h2_series(q, p)
            + lt**3 / 6.0 * charfun.h3_series(q, p)
        )
        worst = max(worst, abs(charfun.h_asymptotic(q, p) - exact))
    return worst, 0.0, 5.0 * t**3


def _static_rows(p: FlightParams, t_list) -> list:
    rows = [(f"arctan_pow_grid_n{n}", lambda n=n: _arctan_grid(n)) for n in (1, 2, 3, 4)]
    rows += [
        ("gamma_sum_identity_grid", _gamma_sum),
        ("arctan_coefficient_sum", _coefficient_sum),
        ("hyp5f4_at_1", lambda: (specfun.hyp5f4_unit(1), 3.0, 1e-12)),
        ("quartic_gamma_0", lambda: (arctan_series.quartic_gamma(0), 2.0 / math.pi, 1e-14)),
        ("bessel_half_order_forms", _bessel_forms),
        (("si_against_reference", "neg_cin_against_reference"), _si_cin_reference),
    ]
    for t in t_list:
        rows += _static_rows_at(p, t)
    rows.append(("h_bound_grid", lambda: _h_bound(p, t_list[0])))
    for lam_w, t_w in ((1.0, 0.7), (1.5, 0.5), (2.0, 0.4), (2.5, 0.3)):
        rows.append((f"window_endpoint_lam{lam_w:g}", lambda lam_w=lam_w, t_w=t_w: (
            density.switch_tail_error(t_w, FlightParams(p.c, lam_w)), 0.0, 0.01,
            f"G - Gtilde at t={t_w}",
        )))
    rows += [
        ("h2_leading_term_decay", lambda: _decay(p, 2)),
        ("h3_leading_term_decay", lambda: _decay(p, 3)),
    ]
    for t in (0.2, 0.1, 0.05):
        rows.append((f"h_asym_vs_conditional_sum_t{t:g}", lambda t=t: _asym_vs_sum(p, t)))
    return rows


# ---------------------------------------------------------------------------
# the Monte Carlo rows: every analytic object against simulation


def _per_chunk(t: float, p: FlightParams, cfg: McConfig, fn) -> list:
    """fn(positions, counts) of each chunk of the unconditional stream, in chunk order."""
    return montecarlo._map_chunks(
        cfg,
        lambda i, size: fn(
            *montecarlo.sample_positions(t, p, size, montecarlo.substream(cfg.seed, i))
        ),
        1,
    )


def _mc_rows_at(p: FlightParams, t: float, cfg: McConfig) -> list:
    lt = p.lam * t
    ct = p.c * t

    def uncond():
        alpha = 2.0
        est = montecarlo.estimate_cf(alpha, t, p, cfg, 1)
        q = charfun.FreqQuery(alpha_norm=alpha, t=t)
        return (
            est.real.mean, charfun.h_asymptotic(q, p),
            3.0 * est.real.std_error + 5.0 * t**3,
        )

    def atom():
        hist = montecarlo.radial_histogram(t, p, cfg, bins=40, workers=1)
        target = math.exp(-lt)
        se = math.sqrt(target * (1.0 - target) / cfg.samples)
        partition_gap = abs(float(np.sum(hist.masses)) + hist.atom_fraction - 1.0)
        return (
            hist.atom_fraction, target, 3.0 * se,
            f"histogram partition gap {partition_gap:.2e}",
        )

    def ball():
        r = 0.5 * p.c * t
        est = montecarlo.estimate_ball_prob(r, t, p, cfg, 1)
        return (
            est.mean, density.ball_prob_asymptotic(r, t, p),
            3.0 * est.std_error + 5.0 * t**3,
        )

    def support():
        worst = max(_per_chunk(
            t, p, cfg, lambda pos, _: float(np.linalg.norm(pos, axis=1).max()) / ct
        ))
        return _bound(worst - 1.0 - 1e-12, detail=f"max ||X||/ct = {worst:.15f}")

    def chisq():
        width = 64

        def lumped(_, ns):
            bc = np.bincount(ns, minlength=width)
            return np.append(bc[: width - 1], bc[width - 1 :].sum())

        counts = np.sum(_per_chunk(t, p, cfg, lumped), axis=0)
        pmf = stats.poisson.pmf(np.arange(width), lt)
        # lump the tail so the tail bucket's expected count stays >= 5
        tail_small = np.flatnonzero(cfg.samples * (1.0 - np.cumsum(pmf)) < 5.0)
        k_hi = int(tail_small[0]) if tail_small.size else width - 1
        k_hi = max(k_hi, 2)
        observed = np.append(counts[:k_hi], counts[k_hi:].sum())
        expected = np.append(
            pmf[:k_hi] * cfg.samples,
            cfg.samples * (1.0 - pmf[:k_hi].sum()),
        )
        stat, pval = stats.chisquare(observed, expected)
        return _bound(0.01 - pval, detail=f"chi2={stat:.3f} p={pval:.4f} bins={k_hi + 1}")

    def mean_pos():
        # per-chunk sums are added in chunk order, starting from zero
        sums, sumsq = sum(
            _per_chunk(t, p, cfg, lambda pos, _: np.stack(
                [pos.sum(axis=0), (pos * pos).sum(axis=0)]
            )),
            np.zeros((2, 3)),
        )
        n = cfg.samples
        means = sums / n
        ses = np.sqrt((sumsq - sums * sums / n) / (n - 1) / n)
        return _bound(float(np.max(np.abs(means) - 3.0 * ses)))

    return [
        (f"mc_uncond_cf_t{t:g}", uncond),
        (f"mc_atom_fraction_t{t:g}", atom),
        (f"mc_ball_prob_t{t:g}", ball),
        (f"mc_support_t{t:g}", support),
        (f"mc_switch_chisquare_t{t:g}", chisq),
        (f"mc_mean_position_t{t:g}", mean_pos),
    ]


def _mixture(p: FlightParams, t0: float, cfg: McConfig) -> tuple:
    # mixing the conditional samplers over Poisson weights must reproduce
    # the unconditional radial histogram bin by bin
    bins = 20
    lt = p.lam * t0
    unc = montecarlo.radial_histogram(t0, p, cfg, bins=bins, workers=1)
    pmf = stats.poisson.pmf(np.arange(32), lt)
    n_hi = int(np.searchsorted(np.cumsum(pmf), 1.0 - 1e-6)) + 1
    mix = np.zeros(bins)
    var_mix = np.zeros(bins)
    for n in range(1, n_hi + 1):
        cond_cfg = McConfig(samples=cfg.samples, seed=cfg.seed + n, chunk=cfg.chunk)
        cond = montecarlo.radial_histogram(
            t0, p, cond_cfg, bins=bins, condition=n, workers=1
        )
        mix += pmf[n] * cond.masses
        var_mix += (pmf[n] ** 2) * cond.masses * (1.0 - cond.masses) / cfg.samples
    se_unc = np.sqrt(unc.masses * (1.0 - unc.masses) / cfg.samples)
    tol_bins = 3.0 * np.sqrt(se_unc**2 + var_mix) + pmf[n_hi + 1 :].sum() + 1e-12
    return _bound(float(np.max(np.abs(unc.masses - mix) - tol_bins)))


def _directions(cfg: McConfig) -> list:
    rng = montecarlo.substream(cfg.seed, 999_983)
    n = 10**6
    v = montecarlo._unit_vectors(rng, n)
    worst_mean = float(np.max(np.abs(v.mean(axis=0))))
    ks = stats.kstest(v[:, 2], "uniform", args=(-1.0, 2.0))
    return [
        (worst_mean, 0.0, 4.0 / math.sqrt(n)),
        _bound(0.01 - ks.pvalue, detail=f"KS p={ks.pvalue:.4f}"),
    ]


def _determinism(p: FlightParams, t0: float, cfg: McConfig) -> list:
    small = McConfig(samples=10**5, seed=cfg.seed, chunk=cfg.chunk)
    a = montecarlo.estimate_cf(2.0, t0, p, small, workers=1)
    b = montecarlo.estimate_cf(2.0, t0, p, small, workers=1)
    c = montecarlo.estimate_cf(2.0, t0, p, small, workers=3)
    return [
        (abs(a.real.mean - b.real.mean), 0.0, 0.0),
        (abs(a.real.mean - c.real.mean), 0.0, 0.0),
    ]


def _mc_rows(p: FlightParams, t_list, cfg: McConfig) -> list:
    t0 = t_list[0]
    worst_imag_ratio = 0.0  # over the conditional rows, read by the symmetry row

    def conditional(n, analytic, x):
        nonlocal worst_imag_ratio
        alpha = x / (p.c * t0)
        est = montecarlo.estimate_conditional_cf(n, alpha, t0, p, cfg, 1)
        if est.imag.std_error > 0:
            worst_imag_ratio = max(worst_imag_ratio, abs(est.imag.mean) / est.imag.std_error)
        q = charfun.FreqQuery(alpha_norm=alpha, t=t0)
        return est.real.mean, analytic(q, p), 3.0 * est.real.std_error

    rows = [
        (f"mc_conditional_cf_n{n}_x{x:g}", lambda n=n, h=h, x=x: conditional(n, h, x))
        for n, h in ((1, charfun.h1), (2, charfun.h2_series), (3, charfun.h3_series))
        for x in (0.3, 0.5, 1.0, 2.0, 3.0)
    ]
    rows.append(("mc_cf_imag_symmetry", lambda: _bound(
        worst_imag_ratio - 3.0, detail=f"worst |imag|/se = {worst_imag_ratio:.3f}"
    )))
    for t in t_list:
        rows += _mc_rows_at(p, t, cfg)
    return rows + [
        ("mc_mixture_coherence", lambda: _mixture(p, t0, cfg)),
        (("mc_direction_component_means", "mc_direction_ks_uniform"), lambda: _directions(cfg)),
        (("mc_determinism_rerun", "mc_worker_invariance"), lambda: _determinism(p, t0, cfg)),
    ]


def _run(rows) -> list:
    """Run the rows in order; a row that raises fails every name it carries."""
    reports = []
    for names, thunk in rows:
        single = isinstance(names, str)
        names = (names,) if single else names
        try:
            results = thunk()
            batch = [
                _report(name, *result)
                for name, result in zip(names, [results] if single else results, strict=True)
            ]
        except Exception as exc:  # failures are data, not crashes
            detail = f"{type(exc).__name__}: {exc}"
            batch = [CheckReport(name, math.nan, 0.0, 0.0, False, detail) for name in names]
        reports.extend(batch)
    return reports


def run_suite(p=None, t_list=None, cfg=None, quick: bool = False) -> list:
    """Execute every formula/oracle pairing and return the reports.

    quick=True restricts the run to the deterministic (non Monte Carlo)
    subset.  The full default suite uses 1e6 samples per estimate and a fixed
    seed, so it is deterministic as well.
    """
    if p is None:
        p = FlightParams(c=5.0, lam=2.0)
    if t_list is None:
        t_list = (0.1,)
    if cfg is None:
        cfg = McConfig(samples=10**6, seed=DEFAULT_SEED)
    rows = _static_rows(p, t_list)
    if not quick:
        rows += _mc_rows(p, t_list, cfg)
    return _run(rows)
