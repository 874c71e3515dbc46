"""Density quadrature and the cross-check suite tying each formula to an oracle.

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

import functools
import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from . import arctan_series, charfun, density, montecarlo, specfun
from .errors import DomainError, NonFinite
from .model import FlightParams, McConfig, check_radius, check_time, switch_weights

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
# radial bins on [0, ct] of the atom and mixture rows
_BINS = 20


def _passes(lhs: float, rhs: float, tolerance: float) -> bool:
    return math.isfinite(lhs) and math.isfinite(rhs) and abs(lhs - rhs) <= tolerance


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    passed: bool
    detail: str = ""

    def __post_init__(self):
        if self.passed != _passes(self.lhs, self.rhs, self.tolerance):
            raise DomainError(f"CheckReport {self.name}: passed flag inconsistent with values")


def _report(name: str, lhs: float, rhs: float, tolerance: float, detail: str = "") -> CheckReport:
    lhs, rhs, tolerance = float(lhs), float(rhs), float(tolerance)
    return CheckReport(name, lhs, rhs, tolerance, _passes(lhs, rhs, tolerance), detail)


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
# the density's radial integrals


def _poisson_pmf(k, mu: float) -> np.ndarray:
    """Poisson(mu) probabilities at the integers k, by scipy.stats.poisson's own formula."""
    return np.exp(special.xlogy(k, mu) - special.gammaln(k + 1) - mu)


def _integrate(lt: float, rho: float, tol: float, term=None) -> float:
    """Integral over [0, rho ct] of 4 pi s^2 ac_density(s), or with term in {"log",
    "sqrt", "const"} of that bracket alone (no exponential prefactor), to within
    tol.  In rho = s/ct bracket n is (lam t)^n/n! times a shape of mass 1 on [0, 1)."""
    if not 0.0 < tol < math.inf:
        raise DomainError(f"tol must be finite and > 0, got {tol}")
    # Gauss nodes are interior: none lands on rho = 0 or on the log's rho = 1;
    # after rho = sin(theta) the inverse-square-root factor cancels exactly
    spans = {
        "log": (lambda x: x * np.log((1.0 + x) / (1.0 - x)), 0.0, rho),
        "sqrt": (lambda theta: 4.0 / math.pi * np.sin(theta) ** 2, 0.0, math.asin(rho)),
        "const": (lambda x: 3.0 * x * x, 0.0, rho),
    }
    if term is not None:
        if term not in spans:
            raise DomainError(f"term must be one of {sorted(spans)}, got {term!r}")
        n = list(spans).index(term) + 1
        bare = math.prod([lt] * n) / math.factorial(n)
        if bare == math.inf:
            raise NonFinite(f"the {term} bracket overflows at lam t = {lt}")
        return bare * specfun._quad(*spans[term], tol / max(bare, 1.0))
    # P{N=n} <= 1, so each shape to within tol/3 puts the sum within tol; the
    # weights are 0.0 from lam t = 1e308 on, and at inf the pmf's inf - inf is nan
    weights = _poisson_pmf(np.arange(1, 4), min(lt, 1e308))
    return math.fsum(w * specfun._quad(*s, tol / 3.0) for w, s in zip(weights, spans.values()))


def integrate_ac_density(t: float, p: FlightParams, tol: float = 1e-8, term=None) -> float:
    """Radial integral of the a.c. density approximation over the whole ball.

    With term=None returns the full integral of 4 pi r^2 ac_density(r), which
    equals g_tilde(t) up to quadrature error.  With term in {"log", "sqrt",
    "const"} returns the bare integral of that single bracket term (no
    exponential prefactor), whose exact values are lam t, (lam t)^2/2 and
    (lam t)^3/6 respectively.  tol bounds the error of the value returned.
    """
    check_time(t)
    return _integrate(p.lam * t, 1.0, tol, term)  # asin(1.0) is pi/2 exactly


def integrate_ac_density_ball(r: float, t: float, p: FlightParams, tol: float = 1e-8) -> float:
    """Radial integral of 4 pi s^2 ac_density(s) over [0, r], 0 < r < ct."""
    check_time(t)
    check_radius(r, p.c * t)  # where c t overflows, ct exceeds every float
    if r == 0.0:
        raise DomainError(f"r must be > 0, got {r}")
    # rho = r/(c t) with the powers of two apart, so c t never overflows or underflows
    (mr, er), (mc, ec), (mt, et) = map(math.frexp, (r, p.c, t))
    return _integrate(p.lam * t, math.ldexp(mr / (mc * mt), er - ec - et), tol)


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
    # the n = 1 arctan coefficients sum to arctan(inf) = pi/2; they decay like
    # k^(-3/2)/sqrt(pi), so the partial-sum error at K terms is about 1/sqrt(pi K)
    K = 10_000
    partial = sum(arctan_series._coefficient(1, k) for k in range(K))
    tol = 1.1 / math.sqrt(math.pi * K)
    return partial, math.pi / 2.0, tol, "algebraic tail, error ~ 1/sqrt(terms)"


def _bessel_forms() -> tuple:
    xs = np.linspace(0.05, 50.0, 120).tolist()
    worst = max(abs(specfun.bessel_j(nu, x) - special.jv(nu, x)) for nu in (0.5, 1.5) for x in xs)
    return worst, 0.0, 1e-12


def _si_cin_reference() -> list:
    worst_si = worst_cin = 0.0
    for x in np.linspace(0.1, 40.0, 80):
        x = float(x)
        s_ref = specfun._quad(lambda u: np.sin(u) / u, 0.0, x, 1e-11)
        cin_ref = specfun._quad(lambda u: (np.cos(u) - 1.0) / u, 0.0, x, 1e-11)
        worst_si = max(worst_si, abs(specfun.si(x) - s_ref))
        worst_cin = max(worst_cin, abs(specfun.neg_cin(x) - cin_ref))
    return [(worst_si, 0.0, 1e-10), (worst_cin, 0.0, 1e-10)]


def _static_rows_at(p: FlightParams, t: float) -> list:
    lt = p.lam * t
    # the const integral is (lam t)^3/6: its quadrature tol is relative past 1
    const_scale = max(1.0, lt**3 / 6.0)

    def ball_limit():
        val = density.ball_prob_asymptotic(np.nextafter(p.c * t, 0.0), t, p)
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
         lambda: (integrate_ac_density(t, p, 1e-11 * const_scale, term="const"),
                  lt**3 / 6.0, 1e-10)),
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
    hs = (charfun.h0, charfun.h1, charfun.h2_series, charfun.h3_series)
    worst = 0.0
    for x in np.linspace(0.2, 20.0, 100):
        q = charfun.FreqQuery(alpha_norm=float(x) / (p.c * t), t=t)
        worst = max([worst] + [abs(h(q, p)) for h in hs])
    return _bound(worst - 1.0 - 1e-12, detail=f"max|H|={worst:.6f}")


def _remainder_bound(p: FlightParams, t: float, alpha: float) -> float:
    """|h_asymptotic - sum_{n<=3} P_n H_n| <= P_2 x^2/24 + P_3 x^2/30 at x = ct ||alpha||,
    the first dropped Bessel terms, plus 2^-50 for the rounding of H_n - L_n near 1."""
    _, _, w2, w3, _ = switch_weights(t, p)
    return (w2 / 24.0 + w3 / 30.0) * (p.c * t * alpha) ** 2 + 2.0**-50


def _asym_vs_sum(p: FlightParams, t: float) -> tuple:
    weights = switch_weights(t, p)
    hs = (charfun.h0, charfun.h1, charfun.h2_series, charfun.h3_series)
    worst = 0.0
    for alpha in (0.3, 0.5, 1.0, 2.0, 3.0):
        q = charfun.FreqQuery(alpha_norm=alpha, t=t)
        exact = math.fsum(w * h(q, p) for w, h in zip(weights, hs))
        worst = max(worst, abs(charfun.h_asymptotic(q, p) - exact) / _remainder_bound(p, t, alpha))
    return worst, 0.0, 1.0, "worst remainder / bound"


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
    for t in (0.2, 0.1, 0.05):
        rows.append((f"h_asym_vs_conditional_sum_t{t:g}", lambda t=t: _asym_vs_sum(p, t)))
    return rows


# ---------------------------------------------------------------------------
# the Monte Carlo rows: every analytic object against simulation


def _chisquare(observed: np.ndarray, expected: np.ndarray) -> tuple:
    """Pearson's statistic and its p-value on len(observed) - 1 degrees of freedom."""
    stat = np.sum((observed - expected) ** 2 / expected)
    return stat, special.chdtrc(len(observed) - 1, stat)


def _ks_pvalue(d: float, n: int) -> float:
    """P{D_n >= d} by Stephens' scaling of Kolmogorov's limit law.  For n from
    1e4 to 1e6 it is below the exact value wherever sqrt(n) d >= 1.40, and
    within 0.21/sqrt(n) relative of it wherever p >= 0.05."""
    rn = math.sqrt(n)
    return special.kolmogorov((rn + 0.12 + 0.11 / rn) * d)


def _keyed(cfg: McConfig, n: int, samples: int) -> McConfig:
    """The config of stream n: samples draws, seed (cfg.seed + n) mod 2^64."""
    return McConfig(samples, (cfg.seed + n) % 2**64)


def _pass(t: float, p: FlightParams, cfg: McConfig, stats, condition=None):
    """Cached getter for one pass over the (seed, chunk) stream at t: each
    fn(positions, counts) in stats sees every chunk once, and the getter gives
    its chunk values in chunk order.  A pass that raises fails each reader."""
    return functools.cache(lambda: list(zip(*montecarlo._per_chunk(
        t, p, cfg, lambda pos, counts: [fn(pos, counts) for fn in stats], condition
    ))))


def _mc_rows_at(p: FlightParams, t: float, cfg: McConfig) -> tuple:
    """The unconditional rows at t, read from one pass over its stream, and
    a getter for that pass's per-chunk radial counts."""
    lt = p.lam * t
    ct = p.c * t
    e = math.frexp(ct)[1]
    n = cfg.samples
    alpha = 2.0
    r = 0.5 * p.c * t
    edges = np.linspace(0.0, ct, _BINS + 1)

    def uncond(parts):
        est = montecarlo._cf_estimate(parts, n)
        q = charfun.FreqQuery(alpha_norm=alpha, t=t)
        # the dropped n >= 4 terms add at most P{N >= 4}, as |H_n| <= 1
        tol = 3.0 * est.real.std_error + _remainder_bound(p, t, alpha) + switch_weights(t, p)[4]
        return est.real.mean, charfun.h_asymptotic(q, p), tol

    def atom(parts):
        hist = montecarlo._radial_histogram(edges, parts, n)
        target = _poisson_pmf(0, lt)
        se = math.sqrt(target * (1.0 - target) / n)
        partition_gap = abs(float(np.sum(hist.masses)) + hist.atom_fraction - 1.0)
        return (
            hist.atom_fraction, target, 3.0 * se,
            f"histogram partition gap {partition_gap:.2e}",
        )

    def ball(hits):
        est = montecarlo._mean_with_error(hits, hits, n)  # an indicator is its own square
        return (
            est.mean, density.ball_prob_asymptotic(r, t, p),
            3.0 * est.std_error + 5.0 * t**3,
        )

    def support(radii):
        worst = max(radii)
        return _bound(worst - 1.0 - 1e-12, detail=f"max ||X||/ct = {worst:.15f}")

    def lumped(_, ns):
        bc = np.bincount(ns, minlength=64)
        return np.append(bc[:63], bc[63:].sum())

    def chisq(parts):
        counts = np.sum(parts, axis=0)
        pmf = _poisson_pmf(np.arange(len(counts)), lt)
        # lump the tail so the tail bucket's expected count stays >= 5
        tail_small = np.flatnonzero(n * (1.0 - np.cumsum(pmf)) < 5.0)
        k_hi = int(tail_small[0]) if tail_small.size else len(counts) - 1
        k_hi = max(k_hi, 2)
        observed = np.append(counts[:k_hi], counts[k_hi:].sum())
        expected = np.append(pmf[:k_hi] * n, n * (1.0 - pmf[:k_hi].sum()))
        stat, pval = _chisquare(observed, expected)
        return _bound(0.01 - pval, detail=f"chi2={stat:.3f} p={pval:.4f} bins={k_hi + 1}")

    def mean_pos(parts):
        # per-chunk sums are added in chunk order, starting from zero
        sums, sumsq = sum(parts, np.zeros((2, 3)))
        means = sums / n
        ses = np.sqrt((sumsq - sums * sums / n) / (n - 1) / n)
        return _bound(float(np.max(np.abs(means) - 3.0 * ses)))

    # (name, per-chunk statistic, finisher over its chunk values)
    table = [
        (f"mc_uncond_cf_t{t:g}", lambda pos, _: montecarlo._cf_sums(pos, alpha), uncond),
        (f"mc_atom_fraction_t{t:g}",
         lambda pos, ns: montecarlo._radial_counts(pos, ns, edges), atom),
        (f"mc_ball_prob_t{t:g}", lambda pos, _: montecarlo._ball_hits(pos, r, ct), ball),
        (f"mc_support_t{t:g}",
         lambda pos, _: float(montecarlo._radii(pos, e).max()) / math.ldexp(ct, -e), support),
        (f"mc_switch_chisquare_t{t:g}", lumped, chisq),
        (f"mc_mean_position_t{t:g}",
         lambda pos, _: np.stack([pos.sum(axis=0), (pos * pos).sum(axis=0)]), mean_pos),
    ]
    columns = _pass(t, p, cfg, [stat for _, stat, _ in table])
    rows = [
        (name, lambda k=k, finish=finish: finish(columns()[k]))
        for k, (name, _, finish) in enumerate(table)
    ]
    return rows, lambda: columns()[1]


def _mixture(p: FlightParams, t0: float, cfg: McConfig, edges, cond_passes, radial_parts) -> tuple:
    # mixing the conditional samplers over Poisson weights must reproduce
    # the unconditional radial histogram bin by bin; n = 1..3 come from the
    # conditional-CF passes, the rarer counts from streams sized by weight
    # and capped at cfg.samples
    unc = montecarlo._radial_histogram(edges, radial_parts, cfg.samples).masses
    lt = p.lam * t0
    # the pmf runs far enough past n_hi that its tail sum is P{N > n_hi}
    pmf = _poisson_pmf(np.arange(32 + math.ceil(lt + 10.0 * math.sqrt(lt))), lt)
    n_hi = int(np.searchsorted(np.cumsum(pmf), 1.0 - 1e-6)) + 1
    mix = np.zeros(_BINS)
    var_mix = np.zeros(_BINS)
    sizes = []
    radial = [lambda pos, _: montecarlo._radial_counts(pos, None, edges)]
    for n in range(1, n_hi + 1):
        size = cfg.samples if n in cond_passes else min(
            cfg.samples, max(montecarlo._MIN_CF_SAMPLES, math.ceil(cfg.samples * pmf[n] / pmf[3]))
        )
        columns = cond_passes.get(n) or _pass(t0, p, _keyed(cfg, n, size), radial, condition=n)
        masses = montecarlo._radial_histogram(edges, columns()[-1], size).masses
        mix += pmf[n] * masses
        var_mix += (pmf[n] ** 2) * masses * (1.0 - masses) / size
        sizes.append(f"{size:.3g}".replace("e+0", "e").replace("e+", "e"))
    se_unc = np.sqrt(unc * (1.0 - unc) / cfg.samples)
    tol_bins = 3.0 * np.sqrt(se_unc**2 + var_mix) + pmf[n_hi + 1 :].sum() + 1e-12
    margin = float(np.max(np.abs(unc - mix) - tol_bins))
    return _bound(margin, detail=f"worst bin margin {margin:.3g}; n=1..{n_hi}: {','.join(sizes)}")


def _directions(p: FlightParams, t: float, cfg: McConfig) -> list:
    # paths given no switch end at ct times the sampler's own unit vectors;
    # the stream is keyed seed - 1, apart from the unconditional pass's seed + 0
    n = 10**6
    ct = p.c * t
    sums, zs = zip(*montecarlo._per_chunk(
        t, p, _keyed(cfg, -1, n), lambda pos, _: (pos.sum(axis=0), pos[:, 2] / ct), condition=0
    ))
    worst_mean = float(np.max(np.abs(sum(sums) / (n * ct))))
    z = np.concatenate(zs)
    del zs
    # two-sided KS distance of z from U(-1, 1), as scipy.stats.kstest takes it
    z.sort()
    cdf = (z + 1.0) / 2.0
    steps = np.arange(n + 1.0) / n
    pvalue = _ks_pvalue(max(np.max(steps[1:] - cdf), np.max(cdf - steps[:-1])), n)
    return [
        (worst_mean, 0.0, 4.0 / math.sqrt(n)),
        _bound(0.01 - pvalue, detail=f"KS p={pvalue:.4f}"),
    ]


def _determinism(p: FlightParams, t0: float, cfg: McConfig) -> list:
    small = McConfig(samples=10**5, seed=cfg.seed)
    a = montecarlo.estimate_cf(2.0, t0, p, small, workers=1)
    b = montecarlo.estimate_cf(2.0, t0, p, small, workers=1)
    c = montecarlo.estimate_cf(2.0, t0, p, small, workers=3)
    return [
        (abs(a.real.mean - b.real.mean), 0.0, 0.0),
        (abs(a.real.mean - c.real.mean), 0.0, 0.0),
    ]


def _mc_rows(p: FlightParams, t_list, cfg: McConfig) -> list:
    t0 = t_list[0]
    xs = (0.3, 0.5, 1.0, 2.0, 3.0)
    alphas = [x / (p.c * t0) for x in xs]
    edges = np.linspace(0.0, p.c * t0, _BINS + 1)
    # one pass per switch count n, keyed seed + n, gives the CF sums at every
    # frequency and, last, the radial histogram the mixture row reads
    stats_n = [lambda pos, _, a=a: montecarlo._cf_sums(pos, a) for a in alphas]
    stats_n.append(lambda pos, ns: montecarlo._radial_counts(pos, ns, edges))
    passes = {
        n: _pass(t0, p, _keyed(cfg, n, cfg.samples), stats_n, condition=n)
        for n in (1, 2, 3)
    }

    def conditional(n, analytic, j):
        est = montecarlo._cf_estimate(passes[n]()[j], cfg.samples)
        q = charfun.FreqQuery(alpha_norm=alphas[j], t=t0)
        return est.real.mean, analytic(q, p), 3.0 * est.real.std_error

    def imag_symmetry():
        imags = [montecarlo._cf_estimate(parts, cfg.samples).imag
                 for n in (1, 2, 3) for parts in passes[n]()[:len(xs)]]
        worst = max([0.0] + [abs(e.mean) / e.std_error for e in imags if e.std_error > 0])
        return _bound(worst - 3.0, detail=f"worst |imag|/se = {worst:.3f}")

    rows = [
        (f"mc_conditional_cf_n{n}_x{x:g}", lambda n=n, h=h, j=j: conditional(n, h, j))
        for n, h in ((1, charfun.h1), (2, charfun.h2_series), (3, charfun.h3_series))
        for j, x in enumerate(xs)
    ]
    rows.append(("mc_cf_imag_symmetry", imag_symmetry))
    rows_t0, radial_t0 = _mc_rows_at(p, t0, cfg)
    rows += rows_t0
    for t in t_list[1:]:
        rows += _mc_rows_at(p, t, cfg)[0]
    return rows + [
        ("mc_mixture_coherence", lambda: _mixture(p, t0, cfg, edges, passes, radial_t0())),
        (("mc_direction_component_means", "mc_direction_ks_uniform"),
         lambda: _directions(p, t0, cfg)),
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
    seed, so it is deterministic as well; it needs at least 1e4 samples.
    Inputs are checked before any row runs: an empty t_list, a t that is not
    finite and > 0, or too few samples raise DomainError.
    """
    if p is None:
        p = FlightParams(c=5.0, lam=2.0)
    if t_list is None:
        t_list = (0.1,)
    if cfg is None:
        cfg = McConfig(samples=10**6, seed=DEFAULT_SEED)
    if not t_list:
        raise DomainError("t_list needs at least one t")
    for t in t_list:
        check_time(t)
    if not quick and cfg.samples < montecarlo._MIN_CF_SAMPLES:
        raise DomainError(
            f"the Monte Carlo rows need at least {montecarlo._MIN_CF_SAMPLES} samples"
        )
    rows = _static_rows(p, t_list)
    if not quick:
        rows += _mc_rows(p, t_list, cfg)
    return _run(rows)
