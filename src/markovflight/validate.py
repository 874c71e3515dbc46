"""Density quadrature and the cross-check suite tying each formula to an oracle.

Checks never compare a formula to itself through a shared code path: series are paired
with Monte Carlo, the density with the Poisson mixture of the suite's own shapes
(`_SHAPES`), its ball masses with quadrature of those shapes, and closed forms with
integral representations summed by quadrature.  Each check yields a CheckReport whose
pass flag is exactly |lhs - rhs| <= tolerance; one-sided bounds are encoded with
lhs = shortfall and rhs = 0.  The suite runs at one time t, as `simulate` does.

The suite is one table of rows (names, thunk), run in order by one loop.  A
thunk returns (lhs, rhs, tolerance[, detail]) for its one name, or one such
tuple per name when a row carries several; a row that raises fails every one
of its names.  Each Monte Carlo pass (`_pass`) is one table of entries (names,
statistic, finisher): every statistic sees each chunk of one draw, and the
entry's row gives its chunk values to the finisher.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import arctan_series, charfun, density, montecarlo, specfun
from .errors import DomainError
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


@dataclass(frozen=True)
class CheckReport:
    name: str
    lhs: float
    rhs: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return (math.isfinite(self.lhs) and math.isfinite(self.rhs)
                and abs(self.lhs - self.rhs) <= self.tolerance)


def _bound(shortfall: float, detail: str = "") -> tuple:
    # one-sided check: passes iff the measured shortfall is zero; a NaN stays NaN and fails
    return shortfall if not shortfall <= 0.0 else 0.0, 0.0, 0.0, detail


def _worst(values) -> float:
    """The largest of values, NaN if any is NaN: Python's max keeps a NaN only in first place."""
    return float(np.max(list(values)))


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
    """Poisson(mu) probabilities at the integers k, by scipy.stats.poisson's formula
    exp(k log mu - log k! - mu), with 0 log 0 = 0."""
    k = np.asarray(k, dtype=float)
    k_log_mu = k * math.log(mu) if mu > 0.0 else np.where(k == 0.0, 0.0, -np.inf)
    return np.exp(k_log_mu - np.vectorize(math.lgamma)(k + 1.0) - mu)


# Bracket n of the density in rho = s/ct is (lam t)^n/n! times a shape of mass 1
# on [0, 1): (integrand, upper limit of its variable at rho).  Gauss nodes are
# interior, so none lands on rho = 0 or on the log's rho = 1; after rho = sin(theta)
# the inverse-square-root factor cancels exactly.
_SHAPES = {
    "log": (lambda x: x * np.log((1.0 + x) / (1.0 - x)), lambda rho: rho),
    "sqrt": (lambda theta: 4.0 / math.pi * np.sin(theta) ** 2, math.asin),
    "const": (lambda x: 3.0 * x * x, lambda rho: rho),
}


def _shape_masses(rho: float, tol: float) -> list:
    """The mass of each shape inside rho, each to within tol."""
    return [specfun._quad(f, 0.0, upper(rho), tol) for f, upper in _SHAPES.values()]


def _integrate(lt: float, rho: float) -> float:
    """Integral over [0, rho ct] of 4 pi s^2 ac_density(s) to within 1e-8:
    sum_n P{N=n} times the mass of shape n inside rho."""
    # P{N=n} sum to at most 1, so each shape to within 1e-8 puts the sum within 1e-8;
    # the weights are 0.0 from lam t = 1e308 on, and at inf the pmf's inf - inf is nan
    weights = _poisson_pmf(np.arange(1, 4), min(lt, 1e308))
    return math.fsum(w * m for w, m in zip(weights, _shape_masses(rho, 1e-8)))


def integrate_ac_density(t: float, p: FlightParams) -> float:
    """Quadrature of 4 pi r^2 ac_density(r) over the whole ball, g_tilde(t) to within 1e-8:
    the _SHAPES masses weighed by the Poisson pmf (density_vs_shapes ties them to ac_density)."""
    check_time(t)
    return _integrate(p.lam * t, 1.0)  # asin(1.0) is pi/2 exactly


def integrate_ac_density_ball(r: float, t: float, p: FlightParams) -> float:
    """Quadrature of 4 pi s^2 ac_density(s) over [0, r], 0 <= r < ct, to within 1e-8: the
    _SHAPES masses inside r/ct weighed by the Poisson pmf, as in integrate_ac_density."""
    check_time(t)
    check_radius(r, p.c * t)  # where c t overflows, ct exceeds every float
    # rho = r/(c t) with the powers of two apart, so c t never overflows or underflows
    (mr, er), (mc, ec), (mt, et) = map(math.frexp, (r, p.c, t))
    return _integrate(p.lam * t, math.ldexp(mr / (mc * mt), er - ec - et))


# ---------------------------------------------------------------------------
# the static rows: series, closed forms and densities against their oracles


def _arctan_grid(n: int) -> tuple:
    zs = np.arange(-30, 31) / 10.0
    return _worst(abs(arctan_series.arctan_pow(n, z) - math.atan(z) ** n) for z in zs), 0.0, 1e-10


def _gamma_sum() -> tuple:
    pairs = (
        arctan_series.gamma_sum_identity(n, a) for n in range(21) for a in (0.5, 1.0, 2.0, 3.5)
    )
    return _worst(abs(lhs - rhs) / abs(rhs) for lhs, rhs in pairs), 0.0, 1e-11


def _bessel_forms() -> tuple:
    # J_nu(x) by Poisson's integral of (1 - s^2)^(nu - 1/2) cos(x s) over [0, 1], by 16-point
    # Gauss-Legendre on 8 equal panels at every x at once: the rule's error at x <= 50 is < 1e-19
    s = (np.arange(8)[:, None] + 0.5 * (specfun._GL_NODES + 1.0)).ravel() / 8.0
    w = np.tile(specfun._GL_WEIGHTS / 16.0, 8)
    xs = np.linspace(0.05, 50.0, 120)
    worst = []
    for nu in (0.5, 1.5):
        integral = ((1.0 - s * s) ** (nu - 0.5) * np.cos(np.outer(xs, s))) @ w
        poisson = 2.0 * (0.5 * xs) ** nu / (math.sqrt(math.pi) * math.gamma(nu + 0.5)) * integral
        worst += [abs(specfun.bessel_j(nu, float(x)) - j) for x, j in zip(xs, poisson)]
    return _worst(worst), 0.0, 1e-12


def _si_cin_reference() -> list:
    xs = np.linspace(0.1, 40.0, 80).tolist()
    si_refs = (specfun._quad(lambda u: np.sin(u) / u, 0.0, x, 1e-11) for x in xs)
    cin_refs = (specfun._quad(lambda u: (np.cos(u) - 1.0) / u, 0.0, x, 1e-11) for x in xs)
    return [
        (_worst(abs(specfun.si(x) - ref) for x, ref in zip(xs, si_refs)), 0.0, 1e-10),
        (_worst(abs(specfun.neg_cin(x) - ref) for x, ref in zip(xs, cin_refs)), 0.0, 1e-10),
    ]


def _h_bound() -> tuple:
    # the conditional H_n read x = ct ||alpha|| alone, so c = t = 1 and ||alpha|| = x at every ct
    hs = (charfun.h0, charfun.h1, charfun.h2_series, charfun.h3_series)
    qs = (charfun.FreqQuery(float(x), 1.0) for x in np.linspace(0.2, 20.0, 100))
    worst = _worst(abs(h(q, FlightParams(1.0, 1.0))) for q in qs for h in hs)
    return _bound(worst - 1.0 - 1e-12, detail=f"max|H|={worst:.6f}")


def _remainder_bound(p: FlightParams, t: float, alpha: float) -> float:
    """|h_asymptotic - sum_{n<=3} P_n H_n| <= P_2 x^2/24 + P_3 x^2/30 at x = ct ||alpha||,
    the first dropped Bessel terms, plus 2^-50 for the rounding of H_n - L_n near 1."""
    _, _, w2, w3, _ = switch_weights(t, p)
    return (w2 / 24.0 + w3 / 30.0) * (p.c * t * alpha) ** 2 + 2.0**-50


def _asym_vs_sum(p: FlightParams, t: float) -> tuple:
    weights = switch_weights(t, p)
    hs = (charfun.h0, charfun.h1, charfun.h2_series, charfun.h3_series)

    def ratio(alpha):
        q = charfun.FreqQuery(alpha_norm=alpha, t=t)
        exact = math.fsum(w * h(q, p) for w, h in zip(weights, hs))
        return abs(charfun.h_asymptotic(q, p) - exact) / _remainder_bound(p, t, alpha)

    # x = ct ||alpha|| from 1.5 t to 15 t at every c: H_2's series raises at x = 40
    alphas = [x / (p.c * 0.1) for x in (0.15, 0.25, 0.5, 1.0, 1.5)]
    return _worst(map(ratio, alphas)), 0.0, 1.0, "worst remainder / bound"


def _density_vs_shapes(p: FlightParams, t: float) -> tuple:
    """4 pi rho^2 ac_density at c = t = 1 and intensity lam t, so c never enters, against the
    pmf's mixture of the _SHAPES integrands in rho, the sqrt one over d(rho)/d(theta) =
    sqrt(1 - rho^2); that factor scales rho's rounding by 1/(1 - rho), so rho stops at 0.99."""
    (log, _), (sqrt, _), (const, _) = _SHAPES.values()
    lt = min(max(p.lam * t, 5e-324), 1e308)  # a FlightParams intensity: finite and > 0
    weights = _poisson_pmf(np.arange(1, 4), lt)
    gaps = []
    for rho in (1e-3, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        shapes = (log(rho), sqrt(math.asin(rho)) / math.sqrt(1.0 - rho * rho), const(rho))
        mixture = math.fsum(w * f for w, f in zip(weights, shapes))
        ac = 4.0 * math.pi * rho * rho * density.ac_density(rho, 1.0, FlightParams(1.0, lt))
        # subnormal weights carry fewer digits, and from lam t = 745 on every weight is 0
        gaps.append(abs(ac - mixture) / max(mixture, np.finfo(float).tiny))
    return _worst(gaps), 0.0, 1e-12, "worst relative gap"


def _static_rows(p: FlightParams, t: float) -> list:
    def mass_tol() -> float:
        # each shape is within 1e-8 and the weights sum to g_tilde, so the quadrature
        # is within 1e-8 g_tilde; a flat 1e-6 passed a 1% error in P_2 at lam t = 1e-3
        return 1e-6 * density.g_tilde(t, p)

    def ball_limit():
        val = density.ball_prob_asymptotic(np.nextafter(p.c * t, 0.0), t, p)
        return val, density.g_tilde(t, p), 1e-8

    def monotone():
        prof = density.radial_profile(t, p, 500, p.c * t * (1.0 - 1.0 / 500))
        return _bound(-float(np.min(np.diff(prof.values))))

    rows = [(f"arctan_pow_grid_n{n}", lambda n=n: _arctan_grid(n)) for n in (1, 2, 3, 4)]
    rows += [
        ("gamma_sum_identity_grid", _gamma_sum),
        ("hyp5f4_at_1", lambda: (specfun.hyp5f4_unit(1), 3.0, 1e-12)),
        ("quartic_gamma_0", lambda: (arctan_series.quartic_gamma(0), 2.0 / math.pi, 1e-14)),
        ("bessel_half_order_forms", _bessel_forms),
        (("si_against_reference", "neg_cin_against_reference"), _si_cin_reference),
        (tuple(f"shape_mass_{name}" for name in _SHAPES),
         lambda: [(mass, 1.0, 1e-10) for mass in _shape_masses(1.0, 1e-11)]),
        (f"est_full_vs_gtilde_t{t:g}",
         lambda: (integrate_ac_density(t, p), density.g_tilde(t, p), mass_tol())),
    ]
    for ratio in (0.2, 0.5, 0.8, 0.95):
        rows.append((f"ball_series_vs_quadrature_t{t:g}_r{ratio:g}", lambda r=ratio * p.c * t: (
            density.ball_prob_asymptotic(r, t, p), integrate_ac_density_ball(r, t, p), mass_tol(),
        )))
    rows += [
        (f"ball_limit_gtilde_t{t:g}", ball_limit),
        (f"gap_identity_t{t:g}", lambda: (density.switch_tail_error(t, p),
                                           density.g_exact(t, p) - density.g_tilde(t, p), 1e-15)),
        (f"density_origin_continuity_t{t:g}", lambda: (
            density.ac_density(1e-6 * p.c * t, t, p), density.ac_density(0.0, t, p), 1e-10
        )),
        (f"density_vs_shapes_t{t:g}", lambda: _density_vs_shapes(p, t)),
        (f"profile_monotone_t{t:g}", monotone),
        ("h_bound_grid", _h_bound),
    ]
    for lam_w, t_w in ((1.0, 0.7), (1.5, 0.5), (2.0, 0.4), (2.5, 0.3)):
        rows.append((f"window_endpoint_lam{lam_w:g}", lambda lam_w=lam_w, t_w=t_w: (
            density.switch_tail_error(t_w, FlightParams(p.c, lam_w)), 0.0, 0.01,
            f"G - Gtilde at t={t_w}",
        )))
    # their own times: the rows above read t when they run, so no loop may rebind it
    for t_a in (0.2, 0.1, 0.05):
        rows.append((f"h_asym_vs_conditional_sum_t{t_a:g}", lambda t_a=t_a: _asym_vs_sum(p, t_a)))
    return rows


# ---------------------------------------------------------------------------
# the Monte Carlo rows: every analytic object against simulation


def _chisquare(observed: np.ndarray, expected: np.ndarray) -> tuple:
    """Pearson's statistic and its p-value Q(df/2, stat/2) on df = len(observed) - 1 degrees of
    freedom: e^-y sum_{j < df/2} y^j/j! at y = stat/2 for even df, erfc(sqrt y) + e^-y sum_{j <
    (df-1)/2} y^(j+1/2)/Gamma(j+3/2) for odd df, each term the last times y/(j+1) or y/(j+3/2)."""
    stat = np.sum((observed - expected) ** 2 / expected)
    df, y = len(observed) - 1, 0.5 * float(stat)
    odd = df % 2
    term = math.exp(-y) * (2.0 * math.sqrt(y / math.pi) if odd else 1.0)
    pvalue = math.erfc(math.sqrt(y)) if odd else 0.0
    for j in range(df // 2):
        pvalue += term
        term *= y / (j + 1.0 + 0.5 * odd)
    return stat, pvalue


def _keyed(cfg: McConfig, n: int) -> McConfig:
    """The config of stream n: seed (cfg.seed + n) mod 2^64, in Python integers:
    a numpy uint64 seed near 2^64 overflows on + n."""
    return McConfig(cfg.samples, (int(cfg.seed) + n) % 2**64)


def _pass(t: float, p: FlightParams, cfg: McConfig, table, condition=None, x3=False) -> list:
    """The rows of one pass over the (seed, chunk) stream at t, one per entry (names,
    statistic, finisher) of table: statistic(positions, counts) sees every chunk of one
    cached draw, and finisher its values in chunk order.  A pass that raises fails all its rows."""
    columns = functools.cache(lambda: list(zip(*montecarlo._per_chunk(
        t, p, cfg, lambda pos, ns: [stat(pos, ns) for _, stat, _ in table], condition, x3
    ))))
    return [(names, lambda k=k, finish=finish: finish(columns()[k]))
            for k, (names, _, finish) in enumerate(table)]


def _mc_rows(p: FlightParams, t: float, cfg: McConfig) -> list:
    """The X_3 rows, one pass per switch count, then the unconditional rows, one pass at t."""
    lt = p.lam * t
    ct = p.c * t
    e = math.frexp(ct)[1]
    n = cfg.samples
    alpha = 1.0 / ct  # x = ct ||alpha|| = 1 at every c and t
    r = 0.5 * p.c * t
    rows = []
    # one X_3 pass per switch count k (n is the finishers'), keyed seed + k, for every frequency
    for k, analytic in ((1, charfun.h1), (2, charfun.h2_series), (3, charfun.h3_series)):
        table = []
        for x in (0.3, 0.5, 1.0, 2.0, 3.0):
            def conditional(parts, alpha=x / ct, analytic=analytic):
                est = montecarlo._cf_estimate(parts, n)
                q = charfun.FreqQuery(alpha_norm=alpha, t=t)
                return est.mean, analytic(q, p), 3.0 * est.std_error

            table.append((f"mc_conditional_cf_n{k}_x{x:g}",
                          lambda x3, _, a=x / ct: montecarlo._cf_sums(x3, a), conditional))
        rows += _pass(t, p, _keyed(cfg, k), table, condition=k, x3=True)

    def uncond(parts):
        est = montecarlo._cf_estimate(parts, n)
        q = charfun.FreqQuery(alpha_norm=alpha, t=t)
        # the dropped n >= 4 terms add at most P{N >= 4}, as |H_n| <= 1
        tol = 3.0 * est.std_error + _remainder_bound(p, t, alpha) + switch_weights(t, p)[4]
        return est.mean, charfun.h_asymptotic(q, p), tol

    def atom(parts):
        target = _poisson_pmf(0, lt)
        return sum(parts) / n, target, 3.0 * math.sqrt(target * (1.0 - target) / n)

    def radial(pos, _):
        radii = montecarlo._radii(pos, e)
        return montecarlo._ball_hits(radii, r, e), float(radii.max())

    def ball_support(parts):
        hits, maxima = zip(*parts)
        est = montecarlo._mean_with_error(hits, hits, n)  # an indicator is its own square
        worst = _worst(maxima) / math.ldexp(ct, -e)  # radii are in units of 2^e
        return [
            (est.mean, density.ball_prob_asymptotic(r, t, p), 3.0 * est.std_error + 5.0 * t**3),
            _bound(worst - 1.0 - 1e-12, detail=f"max ||X||/ct = {worst:.15f}"),
        ]

    def lumped(_, ns):
        bc = np.bincount(ns, minlength=64)
        return np.append(bc[:63], bc[63:].sum())

    def chisq(parts):
        counts = np.sum(parts, axis=0)
        pmf = _poisson_pmf(np.arange(len(counts)), lt)
        # lump the tail so the tail bucket's expected count stays >= 5
        tail_small = np.flatnonzero(n * (1.0 - np.cumsum(pmf)) < 5.0)
        k_hi = int(tail_small[0]) if tail_small.size else len(counts) - 1
        if k_hi == 0:  # even N >= 1 expects fewer than 5 paths: no chi-square exists
            return _bound(0.0, detail="bins=1")
        observed = np.append(counts[:k_hi], counts[k_hi:].sum())
        expected = np.append(pmf[:k_hi] * n, n * (1.0 - pmf[:k_hi].sum()))
        stat, pval = _chisquare(observed, expected)
        return _bound(0.01 - pval, detail=f"chi2={stat:.3f} p={pval:.4f} bins={k_hi + 1}")

    def moments(pos, _):
        # in units of 2^e, as _radii takes them, so no square leaves the float range
        pos = np.ldexp(pos, -e) if e else pos
        # einsum("ij->j", a) is a.sum(axis=0) bit for bit (rows added in turn), six times faster;
        # "ij,ij->j" adds the rounded products in turn, so it needs no squared copy
        return np.stack([np.einsum("ij->j", pos), np.einsum("ij,ij->j", pos, pos)])

    def mean_pos(parts):
        # per-chunk sums are added in chunk order, starting from zero
        sums, sumsq = sum(parts, np.zeros((2, 3)))
        means = sums / n
        ses = np.sqrt((sumsq - sums * sums / n) / (n - 1) / n)
        return _bound(float(np.max(np.abs(means) - 3.0 * ses)))

    return rows + _pass(t, p, cfg, [
        (f"mc_uncond_cf_t{t:g}", lambda pos, _: montecarlo._cf_sums(pos[:, 2], alpha), uncond),
        (f"mc_atom_fraction_t{t:g}", lambda _, ns: np.count_nonzero(ns == 0), atom),
        ((f"mc_ball_prob_t{t:g}", f"mc_support_t{t:g}"), radial, ball_support),
        (f"mc_switch_chisquare_t{t:g}", lumped, chisq),
        (f"mc_mean_position_t{t:g}", moments, mean_pos),
    ])


def _run(rows) -> list:
    """Run the rows in order; a row that raises fails every name it carries."""
    reports = []
    for names, thunk in rows:
        single = isinstance(names, str)
        names = (names,) if single else names
        try:
            results = thunk()
            batch = [
                CheckReport(name, *result)
                for name, result in zip(names, [results] if single else results, strict=True)
            ]
        except Exception as exc:  # failures are data, not crashes
            detail = f"{type(exc).__name__}: {exc}"
            batch = [CheckReport(name, math.nan, 0.0, 0.0, detail) for name in names]
        reports.extend(batch)
    return reports


def run_suite(p=FlightParams(5.0, 2.0), t: float = 0.1, cfg=McConfig(10**6, DEFAULT_SEED),
              quick: bool = False) -> list:
    """Execute every formula/oracle pairing at the time t and return the reports.

    quick=True restricts the run to the deterministic (non Monte Carlo) subset.  The full
    default suite uses 1e6 samples per estimate and a fixed seed, so it is deterministic as
    well; it needs at least 1e4 samples.  Inputs are checked before any row runs: a t that
    is not finite and > 0, a c t that overflows, or too few samples, raise DomainError.
    """
    check_time(t)
    check_radius(p.c * t, name="ct")
    if not quick and cfg.samples < montecarlo._MIN_CF_SAMPLES:
        raise DomainError(
            f"the Monte Carlo rows need at least {montecarlo._MIN_CF_SAMPLES} samples"
        )
    rows = _static_rows(p, t)
    if not quick:
        rows += _mc_rows(p, t, cfg)
    return _run(rows)
