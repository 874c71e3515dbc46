"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test collects every clause violation before asserting, prints a single
PASS/FAIL line (repeated in the terminal summary), and fails only if a clause
failed.  Criterion 7 checks the boundary blow-up of the three-term density
against its asymptote e^(-lam t) lam^2 / (2 pi^2 c^2 sqrt(c^2 t^2 - r^2)),
the two-switch mass P{N=2} spread by the radial inverse of 2 J1(x)/x; the
asymptote is built here from scipy's Poisson pmf, not from the package.
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import stats

import markovflight as mf
from markovflight import validate
from markovflight.cli import main as cli_main
from markovflight.validate import DEFAULT_SEED

P = mf.FlightParams(c=5.0, lam=2.0)
X_GRID = (0.3, 0.5, 1.0, 2.0, 3.0)


def finish(record, number: int, name: str, failures: list):
    status = "PASS" if not failures else "FAIL"
    detail = "" if not failures else f"  [{'; '.join(failures)}]"
    record(f"ACCEPTANCE {number} {name}: {status}{detail}")
    assert not failures, f"criterion {number} ({name}): {failures}"


def test_criterion_1_appendix_identities(acceptance_log):
    failures = []
    for n in (1, 2, 3, 4):
        for i in range(-30, 31):
            z = i / 10.0
            diff = abs(mf.arctan_pow(n, z) - math.atan(z) ** n)
            if diff > 1e-10:
                failures.append(f"arctan_pow n={n} z={z}: |diff|={diff:.3g}")
    for n in range(21):
        for a in (0.5, 1.0, 2.0, 3.5):
            lhs, rhs = mf.gamma_sum_identity(n, a)
            rel = abs(lhs - rhs) / abs(rhs)
            if rel > 1e-11:
                failures.append(f"gamma_sum n={n} a={a}: rel={rel:.3g}")
    finish(acceptance_log, 1, "appendix-identities", failures)


def test_criterion_2_coefficient_spot_values(acceptance_log):
    failures = []

    def poch(x: Fraction, j: int) -> Fraction:
        out = Fraction(1)
        for m in range(j):
            out *= x + m
        return out

    def hyp5f4_exact(k: int) -> Fraction:
        total = Fraction(0)
        for j in range(k + 1):
            num = poch(Fraction(1), j) ** 3 * poch(Fraction(-k), j) * poch(
                Fraction(-2 * k - 1, 2), j
            )
            den = (
                poch(Fraction(-2 * k + 1, 2), j) ** 2
                * poch(Fraction(3, 2), j)
                * poch(Fraction(2), j)
                * math.factorial(j)
            )
            total += num / den
        return total

    for k, want in ((0, hyp5f4_exact(0)), (1, hyp5f4_exact(1))):
        got = mf.hyp5f4_unit(k)
        if got != float(want):
            failures.append(f"hyp5f4_unit({k}) = {got!r}, want {float(want)!r}")
    if (0, Fraction(1)) != (0, hyp5f4_exact(0)):
        failures.append("rational oracle lost hyp5f4(0) = 1")
    if hyp5f4_exact(1) != Fraction(3):
        failures.append(f"rational oracle gives {hyp5f4_exact(1)}, want 3")
    gap = abs(mf.quartic_gamma(0) - 2.0 / math.pi)
    if gap > 1e-14:
        failures.append(f"quartic_gamma(0) off 2/pi by {gap:.3g}")
    finish(acceptance_log, 2, "coefficient-spot-values", failures)


def test_criterion_3_cf_oracle_equivalence(acceptance_log):
    failures = []
    cfg = mf.McConfig(samples=10**6, seed=DEFAULT_SEED)
    series = {1: mf.h1, 2: mf.h2_series, 3: mf.h3_series}
    for n, fn in series.items():
        for x in X_GRID:
            alpha = x / (P.c * 0.1)
            q = mf.FreqQuery(alpha_norm=alpha, t=0.1)
            est = mf.estimate_cf(alpha, 0.1, P, cfg, condition=n)
            diff = abs(est.mean - fn(q, P))
            if diff > 3.0 * est.std_error:
                failures.append(
                    f"n={n} x={x}: |mc-series|={diff:.3g} > 3se={3 * est.std_error:.3g}"
                )
    finish(acceptance_log, 3, "cf-oracle-equivalence", failures)


def test_criterion_4_small_time_approximation(acceptance_log):
    failures = []
    cfg = mf.McConfig(samples=10**6, seed=DEFAULT_SEED)
    for t in (0.2, 0.1, 0.05):
        budget = 5.0 * t**3
        lt = P.lam * t
        for alpha in X_GRID:
            q = mf.FreqQuery(alpha_norm=alpha, t=t)
            exact = math.exp(-lt) * (
                mf.h0(q, P)
                + lt * mf.h1(q, P)
                + lt**2 / 2.0 * mf.h2_series(q, P)
                + lt**3 / 6.0 * mf.h3_series(q, P)
            )
            diff = abs(mf.h_asymptotic(q, P) - exact)
            if diff > budget:
                failures.append(f"t={t} alpha={alpha}: diff={diff:.3g} > {budget:.3g}")
        est = mf.estimate_cf(2.0, t, P, cfg)
        q = mf.FreqQuery(alpha_norm=2.0, t=t)
        mc_diff = abs(est.mean - mf.h_asymptotic(q, P))
        mc_budget = 3.0 * est.std_error + budget
        if mc_diff > mc_budget:
            failures.append(f"mc t={t}: diff={mc_diff:.3g} > {mc_budget:.3g}")
    finish(acceptance_log, 4, "small-time-approximation", failures)


def test_criterion_5_exact_integral_identities(acceptance_log):
    failures = []
    for lam in (1.0, 1.5, 2.0, 2.5):
        p = mf.FlightParams(c=5.0, lam=lam)
        for t in (0.1, 0.3, 0.5):
            full = mf.integrate_ac_density(t, p)
            if abs(full - mf.g_tilde(t, p)) > 1e-6:
                failures.append(f"full lam={lam} t={t}")
    # bracket n is (lam t)^n/n! times a shape of mass 1 on [0, 1) in rho = r/ct
    for name, mass in zip(validate._SHAPES, validate._shape_masses(1.0, 1e-11)):
        if abs(mass - 1.0) > 2e-12:
            failures.append(f"{name} shape: |{mass:.15g}-1|>2e-12")
    finish(acceptance_log, 5, "exact-integral-identities", failures)


def test_criterion_6_subball_probability(acceptance_log):
    failures = []
    t = 0.1
    ct = P.c * t
    for ratio in (0.2, 0.5, 0.8, 0.95):
        r = ratio * ct
        series = mf.ball_prob_asymptotic(r, t, P)
        quad = mf.integrate_ac_density_ball(r, t, P)
        if abs(series - quad) > 1e-6:
            failures.append(f"ratio={ratio}: |series-quad|={abs(series - quad):.3g}")
    limit = mf.ball_prob_asymptotic(np.nextafter(ct, 0.0), t, P)
    if abs(limit - mf.g_tilde(t, P)) > 1e-8:
        failures.append(f"limit: |{limit:.12g}-g_tilde|>1e-8")
    finish(acceptance_log, 6, "subball-probability", failures)


def test_criterion_7_figure_reproduction(acceptance_log, capsys):
    failures = []
    code = cli_main(["density-profile"])
    out = capsys.readouterr().out
    if code != 0:
        failures.append(f"density-profile exit {code}")
    rows = out.strip().split("\n")[1:]
    values = [float(r.split(",")[1]) for r in rows]
    if len(values) != 500:
        failures.append(f"{len(values)} rows, want 500")
    if not all(a < b for a, b in zip(values, values[1:])):
        failures.append("profile not strictly increasing")
    if abs(values[0] - 0.224) > 5e-4:
        failures.append(f"value at r=0 is {values[0]:.6f}, want ~0.224")
    # Near r = ct the two-switch term dominates: P{N=2} spread by the radial
    # inverse 1/(pi^2 (ct)^2 sqrt(c^2 t^2 - r^2)) of 2 J1(x)/x.  So
    # sqrt(1 - (r/ct)^2) * ac_density(r) tends to A = P{N=2} / (pi^2 (ct)^3)
    # from above, the log and constant terms fading toward the boundary.
    t = 0.1
    ct = P.c * t
    asymptote = float(stats.poisson.pmf(2, P.lam * t)) / (math.pi**2 * ct**3)
    ratios = []
    for eps in (1e-8, 1e-10, 1e-12):
        r = ct * (1.0 - eps)
        ratio = math.sqrt(1.0 - (r / ct) ** 2) * mf.ac_density(r, t, P) / asymptote
        ratios.append(ratio)
        if not 1.0 < ratio < 1.03:
            failures.append(
                f"blow-up at r=ct(1-{eps:g}) is {ratio:.6f} x the asymptote, want in (1, 1.03)"
            )
    if not all(a > b for a, b in zip(ratios, ratios[1:])):
        failures.append(f"blow-up ratios {ratios} do not fall toward the asymptote")
    # the asymptote alone reaches 1e3 at depth eps* = (A/1e3)^2/2
    eps_star = (asymptote / 1e3) ** 2 / 2.0
    near_boundary = mf.ac_density(ct * (1.0 - eps_star), t, P)
    if not near_boundary > 1e3:
        failures.append(
            f"ac_density at r=ct(1-{eps_star:.3g}) is {near_boundary:.4f}, "
            "the asymptote puts it above 1e3"
        )
    quoted = {(1.0, 0.7): 0.00575, (1.5, 0.5): 0.00727, (2.0, 0.4): 0.00909, (2.5, 0.3): 0.00727}
    for (lam, t), quote in quoted.items():
        p = mf.FlightParams(c=5.0, lam=lam)
        gap = mf.switch_tail_error(t, p)
        tail = float(stats.poisson.sf(3, lam * t))
        if abs(gap - tail) > 1e-12:
            failures.append(f"gap lam={lam} not the Poisson tail")
        if abs(gap - quote) > 3e-5:
            failures.append(f"gap lam={lam} {gap:.6f} vs quoted {quote}")
        if not gap < 0.01:
            failures.append(f"gap lam={lam} {gap:.6f} >= 0.01")
    finish(acceptance_log, 7, "figure-reproduction", failures)


def test_criterion_8_simulation_soundness(acceptance_log, cpus):
    failures = []
    t = 0.1
    ct = P.c * t
    total = 10**7
    cfg = mf.McConfig(samples=total, seed=DEFAULT_SEED)
    worst = 0.0
    atom_count = 0
    switch_counts = np.zeros(64, dtype=np.int64)
    done = 0
    idx = 0
    while done < total:
        size = min(mf.montecarlo._CHUNK, total - done)
        pos, ns = mf.sample_positions(t, P, size, mf.substream(cfg.seed, idx))
        worst = max(worst, float(np.linalg.norm(pos, axis=1).max()))
        atom_count += int(np.count_nonzero(ns == 0))
        bc = np.bincount(ns, minlength=64)
        switch_counts[:63] += bc[:63]
        switch_counts[63] += bc[63:].sum()
        done += size
        idx += 1

    if worst > ct * (1.0 + 1e-12):
        failures.append(f"support violated: max ||X|| = {worst!r} > ct")

    atom = atom_count / total
    target = math.exp(-P.lam * t)
    se = math.sqrt(target * (1.0 - target) / total)
    if abs(atom - target) > 3.0 * se:
        failures.append(f"atom fraction {atom:.6f} vs {target:.6f} beyond 3 sigma")

    pmf = stats.poisson.pmf(np.arange(64), P.lam * t)
    tail_small = np.flatnonzero(total * (1.0 - np.cumsum(pmf)) < 5.0)
    k_hi = max(int(tail_small[0]) if tail_small.size else 63, 2)
    observed = np.append(switch_counts[:k_hi], switch_counts[k_hi:].sum())
    expected = np.append(pmf[:k_hi] * total, total * (1.0 - pmf[:k_hi].sum()))
    _, pval = stats.chisquare(observed, expected)
    if pval < 0.01:
        failures.append(f"switch-count chi-square p={pval:.4f} < 0.01")

    small = mf.McConfig(samples=10**5, seed=DEFAULT_SEED)
    runs = []
    for k in (1, 2, 4, 1):  # one, two and four CPUs, then one again
        cpus(k)
        runs.append(mf.estimate_cf(2.0, t, P, small))
    if any(run != runs[0] for run in runs):
        failures.append("reruns not bit-identical across worker counts")

    finish(acceptance_log, 8, "simulation-soundness", failures)
