"""Command-line front end emitting figure-ready CSV and running the suite.

Commands
  density-profile  radial profile of the absolutely continuous density
  gcurves          exact vs approximate interior mass curves and their gap
  simulate         Monte Carlo endpoints as radial histogram or raw rows
  validate         run the formula/oracle cross-check suite

All CSV output uses '.' decimals, 17 significant digits, LF line endings and
a single header row.  Exit codes: 0 success, 1 failed checks, 2 usage error.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional

from . import density, montecarlo, validate
from .errors import DomainError, MarkovFlightError
from .model import FlightParams, McConfig

__all__ = ["main"]


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _emit(text: str, output: Optional[str]) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", newline="") as f:
            f.write(text)


def _cmd_density_profile(args) -> int:
    p = FlightParams(c=args.c, lam=args.lam)
    t = args.t
    if t <= 0:
        raise DomainError(f"t must be > 0, got {t}")
    points = args.points
    if points < 2:
        raise DomainError(f"points must be >= 2, got {points}")
    rmax = args.rmax if args.rmax is not None else p.c * t * (1.0 - 1.0 / points)
    profile = density.radial_profile(t, p, points, rmax)
    rows = ["r,ac_density"]
    for r, v in zip(profile.radii, profile.values):
        rows.append(f"{_fmt(r)},{_fmt(v)}")
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _cmd_gcurves(args) -> int:
    lams = args.lam if args.lam else [1.0, 1.5, 2.0, 2.5]
    if not (0.0 <= args.tmin < args.tmax):
        raise DomainError(f"need 0 <= tmin < tmax, got {args.tmin}, {args.tmax}")
    if args.points < 1:
        raise DomainError(f"points must be >= 1, got {args.points}")
    rows = ["lambda,t,g_exact,g_tilde,gap"]
    for lam in lams:
        p = FlightParams(c=args.c, lam=lam)
        for i in range(1, args.points + 1):
            t = args.tmin + (args.tmax - args.tmin) * i / args.points
            ge = density.g_exact(t, p)
            gt = density.g_tilde(t, p)
            rows.append(f"{_fmt(lam)},{_fmt(t)},{_fmt(ge)},{_fmt(gt)},{_fmt(ge - gt)}")
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _cmd_simulate(args) -> int:
    p = FlightParams(c=args.c, lam=args.lam)
    if args.t <= 0:
        raise DomainError(f"t must be > 0, got {args.t}")
    cfg = McConfig(samples=args.samples, seed=args.seed)
    if args.raw:

        def chunk_rows(i: int, size: int) -> list:
            pos, ns = montecarlo.sample_positions(
                args.t, p, size, montecarlo.substream(cfg.seed, i)
            )
            return [
                f"{_fmt(x1)},{_fmt(x2)},{_fmt(x3)},{n}"
                for (x1, x2, x3), n in zip(pos.tolist(), ns.tolist())
            ]

        rows = ["x1,x2,x3,n_switches"]
        for chunk in montecarlo._map_chunks(cfg, chunk_rows, 1):
            rows += chunk
    else:
        if args.bins < 1:
            raise DomainError(f"bins must be >= 1, got {args.bins}")
        hist = montecarlo.radial_histogram(args.t, p, cfg, bins=args.bins)
        rows = ["r_lo,r_hi,mass"]
        for k in range(args.bins):
            rows.append(
                f"{_fmt(hist.edges[k])},{_fmt(hist.edges[k + 1])},{_fmt(hist.masses[k])}"
            )
        rows.append(f"atom,{_fmt(hist.atom_fraction)}")
    _emit("\n".join(rows) + "\n", args.output)
    return 0


def _cmd_validate(args) -> int:
    p = FlightParams(c=args.c, lam=args.lam)
    t_list = args.t if args.t else [0.1]
    for t in t_list:
        if t <= 0:
            raise DomainError(f"t must be > 0, got {t}")
    cfg = McConfig(samples=args.samples, seed=args.seed)
    reports = validate.run_suite(p, t_list, cfg, quick=args.quick)
    for line in validate.report_lines(reports):
        print(line)
    n_fail = sum(1 for r in reports if not r.passed)
    print(f"{len(reports) - n_fail}/{len(reports)} checks passed")
    if args.output is not None:
        _emit(validate.reports_to_csv(reports), args.output)
    return 0 if n_fail == 0 else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="markovflight",
        description="Finite-speed isotropic random flight in three dimensions: "
        "closed-form densities, characteristic functions, simulation, checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--c", type=float, default=5.0, help="speed (default 5)")
        sp.add_argument(
            "--lambda", dest="lam", type=float, default=2.0,
            help="switching intensity (default 2)",
        )
        sp.add_argument("--output", default=None, help="output path (default stdout)")
        sp.add_argument("--verbose", action="store_true")

    dp = sub.add_parser("density-profile", help="radial density CSV (r,ac_density)")
    common(dp)
    dp.add_argument("--t", type=float, default=0.1)
    dp.add_argument("--points", type=int, default=500)
    dp.add_argument("--rmax", type=float, default=None, help="default ct(1-1/points)")
    dp.set_defaults(fn=_cmd_density_profile)

    gc = sub.add_parser("gcurves", help="interior mass curves CSV per intensity")
    gc.add_argument("--c", type=float, default=5.0, help="speed (default 5)")
    gc.add_argument(
        "--lambda", dest="lam", type=float, action="append", default=None,
        help="intensity; repeatable (default 1 1.5 2 2.5)",
    )
    gc.add_argument("--output", default=None)
    gc.add_argument("--verbose", action="store_true")
    gc.add_argument("--tmin", type=float, default=0.0, help="open left endpoint")
    gc.add_argument("--tmax", type=float, default=1.0)
    gc.add_argument("--points", type=int, default=200)
    gc.set_defaults(fn=_cmd_gcurves)

    sim = sub.add_parser("simulate", help="Monte Carlo endpoint histogram or rows")
    common(sim)
    sim.add_argument("--seed", type=int, default=validate.DEFAULT_SEED)
    sim.add_argument("--t", type=float, default=0.1)
    sim.add_argument("--samples", type=int, default=100_000)
    sim.add_argument("--bins", type=int, default=40)
    sim.add_argument("--raw", action="store_true", help="emit x1,x2,x3,n_switches rows")
    sim.set_defaults(fn=_cmd_simulate)

    va = sub.add_parser("validate", help="run the cross-check suite")
    common(va)
    va.add_argument("--seed", type=int, default=validate.DEFAULT_SEED)
    va.add_argument("--t", type=float, action="append", default=None, help="repeatable")
    va.add_argument("--samples", type=int, default=10**6)
    va.add_argument("--quick", action="store_true", help="deterministic subset only")
    va.set_defaults(fn=_cmd_validate)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.verbose:
        shown = {k: v for k, v in vars(args).items() if k != "fn"}
        print(f"runspec: {shown}", file=sys.stderr)
    try:
        return args.fn(args)
    except DomainError as exc:
        print(f"markovflight: usage error: {exc}", file=sys.stderr)
        return 2
    except MarkovFlightError as exc:
        print(f"markovflight: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
