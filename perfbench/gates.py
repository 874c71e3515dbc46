"""Correctness gates: each pass's output becomes attempted and failed counts.

A validate pass attempts one operation per suite check.  A simulate pass
attempts three assertions on its output.  A failed check or assertion is
counted and named; it never stops the run.  The Monte Carlo assertions allow
four standard errors, so a correct program trips one about once in 16,000
passes.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

_SUMMARY = re.compile(r"(\d+)/(\d+) checks passed")
_VERDICT = re.compile(r"(PASS|FAIL) ([^:]+):")
RAW_HEADER = "x1,x2,x3,n_switches"
HIST_HEADER = "r_lo,r_hi,mass"


@dataclass
class Gate:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)


def validate_gate(text: str, exit_code) -> Gate:
    """Judge `markovflight validate` output by its check lines, summary and exit code.

    Every FAIL line is a failed operation.  Output whose summary, check lines
    and exit code disagree cannot be trusted, so then every check counts as
    failed.
    """
    lines = text.splitlines()
    verdicts = [m.groups() for m in map(_VERDICT.match, lines) if m]
    summary = _SUMMARY.fullmatch(lines[-1]) if lines else None
    if summary is None:
        gate = Gate(attempted=max(1, len(verdicts)))
        gate.failed = gate.attempted
        gate.problems.append(f"no 'N/M checks passed' line (exit code {exit_code})")
        return gate
    passed, total = map(int, summary.groups())
    gate = Gate(attempted=max(1, total))
    for tag, name in verdicts:
        if tag == "FAIL":
            gate.fail(f"check failed: {name}")
    n_fail = gate.failed
    if total != len(verdicts) or passed != total - n_fail:
        gate.problems.append(
            f"summary {passed}/{total} disagrees with {len(verdicts)} check lines"
            f" ({n_fail} FAIL)"
        )
    elif exit_code != (0 if n_fail == 0 else 1):
        gate.problems.append(f"exit code {exit_code} with {passed}/{total} passed")
    if len(gate.problems) > n_fail:
        gate.failed = gate.attempted
    return gate


def _atom_sigmas(atom_fraction: float, lam: float, t: float, samples: int) -> float:
    target = math.exp(-lam * t)
    return abs(atom_fraction - target) / math.sqrt(target * (1.0 - target) / samples)


def histogram_gate(text: str, exit_code, *, lam: float, t: float, samples: int, bins: int) -> Gate:
    """Assert one row per bin, masses plus atom summing to 1, atom near exp(-lam t)."""
    gate = Gate(attempted=3)
    lines = text.splitlines()
    try:
        if exit_code != 0:
            raise ValueError(f"exit code {exit_code}")
        rows = [line.split(",") for line in lines[1:]]
        masses = [float(row[2]) for row in rows[:-1]]
        tag, atom_text = rows[-1]
        if tag != "atom":
            raise ValueError(f"last row is {tag!r}, not the atom row")
        atom = float(atom_text)
    except (ValueError, IndexError) as exc:
        for _ in range(gate.attempted):
            gate.fail(f"histogram output unreadable: {exc}")
        return gate
    if lines[0] != HIST_HEADER or len(masses) != bins:
        gate.fail(f"{len(masses)} bin rows under header {lines[0]!r}, want {bins}")
    if abs(math.fsum(masses) + atom - 1.0) > 1e-12:
        gate.fail(f"masses plus atom sum to {math.fsum(masses) + atom!r}")
    sigmas = _atom_sigmas(atom, lam, t, samples)
    if not sigmas <= 4.0:
        gate.fail(f"atom mass {atom!r} is {sigmas:.2f} sigma from exp(-lam t)")
    return gate


def raw_gate(
    header: str, rows: np.ndarray, exit_code, *, c: float, lam: float, t: float, samples: int
) -> Gate:
    """Assert the row count, ||x|| <= ct(1+1e-12), and the no-switch share near exp(-lam t)."""
    gate = Gate(attempted=3)
    if exit_code != 0 or rows.ndim != 2 or rows.shape[1] != 4:
        for _ in range(gate.attempted):
            gate.fail(f"raw output unreadable (exit code {exit_code}, shape {rows.shape})")
        return gate
    if header != RAW_HEADER or rows.shape[0] != samples:
        gate.fail(f"{rows.shape[0]} rows under header {header!r}, want {samples}")
    radius = np.sqrt(np.sum(rows[:, :3] ** 2, axis=1))
    worst = float(np.max(radius, initial=0.0)) / (c * t)
    if not worst <= 1.0 + 1e-12:
        gate.fail(f"an endpoint lies at {worst!r} ct, outside the ball")
    share = float(np.mean(rows[:, 3] == 0)) if rows.shape[0] else math.nan
    sigmas = _atom_sigmas(share, lam, t, max(1, rows.shape[0]))
    if not sigmas <= 4.0:
        gate.fail(f"no-switch share {share!r} is {sigmas:.2f} sigma from exp(-lam t)")
    return gate


def raw_file_gate(path, exit_code, **params) -> Gate:
    """raw_gate on a `simulate --raw` CSV file; an unreadable file fails every assertion."""
    try:
        with open(path) as f:
            header = f.readline().rstrip("\n")
            rows = np.loadtxt(f, delimiter=",", ndmin=2)
    except (OSError, ValueError) as exc:
        header, rows = f"unreadable: {exc}", np.empty((0, 0))
    return raw_gate(header, rows, exit_code, **params)
