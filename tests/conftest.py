import os

import pytest
from hypothesis import settings

# `--hypothesis-profile=ci`: derandomized, with ten times the default 100 examples
settings.register_profile("ci", derandomize=True, deadline=None, database=None, max_examples=1000)

_acceptance_lines = []


@pytest.fixture
def cpus(monkeypatch):
    """cpus(k) lets the process run on k CPUs from then on, as taskset would; the
    Monte Carlo calls run one thread per CPU the process may use."""

    def run_on(k: int):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(k)), raising=False)

    return run_on


@pytest.fixture
def acceptance_log():
    """Collects one PASS/FAIL line per acceptance criterion for the summary."""

    def record(line: str):
        _acceptance_lines.append(line)
        print(line)

    return record


def pytest_terminal_summary(terminalreporter):
    if _acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in _acceptance_lines:
            terminalreporter.write_line(line)
