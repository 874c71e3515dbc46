"""Tests of the benchmark's own machinery: tracer, word counter and gates."""
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import gates  # noqa: E402
import run as bench  # noqa: E402
import tracing  # noqa: E402
from markovflight import charfun, cli, montecarlo, specfun  # noqa: E402
from markovflight.model import FlightParams  # noqa: E402


def _namespaces() -> dict:
    return {
        (name, attr): value
        for name, module in list(sys.modules.items())
        if name == "markovflight" or name.startswith("markovflight.")
        for attr, value in vars(module).items()
        if callable(value)
    }


def _traced_work(tmp_path) -> tracing.Tracer:
    p = FlightParams(c=5.0, lam=2.0)
    with tracing.Tracer() as tracer:
        for x in (0.5, 3.0):
            q = charfun.FreqQuery(alpha_norm=x / 0.5, t=0.1)
            charfun.h2_series(q, p)
            charfun.h3_series(q, p)
            charfun.h_asymptotic(q, p)
        code = cli.main(["simulate", "--samples", "20000", "--output", str(tmp_path / "h.csv")])
    assert code == 0
    return tracer


def test_word_counter_reads_five_after_five_doubles():
    rng = montecarlo.substream(7, 0)
    before = rng.bit_generator.state
    rng.random(5)
    assert tracing.philox_words(before, rng.bit_generator.state) == 5


def test_self_time_never_exceeds_total_time(tmp_path):
    tracer = _traced_work(tmp_path)
    assert tracer.stats["cli.main"].calls == 1
    assert tracer.stats["montecarlo.sample_positions"].samples == 20000
    for name, stats in tracer.stats.items():
        assert -1e-9 <= stats.self_s <= stats.total_s, name
    assert tracer.terms_per_call("charfun.h2_series", "specfun.bessel_j") >= 1.0


def test_sampler_counts_repeat_exactly(tmp_path):
    first = _traced_work(tmp_path).stats["montecarlo.sample_positions"]
    second = _traced_work(tmp_path).stats["montecarlo.sample_positions"]
    assert (first.calls, first.samples, first.rng_words) == (
        second.calls, second.samples, second.rng_words)
    assert first.rng_words > 0


def test_names_imported_elsewhere_are_patched_and_restored(tmp_path):
    before = _namespaces()
    with tracing.Tracer():
        assert charfun.bessel_j is not before[("markovflight.specfun", "bessel_j")]
        assert charfun.hyp5f4_unit is not before[("markovflight.specfun", "hyp5f4_unit")]
        assert specfun.log_gamma is before[("markovflight.specfun", "log_gamma")]
    assert _namespaces() == before
    _traced_work(tmp_path)
    assert _namespaces() == before


def _suite_output(verdicts) -> str:
    lines = [f"{tag} check_{i}: lhs=0 rhs=0 tol=0" for i, tag in enumerate(verdicts)]
    passed = verdicts.count("PASS")
    return "\n".join(lines + [f"{passed}/{len(verdicts)} checks passed"]) + "\n"


def test_validate_gate_counts_failed_checks():
    clean = gates.validate_gate(_suite_output(["PASS"] * 60), 0)
    assert (clean.attempted, clean.failed, clean.problems) == (60, 0, [])
    one_down = gates.validate_gate(_suite_output(["PASS"] * 59 + ["FAIL"]), 1)
    assert one_down.failed / one_down.attempted == pytest.approx(1 / 60)
    assert one_down.problems == ["check failed: check_59"]
    bare = gates.validate_gate("59/60 checks passed\n", 1)
    assert bare.failed / bare.attempted > 0
    wrong_code = gates.validate_gate(_suite_output(["PASS"] * 60), 1)
    assert wrong_code.failed == 60


def _histogram(masses, atom) -> str:
    rows = [gates.HIST_HEADER] + [f"{k},{k + 1},{m!r}" for k, m in enumerate(masses)]
    return "\n".join(rows + [f"atom,{atom!r}"]) + "\n"


def test_histogram_gate_fires_on_each_corruption():
    lam, t, samples, bins = 3.0, 1.0, 10**6, 4
    atom = round(math.exp(-lam * t) * samples) / samples
    masses = [(1.0 - atom) / bins] * bins
    params = dict(lam=lam, t=t, samples=samples, bins=bins)
    assert gates.histogram_gate(_histogram(masses, atom), 0, **params).failed == 0
    missing_row = gates.histogram_gate(_histogram(masses[:-1], atom), 0, **params)
    assert missing_row.failed >= 1 and "bin rows" in missing_row.problems[0]
    leaky = gates.histogram_gate(_histogram([masses[0] + 1e-6] + masses[1:], atom), 0, **params)
    assert leaky.failed == 1 and "sum to" in leaky.problems[0]
    shifted = [(1.0 - atom - 0.01) / bins] * bins
    far_atom = gates.histogram_gate(_histogram(shifted, atom + 0.01), 0, **params)
    assert far_atom.failed == 1 and "sigma" in far_atom.problems[0]
    assert gates.histogram_gate("", 1, **params).failed == 3


def _raw_rows(c, lam, t, samples):
    rng = np.random.default_rng(0)
    directions = rng.normal(size=(samples, 3))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    n_atom = round(math.exp(-lam * t) * samples)
    radius = np.where(np.arange(samples) < n_atom, c * t, 0.5 * c * t)
    counts = np.where(np.arange(samples) < n_atom, 0, 1)
    return np.column_stack([directions * radius[:, None], counts])


def test_raw_gate_fires_on_each_corruption():
    params = dict(c=5.0, lam=2.0, t=0.1, samples=10_000)
    rows = _raw_rows(**params)
    assert gates.raw_gate(gates.RAW_HEADER, rows, 0, **params).failed == 0
    short = gates.raw_gate(gates.RAW_HEADER, rows[:-1], 0, **params)
    assert short.failed == 1 and "rows under header" in short.problems[0]
    outside = rows.copy()
    outside[5, :3] *= 1.0 + 1e-9
    escaped = gates.raw_gate(gates.RAW_HEADER, outside, 0, **params)
    assert escaped.failed == 1 and "outside the ball" in escaped.problems[0]
    no_switch = rows.copy()
    no_switch[:, 3] = 0
    skewed = gates.raw_gate(gates.RAW_HEADER, no_switch, 0, **params)
    assert skewed.failed == 1 and "no-switch share" in skewed.problems[0]
    assert gates.raw_gate(gates.RAW_HEADER, rows, 1, **params).failed == 3


def test_benchmark_json_matches_what_run_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    # validate-quick and simulate-raw run by name only: too unsteady on a
    # shared host for the bound (README.md, Noise and bounds)
    assert {w["name"] for w in spec["workloads"]} <= set(bench.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == bench.per_layer_metrics()


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "simulate-raw",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
