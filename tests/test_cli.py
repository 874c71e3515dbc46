"""Command-line interface: CSV contracts, determinism, exit codes."""
import math
import re

import pytest

import markovflight.validate
from markovflight import montecarlo
from markovflight.cli import main
from markovflight.validate import CheckReport


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    lines = text.strip().split("\n")
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


class TestDensityProfile:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(["density-profile"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r", "ac_density"]
        assert len(rows) == 500
        assert float(rows[0][0]) == 0.0
        assert float(rows[0][1]) == pytest.approx(0.22384571804235565, rel=1e-12)
        assert float(rows[-1][0]) == pytest.approx(0.499, rel=1e-12)
        values = [float(r[1]) for r in rows]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_rmax_outside_ball_is_usage_error(self, capsys):
        code, _, err = run_cli(["density-profile", "--t", "0.1", "--rmax", "0.6"], capsys)
        assert code == 2
        assert "usage error" in err

    def test_nan_t_is_usage_error_about_t(self, capsys):
        code, out, err = run_cli(["density-profile", "--t", "nan"], capsys)
        assert code == 2
        assert out == ""
        assert "usage error: t must be finite and > 0" in err

    def test_two_points(self, capsys):
        code, out, _ = run_cli(["density-profile", "--points", "2"], capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 2

    def test_output_file_and_lf_endings(self, tmp_path, capsys):
        target = tmp_path / "profile.csv"
        code, out, _ = run_cli(
            ["density-profile", "--points", "5", "--output", str(target)], capsys
        )
        assert code == 0 and out == ""
        data = target.read_bytes()
        assert b"\r" not in data
        assert data.decode().startswith("r,ac_density\n")

    def test_verbose_prints_runspec(self, capsys):
        _, _, err = run_cli(["density-profile", "--points", "2", "--verbose"], capsys)
        assert "runspec:" in err and "density-profile" in err


@pytest.mark.parametrize("argv", [
    ["validate", "--quick"],
    ["simulate", "--samples", "20000", "--seed", "7"],
    ["simulate", "--samples", "500", "--seed", "7", "--raw"],
], ids=["validate", "simulate", "simulate_raw"])
def test_verbose_reports_workers_and_wall_time_on_stderr(argv, capsys):
    code, out, err = run_cli(argv, capsys)
    verbose_code, verbose_out, verbose_err = run_cli(argv + ["--verbose"], capsys)
    assert verbose_code == code == 0
    assert err == ""
    # stdout is byte-identical, so a summary line stays the last line
    assert verbose_out == out
    if argv[0] == "validate":
        assert re.fullmatch(r"\d+/\d+ checks passed", out.splitlines()[-1])
    lines = verbose_err.splitlines()
    assert lines[0].startswith("runspec: ")
    assert lines[1] == f"workers: {montecarlo._workers()}"
    assert re.fullmatch(r"wall_s: \d+\.\d{3}", lines[2])
    assert len(lines) == 3


class TestGcurves:
    def test_defaults(self, capsys):
        code, out, _ = run_cli(["gcurves"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["lambda", "t", "g_exact", "g_tilde", "gap"]
        assert len(rows) == 4 * 200
        lams = sorted({float(r[0]) for r in rows})
        assert lams == [1.0, 1.5, 2.0, 2.5]
        ts = [float(r[1]) for r in rows[:200]]
        assert ts[0] == pytest.approx(0.005) and ts[-1] == 1.0

    def test_gap_column_identity(self, capsys):
        _, out, _ = run_cli(["gcurves", "--points", "50"], capsys)
        _, rows = parse_csv(out)
        for row in rows:
            ge, gt, gap = float(row[2]), float(row[3]), float(row[4])
            assert abs(gap - (ge - gt)) <= 1e-15

    def test_gap_never_negative_at_small_lambda_t(self, capsys):
        # g_exact - g_tilde printed -1.08e-17 and -3.45e-17 here
        _, out, _ = run_cli(
            ["gcurves", "--lambda", "1", "--tmin", "0", "--tmax", "4e-5", "--points", "4"], capsys
        )
        _, rows = parse_csv(out)
        assert len(rows) == 4
        assert all(float(row[4]) >= 0.0 for row in rows)

    def test_window_value(self, capsys):
        # t = 0.7 falls exactly on the default grid; gap there is the
        # Poisson tail Pr{N >= 4} at intensity 0.7
        _, out, _ = run_cli(["gcurves", "--lambda", "1"], capsys)
        _, rows = parse_csv(out)
        row = next(r for r in rows if float(r[1]) == 0.7)
        assert float(row[4]) == pytest.approx(0.0057534575922996156, rel=1e-10)

    def test_single_lambda_flag(self, capsys):
        _, out, _ = run_cli(["gcurves", "--lambda", "2", "--points", "10"], capsys)
        _, rows = parse_csv(out)
        assert len(rows) == 10
        assert {float(r[0]) for r in rows} == {2.0}

    def test_bad_range(self, capsys):
        code, _, err = run_cli(["gcurves", "--tmin", "1", "--tmax", "0.5"], capsys)
        assert code == 2 and "usage error" in err

    def test_grid_does_not_overflow_near_the_largest_float(self, capsys):
        # (tmax - tmin) * i overflowed before the division, and the command
        # blamed a t of inf that the user never gave
        code, out, _ = run_cli(["gcurves", "--tmin", "0", "--tmax", "1e308", "--points", "2"],
                               capsys)
        assert code == 0
        _, rows = parse_csv(out)
        assert len(rows) == 4 * 2
        assert all(math.isfinite(float(v)) for row in rows for v in row)
        assert [float(r[1]) for r in rows[:2]] == [5e307, 1e308]

    def test_infinite_tmax_is_usage_error(self, capsys):
        # it printed rows such as 1,inf,1,nan,nan and exited 0
        code, out, err = run_cli(["gcurves", "--tmax", "inf"], capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err


class TestSimulate:
    ARGS = ["simulate", "--samples", "20000", "--seed", "7"]

    def test_histogram_partition(self, capsys):
        code, out, _ = run_cli(self.ARGS + ["--bins", "10"], capsys)
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["r_lo", "r_hi", "mass"]
        assert rows[-1][0] == "atom"
        atom = float(rows[-1][1])
        masses = [float(r[2]) for r in rows[:-1]]
        assert len(masses) == 10
        assert sum(masses) + atom == pytest.approx(1.0, abs=1e-12)
        assert atom == pytest.approx(math.exp(-0.2), abs=0.009)  # ~3.3 sigma

    def test_deterministic_bytes(self, tmp_path, capsys):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_cli(self.ARGS + ["--output", str(a)], capsys)
        run_cli(self.ARGS + ["--output", str(b)], capsys)
        assert a.read_bytes() == b.read_bytes()

    def test_seed_changes_output(self, capsys):
        _, out1, _ = run_cli(["simulate", "--samples", "20000", "--seed", "7"], capsys)
        _, out2, _ = run_cli(["simulate", "--samples", "20000", "--seed", "8"], capsys)
        assert out1 != out2

    def test_raw_rows(self, capsys):
        code, out, _ = run_cli(
            ["simulate", "--samples", "500", "--seed", "7", "--raw"], capsys
        )
        assert code == 0
        header, rows = parse_csv(out)
        assert header == ["x1", "x2", "x3", "n_switches"]
        assert len(rows) == 500
        for row in rows:
            x = [float(v) for v in row[:3]]
            n = int(row[3])
            assert n >= 0
            assert math.sqrt(sum(v * v for v in x)) <= 0.5 * (1.0 + 1e-12)

    def test_bad_t(self, capsys):
        code, _, err = run_cli(["simulate", "--t", "0"], capsys)
        assert code == 2 and "usage error" in err

    @pytest.mark.parametrize("raw", [[], ["--raw"]], ids=["histogram", "raw"])
    @pytest.mark.parametrize("t", ["nan", "inf"])
    def test_non_finite_t_is_usage_error(self, capsys, t, raw):
        code, out, err = run_cli(self.ARGS + ["--t", t] + raw, capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("markovflight: usage error: ")

    def test_overflowing_ct_is_usage_error(self, capsys):
        # the bin edges were nan and inf, with exit 0
        argv = ["simulate", "--c", "1e300", "--lambda", "1e-300", "--t", "1e10",
                "--samples", "10000", "--bins", "4"]
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert "ct must be finite" in err


class TestValidateCommand:
    def test_quick_exit_zero(self, capsys):
        code, out, _ = run_cli(["validate", "--quick"], capsys)
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out

    def test_quick_csv_output(self, tmp_path, capsys):
        target = tmp_path / "checks.csv"
        code, _, _ = run_cli(["validate", "--quick", "--output", str(target)], capsys)
        assert code == 0
        text = target.read_text()
        assert text.startswith("name,lhs,rhs,tolerance,passed\n")
        assert ",true" in text

    def test_failures_give_exit_one(self, capsys, monkeypatch):
        def fake_suite(*args, **kwargs):
            return [CheckReport("doomed", 1.0, 2.0, 1e-6, False)]

        monkeypatch.setattr(markovflight.validate, "run_suite", fake_suite)
        code, out, _ = run_cli(["validate", "--quick"], capsys)
        assert code == 1
        assert "FAIL doomed" in out

    def test_overflowing_ct_is_usage_error(self, capsys):
        # it ran the quick suite at c t = inf and reported 24/31
        code, out, err = run_cli(["validate", "--quick", "--c", "1e308", "--t", "10"], capsys)
        assert code == 2 and out == ""
        assert "usage error: ct must be finite" in err

    def test_too_few_samples_is_usage_error(self, capsys, monkeypatch):
        # the estimators' sample floor is an input error, caught before any check
        def no_suite(*args, **kwargs):
            raise AssertionError("the suite must not run")

        monkeypatch.setattr(markovflight.validate, "_run", no_suite)
        code, out, err = run_cli(["validate", "--samples", "5000"], capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err and "10000" in err

    @pytest.mark.parametrize("t", ["0", "-1", "nan", "inf"])
    def test_bad_time_is_usage_error(self, capsys, monkeypatch, t):
        monkeypatch.setattr(markovflight.validate, "_run", None)  # no row may run
        code, out, err = run_cli(["validate", "--t", t], capsys)
        assert code == 2
        assert out == ""
        assert "usage error" in err

    def test_corrupted_samples_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["validate", "--samples", "banana"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "--tol", "1e-9"],
            ["validate", "--terms", "50"],
            ["density-profile", "--seed", "1"],
            ["gcurves", "--seed", "1"],
        ],
    )
    def test_removed_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_unknown_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["transmogrify"])
        assert exc.value.code == 2
