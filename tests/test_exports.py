"""The package's public names: one list per module, gathered by the package."""
import importlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import markovflight

# frozen so that no public name is added, dropped or renamed without this
# list changing with it
PUBLIC_NAMES = [
    "CheckReport", "DEFAULT_SEED", "DomainError",
    "FlightParams", "FreqQuery", "MarkovFlightError", "McConfig",
    "McEstimate", "NonFinite", "QuadratureNotConverged", "RadialHistogram",
    "RadialProfile", "RadiusOutsideBall", "TruncationNotConverged", "__version__",
    "ac_density", "arctan_pow", "ball_prob_asymptotic", "bessel_j",
    "estimate_ball_prob", "estimate_cf", "g_exact", "g_tilde",
    "gamma_sum_identity", "h0", "h1", "h2_series",
    "h3_series", "h_asymptotic", "hyp5f4_unit", "integrate_ac_density",
    "integrate_ac_density_ball", "neg_cin", "quartic_gamma", "radial_histogram",
    "radial_profile", "report_lines", "reports_to_csv", "run_suite",
    "sample_positions", "sample_positions_given_n", "si", "singular_weight",
    "substream", "switch_tail_error",
]

# each public function's parameter names, frozen so that no option is added or
# dropped without this map changing with it
PUBLIC_PARAMETERS = {
    "ac_density": "r t p",
    "arctan_pow": "n z",
    "ball_prob_asymptotic": "r t p",
    "bessel_j": "nu x",
    "estimate_ball_prob": "r t p cfg",
    "estimate_cf": "alpha_norm t p cfg condition",
    "g_exact": "t p",
    "g_tilde": "t p",
    "gamma_sum_identity": "n a",
    "h0": "q p",
    "h1": "q p",
    "h2_series": "q p",
    "h3_series": "q p",
    "h_asymptotic": "q p",
    "hyp5f4_unit": "k",
    "integrate_ac_density": "t p",
    "integrate_ac_density_ball": "r t p",
    "neg_cin": "x",
    "quartic_gamma": "k",
    "radial_histogram": "t p cfg bins",
    "radial_profile": "t p n_points r_max",
    "report_lines": "reports",
    "reports_to_csv": "reports",
    "run_suite": "p t cfg quick",
    "sample_positions": "t p size rng",
    "sample_positions_given_n": "n t p size rng",
    "si": "x",
    "singular_weight": "t p",
    "substream": "seed chunk_index",
    "switch_tail_error": "t p",
}

# each public exception's bases, frozen: the command line exits 2 on a DomainError
# and 1 on any other MarkovFlightError, so the two not-converged errors stay
# outside DomainError
PUBLIC_EXCEPTIONS = {
    "MarkovFlightError": (Exception,),
    "DomainError": (markovflight.MarkovFlightError, ValueError),
    "NonFinite": (markovflight.DomainError,),
    "RadiusOutsideBall": (markovflight.DomainError,),
    "TruncationNotConverged": (markovflight.MarkovFlightError,),
    "QuadratureNotConverged": (markovflight.MarkovFlightError,),
}

MODULES = ["arctan_series", "charfun", "density", "errors", "model", "montecarlo", "specfun",
           "validate"]


def test_public_names_frozen():
    assert sorted(markovflight.__all__) == PUBLIC_NAMES
    assert len(set(markovflight.__all__)) == len(markovflight.__all__)


def test_public_signatures_frozen():
    public = {name: getattr(markovflight, name) for name in markovflight.__all__}
    assert {
        name: " ".join(inspect.signature(f).parameters)
        for name, f in public.items() if inspect.isfunction(f)
    } == PUBLIC_PARAMETERS


def test_exception_hierarchy_frozen():
    public = {name: getattr(markovflight, name) for name in markovflight.__all__}
    assert {
        name: cls.__bases__
        for name, cls in public.items() if isinstance(cls, type) and issubclass(cls, Exception)
    } == PUBLIC_EXCEPTIONS


@pytest.mark.parametrize("module", MODULES)
def test_package_names_are_the_module_names(module):
    mod = importlib.import_module(f"markovflight.{module}")
    for name in mod.__all__:
        assert getattr(markovflight, name) is getattr(mod, name)


def test_internal_helpers_stay_importable_but_private():
    from markovflight.specfun import _quad, hyp3f2_unit_terminating, log_gamma, sum_series

    for helper in (log_gamma, hyp3f2_unit_terminating, sum_series, _quad):
        assert callable(helper)
        assert helper.__name__ not in markovflight.__all__


SCIPY_MODULES = "print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'))"


def _fresh(code: str) -> str:
    src = str(Path(markovflight.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, timeout=120,
        env={**os.environ, "PYTHONPATH": src},
    )
    return out.stdout.splitlines()[-1]


@pytest.mark.parametrize("module", ["markovflight", "markovflight.cli"])
def test_import_leaves_scipy_stats_unloaded(module):
    # scipy.stats cost about 0.5 s of every command's start, and scipy.special,
    # the last scipy module, about 0.25 s; no command needs any of scipy
    assert _fresh(f"import sys, {module}; {SCIPY_MODULES}") == "[]"


def test_no_module_imports_scipy():
    # numpy is the one run-time dependency; scipy is a test oracle only
    for path in Path(markovflight.__file__).parent.glob("*.py"):
        assert not re.search(r"^\s*(from|import) scipy", path.read_text(), re.M), path.name


def test_commands_load_no_scipy(tmp_path):
    # no module imports scipy, so neither may any command; nor numpy.polynomial (the
    # Gauss-Legendre rule is stored) or concurrent.futures (chunks run on plain threads)
    commands = [
        ["validate", "--samples", "100000"],
        ["simulate", "--samples", "20000"],
        ["density-profile"],
        ["gcurves"],
    ]
    runs = "; ".join(
        f"assert cli.main({args + ['--output', str(tmp_path / str(k))]!r}) == 0"
        for k, args in enumerate(commands)
    )
    unwanted = ("print(sorted(k for k in sys.modules if k.split('.')[0] == 'scipy'"
                " or k.startswith(('numpy.polynomial', 'concurrent.futures'))))")
    assert _fresh(f"import sys; from markovflight import cli; {runs}; {unwanted}") == "[]"
