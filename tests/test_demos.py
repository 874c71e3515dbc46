"""Every script in demos/ runs to completion with every warning an error."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_demos_are_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.stem)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    # pyproject.toml's warning filter does not reach a subprocess, so -W error does it here
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(script)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
