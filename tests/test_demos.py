"""Every demo runs to completion, with warnings turned into errors.

The demos read the engine's reports (free-energy traces, predictions), so
a change to what a step reports can break them without breaking a test of
the library itself.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = ("01_simulate.py", "02_identify.py", "03_predict.py",
         "04_free_energy.py")


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs_without_warnings(demo, tmp_path):
    path = os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=tmp_path, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
    assert not any(tmp_path.iterdir()), "demos write no files"
