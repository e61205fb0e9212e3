"""The quick walkthrough scripts in ``demos/`` run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import rescale_lab

DEMOS = Path(__file__).resolve().parents[1] / "demos"
# Each of the first three takes about a second; 04_recovery_training.py
# trains, quantizes and fine-tunes on a small dataset in about ten seconds.
QUICK_DEMOS = ["01_dyadic_rescalers.py", "02_integer_engine.py", "03_error_model.py",
               "04_recovery_training.py"]


@pytest.mark.parametrize("name", QUICK_DEMOS)
def test_demo_exits_zero(name, tmp_path):
    package_root = str(Path(rescale_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(DEMOS / name)], cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=path),
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
