"""The walkthrough demos run to completion (demo 04 trains for minutes and is left out)."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("name", ["01_autodiff_basics.py", "02_tree_drafting.py",
                                  "03_lossless_verification.py"])
def test_demo_runs(name):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "demos", name)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
