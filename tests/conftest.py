"""Shared test set-up: trees sized by a fixed budget, not by their cost.

``ModelDrafter`` prices every tree with the committed ``tree.COSTS``.
Under those costs the tiny untrained drafts of most tests would draft the
root alone, and the tests would hold trivially, so every test gets
``tree.FIXED_BUDGET`` as the class's table (fixed-budget trees: every cap
used).  A test that wants another table, ``COSTS`` included, sets
``latency`` on its drafter instance.  BLAS runs on one thread, as in the
benchmark.
"""

import os

# set before numpy loads, as perfbench/run.py does: on a small shared
# machine more BLAS threads slow the batch forwards several-fold
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from specdec import engine as E  # noqa: E402
from specdec import tree as TR  # noqa: E402


@pytest.fixture(autouse=True)
def fixed_budget(monkeypatch):
    monkeypatch.setattr(E.ModelDrafter, "latency", TR.FIXED_BUDGET)
