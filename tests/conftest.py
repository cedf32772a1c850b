"""Shared test set-up: trees sized by a fixed table, not by timings.

``ModelDrafter`` sizes its trees by a latency table that
``engine.latency_table`` measures once per process, so trees, ``tau`` and
pass counts would follow the machine's timings.  Every test gets
``tree.FIXED_BUDGET`` in its place (fixed-budget trees, whatever the
costs), except those marked ``measured_latency``, which exercise the
measurement itself.  BLAS runs on one thread, as in the benchmark.
"""

import os

# set before numpy loads, as perfbench/run.py does: on a small shared
# machine more BLAS threads slow the batch forwards several-fold
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import pytest  # noqa: E402

from specdec import engine as E  # noqa: E402
from specdec import tree as TR  # noqa: E402


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "measured_latency: ModelDrafter uses this process's measured latency table")


@pytest.fixture(autouse=True)
def fixed_latency(request, monkeypatch):
    if request.node.get_closest_marker("measured_latency") is None:
        monkeypatch.setattr(E, "latency_table", lambda target: TR.FIXED_BUDGET)
