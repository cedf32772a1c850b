"""Shared test set-up: trees sized by a fixed table, not by timings.

``ModelDrafter`` sizes its trees by a latency table that
``engine.latency_table`` measures once per process, so trees, ``tau`` and
pass counts would follow the machine's timings.  Every test gets
``tree.FIXED_BUDGET`` in its place (fixed-budget trees, whatever the
costs), except those marked ``measured_latency``, which exercise the
measurement itself.
"""

import pytest

from specdec import engine as E
from specdec import tree as TR


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "measured_latency: ModelDrafter uses this process's measured latency table")


@pytest.fixture(autouse=True)
def fixed_latency(request, monkeypatch):
    if request.node.get_closest_marker("measured_latency") is None:
        monkeypatch.setattr(E, "latency_table", lambda target: TR.FIXED_BUDGET)
