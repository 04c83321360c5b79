"""Shared helpers for the benchmark harness.

Every benchmark regenerates one exhibit of the paper (a Figure 1 panel, a
quoted reduction, or an ablation table) and prints the corresponding rows so
that running::

    pytest benchmarks/ --benchmark-only -s

reproduces the paper's evaluation output next to the timing statistics.
``repro headline`` prints the paper-versus-measured reductions they rest on.
"""

from __future__ import annotations

import pytest


def emit(title: str, body: str) -> None:
    """Print a labelled block of experiment output (visible with ``-s``)."""
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
    print(body)


@pytest.fixture(scope="session")
def figure1_cache():
    """Session-wide cache of Figure 1 panels so repeated benchmark rounds and
    the assertion phase reuse the already computed schedules."""
    cache: dict[str, object] = {}
    return cache
