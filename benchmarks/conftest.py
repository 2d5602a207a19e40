"""Shared fixtures for the paper-reproduction benchmark harness.

Every bench regenerates one table or figure of the paper: it prints the
same rows/series the paper reports (run with ``pytest benchmarks/
--benchmark-only -s`` to see them), writes CSV artifacts under
``benchmarks/results/``, and uses ``pytest-benchmark`` to time the
underlying simulation/computation.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.gpusim import A100, MI250X_GCD, GPUSimulator, ANTARCTICA_16KM
from repro.perf import paper

RESULTS_DIR = Path(__file__).parent / "results"

_printed: set[str] = set()


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR


@pytest.fixture(scope="session")
def sim_a100() -> GPUSimulator:
    return GPUSimulator(A100)


@pytest.fixture(scope="session")
def sim_mi250x() -> GPUSimulator:
    return GPUSimulator(MI250X_GCD)


@pytest.fixture(scope="session")
def problem():
    return ANTARCTICA_16KM


@pytest.fixture
def print_once():
    """Print a block exactly once per session (benchmarks re-run bodies)."""

    def _print(key: str, text: str) -> None:
        if key not in _printed:
            _printed.add(key)
            print()
            print(text)

    return _print


@pytest.fixture(scope="session")
def paper_profiles():
    """The eight (kernel, GPU) profiles behind Tables III/IV and Figs 3/5."""
    return paper.paper_profiles()
