"""Fixtures shared by the test modules."""

import importlib.util
from pathlib import Path

import pytest


@pytest.fixture(scope="session")
def bench_inputs():
    """The benchmark's seeded input module, ``perfbench/inputs.py``, which
    builds its tables from closed forms without importing ``quandles``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py"
    spec = importlib.util.spec_from_file_location("perfbench_inputs", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module
