"""The benchmark's tracer wraps mixprec functions by name; a rename or a
deletion here must fail these tests, not a traced benchmark run."""

import importlib
import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, BENCH)

import tracing  # noqa: E402


@pytest.mark.parametrize("module_name, path", [t[:2] for t in tracing.TARGETS])
def test_traced_name_resolves(module_name, path):
    owner = importlib.import_module(f"mixprec.{module_name}")
    for attr in path.split("."):
        owner = getattr(owner, attr)
    assert callable(owner)
