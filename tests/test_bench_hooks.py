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


@pytest.mark.parametrize("sizes", [[2, 3, 4], [1, 5, 2, 3]])
def test_traced_build_matrix_sees_every_calibration_and_evaluation(sizes):
    # The traced per-layer metrics count calls to the public functions, so
    # each (layer, width) must still calibrate through calibrate_scale_mse
    # and every loss must go through the oracle's evaluate.
    from mixprec import BitMenu, random_quadratic, sensitivity

    menu = BitMenu((2, 4, 8))
    oracle = random_quadratic(5, sizes, 0.5)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        sensitivity.build_matrix(oracle, menu)
    finally:
        uninstall()
    spans = {}
    for span in tracer.spans:
        spans.setdefault(span[0], []).append(span)
    widths, layers = len(menu), len(sizes)
    calibrations = spans["quantizer.calibrate_scale_mse"]
    assert [s[4]["weights"] for s in calibrations] == [n for n in sizes for _ in range(widths)]
    assert len(spans["oracles.QuadraticOracle.evaluate"]) == (
        1 + widths * layers + widths ** 2 * layers * (layers - 1) // 2)
