import tracemalloc

import numpy as np
import pytest

from mixprec import quantizer
from mixprec.quantizer import (
    LayerSpec,
    calibrate_scale_mse,
    perturbation,
    quantize,
    _candidate_scales,
)


def test_hand_example_half_step_scale():
    # w/s = [1, -0.5, 1.5]; half-to-even sends -0.5 to 0 and 1.5 to 2,
    # and 2 clips to the top code 1 of the 2-bit grid.
    got = quantize([0.5, -0.25, 0.75], 2, 0.5)
    assert np.array_equal(got, [0.5, 0.0, 0.5])


def test_hand_example_unit_scale_clipping():
    got = quantize([1.2, -3.4, 0.1], 3, 1.0)
    assert np.array_equal(got, [1.0, -3.0, 0.0])


def test_hand_example_ties_to_even():
    got = quantize([2.5, -2.5, 3.49], 4, 1.0)
    assert np.array_equal(got, [2.0, -2.0, 3.0])


def test_quantize_preserves_shape():
    w = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert quantize(w, 4, 0.5).shape == (2, 3)


def test_quantize_rejects_bad_bits_and_scale():
    with pytest.raises(ValueError):
        quantize([1.0], 1, 0.5)
    with pytest.raises(ValueError):
        quantize([1.0], 2.5, 0.5)
    with pytest.raises(ValueError):
        quantize([1.0], 4, 0.0)
    with pytest.raises(ValueError):
        quantize([1.0], 4, -1.0)


def test_layer_spec_validation_and_immutability():
    layer = LayerSpec("w", np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert layer.count == 4
    assert layer.weights.shape == (4,)
    with pytest.raises(ValueError):
        LayerSpec("empty", np.array([]))
    with pytest.raises(ValueError):
        layer.weights[0] = 9.0


def test_calibration_all_zero_vector():
    assert calibrate_scale_mse(np.zeros(5), 4) == 1.0
    assert np.array_equal(perturbation(np.zeros(5), 4), np.zeros(5))


def test_calibration_rejects_empty():
    with pytest.raises(ValueError):
        calibrate_scale_mse(np.array([]), 4)


def test_calibrated_scale_comes_from_the_candidate_grid():
    rng = np.random.default_rng(11)
    for _ in range(50):
        w = rng.normal(size=16)
        bits = int(rng.integers(2, 9))
        scale = calibrate_scale_mse(w, bits)
        cands = _candidate_scales(float(np.max(np.abs(w))), bits)
        assert scale in cands


def test_calibration_attains_the_grid_minimum():
    # Brute-force every candidate through the public quantize() and make
    # sure the chosen scale is never beaten.
    rng = np.random.default_rng(23)
    for _ in range(40):
        w = rng.normal(size=12) * float(rng.uniform(0.1, 10.0))
        bits = int(rng.integers(2, 9))
        scale = calibrate_scale_mse(w, bits)
        chosen = float(np.mean((quantize(w, bits, scale) - w) ** 2))
        for cand in _candidate_scales(float(np.max(np.abs(w))), bits):
            other = float(np.mean((quantize(w, bits, float(cand)) - w) ** 2))
            assert chosen <= other


def _full_grid_scale(w, bits):
    """The calibration as one candidate x weight grid, without chunking."""
    cands = _candidate_scales(float(np.max(np.abs(w))), bits)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    q = np.clip(np.round(w[None, :] / cands[:, None]), lo, hi) * cands[:, None]
    return float(cands[int(np.argmin(np.mean((q - w[None, :]) ** 2, axis=1)))])


@pytest.mark.parametrize("chunk, sizes", [
    # the default 2**20 elements hold all 202 candidates in one chunk up to
    # 5,191 weights, and need two from 5,192 on
    (None, (5191, 5192)),
    # a small chunk puts several boundaries, and one row per chunk, in reach
    (1000, (1, 4, 5, 7, 499, 500, 501, 1000, 1001, 3000)),
])
def test_chunked_calibration_matches_full_grid(monkeypatch, chunk, sizes):
    if chunk is not None:
        monkeypatch.setattr(quantizer, "_CALIBRATE_CHUNK", chunk)
    rng = np.random.default_rng(len(sizes))
    for size in sizes:
        for bits in (2, 3, 4, 8):
            w = rng.normal(size=size) * float(rng.uniform(0.01, 100.0))
            assert calibrate_scale_mse(w, bits) == _full_grid_scale(w, bits)
            # coarse values put exact ties in the grid; the first must win
            coarse = np.round(w * 2.0) / 2.0
            if np.any(coarse):
                assert calibrate_scale_mse(coarse, bits) == _full_grid_scale(coarse, bits)


def test_calibration_memory_is_one_chunk_buffer():
    # one chunk of 2**20 float64 candidate x weight elements is 8 MiB
    w = np.random.default_rng(9).normal(size=65536)
    tracemalloc.start()
    try:
        calibrate_scale_mse(w, 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 12 * 2 ** 20


def test_scalar_layer_is_exactly_representable_at_every_width():
    # The min-max candidate scale puts max|w| on the top code, so a
    # single weight always quantizes to itself.
    for value in (0.7, -1.3, 42.0):
        for bits in (2, 3, 4, 8):
            assert np.array_equal(perturbation(np.array([value]), bits), [0.0])


def test_perturbation_accepts_layer_and_raw_array():
    w = np.array([0.4, -1.1, 0.9, 0.05])
    via_layer = perturbation(LayerSpec("w", w), 3)
    via_array = perturbation(w, 3)
    assert np.array_equal(via_layer, via_array)


def test_perturbation_error_is_bounded_by_half_step_inside_range():
    rng = np.random.default_rng(3)
    w = rng.uniform(-1.0, 1.0, size=200)
    scale = calibrate_scale_mse(w, 8)
    delta = perturbation(w, 8)
    inside = np.abs(w / scale) <= 2 ** 7 - 1
    assert np.all(np.abs(delta[inside]) <= 0.5 * scale + 1e-15)


def test_more_bits_never_hurt_calibrated_mse():
    rng = np.random.default_rng(5)
    for _ in range(20):
        w = rng.normal(size=32)
        errs = []
        for bits in (2, 3, 4, 6, 8):
            errs.append(float(np.mean(perturbation(w, bits) ** 2)))
        assert all(a >= b - 1e-18 for a, b in zip(errs, errs[1:]))
