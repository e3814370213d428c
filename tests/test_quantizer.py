import warnings
from fractions import Fraction

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

from helpers import traced_peak


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


def _reference_quantize(w, bits, scale):
    """The expression ``quantize``'s docstring gives."""
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    return np.clip(np.round(np.asarray(w, dtype=np.float64) / scale), lo, hi) * scale


@pytest.mark.filterwarnings("ignore:overflow encountered")  # 1e300 / 1e-300, in both
def test_quantize_matches_its_docstring_byte_for_byte():
    rng = np.random.default_rng(8)
    ties = np.arange(-9.5, 10.0)  # every .5 tie, inside and past each range
    special = np.array([0.0, -0.0, -0.4, 0.4, 1e300, -1e300, np.inf, -np.inf, np.nan,
                        5e-324, -5e-324])
    for bits in (2, 3, 4, 8, 16, 53, 64, 1023):
        for scale in (1.0, 0.5, 0.1, 3.0, 1e-300, 2.0 ** -20):
            for w in (ties, ties * scale, special, rng.normal(size=(3, 5)) * 8.0 * scale):
                got = quantize(w, bits, scale)
                want = _reference_quantize(w, bits, scale)
                assert got.shape == want.shape
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (bits, scale, w)


def test_quantize_preserves_shape():
    w = np.arange(6, dtype=np.float64).reshape(2, 3)
    assert quantize(w, 4, 0.5).shape == (2, 3)


def test_quantize_rejects_bad_bits_and_scale():
    # one validator, the one BitMenu uses, for every entry point
    for bits in (float("inf"), float("nan"), 2.5, 1):
        for call in (lambda: quantize([1.0], bits, 0.5), lambda: calibrate_scale_mse([1.0], bits),
                     lambda: perturbation([1.0], bits)):
            with pytest.raises(ValueError, match="bit-widths must be"):
                call()
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


def test_layer_spec_owns_its_weights():
    # a caller's array is copied into immutable memory, and the caller
    # keeps writing to its own
    w = np.array([1.0, 2.0, 3.0])
    layer = LayerSpec("w", w)
    assert not np.shares_memory(layer.weights, w)
    w[0] = 9.0
    assert layer.weights.tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        layer.weights.setflags(write=True)
    # an immutable array is kept without a copy, a 2-D one raveled to a view
    kept = LayerSpec("k", layer.weights)
    assert np.shares_memory(kept.weights, layer.weights)
    grid = quantizer._immutable(np.arange(4.0).reshape(2, 2))
    assert np.shares_memory(LayerSpec("g", grid).weights, grid)
    # other dtypes are converted, and non-contiguous arrays raveled, to an
    # immutable copy
    ints = np.arange(3)
    layer = LayerSpec("i", ints)
    ints[0] = 5
    assert layer.weights.tolist() == [0.0, 1.0, 2.0]
    layer = LayerSpec("s", np.arange(6.0)[::2])
    assert quantizer._immutable(layer.weights) is layer.weights
    assert layer.weights.tolist() == [0.0, 2.0, 4.0]


def test_layer_spec_ignores_a_view_written_after_it_was_built():
    w = np.array([1.0, 2.0])
    view = w[:]
    layer = LayerSpec("x", w)
    view[0] = 9.0
    assert layer.weights.tolist() == [1.0, 2.0]


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


def _geomspace_grid(amax, bits):
    """The candidate grid as numpy's own ``geomspace``, then both min-max steps."""
    base = amax / 2 ** (bits - 1)
    grid = np.geomspace(quantizer.SCALE_SPAN_LO * base, quantizer.SCALE_SPAN_HI * base,
                        quantizer.SCALE_CANDIDATES)
    return np.concatenate([grid, [base, amax / (2 ** (bits - 1) - 1)]])


def _full_grid_scale(w, bits, block=None):
    """The calibration as a candidate x weight grid of plain expressions.

    By default the grid is one array; ``block`` scores that many candidates
    at a time to bound the memory of large layers, and since a row's mean
    depends only on that row the choice is the same.
    """
    cands = _geomspace_grid(float(np.max(np.abs(w))), bits)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    step = block or len(cands)
    mse = []
    for start in range(0, len(cands), step):
        c = cands[start:start + step, None]
        q = np.clip(np.round(w[None, :] / c), lo, hi) * c
        mse.append(np.mean((q - w[None, :]) ** 2, axis=1))
    return float(cands[int(np.argmin(np.concatenate(mse)))])


# max|w| across the float64 range, and small enough that the grid starts
# among the subnormals (below 2**-1022) at every width
_GRID_AMAX = np.concatenate([
    np.geomspace(1e-300, 1e300, 601),
    np.geomspace(1e-321, 1e-300, 61),
    [2.0 ** -1022, np.nextafter(2.0 ** -1022, 0.0), 5e-324 * 2 ** 20, np.finfo(float).max],
])


@pytest.mark.parametrize("bits", range(2, 17))
def test_candidate_scales_match_geomspace_byte_for_byte(bits):
    subnormal_starts = 0
    for amax in _GRID_AMAX.tolist():
        lo = quantizer.SCALE_SPAN_LO * (amax / 2 ** (bits - 1))
        if lo == 0.0:
            with pytest.raises(ValueError, match="outside the float64 range"):
                _candidate_scales(amax, bits)
            continue
        subnormal_starts += lo < 2.0 ** -1022
        got = _candidate_scales(amax, bits)
        want = _geomspace_grid(amax, bits)
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), amax
    assert subnormal_starts >= 20


@pytest.mark.parametrize("chunk", [None, 1000, 3])
def test_exact_mse_matches_its_docstring_byte_for_byte(monkeypatch, chunk):
    # None keeps every candidate in one chunk; 1000 elements hold a few rows
    # and leave a short last chunk; 3 scores a 4-weight layer row by row
    if chunk is not None:
        monkeypatch.setattr(quantizer, "_CALIBRATE_CHUNK", chunk)
    rng = np.random.default_rng(chunk or 0)
    for size in (1, 2, 3, 4, 7, 333, 1000):
        for bits in (2, 3, 4, 8, 16):
            w = rng.normal(size=size) * float(rng.uniform(0.01, 100.0))
            cands = _candidate_scales(float(np.max(np.abs(w))), bits)
            lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
            c = cands[:, None]
            want = np.mean((np.clip(np.round(w / c), lo, hi) * c - w) ** 2, axis=1)
            got = quantizer._exact_mse(w, cands, bits)
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), (size, bits)


def test_calibration_rejects_a_grid_outside_float64():
    # 5e-324 / 2 rounds to zero, so the smallest candidate would too
    with pytest.raises(ValueError, match=r"width of 2 bits for max\|w\| = 5e-324"):
        calibrate_scale_mse(np.array([5e-324]), 2)
    # 2**1099 levels do not fit a float64
    with pytest.raises(ValueError, match=r"width of 1100 bits for max\|w\| = 1.5"):
        perturbation(np.array([0.5, -1.5]), 1100)
    # 99 ulps is the smallest maximum whose 2-bit grid starts above zero
    assert calibrate_scale_mse(np.array([5e-324 * 99]), 2) > 0.0
    with pytest.raises(ValueError, match="outside the float64 range"):
        calibrate_scale_mse(np.array([5e-324 * 98]), 2)


def test_calibration_rejects_weights_whose_every_error_overflows():
    # every candidate's squared error is inf, so no scale is the minimum;
    # the 512-weight case is past the screen's range and scores every candidate.
    # Overflow is expected on the way, so it raises the error and warns of nothing.
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for w, bits in [([1e200, -3e199, 2.0], 4), (np.linspace(-1e200, 1e200, 512), 2)]:
            with pytest.raises(ValueError, match=rf"width of {bits} bits for max\|w\| = 1e\+200: "
                                                 "every candidate"):
                calibrate_scale_mse(np.array(w), bits)
        # some candidates overflow here, but the best one does not
        delta = perturbation(np.array([1e300, -2.0, 3.0]), 1024)
    assert np.all(np.isfinite(delta))


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


def _on_edges(w, bits, scale, rng, share=3):
    """``w`` with every ``share``-th weight moved onto a rounding edge of ``scale``."""
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    w = w.copy()
    w[::share] = (rng.integers(lo, hi, size=w[::share].size) + 0.5) * scale
    return w


@pytest.mark.parametrize("bits", range(2, 13))
def test_calibration_matches_full_grid_on_both_sides_of_the_screen(bits):
    rng = np.random.default_rng(100 + bits)
    screened = 32 * 2 ** bits  # the smallest layer the screen is used on
    for size in (screened - 1, screened):
        w = rng.normal(size=size) * float(rng.uniform(0.01, 100.0))
        cases = [w, np.round(rng.normal(size=size) * 8.0) / 8.0]
        if bits <= 8:
            cases.append(rng.standard_t(3, size=size))
        for case in cases:
            want = _full_grid_scale(case, bits, block=16)
            assert calibrate_scale_mse(case, bits) == want
            # weights exactly on the chosen scale's rounding edges
            edged = _on_edges(case, bits, want, rng)
            assert calibrate_scale_mse(edged, bits) == _full_grid_scale(edged, bits, block=16)


def _assert_screen_bound_holds(w, bits):
    """``|approx - n * exact| <= bound`` for every candidate, in exact arithmetic."""
    cands = _candidate_scales(float(np.max(np.abs(w))), bits)
    approx, bound = quantizer._screen(np.sort(w), cands, bits)
    exact = quantizer._exact_mse(w, cands, bits)
    for a, e, x in zip(approx, bound, exact):
        assert abs(Fraction(a) - w.size * Fraction(x)) <= Fraction(e)


def test_screen_bound_holds_in_exact_arithmetic():
    rng = np.random.default_rng(41)
    for size, bits in ((64, 2), (333, 3), (4096, 4), (4096, 8), (20000, 6), (65536, 8),
                       (8192, 12)):
        base = rng.normal(size=size)
        cands = _candidate_scales(float(np.max(np.abs(base))), bits)
        layers = [
            base,
            rng.standard_t(1, size=size),  # Cauchy: a few huge weights
            np.round(base * 8.0) / 8.0,
            base * 2.0 ** 190,
            base * 2.0 ** -380,
            rng.uniform(1e6, 1e6 + 1.0, size=size),  # far from zero: prefix sums cancel
            # weights on, and one ulp either side of, the edges of candidates
            # where the screen and the exact scorer may round differently
            _on_edges(base, bits, cands[-1], rng, share=2),
            np.nextafter(_on_edges(base, bits, cands[100], rng, share=1), np.inf),
            np.nextafter(_on_edges(base, bits, cands[150], rng, share=1), -np.inf),
        ]
        for w in layers:
            _assert_screen_bound_holds(w, bits)


def _tied_layer(seed, bits):
    """A screened layer whose best two candidates tie in real arithmetic.

    One weight is solved for, exactly, so that the two candidates' sums of
    squared errors agree; only its rounding to float64 and each path's own
    rounding tell them apart, so a screen that kept just its own minimum
    would pick the wrong one about half the time.
    """
    rng = np.random.default_rng(seed)
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    w = rng.normal(size=32 * 2 ** bits)
    cands = _candidate_scales(float(np.max(np.abs(w))), bits)
    best = int(np.flatnonzero(cands == _full_grid_scale(w, bits))[0])
    c1, c2 = cands[best], cands[best + 1 if best + 1 < len(cands) else best - 1]
    q1, q2 = (np.clip(np.round(w / c), lo, hi) for c in (c1, c2))
    err1, err2 = (sum((Fraction(x) - int(k) * Fraction(c)) ** 2 for x, k in zip(w, q))
                  for c, q in ((c1, q1), (c2, q2)))
    amax = np.max(np.abs(w))
    for i in np.flatnonzero((q1 * c1 != q2 * c2) & (np.abs(w) < amax)):
        a1, a2 = int(q1[i]) * Fraction(c1), int(q2[i]) * Fraction(c2)
        rest1 = err1 - (Fraction(w[i]) - a1) ** 2
        rest2 = err2 - (Fraction(w[i]) - a2) ** 2
        # rest1 + (x - a1)^2 == rest2 + (x - a2)^2 is linear in x
        x = float((a1 + a2) / 2 - (rest1 - rest2) / (2 * (a2 - a1)))
        if (abs(x) < amax and np.clip(np.round(x / c1), lo, hi) == q1[i]
                and np.clip(np.round(x / c2), lo, hi) == q2[i]):
            w[i] = x
            return w
    raise AssertionError("no weight can balance the two candidates")


@pytest.mark.parametrize("bits", (2, 3))
def test_screen_resolves_real_ties_exactly(bits):
    for seed in range(10):
        w = _tied_layer(seed, bits)
        assert calibrate_scale_mse(w, bits) == _full_grid_scale(w, bits)


def test_screen_keeps_only_near_minimal_candidates(monkeypatch):
    scored = []
    exact_mse = quantizer._exact_mse

    def spy(w, cands, bits):
        scored.append(len(cands))
        return exact_mse(w, cands, bits)

    monkeypatch.setattr(quantizer, "_exact_mse", spy)
    w = np.random.default_rng(8).normal(size=65536)
    for bits in (2, 4, 8):
        calibrate_scale_mse(w, bits)
    assert len(scored) == 3 and all(1 <= rows <= 3 for rows in scored)
    # below the screen's size every candidate goes through the same scorer
    calibrate_scale_mse(w[:64], 2)
    assert scored[-1] == len(_candidate_scales(1.0, 2))


def test_screen_falls_back_outside_its_proven_range():
    rng = np.random.default_rng(6)
    w = rng.normal(size=4096)
    cands = _candidate_scales(float(np.max(np.abs(w))), 4)
    assert len(quantizer._survivors(w, cands, 4)) < len(cands)
    for out in (w * 2.0 ** 201, np.where(np.arange(4096) == 7, 2.0 ** -401, w)):
        kept = quantizer._survivors(out, _candidate_scales(float(np.max(np.abs(out))), 4), 4)
        assert len(kept) == len(cands)
        assert calibrate_scale_mse(out, 4) == _full_grid_scale(out, 4)
    # zeros are exact in both paths and do not turn the screen off
    zeros = np.where(np.arange(4096) % 5 == 0, 0.0, w)
    assert len(quantizer._survivors(zeros, cands, 4)) < len(cands)
    assert calibrate_scale_mse(zeros, 4) == _full_grid_scale(zeros, 4)


@pytest.mark.parametrize("size, bits, mib", [
    # the sorted copy, its prefix sums and a few exact rows, where scoring
    # every candidate needs the full 8 MiB chunk buffer
    (65536, 4, 4),
    # 202 x 4,095 edges go in chunks that stay within one chunk buffer
    (131072, 12, 8),
])
def test_screened_calibration_memory(size, bits, mib):
    w = np.random.default_rng(9).normal(size=size)
    _, peak = traced_peak(calibrate_scale_mse, w, bits)
    assert peak <= mib * 2 ** 20


def test_unscreened_calibration_memory_is_one_chunk_buffer():
    # at 12 bits a 65,536-weight layer is below the screen's size, so all
    # 202 candidates go through the 8 MiB chunk buffer
    w = np.random.default_rng(10).normal(size=65536)
    _, peak = traced_peak(calibrate_scale_mse, w, 12)
    assert 8 * 2 ** 20 <= peak <= 12 * 2 ** 20


def test_calibration_memory_is_one_chunk_buffer():
    # one chunk of 2**20 float64 candidate x weight elements is 8 MiB
    w = np.random.default_rng(9).normal(size=65536)
    _, peak = traced_peak(calibrate_scale_mse, w, 8)
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
