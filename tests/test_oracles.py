import dataclasses
import itertools
import math
import os
import random

import numpy as np
import pytest

from mixprec import oracles, quantizer, spectra
from mixprec.oracles import (
    FileFormatError,
    LossOracle,
    QuadraticOracle,
    ToyClassifierOracle,
    load_oracle,
    make_moons,
    random_quadratic,
    save_oracle,
    train_toy,
    toy_training_accuracy,
)
from mixprec.sensitivity import (
    BitMenu,
    SensitivityMatrix,
    build_matrix,
    layer_perturbations,
    load_matrix,
    merge_batches,
    save_matrix,
)
from mixprec.quantizer import LayerSpec, perturbation

from helpers import (
    MatrixBackedOracle,
    golden_quartet_matrix,
    reference_train_toy,
    run_cli,
    traced_peak,
)


# ---------------------------------------------------------------------------
# quadratic oracle

def test_quadratic_evaluate_hand_example():
    q = QuadraticOracle([[2.0]], [3.0], [1], baseline=1.5)
    assert q.evaluate({}) == 1.5
    assert q.evaluate({0: [0.5]}) == 1.5 + 0.25


def test_quadratic_two_layer_cross_term():
    h = np.array([[1.0, 0.5], [0.5, 2.0]])
    q = QuadraticOracle(h, [0.0, 0.0], [1, 1])
    # 0.5 * (1*1 + 2*0.5*1*2 + 2*4) = 0.5 * 11
    assert q.evaluate({0: [1.0], 1: [2.0]}) == pytest.approx(5.5, rel=1e-15)


def test_quadratic_validation():
    with pytest.raises(ValueError):
        QuadraticOracle(np.zeros((2, 3)), [0.0, 0.0], [1, 1])
    with pytest.raises(ValueError):
        QuadraticOracle([[0.0, 1.0], [0.5, 0.0]], [0.0, 0.0], [1, 1])
    with pytest.raises(ValueError):
        QuadraticOracle(np.zeros((2, 2)), [0.0], [1, 1])
    with pytest.raises(ValueError, match="layer 'layer1' has no weights"):
        QuadraticOracle(np.eye(2), [0.0, 0.0], [2, 0])
    for count in (0, -3):
        with pytest.raises(ValueError, match="sample_count must be >= 1"):
            QuadraticOracle(np.eye(2), [0.0, 0.0], [1, 1], sample_count=count)
    q = QuadraticOracle(np.eye(2), [0.0, 0.0], [1, 1])
    with pytest.raises(ValueError):
        q.evaluate({2: [1.0]})
    with pytest.raises(ValueError):
        q.evaluate({0: [1.0, 2.0]})


def test_quadratic_oracle_checks_the_optimum_once(monkeypatch):
    # The layers view the checked optimum, so their weights are not
    # scanned for non-finite values a second time.
    calls = []
    checked = quantizer._require_finite
    monkeypatch.setattr(quantizer, "_require_finite",
                        lambda a, what: calls.append(what) or checked(a, what))
    q = random_quadratic(0, [2, 3, 4], 0.5)
    assert calls == []
    assert [layer.count for layer in q.layers] == [2, 3, 4]
    assert all(not layer.weights.flags.writeable for layer in q.layers)


def test_quadratic_block_accessor():
    q = random_quadratic(0, [2, 3], 1.0)
    h = q.curvature
    assert np.array_equal(q.block(0, 1), h[0:2, 2:5])
    assert np.array_equal(q.block(1, 1), h[2:5, 2:5])


def test_quadratic_evaluate_matches_dense_reference():
    sizes = [3, 1, 5, 2]
    q = random_quadratic(4, sizes, 0.7)
    q = QuadraticOracle(q.curvature, np.zeros(sum(sizes)), sizes, baseline=0.75)
    rng = np.random.default_rng(0)
    vecs = [rng.normal(size=s) for s in sizes]
    starts = np.cumsum([0] + sizes)
    cases = [{}, {2: vecs[2]}, {3: vecs[3], 0: vecs[0]}, dict(enumerate(vecs))]
    for case in cases:
        delta = np.zeros(sum(sizes))
        for idx, vec in case.items():
            delta[starts[idx]:starts[idx + 1]] = vec
        want = 0.75 + 0.5 * float(delta @ q.curvature @ delta)
        got = q.evaluate(case)
        assert got == pytest.approx(want, rel=1e-12, abs=0.0)
        assert all(q.evaluate(case) == got for _ in range(3))
    assert q.evaluate({}) == 0.75


def test_quadratic_evaluate_reads_only_perturbed_rows():
    sizes = [3, 1, 5, 2]
    q = random_quadratic(4, sizes, 0.7)
    case = {1: [1e10], 3: [0.25, -1.0]}
    want = q.evaluate(case)
    starts = np.cumsum([0] + sizes)
    # Poison the rows (and, for symmetry, the columns) of layers 0 and 2,
    # which a call perturbing layers 1 and 3 must never read: such a row
    # times the perturbation overflows to inf, and inf times its zero
    # perturbation is NaN.
    h = q.curvature.copy()
    for idx in (0, 2):
        h[starts[idx]:starts[idx + 1], :] = 1e300
        h[:, starts[idx]:starts[idx + 1]] = 1e300
    poisoned = QuadraticOracle(h, np.concatenate([l.weights for l in q.layers]), sizes)
    assert poisoned.evaluate(case) == want
    assert poisoned.evaluate({2: np.ones(5)}) > 1e300


def test_quadratic_oracle_rejects_an_asymmetric_curvature():
    dim = 130  # three stripes of rows in the symmetry check
    QuadraticOracle(np.eye(dim) + 0.5, np.zeros(dim), [dim])
    for i, j in ((0, 1), (3, 129), (70, 128), (129, 65), (128, 129)):
        h = np.eye(dim)
        h[i, j] = 0.5
        with pytest.raises(ValueError, match="exactly symmetric"):
            QuadraticOracle(h, np.zeros(dim), [dim])


def test_random_quadratic_is_psd_and_deterministic():
    for rho in (0.0, 0.4, 1.0):
        q1 = random_quadratic(5, [3, 2, 4], rho)
        q2 = random_quadratic(5, [3, 2, 4], rho)
        assert np.array_equal(q1.curvature, q2.curvature)
        assert np.array_equal(q1.layers[0].weights, q2.layers[0].weights)
        top = np.linalg.norm(q1.curvature, 2)
        assert np.linalg.eigvalsh(q1.curvature).min() >= -1e-12 * top


def test_random_quadratic_rho_interpolates_blocks():
    zero = random_quadratic(3, [2, 2], 0.0)
    half = random_quadratic(3, [2, 2], 0.5)
    full = random_quadratic(3, [2, 2], 1.0)
    assert np.array_equal(zero.block(0, 1), np.zeros((2, 2)))
    assert np.array_equal(zero.block(0, 0), full.block(0, 0))
    assert np.allclose(half.block(0, 1), 0.5 * full.block(0, 1), rtol=0, atol=1e-16)


def test_random_quadratic_sample_ratio_changes_spectrum():
    fat = random_quadratic(2, [4, 4], 1.0, sample_ratio=2.0)
    thin = random_quadratic(2, [4, 4], 1.0, sample_ratio=0.5)
    # 0.5 * 8 = 4 gaussian rows cannot span 8 dimensions.
    assert np.linalg.matrix_rank(thin.curvature) == 4
    assert np.linalg.matrix_rank(fat.curvature) == 8


def test_random_quadratic_validation():
    with pytest.raises(ValueError):
        random_quadratic(0, [2, 2], -0.1)
    with pytest.raises(ValueError):
        random_quadratic(0, [2, 2], 1.1)
    for ratio in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="sample_ratio"):
            random_quadratic(0, [2, 2], 0.5, sample_ratio=ratio)
    with pytest.raises(ValueError, match="sample_count must be >= 1"):
        random_quadratic(0, [2, 2], 0.5, sample_count=0)


# ---------------------------------------------------------------------------
# toy classifier

def test_moons_windows_tile_exactly():
    x_all, y_all = make_moons(3, 128)
    x_a, y_a = make_moons(3, 64)
    x_b, y_b = make_moons(3, 64, start=64)
    assert np.array_equal(x_all, np.vstack([x_a, x_b]))
    assert np.array_equal(y_all, np.concatenate([y_a, y_b]))


def test_moons_rejects_negative_window():
    with pytest.raises(ValueError):
        make_moons(0, -1)


def test_train_toy_is_deterministic():
    a = train_toy(5, epochs=40)
    b = train_toy(5, epochs=40)
    for wa, wb in zip(a.model.weights, b.model.weights):
        assert np.array_equal(wa, wb)
    assert a.evaluate({}) == b.evaluate({})


def _bits(arrays):
    return [a.view(np.uint64) for a in arrays]


@pytest.mark.parametrize("config, stops_early", [
    # stops on loss_target after 87 of its 400 updates
    (dict(seed=0, depth=4, hidden=16, epochs=400, loss_target=0.02), True),
    # capped by epochs; hidden 7 puts the views at offsets of 8 but not 64 bytes
    (dict(seed=1, depth=3, hidden=7, epochs=150), False),
    (dict(seed=2, depth=2, hidden=4, epochs=120, train_count=100), False),
    (dict(seed=3, depth=5, hidden=24, epochs=40, train_count=77), False),
    (dict(seed=4, depth=8, hidden=16, epochs=60, noise=0.3, lr=0.03), False),
])
def test_train_toy_matches_the_per_array_reference_bit_for_bit(config, stops_early):
    weights, biases, updates = reference_train_toy(**config)
    assert (updates < config["epochs"]) == stops_early
    model = train_toy(**config, eval_count=8).model
    assert all(map(np.array_equal, _bits(model.weights), _bits(weights)))
    assert all(map(np.array_equal, _bits(model.biases), _bits(biases)))


def test_train_toy_keeps_every_parameter_in_one_frozen_buffer():
    model = train_toy(0, epochs=3, depth=3, hidden=5, eval_count=8).model
    flat = model.weights[0].base
    assert flat.ndim == 1
    assert flat.size == sum(a.size for a in model.weights + model.biases)
    assert all(a.base is flat for a in model.weights + model.biases)
    assert not flat.flags.writeable
    # weights, then biases: the container's payload order
    assert np.array_equal(flat, np.concatenate([a.ravel() for a in model.weights + model.biases]))


def test_toy_oracle_interface():
    oracle = train_toy(1, epochs=30, eval_count=32)
    assert oracle.sample_count == 32
    assert len(oracle.layers) == 8
    assert oracle.layers[0].count == 2 * 16
    assert oracle.layers[-1].count == 16 * 2
    base = oracle.evaluate({})
    assert base == oracle.evaluate({})
    bumped = oracle.evaluate({0: np.full(32, 0.1)})
    assert bumped != base
    # evaluate must not mutate the stored weights
    assert oracle.evaluate({}) == base
    assert 0.0 <= toy_training_accuracy(oracle.model) <= 1.0


def test_toy_eval_windows_are_held_out_and_tiled():
    oracle_a = train_toy(2, epochs=20, eval_start=0, eval_count=16)
    oracle_b = train_toy(2, epochs=20, eval_start=16, eval_count=16)
    train_x, _ = make_moons(2, 16)
    assert not np.array_equal(oracle_a._eval_x, train_x)
    assert not np.array_equal(oracle_a._eval_x, oracle_b._eval_x)


def test_train_toy_validation():
    with pytest.raises(ValueError):
        train_toy(0, epochs=0)
    with pytest.raises(ValueError):
        train_toy(0, depth=1)
    with pytest.raises(ValueError):
        train_toy(0, epochs=5, eval_count=0)
    for name, value in (("hidden", 0), ("hidden", -3), ("train_count", 0),
                        ("noise", -1.0), ("noise", math.nan), ("noise", math.inf)):
        with pytest.raises(ValueError, match=name):
            train_toy(0, epochs=5, **{name: value})


def test_toy_model_arrays_are_read_only(tmp_path):
    oracle = train_toy(1, epochs=5, depth=3, eval_count=8)
    path = tmp_path / "toy.bin"
    save_oracle(oracle, path)
    for model in (oracle.model, load_oracle(path).model):
        for arr in model.weights + model.biases:
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[...] = 0.0
            # immutable: neither the array nor its base can be made writable
            for owner in (arr, arr.base):
                with pytest.raises(ValueError):
                    owner.setflags(write=True)
    base = oracle.evaluate({})
    with pytest.raises(ValueError):
        oracle.model.weights[0][0, 0] = 1.0
    assert oracle.evaluate({}) == base


def test_quadratic_oracle_owns_its_arrays(tmp_path):
    h = np.array([[2.0, 0.5], [0.5, 1.0]])
    opt = np.array([1.0, -1.0])
    q = QuadraticOracle(h, opt, [1, 1])
    base = q.evaluate({0: [0.25]})
    # the caller's arrays are copied into immutable memory; the caller
    # keeps writing to its own
    assert not np.shares_memory(q.curvature, h)
    h[0, 0] = 5.0
    opt[0] = 7.0
    assert q.evaluate({0: [0.25]}) == base
    assert q.layers[0].weights.tolist() == [1.0]
    for arr in (q.curvature, q.layers[0].weights):
        with pytest.raises(ValueError):
            arr[0] = 7.0
        with pytest.raises(ValueError):
            arr.setflags(write=True)
    # memory of a writable non-array is copied too
    raw = bytearray(np.array([1.0, -1.0]).tobytes())
    q = QuadraticOracle(np.eye(2), np.frombuffer(raw), [1, 1])
    raw[:8] = np.array([9.0]).tobytes()
    assert q.layers[0].weights.tolist() == [1.0]
    # a loaded oracle views its container's payload, one bytes object,
    # and an oracle built on immutable arrays keeps them without a copy
    path = tmp_path / "q.bin"
    save_oracle(random_quadratic(2, [3, 2], 0.5), path)
    loaded = load_oracle(path)
    payloads = {id(_root(a)) for a in [loaded.curvature] + [l.weights for l in loaded.layers]}
    assert len(payloads) == 1 and isinstance(_root(loaded.curvature), bytes)
    assert QuadraticOracle(loaded.curvature, np.zeros(5), [3, 2]).curvature is loaded.curvature


def _root(a):
    """The object at the end of ``a``'s chain of bases."""
    while isinstance(a, np.ndarray):
        a = a.base
    return a


def test_quadratic_oracle_ignores_a_view_written_after_it_was_built():
    h = np.array([[2.0, 0.0], [0.0, 2.0]])
    opt = np.array([1.0, -1.0])
    h_view, opt_view = h[:], opt[:]
    q = QuadraticOracle(h, opt, [1, 1])
    before = q.evaluate({0: [1.0]})
    h_view[0, 0] = 100.0
    opt_view[0] = 9.0
    assert q.evaluate({0: [1.0]}) == before == 1.0
    assert q.layers[0].weights.tolist() == [1.0]


def _quadratic_arrays(q):
    return [q.curvature, *q._row_blocks, *(layer.weights for layer in q.layers)]


def _toy_arrays(oracle):
    model = oracle.model
    return [*model.weights, *model.biases, *(layer.weights for layer in oracle.layers)]


def _saved(save, load, obj, path):
    save(obj, path)
    return load(path)


def _measured(seed):
    return build_matrix(random_quadratic(seed, [3, 2], 0.5), (2, 4))


# Every array each kind of object keeps, as the object is built or loaded.
_KEPT_ARRAYS = {
    "layer_spec": lambda tmp: [LayerSpec("w", np.arange(6.0).reshape(2, 3)).weights],
    "quadratic_built": lambda tmp: _quadratic_arrays(random_quadratic(1, [3, 2], 0.5)),
    "quadratic_loaded": lambda tmp: _quadratic_arrays(
        _saved(save_oracle, load_oracle, random_quadratic(1, [3, 2], 0.5), tmp / "q.bin")),
    "toy_trained": lambda tmp: _toy_arrays(train_toy(1, epochs=5, depth=3, eval_count=8)),
    "toy_loaded": lambda tmp: _toy_arrays(_saved(
        save_oracle, load_oracle, train_toy(1, epochs=5, depth=3, eval_count=8), tmp / "t.bin")),
    "matrix_built": lambda tmp: [_measured(1).entries],
    "matrix_loaded": lambda tmp: [_saved(save_matrix, load_matrix, _measured(1),
                                         tmp / "m.txt").entries],
    "matrix_merged": lambda tmp: [merge_batches([_measured(1), _measured(2)]).entries],
    "layer_perturbations": lambda tmp: [
        vec for row in layer_perturbations(random_quadratic(1, [3, 2], 0.5).layers, (2, 4))
        for vec in row],
}


@pytest.mark.parametrize("kind", list(_KEPT_ARRAYS))
def test_every_kept_array_is_a_float64_view_of_bytes(kind, tmp_path):
    arrays = _KEPT_ARRAYS[kind](tmp_path)
    assert arrays
    for arr in arrays:
        assert arr.dtype == np.float64 and isinstance(_root(arr), bytes)


def test_load_oracle_holds_the_payload_once(tmp_path):
    dim = 1024
    path = tmp_path / "q.bin"
    save_oracle(QuadraticOracle(np.eye(dim), np.zeros(dim), [64] * 16), path)
    oracle, peak = traced_peak(load_oracle, path)
    payload = 8 * (dim * dim + dim)
    assert oracle.curvature.shape == (dim, dim)
    # A second copy of the payload, or of the curvature, would read about 2x.
    assert peak < 1.5 * payload


@pytest.fixture(scope="module")
def small_toy():
    """A trained depth-4 toy; tests build their own oracles on its model."""
    return train_toy(3, epochs=60, depth=4, hidden=16, eval_count=32).model


def _fresh_loss(model, perturbations):
    return ToyClassifierOracle(model, eval_count=32).evaluate(perturbations)


def test_toy_evaluate_matches_a_fresh_oracle_in_any_call_order(small_toy):
    oracle = ToyClassifierOracle(small_toy, eval_count=32)
    rng = np.random.default_rng(0)
    vecs = [[rng.normal(0.0, 0.05, layer.count) for _ in range(2)] for layer in oracle.layers]
    count = len(vecs)
    calls = [{}]
    calls += [{i: vecs[i][m]} for i in range(count) for m in range(2)]
    calls += [{i: vecs[i][m], j: vecs[j][n]}
              for i, j in itertools.combinations(range(count), 2)
              for m in range(2) for n in range(2)]
    calls += [{3: vecs[3][1], 1: vecs[1][0]}, dict(enumerate(v[1] for v in vecs))]
    repeated = {0: vecs[0][1], 2: vecs[2][0]}
    shared = vecs[1][1].copy()
    mutated = {1: shared}
    # Each step is a run of consecutive calls; "mutate" writes into ``shared``.
    steps = [[call] for call in calls] + [[repeated, repeated], [mutated, "mutate", mutated]]
    random.Random(7).shuffle(steps)
    for step in steps:
        for call in step:
            if isinstance(call, str):
                shared[::3] += 0.01
                continue
            assert oracle.evaluate(call) == _fresh_loss(small_toy, call)


class _FreshOraclePerCall(LossOracle):
    def __init__(self, oracle):
        self.layers = oracle.layers
        self._model = oracle.model

    @property
    def sample_count(self) -> int:
        return 32

    def evaluate(self, perturbations) -> float:
        return _fresh_loss(self._model, perturbations)


@pytest.fixture(scope="module")
def deep_toy():
    """A trained depth-6 toy, so pair orders span more layers."""
    return train_toy(3, epochs=60, depth=6, hidden=16, eval_count=32).model


@pytest.mark.parametrize("model_name, same_layer_cross", [
    ("small_toy", False), ("small_toy", True), ("deep_toy", False), ("deep_toy", True),
], ids=["False", "True", "depth6-False", "depth6-True"])
def test_toy_build_matrix_matches_a_fresh_oracle_per_call(request, model_name,
                                                          same_layer_cross):
    oracle = ToyClassifierOracle(request.getfixturevalue(model_name), eval_count=32)
    menu = BitMenu((2, 4, 8))
    table = layer_perturbations(oracle.layers, menu)
    fresh = build_matrix(_FreshOraclePerCall(oracle), menu, deltas=table,
                         include_same_layer_cross=same_layer_cross)
    # The immutable table is reused by identity; build_matrix copies
    # writable deltas into immutable memory first.
    writable = [[vec.copy() for vec in row] for row in table]
    for deltas in (table, writable):
        reused = build_matrix(oracle, menu, deltas=deltas,
                              include_same_layer_cross=same_layer_cross)
        assert reused.entries.tobytes() == fresh.entries.tobytes()


def test_toy_trusts_by_identity_only_arrays_that_cannot_change(small_toy):
    oracle = ToyClassifierOracle(small_toy, eval_count=32)
    rng = np.random.default_rng(5)
    size = small_toy.weights[1].size
    writable, base, frozen_later = (rng.normal(0.0, 0.05, size) for _ in range(3))
    view = base[:]
    view.setflags(write=False)  # read-only, but its base is not
    # Each case: the array passed, and the array written between its two calls.
    for vec, target in [(writable, writable), (view, base), (frozen_later, frozen_later)]:
        before = oracle.evaluate({1: vec})
        assert before == _fresh_loss(small_toy, {1: vec})
        target[::3] += 0.01
        if vec is frozen_later:
            vec.setflags(write=False)  # read-only now, but written since it was traced
        after = oracle.evaluate({1: vec})
        assert after != before
        assert after == _fresh_loss(small_toy, {1: vec})


def _rebuilds(model, table, menu):
    """Effective-weight rebuilds over one toy ``build_matrix``: the weights
    each forward pass is handed that are not the model's own."""
    oracle = ToyClassifierOracle(model, eval_count=32)
    rebuilds, forward = 0, oracles._forward

    def watching(weights, *args):
        nonlocal rebuilds
        rebuilds += sum(w is not m for w, m in zip(weights, model.weights))
        return forward(weights, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(oracles, "_forward", watching)
        build_matrix(oracle, menu, deltas=table)
    return rebuilds


def test_toy_build_matrix_rebuilds_one_layer_a_call_and_compares_none_in_full(small_toy):
    menu = BitMenu((2, 4, 8))
    table = layer_perturbations(ToyClassifierOracle(small_toy, eval_count=8).layers, menu)
    calls = 1 + 4 * 3 + 6 * 3 * 3
    # Each call after the baseline builds the one layer it newly perturbs;
    # its pass starts there, so no earlier perturbed layer is built again,
    # and the trace is matched by identity, so nothing is compared.
    # build_matrix makes writable copies immutable once, so they rebuild
    # no more than the table.
    writable = [[vec.copy() for vec in row] for row in table]
    for deltas in (table, writable):
        assert _rebuilds(small_toy, deltas, menu) == calls - 1


def _counting_forward(monkeypatch):
    """Patch ``oracles._forward`` to record each pass's start layer; returns
    the list of starts."""
    starts = []
    forward = oracles._forward

    def counting(weights, biases, h, start=0, out=None):
        starts.append(start)
        return forward(weights, biases, h, start, out)

    monkeypatch.setattr(oracles, "_forward", counting)
    return starts


def _hidden_steps_per_layer(model, bits=(2, 4, 8), writable=False):
    """Evaluation calls and runs of each hidden layer over one toy
    ``build_matrix`` at the given menu, from the table or its copies."""
    oracle = ToyClassifierOracle(model, eval_count=32)
    menu = BitMenu(bits)
    table = layer_perturbations(oracle.layers, menu)
    if writable:
        table = [[vec.copy() for vec in row] for row in table]
    with pytest.MonkeyPatch.context() as patch:
        starts = _counting_forward(patch)
        build_matrix(oracle, menu, deltas=table)
    hidden = len(model.weights) - 1
    return len(starts), [sum(start <= k for start in starts) for k in range(hidden)]


def test_toy_build_matrix_resumes_from_shared_prefixes(small_toy):
    calls, runs = _hidden_steps_per_layer(small_toy)
    assert calls == 1 + 4 * 3 + 6 * 3 * 3
    # Full passes would run all 3 hidden layers in each of the 67 calls: 201.
    assert runs == [4, 16, 37]
    assert sum(runs) == 57


def test_toy_build_matrix_resumes_as_far_from_writable_deltas(small_toy):
    assert _hidden_steps_per_layer(small_toy, writable=True) == (1 + 4 * 3 + 6 * 3 * 3,
                                                                 [4, 16, 37])


@pytest.mark.parametrize("depth", [3, 5])
def test_toy_build_matrix_runs_each_hidden_layer_the_fewest_times(depth):
    model = train_toy(3, epochs=1, depth=depth, hidden=8, eval_count=32).model
    for bits in [(2, 8), (2, 4, 8), (2, 3, 4, 8)]:
        _, runs = _hidden_steps_per_layer(model, bits)
        nb = len(bits)
        # Hidden layer k must run in the baseline, in the nb singles on each
        # of layers 0..k and in the nb**2 pairs of each two layers up to k;
        # every pair reuses everything before its second layer, so it runs
        # no more.
        assert runs == [1 + nb * (k + 1) + nb * nb * k * (k + 1) // 2
                        for k in range(depth - 1)], bits


def test_toy_zero_perturbation_resumes_from_its_own_layer(small_toy, monkeypatch):
    starts = _counting_forward(monkeypatch)
    for i, w in enumerate(small_toy.weights):
        oracle = ToyClassifierOracle(small_toy, eval_count=32)
        baseline = oracle.evaluate({})
        # A zero perturbation is not an immutable array the trace holds, so
        # its layer is rebuilt and the pass starts there; the result is
        # the baseline's, byte for byte.
        loss = oracle.evaluate({i: np.zeros(w.size)})
        assert starts[-2:] == [0, i]
        assert np.float64(loss).tobytes() == np.float64(baseline).tobytes()


def _reshaped_perturbations():
    """A (2, 2)-shaped and a strided perturbation of 4 weights, each with
    its flat contiguous copy."""
    rng = np.random.default_rng(5)
    shaped = rng.normal(size=(2, 2))
    strided = rng.normal(size=8)[::2]
    return [(shaped, shaped.flatten()), (strided, strided.copy())]


def test_quadratic_evaluates_shaped_and_strided_perturbations_as_flat_ones():
    q = random_quadratic(6, [4, 3, 4], 0.8)
    for vec, flat in _reshaped_perturbations():
        assert q.evaluate({0: vec}) == q.evaluate({0: flat})
        assert q.evaluate({2: vec, 0: flat}) == q.evaluate({2: flat, 0: flat})


def test_toy_evaluates_shaped_and_strided_perturbations_as_flat_ones(monkeypatch):
    model = train_toy(3, epochs=5, depth=3, hidden=2, eval_count=32).model
    assert [w.size for w in model.weights] == [4, 4, 4]
    for vec, flat in _reshaped_perturbations():
        for idx in range(3):
            oracle = ToyClassifierOracle(model, eval_count=32)
            assert oracle.evaluate({idx: vec}) == _fresh_loss(model, {idx: flat})
    # Immutable arrays that arrive shaped or strided reach the trace as a
    # new flat array each call, so the next call rebuilds their layer
    # rather than resuming past it; only a flat one is resumed past.
    (shaped, flat), _ = _reshaped_perturbations()
    want = _fresh_loss(model, {0: flat})
    starts = _counting_forward(monkeypatch)
    for vec in (quantizer._immutable(shaped), quantizer._immutable(np.repeat(flat, 2))[::2],
                quantizer._immutable(flat)):
        oracle = ToyClassifierOracle(model, eval_count=32)
        assert oracle.evaluate({0: vec}) == oracle.evaluate({0: vec}) == want
    assert starts == [0, 0, 0, 0, 0, 2]


def test_toy_interrupted_pass_leaves_no_trace(small_toy, monkeypatch):
    oracle = ToyClassifierOracle(small_toy, eval_count=32)
    table = layer_perturbations(oracle.layers, (2, 4, 8))
    done = {2: table[2][0]}
    before = oracle.evaluate(done)
    forward = oracles._forward

    def interrupted(*args, **kwargs):
        forward(*args, **kwargs)  # the buffers now hold this pass's activations
        raise RuntimeError("interrupted")

    monkeypatch.setattr(oracles, "_forward", interrupted)
    with pytest.raises(RuntimeError, match="interrupted"):
        oracle.evaluate({0: table[0][0]})
    monkeypatch.undo()
    # The completed call's trace must not be resumed over the buffers the
    # interrupted pass overwrote.
    assert oracle.evaluate(done) == before == _fresh_loss(small_toy, done)


def test_forward_matches_the_out_of_place_chain_byte_for_byte():
    rng = np.random.default_rng(11)
    dims = (2, 17, 33, 8, 3)
    weights = [rng.normal(0.0, 0.7, size=(a, b)) for a, b in zip(dims[:-1], dims[1:])]
    biases = [rng.normal(0.0, 0.3, size=b) for b in dims[1:]]
    x = rng.normal(size=(29, 2))
    kept = x.copy()
    want = []
    h = x
    for w, b in zip(weights[:-1], biases[:-1]):
        h = np.tanh(h @ w + b)
        want.append(h)
    want.append(h @ weights[-1] + biases[-1])
    got = oracles._forward(weights, biases, x)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    resumed = oracles._forward(weights, biases, want[1], start=2)
    assert [a.tobytes() for a in resumed] == [a.tobytes() for a in want[2:]]
    # into buffers: the same bytes, written where asked
    buffers = [np.full_like(a, np.nan) for a in want]
    got = oracles._forward(weights, biases, x, out=buffers)
    assert all(a is b for a, b in zip(got, buffers))
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    # a resumed pass reads its input from the buffers and rewrites only later ones
    for a in buffers[2:]:
        a.fill(np.nan)
    resumed = oracles._forward(weights, biases, buffers[1], start=2, out=buffers)
    assert all(a is b for a, b in zip(resumed, buffers[2:]))
    assert [a.tobytes() for a in buffers] == [a.tobytes() for a in want]
    assert x.tobytes() == kept.tobytes()


def test_array_holding_records_compare_and_hash_by_identity(small_toy):
    layer = quantizer.LayerSpec("w", np.zeros(2))
    twin = quantizer.LayerSpec("w", np.zeros(2))
    matrix = golden_quartet_matrix()
    eig = spectra.eigh(matrix.entries)
    for record, other in [(layer, twin),
                          (small_toy, dataclasses.replace(small_toy)),
                          (matrix, matrix.with_entries(matrix.entries)),
                          (eig, spectra.EigenDecomposition(eig.eigenvalues,
                                                           eig.eigenvectors))]:
        assert record == record
        assert record != other
        assert hash(record) == hash(record)
        assert record in {record}
        assert other not in {record}


# ---------------------------------------------------------------------------
# replay oracle

def test_replay_oracle_reproduces_stored_entries():
    matrix = golden_quartet_matrix()
    oracle = MatrixBackedOracle(matrix, seed=3)
    assert oracle.evaluate({}) == 0.0
    nb = len(matrix.menu)
    deltas = [[perturbation(layer, b) for b in matrix.menu]
              for layer in oracle.layers]
    for i in range(matrix.num_layers):
        for m in range(nb):
            loss = oracle.evaluate({i: deltas[i][m]})
            assert loss == 0.5 * matrix.entries[i * nb + m, i * nb + m]
    joint = oracle.evaluate({0: deltas[0][0], 1: deltas[1][0]})
    want = 0.5 * (matrix.entries[0, 0] + matrix.entries[2, 2] + 2 * 0.009)
    assert joint == pytest.approx(want, rel=1e-15)


def test_replay_oracle_roundtrips_through_build_matrix():
    matrix = golden_quartet_matrix()
    rebuilt = build_matrix(MatrixBackedOracle(matrix, seed=3), matrix.menu)
    assert np.allclose(rebuilt.entries, matrix.entries, rtol=0, atol=1e-12)
    assert np.array_equal(np.diag(rebuilt.entries), np.diag(matrix.entries))


def test_replay_oracle_rejects_unknown_perturbation():
    oracle = MatrixBackedOracle(golden_quartet_matrix(), seed=3)
    with pytest.raises(ValueError):
        oracle.evaluate({0: np.full(oracle.layers[0].count, 0.123)})


# ---------------------------------------------------------------------------
# container round-trips

def test_quadratic_container_roundtrip(tmp_path):
    q = random_quadratic(4, [3, 2], 0.7)
    path = tmp_path / "quad.bin"
    save_oracle(q, path)
    loaded = load_oracle(path)
    # float32 payload: reloading equals the float32 rounding of the original
    assert np.array_equal(loaded.curvature, q.curvature.astype(np.float32).astype(np.float64))
    save_oracle(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_toy_container_roundtrip(tmp_path):
    oracle = train_toy(6, epochs=25)
    path = tmp_path / "toy.bin"
    save_oracle(oracle, path)
    loaded = load_oracle(path, eval_count=64)
    assert isinstance(loaded.model.dims, tuple)
    assert loaded.model.dims == oracle.model.dims
    assert loaded.sample_count == 64
    save_oracle(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_failed_save_keeps_the_previous_container(tmp_path, monkeypatch):
    path = tmp_path / "quad.bin"
    save_oracle(random_quadratic(4, [3, 2], 0.7), path)
    before = path.read_bytes()

    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_oracle(random_quadratic(5, [3, 2], 0.7), path)
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == [path.name]


def test_load_window_slices_eval_stream(tmp_path):
    oracle = train_toy(6, epochs=25)
    path = tmp_path / "toy.bin"
    save_oracle(oracle, path)
    a = load_oracle(path, eval_start=0, eval_count=32)
    b = load_oracle(path, eval_start=32, eval_count=32)
    assert not np.array_equal(a._eval_x, b._eval_x)
    assert a.evaluate({}) != b.evaluate({})


def test_load_rejects_an_empty_quadratic_window(tmp_path):
    path = tmp_path / "quad.bin"
    save_oracle(random_quadratic(4, [3, 2], 0.7), path)
    assert load_oracle(path, eval_count=5).sample_count == 5
    # every window, an unchanged one too, is a distinct oracle over the same arrays
    oracle = load_oracle(path)
    same = oracle.with_window(7, 1)
    assert same is not oracle and same.sample_count == 1
    assert same.curvature is oracle.curvature
    assert oracle.with_window(0, 5).curvature is oracle.curvature
    with pytest.raises(ValueError, match="sample_count must be >= 1"):
        load_oracle(path, eval_count=0)
    # a negative start is refused as a toy refuses it, whether or not the count changes
    for count in (None, 1, 5):
        with pytest.raises(ValueError, match="eval_start must be >= 0"):
            load_oracle(path, eval_start=-5, eval_count=count)
    with pytest.raises(ValueError, match="eval_start must be >= 0"):
        oracle.with_window(-1, 1)


def test_toy_window_over_the_loaded_window_is_an_oracle_of_its_own(tmp_path):
    path = tmp_path / "toy.bin"
    save_oracle(train_toy(6, epochs=25), path)
    oracle = load_oracle(path)
    table = layer_perturbations(oracle.layers, (2, 4))
    oracle.evaluate({1: table[1][0]})
    same = oracle.with_window(0, None)
    assert same is not oracle and same._window == oracle._window
    assert same.model is oracle.model
    fresh = load_oracle(path)
    for case in ({}, {1: table[1][0]}, {0: table[0][1]}, {0: table[0][0], 1: table[1][1]}):
        assert same.evaluate(case) == fresh.evaluate(case)
    assert same._outputs[0] is not oracle._outputs[0]


def test_save_rejects_unknown_oracle(tmp_path):
    with pytest.raises(TypeError):
        save_oracle(object(), tmp_path / "x.bin")


def test_container_error_reporting(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"NOTMAGIC" + b"\x00" * 16)
    with pytest.raises(FileFormatError):
        load_oracle(path)
    path.write_bytes(b"MIXPREC1\x10")
    with pytest.raises(FileFormatError):
        load_oracle(path)
    path.write_bytes(b"MIXPREC1" + (5).to_bytes(4, "little") + b"{###}")
    with pytest.raises(FileFormatError):
        load_oracle(path)
    path.write_bytes(b"MIXPREC1" + (9).to_bytes(4, "little") + b"{}")
    with pytest.raises(FileFormatError, match="truncated header$"):
        load_oracle(path)
    import json
    blob = json.dumps({"format": 99}).encode()
    path.write_bytes(b"MIXPREC1" + len(blob).to_bytes(4, "little") + blob)
    with pytest.raises(FileFormatError):
        load_oracle(path)
    blob = json.dumps({"format": 1, "kind": "mystery"}).encode()
    path.write_bytes(b"MIXPREC1" + len(blob).to_bytes(4, "little") + blob)
    with pytest.raises(FileFormatError):
        load_oracle(path)
    # a header field that is missing or of the wrong type, or no object at all
    toy, quad = tmp_path / "toy.bin", tmp_path / "quad.bin"
    save_oracle(train_toy(0, epochs=2, depth=2, hidden=2, eval_count=4), toy)
    save_oracle(random_quadratic(4, [2, 2], 0.5), quad)

    def without(header, name):
        return {k: v for k, v in header.items() if k != name}

    for source, edit, named in [
            (toy, lambda header: without(header, "seed"), "'seed'"),
            (quad, lambda header: without(header, "layer_sizes"), "'layer_sizes'"),
            (toy, lambda header: list(header), "not a JSON object"),
            (toy, lambda header: {**header, "dims": ["x", 2]}, "'dims'"),
            # well typed, but not the toy's 2 inputs and 2 or more classes;
            # [3, 1, 4] needs the same 12 values as the saved [2, 2, 2]
            (toy, lambda header: {**header, "dims": [3, 1, 4]}, "'dims'"),
            (toy, lambda header: {**header, "dims": [2, 2, 1]}, "'dims'"),
            (toy, lambda header: {**header, "dims": [2]}, "'dims'"),
            (toy, lambda header: {**header, "noise": -0.5}, "'noise'"),
            # numpy refuses a negative seed, and no training sample leaves
            # the toy's training accuracy undefined
            (toy, lambda header: {**header, "seed": -1}, "'seed'"),
            (toy, lambda header: {**header, "train_count": 0}, "'train_count'"),
            (toy, lambda header: {**header, "train_count": -5}, "'train_count'"),
            (toy, lambda header: {**header, "train_count": 2.0}, "'train_count'")]:
        raw = source.read_bytes()
        hlen = int.from_bytes(raw[8:12], "little")
        blob = json.dumps(edit(json.loads(raw[12:12 + hlen]))).encode()
        path.write_bytes(raw[:8] + len(blob).to_bytes(4, "little") + blob + raw[12 + hlen:])
        with pytest.raises(FileFormatError, match=f"bad.bin.*{named}"):
            load_oracle(path)
        code, _, err = run_cli("measure", "--model", str(path), "--bits", "2,4",
                               "--cache-dir", str(tmp_path / "cache"))
        assert code == 4 and named in err


@pytest.mark.parametrize("chunk", [1, 7, 30, 31])
def test_payload_reads_in_chunks_to_the_same_values(tmp_path, monkeypatch, chunk):
    # 25 + 5 = 30 values: single values, a short last chunk, one exact
    # chunk and one chunk larger than the payload
    monkeypatch.setattr(oracles, "_PAYLOAD_CHUNK", chunk)
    q = random_quadratic(4, [3, 2], 0.7)
    path = tmp_path / "quad.bin"
    save_oracle(q, path)
    loaded = load_oracle(path)
    assert np.array_equal(loaded.curvature, q.curvature.astype(np.float32).astype(np.float64))
    optimum = np.concatenate([layer.weights for layer in q.layers])
    assert np.array_equal(np.concatenate([layer.weights for layer in loaded.layers]),
                          optimum.astype(np.float32).astype(np.float64))


@pytest.mark.parametrize("extra", [1, 2, 3])
def test_ragged_payload_is_a_file_error(tmp_path, extra):
    path = tmp_path / "ragged.bin"
    save_oracle(random_quadratic(4, [2, 2], 0.5), path)
    path.write_bytes(path.read_bytes() + b"\x00" * extra)
    with pytest.raises(FileFormatError, match="ragged.bin.*whole number of float32"):
        load_oracle(path)
    code, _, err = run_cli("measure", "--model", str(path), "--bits", "2,4",
                           "--cache-dir", str(tmp_path / "cache"))
    assert code == 4
    assert "ragged.bin" in err


def test_truncated_quadratic_payload(tmp_path, monkeypatch):
    q = random_quadratic(4, [2, 2], 0.5)
    path = tmp_path / "quad.bin"
    save_oracle(q, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError):
        load_oracle(path)
    # a toy container whose payload does not fit its dims
    toy = tmp_path / "toy.bin"
    save_oracle(train_toy(1, epochs=2, depth=2, hidden=3, eval_count=8), toy)
    toy.write_bytes(toy.read_bytes()[:-4])
    with pytest.raises(FileFormatError, match="payload size does not match dims"):
        load_oracle(toy)
    # a file that ends before the size it reported when it was opened
    path.write_bytes(blob)
    fstat = os.fstat

    def longer(fd):
        st = fstat(fd)
        return os.stat_result(st[:6] + (st.st_size + 8,) + st[7:])

    monkeypatch.setattr(os, "fstat", longer)
    with pytest.raises(FileFormatError, match="truncated payload"):
        load_oracle(path)
