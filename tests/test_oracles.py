import dataclasses
import itertools
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
from mixprec.sensitivity import BitMenu, SensitivityMatrix, build_matrix, layer_perturbations
from mixprec.quantizer import perturbation

from helpers import MatrixBackedOracle, golden_quartet_matrix, reference_train_toy, run_cli


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
    want = q.evaluate({1: [0.5], 3: [0.25, -1.0]})
    starts = np.cumsum([0] + sizes)
    # The oracle owns its curvature read-only; unlock it to poison the rows
    # that a call perturbing layers 1 and 3 must never read.
    q.curvature.setflags(write=True)
    for idx in (0, 2):
        q.curvature[starts[idx]:starts[idx + 1], :] = np.nan
    assert q.evaluate({1: [0.5], 3: [0.25, -1.0]}) == want
    assert np.isnan(q.evaluate({2: np.ones(5)}))


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
    with pytest.raises(ValueError):
        random_quadratic(0, [2, 2], 0.5, sample_ratio=0.0)


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


def test_toy_model_arrays_are_read_only(tmp_path):
    oracle = train_toy(1, epochs=5, depth=3, eval_count=8)
    path = tmp_path / "toy.bin"
    save_oracle(oracle, path)
    for model in (oracle.model, load_oracle(path).model):
        for arr in model.weights + model.biases:
            assert arr.dtype == np.float64
            with pytest.raises(ValueError):
                arr[...] = 0.0
    base = oracle.evaluate({})
    with pytest.raises(ValueError):
        oracle.model.weights[0][0, 0] = 1.0
    assert oracle.evaluate({}) == base


def test_quadratic_oracle_owns_its_arrays(tmp_path):
    h = np.array([[2.0, 0.5], [0.5, 1.0]])
    opt = np.array([1.0, -1.0])
    q = QuadraticOracle(h, opt, [1, 1])
    base = q.evaluate({0: [0.25]})
    # the caller's arrays are taken over read-only, not copied
    assert q.curvature is h
    for arr in (h, opt, q.layers[0].weights):
        with pytest.raises(ValueError):
            arr[0] = 7.0
    with pytest.raises(ValueError):
        h[0, 0] = 5.0
    assert q.evaluate({0: [0.25]}) == base
    assert q.layers[0].weights.tolist() == [1.0]
    # views freeze the array they view; memory of a writable non-array is copied
    big = np.eye(3)
    QuadraticOracle(big[:2, :2], np.zeros(2), [2])
    assert not big.flags.writeable
    raw = bytearray(np.array([1.0, -1.0]).tobytes())
    q = QuadraticOracle(np.eye(2), np.frombuffer(raw), [1, 1])
    raw[:8] = np.array([9.0]).tobytes()
    assert q.layers[0].weights.tolist() == [1.0]
    # a loaded oracle views its container's payload, which is frozen too
    path = tmp_path / "q.bin"
    save_oracle(random_quadratic(2, [3, 2], 0.5), path)
    loaded = load_oracle(path)
    assert loaded.curvature.base is not None
    with pytest.raises(ValueError):
        loaded.curvature.base[...] = 0.0


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
    reused = build_matrix(oracle, menu, deltas=table,
                          include_same_layer_cross=same_layer_cross)
    fresh = build_matrix(_FreshOraclePerCall(oracle), menu, deltas=table,
                         include_same_layer_cross=same_layer_cross)
    assert reused.entries.tobytes() == fresh.entries.tobytes()


def _counting_forward(monkeypatch):
    """Patch ``oracles._forward`` to record each pass's start layer; returns
    the list of starts."""
    starts = []
    forward = oracles._forward

    def counting(weights, biases, h, start=0):
        starts.append(start)
        return forward(weights, biases, h, start)

    monkeypatch.setattr(oracles, "_forward", counting)
    return starts


def _hidden_steps_per_layer(model, bits=(2, 4, 8)):
    """Evaluation calls and runs of each hidden layer over one toy
    ``build_matrix`` at the given menu."""
    oracle = ToyClassifierOracle(model, eval_count=32)
    menu = BitMenu(bits)
    table = layer_perturbations(oracle.layers, menu)
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


def test_toy_zero_perturbation_reruns_only_the_output_layer(small_toy, monkeypatch):
    starts = _counting_forward(monkeypatch)
    last = len(small_toy.weights) - 1
    for i, w in enumerate(small_toy.weights):
        oracle = ToyClassifierOracle(small_toy, eval_count=32)
        baseline = oracle.evaluate({})
        # A zero perturbation leaves the layer bitwise equal to the model's,
        # so only the output layer, which a trace never stores, runs again.
        loss = oracle.evaluate({i: np.zeros(w.size)})
        assert starts[-2:] == [0, last]
        assert np.float64(loss).tobytes() == np.float64(baseline).tobytes()


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
    import json
    blob = json.dumps({"format": 99}).encode()
    path.write_bytes(b"MIXPREC1" + len(blob).to_bytes(4, "little") + blob)
    with pytest.raises(FileFormatError):
        load_oracle(path)
    blob = json.dumps({"format": 1, "kind": "mystery"}).encode()
    path.write_bytes(b"MIXPREC1" + len(blob).to_bytes(4, "little") + blob)
    with pytest.raises(FileFormatError):
        load_oracle(path)


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


def test_truncated_quadratic_payload(tmp_path):
    q = random_quadratic(4, [2, 2], 0.5)
    path = tmp_path / "quad.bin"
    save_oracle(q, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError):
        load_oracle(path)
