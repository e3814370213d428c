import os

import numpy as np
import pytest

from mixprec.oracles import (
    FileFormatError,
    QuadraticOracle,
    load_oracle,
    make_moons,
    random_quadratic,
    save_oracle,
    train_toy,
    toy_training_accuracy,
)
from mixprec.sensitivity import BitMenu, SensitivityMatrix, build_matrix
from mixprec.quantizer import perturbation

from helpers import MatrixBackedOracle, golden_quartet_matrix


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
    q = QuadraticOracle(np.eye(2), [0.0, 0.0], [1, 1])
    with pytest.raises(ValueError):
        q.evaluate({2: [1.0]})
    with pytest.raises(ValueError):
        q.evaluate({0: [1.0, 2.0]})


def test_quadratic_block_accessor():
    q = random_quadratic(0, [2, 3], 1.0)
    h = q.curvature
    assert np.array_equal(q.block(0, 1), h[0:2, 2:5])
    assert np.array_equal(q.block(1, 1), h[2:5, 2:5])


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


def test_truncated_quadratic_payload(tmp_path):
    q = random_quadratic(4, [2, 2], 0.5)
    path = tmp_path / "quad.bin"
    save_oracle(q, path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-8])
    with pytest.raises(FileFormatError):
        load_oracle(path)
