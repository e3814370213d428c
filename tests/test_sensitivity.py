import os

import numpy as np
import pytest

from mixprec import quantizer, sensitivity
from mixprec.oracles import QuadraticOracle, random_quadratic
from mixprec.quantizer import perturbation
from mixprec.sensitivity import (
    BitMenu,
    SensitivityMatrix,
    build_matrix,
    layer_perturbations,
    load_matrix,
    merge_batches,
    save_matrix,
)

from helpers import CountingOracle, golden_quartet_matrix


# ---------------------------------------------------------------------------
# menu and matrix containers

def test_menu_sorts_and_dedups():
    menu = BitMenu([8, 2, 4, 2])
    assert menu.bits == (2, 4, 8)
    assert len(menu) == 3
    assert list(menu) == [2, 4, 8]
    assert 4 in menu and 3 not in menu
    assert menu.index(8) == 2


def test_menu_validation():
    with pytest.raises(ValueError):
        BitMenu([])
    with pytest.raises(ValueError):
        BitMenu([1, 4])
    with pytest.raises(ValueError, match="4.7"):
        BitMenu((2, 4.7))
    assert BitMenu((2.0, 4.0)).bits == (2, 4)
    with pytest.raises(ValueError):
        BitMenu((2, 4)).index(3)


def test_matrix_validation():
    menu = BitMenu((2, 4))
    with pytest.raises(ValueError):
        SensitivityMatrix(menu, (), np.zeros((0, 0)), 1)
    with pytest.raises(ValueError):
        SensitivityMatrix(menu, (3, -1), np.zeros((4, 4)), 1)
    with pytest.raises(ValueError):
        SensitivityMatrix(menu, (3,), np.zeros((3, 3)), 1)
    lopsided = np.zeros((2, 2))
    lopsided[0, 1] = 1e-18
    with pytest.raises(ValueError):
        SensitivityMatrix(BitMenu((2, 4)), (3,), lopsided, 1)
    with pytest.raises(ValueError):
        SensitivityMatrix(menu, (3,), np.zeros((2, 2)), 0)


def test_matrix_helpers():
    m = golden_quartet_matrix()
    assert m.num_layers == 4
    assert m.dim == 8
    # layer-major layout: layer 2's 2-bit diagonal sits at row 2 * |B| + 0
    assert m.entries[2 * 2 + 0, 2 * 2 + 0] == 0.246
    assert m.has_block_zeros()
    replaced = m.with_entries(np.zeros((8, 8)))
    assert replaced.menu.bits == m.menu.bits
    assert replaced.sample_count == m.sample_count
    with pytest.raises(ValueError):
        m.entries[0, 0] = 9.0


def test_has_block_zeros_detects_filled_blocks():
    g = np.zeros((4, 4))
    g[0, 1] = g[1, 0] = 0.5
    m = SensitivityMatrix(BitMenu((2, 4)), (3, 3), g, 1)
    assert not m.has_block_zeros()


# ---------------------------------------------------------------------------
# measurements against analytic curvature

def _analytic_entry(oracle, i, m_bits, j, n_bits):
    di = perturbation(oracle.layers[i], m_bits)
    dj = perturbation(oracle.layers[j], n_bits)
    return float(di @ oracle.block(i, j) @ dj)


def test_build_matrix_structure():
    q = random_quadratic(3, [2, 3, 2], 0.5)
    menu = BitMenu((2, 4, 8))
    m = build_matrix(q, menu)
    assert m.layer_sizes == (2, 3, 2)
    assert np.array_equal(m.entries, m.entries.T)
    assert m.has_block_zeros()
    assert m.sample_count == q.sample_count
    # spot-check one cross entry against the curvature: row layer * |B| + position
    got = m.entries[0 * 3 + 1, 2 * 3 + 0]
    want = _analytic_entry(q, 0, 4, 2, 2)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_build_matrix_same_layer_option():
    q = random_quadratic(3, [3, 2], 0.5)
    menu = BitMenu((2, 8))
    dense = build_matrix(q, menu, include_same_layer_cross=True)
    assert not dense.has_block_zeros()
    got = dense.entries[0, 1]
    want = _analytic_entry(q, 0, 2, 0, 8)
    assert got == pytest.approx(want, rel=1e-9, abs=1e-14)


def test_same_layer_entries_fix_dense_indefiniteness():
    # With those entries zeroed the matrix is indefinite for dense vectors;
    # measuring them restores the curvature congruence and with it PSD-ness.
    q = random_quadratic(5, [4, 4, 4], 0.8)
    menu = BitMenu((2, 4, 8))
    plain = build_matrix(q, menu)
    dense = build_matrix(q, menu, include_same_layer_cross=True)
    values, vectors = np.linalg.eigh(plain.entries)
    assert values[0] < -1e-9
    v = vectors[:, 0]
    assert float(v @ plain.entries @ v) < -1e-9
    assert float(v @ dense.entries @ v) >= -1e-9
    assert np.linalg.eigvalsh(dense.entries).min() >= -1e-9


def test_build_matrix_evaluation_count():
    q = random_quadratic(0, [2, 2, 2], 0.5)
    counter = CountingOracle(q)
    build_matrix(counter, BitMenu((2, 4, 8)))
    assert counter.calls == 37
    counter = CountingOracle(random_quadratic(0, [2] * 5, 0.5))
    build_matrix(counter, BitMenu((2, 8)))
    assert counter.calls == 1 + 2 * 5 + 4 * 10
    counter = CountingOracle(q)
    build_matrix(counter, BitMenu((2, 4, 8)), include_same_layer_cross=True)
    assert counter.calls == 37 + 3 * 3


class _RecordingOracle(CountingOracle):
    """Records each call as a tuple of ``(layer, label)`` in the order the
    call lists its layers; ``labels`` maps a one-weight perturbation's value
    to its label."""

    def __init__(self, inner, labels):
        super().__init__(inner)
        self.labels = labels
        self.log = []

    def evaluate(self, perturbations) -> float:
        self.log.append(tuple((i, self.labels[float(v[0])]) for i, v in perturbations.items()))
        return super().evaluate(perturbations)


@pytest.mark.parametrize("same_layer_cross", [False, True])
def test_build_matrix_call_sequence(same_layer_cross):
    # Three one-weight layers at two widths: a width's perturbation is 1.0
    # or 2.0, so a same-layer sum reads 3.0.
    oracle = _RecordingOracle(random_quadratic(4, (1, 1, 1), 0.5), {1.0: 0, 2.0: 1, 3.0: "0+1"})
    deltas = [[np.array([1.0]), np.array([2.0])] for _ in range(3)]
    build_matrix(oracle, BitMenu((2, 4)), include_same_layer_cross=same_layer_cross,
                 deltas=deltas)
    sums = same_layer_cross
    want = [(),
            ((2, 1),),
            ((2, 0),), *[((2, "0+1"),)] * sums,
            ((1, 1),), ((1, 1), (2, 0)), ((1, 1), (2, 1)),
            ((1, 0),), ((1, 0), (2, 0)), ((1, 0), (2, 1)), *[((1, "0+1"),)] * sums,
            ((0, 1),), ((0, 1), (2, 0)), ((0, 1), (2, 1)), ((0, 1), (1, 0)), ((0, 1), (1, 1)),
            ((0, 0),), ((0, 0), (2, 0)), ((0, 0), (2, 1)), ((0, 0), (1, 0)), ((0, 0), (1, 1)),
            *[((0, "0+1"),)] * sums]
    assert oracle.log == want
    # Both singles of every pair, and of every same-layer sum, come first.
    for k, call in enumerate(oracle.log):
        if len(call) == 2:
            singles = [(c,) for c in call]
        elif call and call[0][1] == "0+1":
            singles = [((call[0][0], 0),), ((call[0][0], 1),)]
        else:
            continue
        assert all(s in oracle.log[:k] for s in singles), call


def test_build_matrix_rejects_empty_oracle():
    class Hollow:
        layers = []

        def evaluate(self, perturbations):
            return 0.0

    with pytest.raises(ValueError):
        build_matrix(Hollow(), BitMenu((2, 4)))


def test_build_matrix_uses_given_deltas(monkeypatch):
    oracle = random_quadratic(5, (3, 2, 4), 0.7)
    menu = BitMenu((2, 4, 8))
    table = layer_perturbations(oracle.layers, menu)
    reference = build_matrix(oracle, menu)

    def no_calibration(w, bits):
        raise AssertionError("deltas were given; nothing should calibrate")

    monkeypatch.setattr(quantizer, "calibrate_scale_mse", no_calibration)
    got = build_matrix(oracle, menu, deltas=table)
    assert np.array_equal(got.entries, reference.entries)
    short_row = [table[0][:2]] + table[1:]
    wrong_length = [table[0], [table[1][0], table[1][1], table[1][2][:-1]], table[2]]
    for bad in (table[:2], short_row, wrong_length):
        with pytest.raises(ValueError):
            build_matrix(oracle, menu, deltas=bad)


def test_build_matrix_rejects_a_non_finite_delta_before_any_evaluation():
    counter = CountingOracle(random_quadratic(5, (3, 2, 4), 0.7))
    menu = BitMenu((2, 4, 8))
    table = layer_perturbations(counter.layers, menu)
    for bad in (np.nan, np.inf):
        broken = [list(row) for row in table]
        broken[1][2] = broken[1][2].copy()
        broken[1][2][1] = bad
        with pytest.raises(ValueError, match=r"deltas\[1\]\[2\] holds a non-finite value"):
            build_matrix(counter, menu, deltas=broken)
    assert counter.calls == 0


def test_build_matrix_is_deterministic():
    q = random_quadratic(8, [3, 2], 0.7)
    a = build_matrix(q, BitMenu((2, 4)))
    b = build_matrix(q, BitMenu((2, 4)))
    assert np.array_equal(a.entries, b.entries)


# ---------------------------------------------------------------------------
# merging

def _matrix_with(menu, sizes, diag, samples):
    g = np.diag(np.asarray(diag, dtype=np.float64))
    return SensitivityMatrix(menu, sizes, g, samples)


def test_merge_weighted_mean_hand_example():
    menu = BitMenu((2, 4))
    a = _matrix_with(menu, (3,), [1.0, 3.0], 1)
    b = _matrix_with(menu, (3,), [5.0, 7.0], 3)
    merged = merge_batches([a, b])
    assert merged.sample_count == 4
    assert np.array_equal(np.diag(merged.entries), [4.0, 6.0])


def test_merge_single_and_commutes():
    menu = BitMenu((2, 4))
    a = _matrix_with(menu, (2,), [0.1, 0.7], 5)
    b = _matrix_with(menu, (2,), [0.2, 0.4], 11)
    assert np.array_equal(merge_batches([a]).entries, a.entries)
    ab = merge_batches([a, b])
    ba = merge_batches([b, a])
    assert np.array_equal(ab.entries, ba.entries)


def test_merge_validation():
    menu = BitMenu((2, 4))
    a = _matrix_with(menu, (2,), [0.1, 0.7], 1)
    with pytest.raises(ValueError):
        merge_batches([])
    with pytest.raises(ValueError):
        merge_batches([a, _matrix_with(BitMenu((2, 8)), (2,), [0.0, 0.0], 1)])
    with pytest.raises(ValueError):
        merge_batches([a, _matrix_with(menu, (3,), [0.0, 0.0], 1)])


# ---------------------------------------------------------------------------
# cache files

def test_save_load_roundtrip_bitexact(tmp_path):
    m = build_matrix(random_quadratic(4, [3, 2], 0.8), BitMenu((2, 4, 8)))
    path = tmp_path / "batch-000000.txt"
    save_matrix(m, path)
    loaded = load_matrix(path)
    assert np.array_equal(loaded.entries, m.entries)
    assert loaded.menu.bits == m.menu.bits
    assert loaded.layer_sizes == m.layer_sizes
    assert loaded.sample_count == m.sample_count
    save_matrix(loaded, tmp_path / "rewrite.txt")
    assert (tmp_path / "rewrite.txt").read_bytes() == path.read_bytes()
    assert not path.with_suffix(".txt.tmp").exists()


def test_concurrent_saves_use_separate_temp_files(tmp_path, monkeypatch):
    # A second writer of the same batch finishes between the first
    # writer's write and its rename; both must succeed, and the file left
    # behind is whole.
    first = golden_quartet_matrix()
    second = first.with_entries(2.0 * first.entries)
    path = tmp_path / "batch-000000.txt"
    real_replace = os.replace
    raced = []

    def racing_replace(src, dst):
        if not raced:
            raced.append(src)
            save_matrix(second, path)
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", racing_replace)
    save_matrix(first, path)
    assert raced
    assert np.array_equal(load_matrix(path).entries, first.entries)
    assert os.listdir(tmp_path) == [path.name]


def test_failed_save_leaves_no_temp_file(tmp_path, monkeypatch):
    def failing_replace(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", failing_replace)
    with pytest.raises(OSError):
        save_matrix(golden_quartet_matrix(), tmp_path / "batch-000000.txt")
    assert os.listdir(tmp_path) == []


def test_save_rejects_same_layer_entries(tmp_path):
    q = random_quadratic(3, [3, 2], 0.5)
    dense = build_matrix(q, BitMenu((2, 8)), include_same_layer_cross=True)
    with pytest.raises(ValueError):
        save_matrix(dense, tmp_path / "bad.txt")


def test_load_rejects_tampered_files(tmp_path):
    m = golden_quartet_matrix()
    path = tmp_path / "batch-000000.txt"
    save_matrix(m, path)
    good = path.read_text().splitlines()

    def rewrite(lines):
        path.write_text("\n".join(lines) + "\n")

    rewrite(good[:4])
    with pytest.raises(ValueError):
        load_matrix(path)
    rewrite(["mixprec-cache 9"] + good[1:])
    with pytest.raises(ValueError):
        load_matrix(path)
    rewrite(good[:-1])
    with pytest.raises(ValueError):
        load_matrix(path)
    swapped = good.copy()
    swapped[6], swapped[7] = swapped[7], swapped[6]
    rewrite(swapped)
    with pytest.raises(ValueError):
        load_matrix(path)
    # nonzero same-layer cross-bit record
    poisoned = good.copy()
    for k, line in enumerate(poisoned[6:], start=6):
        if line.startswith("0 1 "):
            poisoned[k] = "0 1 0.5"
    rewrite(poisoned)
    with pytest.raises(ValueError):
        load_matrix(path)


def test_load_rejects_wrong_header_order(tmp_path):
    m = golden_quartet_matrix()
    path = tmp_path / "batch-000000.txt"
    save_matrix(m, path)
    lines = path.read_text().splitlines()
    lines[1], lines[2] = lines[2], lines[1]
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError):
        load_matrix(path)
