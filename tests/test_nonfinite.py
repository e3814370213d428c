"""NaN and infinite values are rejected on every path into the pipeline,
with an error that names the first offending (row, col)."""

import dataclasses

import numpy as np
import pytest

from mixprec.oracles import QuadraticOracle, train_toy
from mixprec.quantizer import LayerSpec, calibrate_scale_mse, perturbation
from mixprec.sensitivity import BitMenu, SensitivityMatrix, load_matrix, save_matrix
from mixprec.spectra import eigh, psd_project

from helpers import golden_quartet_matrix, run_cli

BAD_VALUES = (np.nan, np.inf)


def _poisoned(value, row, col):
    entries = golden_quartet_matrix().entries.copy()
    entries[row, col] = value
    entries[col, row] = value
    return entries


@pytest.mark.parametrize("value", BAD_VALUES)
def test_sensitivity_matrix_rejects_non_finite(value):
    with pytest.raises(ValueError, match=r"non-finite.*\(2, 2\)"):
        SensitivityMatrix(BitMenu((2, 32)), (1, 1, 1, 1), _poisoned(value, 2, 2), 1)
    # an off-diagonal pair reports its upper-triangle position first
    with pytest.raises(ValueError, match=r"non-finite.*\(0, 6\)"):
        SensitivityMatrix(BitMenu((2, 32)), (1, 1, 1, 1), _poisoned(value, 6, 0), 1)


@pytest.mark.parametrize("value", BAD_VALUES)
@pytest.mark.parametrize("func", (eigh, psd_project))
def test_spectra_rejects_non_finite(func, value):
    with pytest.raises(ValueError, match=r"non-finite.*\(4, 4\)"):
        func(_poisoned(value, 4, 4))
    with pytest.raises(ValueError, match=r"non-finite.*\(1, 3\)"):
        func(_poisoned(value, 1, 3))


@pytest.mark.parametrize("value", BAD_VALUES)
def test_quadratic_oracle_rejects_non_finite(value):
    curvature = np.eye(3)
    curvature[1, 2] = curvature[2, 1] = value
    with pytest.raises(ValueError, match=r"curvature.*non-finite.*\(1, 2\)"):
        QuadraticOracle(curvature, np.zeros(3), [2, 1])
    # a lone non-finite entry is reported as such, not as an asymmetry
    curvature[2, 1] = 0.0
    with pytest.raises(ValueError, match=r"curvature.*non-finite.*\(1, 2\)"):
        QuadraticOracle(curvature, np.zeros(3), [2, 1])
    with pytest.raises(ValueError, match=r"optimum.*non-finite.*\(2\)"):
        QuadraticOracle(np.eye(3), [0.0, 1.0, value], [2, 1])


@pytest.mark.parametrize("value", BAD_VALUES)
def test_toy_model_rejects_a_non_finite_bias(value):
    model = train_toy(3, epochs=5, depth=2, hidden=4).model
    bias = model.biases[1].copy()
    bias[0] = value
    with pytest.raises(ValueError, match=r"bias 1 holds a non-finite.*\(0\)"):
        dataclasses.replace(model, biases=(model.biases[0], bias))


def test_measure_names_a_non_finite_bias(tmp_path):
    model = tmp_path / "toy.bin"
    cache = tmp_path / "cache"
    code, _, _ = run_cli("train-toy", "--seed", "3", "--epochs", "5", "--depth", "2",
                         "--hidden", "4", "--out", str(model))
    assert code == 0
    # the container's payload ends with the last layer's bias, in float32
    data = model.read_bytes()
    model.write_bytes(data[:-4] + np.array([np.nan], dtype="<f4").tobytes())
    code, out, err = run_cli("measure", "--model", str(model), "--bits", "2,4,8",
                             "--cache-dir", str(cache))
    assert code == 5
    assert "bias 1 holds a non-finite value nan at (1)" in err
    assert out == ""
    assert not list(cache.glob("batch-*"))


@pytest.mark.parametrize("value", BAD_VALUES + (-np.inf,))
def test_calibration_rejects_non_finite_weights(value):
    weights = [1.0, 0.5, value, -0.25, value]
    with pytest.raises(ValueError, match=r"weights.*non-finite.*\(2\)"):
        calibrate_scale_mse(weights, 4)
    with pytest.raises(ValueError, match=r"non-finite.*\(2\)"):
        perturbation(np.array(weights), 4)
    # a layer large enough to be screened is checked before it is sorted
    big = np.ones(4096)
    big[3000] = value
    with pytest.raises(ValueError, match=r"non-finite.*\(3000\)"):
        calibrate_scale_mse(big, 2)


@pytest.mark.parametrize("value", BAD_VALUES)
def test_layer_spec_rejects_non_finite_weights(value):
    grid = np.zeros((2, 3))
    grid[1, 0] = value
    with pytest.raises(ValueError, match=r"layer 'fc'.*non-finite.*\(3\)"):
        LayerSpec("fc", grid)
    # a rejected array is not taken over
    grid[1, 0] = 0.0


@pytest.mark.parametrize("text", ("inf", "nan"))
def test_load_matrix_rejects_non_finite_record(tmp_path, text):
    path = tmp_path / "batch-000000.txt"
    save_matrix(golden_quartet_matrix(), path)
    lines = path.read_text().splitlines()
    index = next(k for k, line in enumerate(lines) if line.startswith("2 2 "))
    lines[index] = f"2 2 {text}"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"non-finite.*\(2, 2\)"):
        load_matrix(path)


@pytest.mark.parametrize("value", BAD_VALUES)
def test_import_matrix_rejects_non_finite(tmp_path, value):
    dense = tmp_path / "dense.txt"
    cache = tmp_path / "cache"
    np.savetxt(dense, _poisoned(value, 6, 6), fmt="%.17g")
    code, _, err = run_cli("import-matrix", "--dense", str(dense), "--bits", "2,32",
                           "--sizes", "1,1,1,1", "--cache-dir", str(cache))
    assert code == 5
    assert "non-finite" in err and "(6, 6)" in err
    assert not list(cache.glob("batch-*.txt"))
    # a lone infinite entry is reported as such, not as an asymmetry
    lone = golden_quartet_matrix().entries.copy()
    lone[0, 2] = value
    np.savetxt(dense, lone, fmt="%.17g")
    code, _, err = run_cli("import-matrix", "--dense", str(dense), "--bits", "2,32",
                           "--sizes", "1,1,1,1", "--cache-dir", str(cache))
    assert code == 5 and "(0, 2)" in err and "symmetric" not in err
