"""NaN and infinite values are rejected on every path into the pipeline,
with an error that names the first offending (row, col)."""

import numpy as np
import pytest

from mixprec.oracles import QuadraticOracle
from mixprec.quantizer import LayerSpec, calibrate_scale_mse, perturbation
from mixprec.sensitivity import BitMenu, SensitivityMatrix, load_matrix, save_matrix
from mixprec.solver import BitAssignment, SizeBudget, objective, solve_bnb, solve_exhaustive
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
def test_solver_rejects_non_finite_raw_entries(value):
    with pytest.raises(ValueError, match=r"non-finite.*\(2, 6\)"):
        solve_bnb(_poisoned(value, 2, 6), (1, 1, 1, 1), (2, 32), SizeBudget(68))


def test_solver_rejects_asymmetric_raw_entries():
    lopsided = golden_quartet_matrix().entries.copy()
    lopsided[0, 2] += 1e-6
    with pytest.raises(ValueError, match="symmetric"):
        solve_bnb(lopsided, (1, 1, 1, 1), (2, 32), SizeBudget(68))


@pytest.mark.parametrize("value", BAD_VALUES)
def test_exhaustive_and_objective_reject_non_finite_raw_entries(value):
    entries = np.eye(4)
    entries[0, 2] = entries[2, 0] = value
    with pytest.raises(ValueError, match=r"non-finite.*\(0, 2\)"):
        solve_exhaustive(entries, (1, 1), (2, 4), SizeBudget(100))
    with pytest.raises(ValueError, match=r"non-finite.*\(0, 2\)"):
        objective(entries, BitAssignment((2, 4)), sizes=(1, 1), menu=(2, 4))


def test_exhaustive_and_objective_reject_asymmetric_raw_entries():
    lopsided = np.eye(4)
    lopsided[0, 2] = 1e-3
    with pytest.raises(ValueError, match="symmetric"):
        solve_exhaustive(lopsided, (1, 1), (2, 4), SizeBudget(100))
    with pytest.raises(ValueError, match="symmetric"):
        objective(lopsided, BitAssignment((2, 4)), sizes=(1, 1), menu=(2, 4))


def test_raw_entries_are_scored_as_given():
    # Round-off asymmetry is accepted, not averaged away: the mean of the
    # mirrored pair rounds to 1.0 and would score 0.0.
    entries = -np.eye(4)
    entries[0, 3] = 1.0 + 2.0 ** -52
    entries[3, 0] = 1.0
    assert objective(entries, BitAssignment((2, 4)), sizes=(1, 1), menu=(2, 4)) == 2.0 ** -52


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
