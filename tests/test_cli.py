import csv
import subprocess
import sys

import numpy as np
import pytest

from mixprec import cli, quantizer
from mixprec.cli import BITS_PER_MB, CSV_COLUMNS
from mixprec.oracles import load_oracle
from mixprec.quantizer import LayerSpec
from mixprec.sensitivity import load_matrix
from mixprec.solver import solve_exhaustive, solve_with_method

from helpers import (
    GOLDEN_QUARTET_BUDGET_BITS,
    GOLDEN_TRIO_BUDGET_BITS,
    golden_quartet_matrix,
    golden_trio_matrix,
    noisy_instance,
    parse_kv,
    run_cli,
    write_dense,
)


@pytest.fixture()
def quad_setup(tmp_path):
    """A quadratic oracle container plus a measured sensitivity cache."""
    model = tmp_path / "quad.bin"
    cache = tmp_path / "cache"
    code, _, _ = run_cli("gen-quadratic", "--seed", "7", "--sizes", "3,2,4",
                         "--rho", "0.8", "--out", str(model))
    assert code == 0
    code, out, _ = run_cli("measure", "--model", str(model), "--bits", "2,4,8",
                           "--cache-dir", str(cache), "--batch-size", "32")
    assert code == 0 and "wrote" in out
    return model, cache


def test_gen_and_measure_write_expected_files(quad_setup):
    model, cache = quad_setup
    assert model.exists()
    files = sorted(cache.glob("batch-*.txt"))
    assert [f.name for f in files] == ["batch-000000.txt"]
    matrix = load_matrix(files[0])
    assert matrix.layer_sizes == (3, 2, 4)
    assert matrix.menu.bits == (2, 4, 8)


def test_measure_is_deterministic_and_resumable(tmp_path, quad_setup):
    model, cache = quad_setup
    other = tmp_path / "other"
    run_cli("measure", "--model", str(model), "--bits", "2,4,8",
            "--cache-dir", str(other), "--batch-size", "32")
    a = (cache / "batch-000000.txt").read_bytes()
    assert a == (other / "batch-000000.txt").read_bytes()
    # existing batches are skipped, missing ones are filled in
    code, out, _ = run_cli("measure", "--model", str(model), "--bits", "2,4,8",
                           "--cache-dir", str(cache), "--batch-size", "32",
                           "--batches", "3")
    assert code == 0
    assert "batch 0: exists, skipped" in out
    assert sorted(f.name for f in cache.glob("batch-*.txt")) == [
        "batch-000000.txt", "batch-000001.txt", "batch-000002.txt"]
    assert (cache / "batch-000000.txt").read_bytes() == a


def test_measure_menu_mismatch_is_validation_error(quad_setup):
    model, cache = quad_setup
    code, _, err = run_cli("measure", "--model", str(model), "--bits", "2,8",
                           "--cache-dir", str(cache), "--batch-size", "32")
    assert code == 5
    assert "menu" in err
    fresh = cache.parent / "fresh"
    for arg, named in (("--batch-size=0", "--batch-size"), ("--first-batch=-1", "indices")):
        code, _, err = run_cli("measure", "--model", str(model), "--bits", "2,4,8",
                               "--cache-dir", str(fresh), "--batches", "2", arg)
        assert code == 5 and named in err
    assert not fresh.exists()


def test_measure_skipped_batch_must_match_model_layer_sizes(quad_setup, tmp_path):
    _, cache = quad_setup
    other = tmp_path / "other.bin"
    code, _, _ = run_cli("gen-quadratic", "--seed", "7", "--sizes", "3,2,5",
                         "--rho", "0.8", "--out", str(other))
    assert code == 0
    code, _, err = run_cli("measure", "--model", str(other), "--bits", "2,4,8",
                           "--cache-dir", str(cache), "--batch-size", "32", "--batches", "2")
    assert code == 5
    assert "batch-000000.txt" in err and "sizes" in err
    assert not (cache / "batch-000001.txt").exists()


def test_measure_calibrates_each_perturbation_once(tmp_path, monkeypatch):
    model = tmp_path / "toy.bin"
    code, _, _ = run_cli("train-toy", "--seed", "3", "--epochs", "20", "--depth", "3",
                         "--hidden", "4", "--out", str(model))
    assert code == 0
    calls = []
    calibrate = quantizer.calibrate_scale_mse

    def counting(w, bits):
        calls.append(bits)
        return calibrate(w, bits)

    monkeypatch.setattr(quantizer, "calibrate_scale_mse", counting)
    measure = ("measure", "--model", str(model), "--bits", "2,4", "--batch-size", "16")
    code, _, _ = run_cli(*measure, "--cache-dir", str(tmp_path / "one"), "--batches", "3")
    assert code == 0
    assert len(calls) == 3 * 2  # L * |B|, not once per batch
    for k in range(3):
        code, _, _ = run_cli(*measure, "--cache-dir", str(tmp_path / "split"),
                             "--first-batch", str(k), "--batches", "1")
        assert code == 0
    for k in range(3):
        name = f"batch-{k:06d}.txt"
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "split" / name).read_bytes()
    calls.clear()
    code, out, _ = run_cli(*measure, "--cache-dir", str(tmp_path / "one"), "--batches", "3")
    assert code == 0 and out.count("exists, skipped") == 3
    assert calls == []

    # a model replaced between two batches must not reuse the old perturbations
    loads = []

    def replaced_after_first(path, **kwargs):
        oracle = load_oracle(path, **kwargs)
        loads.append(path)
        if len(loads) == 2:
            layer = oracle.layers[0]
            oracle.layers[0] = LayerSpec(layer.name, layer.weights * 0.5)
        return oracle

    monkeypatch.setattr(cli, "load_oracle", replaced_after_first)
    code, _, err = run_cli(*measure, "--cache-dir", str(tmp_path / "moved"), "--batches", "3")
    assert code == 5
    assert "weights changed" in err
    assert (tmp_path / "moved" / "batch-000000.txt").exists()
    assert not (tmp_path / "moved" / "batch-000001.txt").exists()


def test_solve_reports_and_csv(quad_setup, tmp_path):
    _, cache = quad_setup
    out_csv = tmp_path / "report.csv"
    code, out, _ = run_cli("solve", "--cache-dir", str(cache),
                           "--budget-bits", "45", "--out", str(out_csv))
    assert code == 0
    kv = parse_kv(out)
    assert kv["method"] == "full"
    assert kv["status"] == "optimal"
    assert kv["proved"] == "true"
    assert kv["budget_bits"] == "45"
    assert "seconds" not in kv
    bits = [int(b) for b in kv["bits"].split("|")]
    assert len(bits) == 3 and all(b in (2, 4, 8) for b in bits)
    assert int(kv["size_bits"]) <= 45
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    row = dict(zip(rows[0], rows[1]))
    assert row["method"] == "full"
    assert row["optimal"] == "true"
    assert row["bits"] == kv["bits"]
    assert row["seconds"] == ""
    assert float(row["budget_mb"]) == 45 / BITS_PER_MB
    assert float(row["objective"]) == float(kv["objective"])


def test_solve_passes_only_the_limits_the_user_set(quad_setup, monkeypatch):
    _, cache = quad_setup
    seen = []

    def spy(method, *args, **options):
        seen.append(options)
        return solve_with_method(method, *args, **options)

    monkeypatch.setattr(cli, "solve_with_method", spy)
    code, _, _ = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "45")
    assert code == 0
    # the solver's own node_limit default applies
    assert seen[-1] == {"block_partition": None}
    code, _, _ = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "45",
                         "--node-limit", "50", "--time-limit", "9")
    assert code == 0
    assert seen[-1] == {"block_partition": None, "node_limit": 50, "time_limit": 9.0}


def test_exhaustive_rejects_search_limits(quad_setup, tmp_path):
    # Enumeration ignores both limits, so a proof under them would be false.
    _, cache = quad_setup
    for limit in (("--node-limit", "0"), ("--time-limit", "1")):
        code, out, err = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "45",
                                 "--method", "exhaustive", *limit)
        assert code == 5
        assert out == ""
        assert "exhaustive" in err and limit[0] in err
    # a sweep checks every method before its first solve prints a line
    out_csv = tmp_path / "sweep.csv"
    code, out, err = run_cli("sweep", "--cache-dir", str(cache), "--budgets-bits", "20,45",
                             "--methods", "full,exhaustive", "--time-limit", "1",
                             "--out", str(out_csv))
    assert code == 5
    assert out == ""
    assert "exhaustive" in err
    assert not out_csv.exists()


def test_invalid_search_limits_are_validation_errors(quad_setup, tmp_path):
    _, cache = quad_setup
    for option, value in (("--node-limit", "-5"), ("--time-limit", "-1"),
                          ("--time-limit", "nan")):
        code, out, err = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "45",
                                 option, value)
        assert code == 5
        assert out == ""
        assert option[2:].replace("-", "_") in err
    out_csv = tmp_path / "sweep.csv"
    code, out, err = run_cli("sweep", "--cache-dir", str(cache), "--budgets-bits", "20,45",
                             "--node-limit", "-3", "--out", str(out_csv))
    assert code == 5
    assert out == ""
    assert "node_limit" in err
    assert not out_csv.exists()
    code, out, _ = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "45",
                           "--time-limit", "inf")
    assert code == 0
    assert parse_kv(out)["proved"] == "true"


def test_solve_budget_in_megabytes(quad_setup):
    _, cache = quad_setup
    code, out, _ = run_cli("solve", "--cache-dir", str(cache),
                           "--budget-mb", str(45 / BITS_PER_MB))
    assert code == 0
    assert parse_kv(out)["budget_bits"] == "45"
    for value in ("inf", "-inf", "nan"):
        code, _, err = run_cli("solve", "--cache-dir", str(cache), f"--budget-mb={value}")
        assert code == 5 and value in err


def test_solve_record_timing(quad_setup, tmp_path):
    _, cache = quad_setup
    out_csv = tmp_path / "timed.csv"
    code, out, _ = run_cli("solve", "--cache-dir", str(cache),
                           "--budget-bits", "45", "--record-timing",
                           "--out", str(out_csv))
    assert code == 0
    assert float(parse_kv(out)["seconds"]) >= 0.0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert float(dict(zip(rows[0], rows[1]))["seconds"]) >= 0.0


def test_solve_exit_codes(quad_setup, tmp_path):
    model, cache = quad_setup
    # 2: the smallest model does not fit
    code, _, err = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "17")
    assert code == 2 and "infeasible" in err
    # 3: finished without an optimality proof
    code, out, _ = run_cli("solve", "--cache-dir", str(cache),
                           "--budget-bits", "45", "--node-limit", "0")
    assert code == 3
    assert parse_kv(out)["status"] == "incumbent"
    # 4: no cache at all
    code, _, _ = run_cli("solve", "--cache-dir", str(tmp_path / "nowhere"),
                         "--budget-bits", "45")
    assert code == 4
    # 4: cache present but unreadable
    bad = tmp_path / "badcache"
    bad.mkdir()
    (bad / "batch-000000.txt").write_text("mixprec-cache 1\nlayers banana\n")
    code, _, err = run_cli("solve", "--cache-dir", str(bad), "--budget-bits", "45")
    assert code == 4
    # 5: missing, doubled, or malformed arguments
    code, _, _ = run_cli("solve", "--cache-dir", str(cache))
    assert code == 5
    code, _, _ = run_cli("solve", "--cache-dir", str(cache),
                         "--budget-bits", "45", "--budget-mb", "1")
    assert code == 5
    code, _, _ = run_cli("solve", "--cache-dir", str(cache),
                         "--budget-bits", "45", "--method", "annealing")
    assert code == 5
    code, _, _ = run_cli("solve", "--budget-bits", "45")
    assert code == 5  # no cache dir anywhere
    code, _, _ = run_cli("solve", "--cache-dir", str(cache),
                         "--budget-bits", "45", "--method", "block")
    assert code == 5  # block needs a partition
    code, _, _ = run_cli("not-a-command")
    assert code == 5


def test_solve_no_psd_bounds_a_psd_raw_matrix(tmp_path):
    model = tmp_path / "quad.bin"
    cache = tmp_path / "cache"
    run_cli("gen-quadratic", "--seed", "1", "--sizes", ",".join(["8"] * 9),
            "--rho", "0.6", "--out", str(model))
    run_cli("measure", "--model", str(model), "--bits", "2,4,8", "--cache-dir", str(cache))
    entries = load_matrix(cache / "batch-000000.txt").entries
    assert np.linalg.eigvalsh(entries).min() > 0.0
    # unpruned, this search needs 40 nodes
    code, out, _ = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "360",
                           "--no-psd", "--node-limit", "30")
    assert code == 0
    kv = parse_kv(out)
    assert kv["proved"] == "true"
    _, ref, _ = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "360",
                        "--no-psd", "--method", "exhaustive")
    assert kv["bits"] == parse_kv(ref)["bits"]


def test_solve_no_psd_bounds_an_indefinite_raw_matrix(tmp_path):
    matrix, budget = noisy_instance(244)
    assert budget.limit_bits == 174
    dense = tmp_path / "noisy.txt"
    cache = tmp_path / "cache"
    write_dense(dense, matrix)
    code, _, _ = run_cli("import-matrix", "--dense", str(dense), "--bits", "2,4,8",
                         "--sizes", ",".join(map(str, matrix.layer_sizes)),
                         "--cache-dir", str(cache))
    assert code == 0
    # unpruned, this search needs 121 nodes
    code, out, _ = run_cli("solve", "--cache-dir", str(cache), "--budget-bits", "174",
                           "--no-psd", "--node-limit", "100")
    assert code == 0
    kv = parse_kv(out)
    assert kv["proved"] == "true"
    best = solve_exhaustive(matrix, budget=budget)
    assert kv["bits"] == "|".join(map(str, best.assignment.bits))


def test_cache_dir_from_environment(quad_setup, monkeypatch):
    _, cache = quad_setup
    monkeypatch.setenv("MIXPREC_CACHE_DIR", str(cache))
    code, out, _ = run_cli("solve", "--budget-bits", "45")
    assert code == 0
    assert parse_kv(out)["status"] == "optimal"


def test_import_matrix_golden_a(tmp_path):
    dense = tmp_path / "a.txt"
    cache = tmp_path / "cache_a"
    write_dense(dense, golden_quartet_matrix())
    code, out, _ = run_cli("import-matrix", "--dense", str(dense),
                           "--bits", "2,32", "--sizes", "1,1,1,1",
                           "--cache-dir", str(cache))
    assert code == 0 and "imported" in out
    code, out, _ = run_cli("solve", "--cache-dir", str(cache), "--no-psd",
                           "--budget-bits", str(GOLDEN_QUARTET_BUDGET_BITS))
    kv = parse_kv(out)
    assert code == 0
    assert kv["bits"] == "32|32|2|2"
    assert kv["objective"] == "0.254"
    code, out, _ = run_cli("solve", "--cache-dir", str(cache), "--no-psd",
                           "--budget-bits", str(GOLDEN_QUARTET_BUDGET_BITS),
                           "--method", "diag")
    kv = parse_kv(out)
    assert code == 0
    assert kv["bits"] == "2|2|32|32"
    assert kv["objective"] == "0.255"


def test_import_matrix_golden_b(tmp_path):
    dense = tmp_path / "b.txt"
    cache = tmp_path / "cache_b"
    write_dense(dense, golden_trio_matrix())
    code, _, _ = run_cli("import-matrix", "--dense", str(dense),
                         "--bits", "4,32", "--sizes", "1,1,1",
                         "--cache-dir", str(cache))
    assert code == 0
    code, out, _ = run_cli("solve", "--cache-dir", str(cache), "--no-psd",
                           "--budget-bits", str(GOLDEN_TRIO_BUDGET_BITS))
    kv = parse_kv(out)
    assert kv["bits"] == "4|32|4"
    assert kv["objective"] == "0.040000000000000001"
    code, out, _ = run_cli("solve", "--cache-dir", str(cache), "--no-psd",
                           "--budget-bits", str(GOLDEN_TRIO_BUDGET_BITS),
                           "--method", "diag")
    kv = parse_kv(out)
    assert kv["bits"] == "4|4|32"
    assert kv["objective"] == "0.037999999999999999"


def test_import_matrix_validation(tmp_path):
    dense = tmp_path / "bad.txt"
    cache = tmp_path / "cache"
    np.savetxt(dense, np.arange(64, dtype=np.float64).reshape(8, 8))
    code, _, err = run_cli("import-matrix", "--dense", str(dense),
                           "--bits", "2,32", "--sizes", "1,1,1,1",
                           "--cache-dir", str(cache))
    assert code == 5 and "symmetric" in err
    np.savetxt(dense, np.zeros((4, 4)))
    code, _, err = run_cli("import-matrix", "--dense", str(dense),
                           "--bits", "2,32", "--sizes", "1,1,1,1",
                           "--cache-dir", str(cache))
    assert code == 5 and "expected" in err
    code, _, _ = run_cli("import-matrix", "--dense", str(tmp_path / "none.txt"),
                         "--bits", "2,32", "--sizes", "1,1,1,1",
                         "--cache-dir", str(cache))
    assert code == 4


def test_import_matrix_rejects_same_layer_cross_bit_entries(tmp_path):
    dense = tmp_path / "coupled.txt"
    cache = tmp_path / "cache"
    entries = golden_quartet_matrix().entries.copy()
    assert entries[0, 1] == 0.0
    entries[0, 1] = entries[1, 0] = 0.5  # layer 0 at 2 bits with layer 0 at 32 bits
    np.savetxt(dense, entries, fmt="%.17g")
    code, out, err = run_cli("import-matrix", "--dense", str(dense), "--bits", "2,32",
                             "--sizes", "1,1,1,1", "--cache-dir", str(cache))
    assert code == 5
    assert out == ""
    assert str(dense) in err and "same-layer cross-bit" in err
    assert not list(cache.glob("batch-*.txt"))


def test_sweep_csv_shape_and_determinism(quad_setup, tmp_path):
    _, cache = quad_setup
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    args = ("sweep", "--cache-dir", str(cache), "--budgets-bits", "20,45,72",
            "--methods", "full,diag", "--out")
    code, out, _ = run_cli(*args, str(out_a))
    assert code == 0 and "wrote" in out
    code, _, _ = run_cli(*args, str(out_b))
    assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    with open(out_a, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == CSV_COLUMNS
    assert len(rows) == 1 + 6
    for method in ("full", "diag"):
        objectives = [float(r[2]) for r in rows[1:] if r[1] == method and r[2]]
        assert objectives == sorted(objectives, reverse=True)


def test_sweep_marks_infeasible_rows(quad_setup, tmp_path):
    _, cache = quad_setup
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run_cli("sweep", "--cache-dir", str(cache),
                         "--budgets-bits", "10,45", "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    first = dict(zip(rows[0], rows[1]))
    assert first["objective"] == "" and first["bits"] == ""
    assert first["optimal"] == "false"
    second = dict(zip(rows[0], rows[2]))
    assert second["optimal"] == "true"


def test_sweep_record_timing(quad_setup, tmp_path):
    _, cache = quad_setup
    args = ("sweep", "--cache-dir", str(cache), "--budgets-bits", "10,45,72",
            "--methods", "full,exhaustive", "--out")
    timed = tmp_path / "timed.csv"
    code, _, _ = run_cli(*args, str(timed), "--record-timing")
    assert code == 0
    with open(timed, newline="") as fh:
        rows = [dict(zip(CSV_COLUMNS, r)) for r in list(csv.reader(fh))[1:]]
    assert len(rows) == 6
    for row in rows:
        if row["bits"]:
            assert float(row["seconds"]) >= 0.0
    assert sum(1 for row in rows if row["bits"]) == 4
    plain = tmp_path / "plain.csv"
    code, _, _ = run_cli(*args, str(plain))
    assert code == 0
    with open(plain, newline="") as fh:
        assert all(r[-1] == "" for r in list(csv.reader(fh))[1:])


def test_sweep_validation(quad_setup, tmp_path):
    _, cache = quad_setup
    out_csv = tmp_path / "x.csv"
    code, _, _ = run_cli("sweep", "--cache-dir", str(cache),
                         "--budgets-bits", "45,20", "--out", str(out_csv))
    assert code == 5
    code, _, _ = run_cli("sweep", "--cache-dir", str(cache),
                         "--budgets-bits", "20,45", "--methods", "bogus",
                         "--out", str(out_csv))
    assert code == 5
    code, _, _ = run_cli("sweep", "--cache-dir", str(cache),
                         "--budgets-bits", "20,45", "--methods", "block",
                         "--out", str(out_csv))
    assert code == 5
    code, _, _ = run_cli("sweep", "--cache-dir", str(cache),
                         "--budgets-bits", "20", "--budgets-mb", "1",
                         "--out", str(out_csv))
    assert code == 5
    for budgets, named in (("1,inf", "inf"), ("1,x", "1,x")):
        code, _, err = run_cli("sweep", "--cache-dir", str(cache),
                               "--budgets-mb", budgets, "--out", str(out_csv))
        assert code == 5 and named in err
    for partition, named in (("0-1;", "empty block"), ("3-", "'3-'")):
        code, _, err = run_cli("sweep", "--cache-dir", str(cache), "--budgets-bits", "45",
                               "--block-partition", partition, "--out", str(out_csv))
        assert code == 5 and named in err
    assert not out_csv.exists()


def test_sweep_block_method_with_partition(quad_setup, tmp_path):
    _, cache = quad_setup
    out_csv = tmp_path / "block.csv"
    code, _, _ = run_cli("sweep", "--cache-dir", str(cache),
                         "--budgets-bits", "45", "--methods", "block",
                         "--block-partition", "0-1;2", "--out", str(out_csv))
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[1][1] == "block"


def test_eval_quadratic_identity(quad_setup):
    model, cache = quad_setup
    code, out, _ = run_cli("eval", "--model", str(model),
                           "--cache-dir", str(cache), "--assignment", "4,2,8")
    assert code == 0
    kv = parse_kv(out)
    measured = float(kv["measured_delta"])
    proxy = float(kv["proxy"])
    assert abs(measured - proxy) <= 1e-9 * max(1.0, abs(proxy))
    assert float(kv["ratio"]) == pytest.approx(1.0, abs=1e-9)


def test_eval_validation(quad_setup, tmp_path):
    model, cache = quad_setup
    code, _, _ = run_cli("eval", "--model", str(model),
                         "--cache-dir", str(cache), "--assignment", "4,2")
    assert code == 5
    code, _, _ = run_cli("eval", "--model", str(tmp_path / "missing.bin"),
                         "--cache-dir", str(cache), "--assignment", "4,2,8")
    assert code == 4
    code, _, _ = run_cli("eval", "--model", str(model),
                         "--cache-dir", str(cache), "--assignment", "4,nope,8")
    assert code == 5


def test_eval_rejects_an_off_menu_width_before_calibrating(quad_setup, monkeypatch):
    model, cache = quad_setup
    calls = []
    calibrate = quantizer.calibrate_scale_mse

    def counting(w, bits):
        calls.append(bits)
        return calibrate(w, bits)

    monkeypatch.setattr(quantizer, "calibrate_scale_mse", counting)
    code, out, err = run_cli("eval", "--model", str(model), "--cache-dir", str(cache),
                             "--assignment", "4,3,8")
    assert code == 5
    assert out == ""
    assert "bit-width 3 is not in the menu (2, 4, 8)" in err
    assert calls == []
    code, _, _ = run_cli("eval", "--model", str(model), "--cache-dir", str(cache),
                         "--assignment", "4,2,8")
    assert code == 0
    assert len(calls) == 3  # the counter sees calibrations on the accepted path


def test_eval_rejects_a_cache_of_other_layer_sizes(quad_setup, tmp_path):
    _, cache = quad_setup
    other = tmp_path / "other.bin"
    code, _, _ = run_cli("gen-quadratic", "--seed", "7", "--sizes", "3,2,5",
                         "--rho", "0.8", "--out", str(other))
    assert code == 0
    code, out, err = run_cli("eval", "--model", str(other), "--cache-dir", str(cache),
                             "--assignment", "4,2,8")
    assert code == 5
    assert out == ""
    assert "(3, 2, 4)" in err and "(3, 2, 5)" in err


def test_train_toy_command(tmp_path):
    out_path = tmp_path / "toy.bin"
    code, out, _ = run_cli("train-toy", "--seed", "3", "--epochs", "40",
                           "--out", str(out_path))
    assert code == 0
    kv = parse_kv(out)
    assert 0.0 <= float(kv["accuracy"]) <= 1.0
    oracle = load_oracle(out_path)
    assert len(oracle.layers) == 8


def test_module_entry_point_runs_as_subprocess(tmp_path):
    model = tmp_path / "q.bin"
    done = subprocess.run(
        [sys.executable, "-m", "mixprec", "gen-quadratic", "--seed", "1",
         "--sizes", "2,2", "--rho", "0.5", "--out", str(model)],
        capture_output=True, text=True)
    assert done.returncode == 0
    assert model.exists()
    done = subprocess.run([sys.executable, "-m", "mixprec", "--help"],
                          capture_output=True, text=True)
    assert done.returncode == 0
    assert "solve" in done.stdout
    done = subprocess.run([sys.executable, "-m", "mixprec", "solve"],
                          capture_output=True, text=True)
    assert done.returncode == 5
