import itertools
import math

import numpy as np
import pytest
import scipy.optimize

from mixprec import solver
from mixprec.oracles import random_quadratic
from mixprec.sensitivity import BitMenu, SensitivityMatrix, build_matrix
from mixprec.solver import (
    BitAssignment,
    InfeasibleBudgetError,
    SearchSpaceError,
    SizeBudget,
    EXHAUSTIVE_LIMIT,
    METHODS,
    objective,
    solve_block,
    solve_bnb,
    solve_diagonal_only,
    solve_exhaustive,
    solve_with_method,
    sweep,
    _convexify,
    _enumerate_node,
    _enumeration,
    _exact_key,
    _frank_wolfe,
    _lmo,
    _mask_couplings,
    _partition_groups,
    _quadratic_form,
    _size_table,
)
from mixprec.spectra import _psd_shift, psd_project

from helpers import (
    GOLDEN_QUARTET_BUDGET_BITS,
    GOLDEN_TRIO_BUDGET_BITS,
    golden_quartet_matrix,
    golden_trio_matrix,
    noisy_instance,
    traced_peak,
)


def _instance(seed: int, sizes, menu_bits, rho: float = 0.7, *, psd: bool = True):
    menu = BitMenu(menu_bits)
    m = build_matrix(random_quadratic(seed, sizes, rho), menu)
    if psd:
        m = m.with_entries(psd_project(m.entries))
    return m


def _mid_budget(m: SensitivityMatrix, frac: float = 0.5) -> SizeBudget:
    lo = sum(s * m.menu.bits[0] for s in m.layer_sizes)
    hi = sum(s * m.menu.bits[-1] for s in m.layer_sizes)
    return SizeBudget(int(lo + frac * (hi - lo)))


def _brute_force(m: SensitivityMatrix, budget: SizeBudget):
    """Reference optimum by plain itertools enumeration with fsum scoring."""
    best = None
    for bits in itertools.product(m.menu.bits, repeat=m.num_layers):
        assignment = BitAssignment(bits)
        size = assignment.size_bits(m.layer_sizes)
        if size > budget.limit_bits:
            continue
        key = (objective(m, assignment), size, bits)
        if best is None or key < best:
            best = key
    return best


# ---------------------------------------------------------------------------
# data types

def test_assignment_size_arithmetic():
    a = BitAssignment((2, 8, 4))
    assert a.size_bits((10, 1, 5)) == 20 + 8 + 20
    with pytest.raises(ValueError):
        a.size_bits((10, 1))
    with pytest.raises(ValueError):
        BitAssignment(())
    with pytest.raises(ValueError, match="4.9"):
        BitAssignment((4.9, 2))


def test_budget_units():
    assert SizeBudget.from_megabytes(1.0).limit_bits == 8 * 2 ** 20
    assert SizeBudget.from_megabytes(0.5).limit_bits == 4 * 2 ** 20
    # fractional bits round down: never admit more than asked
    assert SizeBudget.from_megabytes(1e-6).limit_bits == 8
    with pytest.raises(ValueError):
        SizeBudget(-1)
    with pytest.raises(ValueError):
        SizeBudget(2.5)
    for value in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match=repr(value)):
            SizeBudget(value)
        with pytest.raises(ValueError, match=repr(value)):
            SizeBudget.from_megabytes(value)


def test_objective_hand_computation():
    m = golden_quartet_matrix()
    assert objective(m, BitAssignment((2, 2, 32, 32))) == math.fsum(
        [0.115, 0.140, 0.009, 0.009])
    assert objective(m, BitAssignment((32, 32, 2, 2))) == math.fsum(
        [0.246, 0.148, -0.070, -0.070])
    assert objective(m, BitAssignment((32, 32, 32, 32))) == 0.0


def test_objective_raw_array_route():
    m = golden_quartet_matrix()
    a = BitAssignment((2, 2, 32, 32))
    direct = objective(m.entries, a, sizes=m.layer_sizes, menu=m.menu)
    assert direct == objective(m, a)
    with pytest.raises(ValueError):
        objective(m.entries, a)
    with pytest.raises(ValueError):
        objective(m, BitAssignment((2, 2)))
    with pytest.raises(ValueError):
        objective(m, a, sizes=(9, 9, 9, 9))


# ---------------------------------------------------------------------------
# exhaustive solver against brute force

def test_exhaustive_matches_brute_force():
    _check_exhaustive_matches_brute_force()


def test_exhaustive_matches_brute_force_across_chunks(monkeypatch):
    # A tiny term budget splits every box into a head and a tail, and the
    # heads of three or more layers into several chunks.
    monkeypatch.setattr(solver, "_ENUM_TERMS", 16)
    layer_counts = _check_exhaustive_matches_brute_force()
    assert all(3 ** L * 3 * L > solver._ENUM_TERMS for L in layer_counts)
    assert max(layer_counts) >= 3


def _check_exhaustive_matches_brute_force():
    """Checks twelve seeded instances; returns their layer counts."""
    layer_counts = []
    for seed in range(12):
        rng = np.random.default_rng(seed + 50)
        L = int(rng.integers(2, 5))
        sizes = [int(s) for s in rng.integers(1, 4, size=L)]
        m = _instance(seed, sizes, (2, 4, 8), rho=float(rng.uniform(0.0, 1.0)),
                      psd=bool(seed % 2))
        budget = _mid_budget(m, float(rng.uniform(0.1, 0.9)))
        report = solve_exhaustive(m, budget=budget)
        want = _brute_force(m, budget)
        assert report.objective == want[0]
        assert report.size_bits == want[1]
        assert report.assignment.bits == want[2]
        assert report.proved and report.status == "optimal"
        assert report.nodes == 3 ** L
        layer_counts.append(L)
    return layer_counts


def test_exhaustive_tie_breaks_smallest_size_then_lex():
    menu = BitMenu((2, 4))
    zero = SensitivityMatrix(menu, (2, 1), np.zeros((4, 4)), 1)
    report = solve_exhaustive(zero, budget=SizeBudget(1000))
    # every assignment scores 0: smallest size wins, lex order settles ties
    assert report.objective == 0.0
    assert report.assignment.bits == (2, 2)
    assert report.size_bits == 6


def test_enumeration_keeps_rows_that_win_only_on_the_exact_sum():
    # (2, 2) and (2, 4) both have the float sum 1.0, but the exact sum of
    # (2, 2) is 1 + 1.2e-16, which fsum rounds up to the next double.
    entries = np.zeros((4, 4))
    entries[0, 0] = 1.0
    entries[1, 1] = 5.0
    entries[2, 2] = 0.6e-16
    entries[0, 2] = entries[2, 0] = 0.3e-16
    repro = SensitivityMatrix(BitMenu((2, 4)), (1, 1), entries, 1)
    assert _brute_force(repro, SizeBudget(100)) == (1.0, 6, (2, 4))
    # Here the optimum shares its float sum with a smaller assignment that
    # is one ulp worse exactly; brute force, not pinned bits, keeps the
    # check independent of BLAS round-off in the projection.
    measured = _instance(17, [4, 3, 3, 4, 2, 3, 3, 2], (2, 4, 8), rho=0.793006018555495)
    for m, budget in ((repro, SizeBudget(100)), (measured, SizeBudget(110))):
        want = _brute_force(m, budget)
        for solve in (solve_exhaustive, solve_bnb):
            report = solve(m, budget=budget)
            assert (report.objective, report.size_bits, report.assignment.bits) == want


def _node_by_brute_force(entries, menu_bits, wmat, fixed, limit):
    """Smallest ``_exact_key`` over a node's feasible assignments, or None."""
    choices = [range(len(menu_bits)) if p < 0 else (p,) for p in fixed.tolist()]
    keys = [_exact_key(entries, menu_bits, wmat, pos) for pos in itertools.product(*choices)
            if sum(wmat[l, p] for l, p in enumerate(pos)) <= limit]
    return min(keys, default=None)


def _check_nodes_match_brute_force(entries, sizes, menu_bits, rng, nodes=6):
    """Compares ``_enumerate_node`` with brute force on the root and on
    random partly fixed nodes, at budgets from the smallest model up."""
    num_layers, nb = len(sizes), len(menu_bits)
    lo = sum(sizes) * menu_bits[0]
    hi = sum(sizes) * menu_bits[-1]
    for limit in (lo, (lo + hi) // 2, hi):
        wmat = _size_table(sizes, menu_bits, limit)
        enumeration = _enumeration(entries, menu_bits, wmat, limit)
        for n in range(nodes):
            fixed = np.full(num_layers, -1)
            if n:
                held = rng.random(num_layers) < 0.4
                fixed[held] = rng.integers(0, nb, size=int(held.sum()))
            want = _node_by_brute_force(entries, menu_bits, wmat, fixed, limit)
            assert _enumerate_node(enumeration, fixed) == want, (limit, fixed)


def _random_symmetric(rng, dim):
    a = rng.normal(size=(dim, dim))
    return np.triu(a) + np.triu(a, 1).T


def _record_one_hot(monkeypatch):
    """Empties the one-hot cache and returns the row counts of the tables
    ``_one_hot`` is asked for from then on."""
    monkeypatch.setattr(solver, "_ONE_HOT", {})
    rows = []
    build = solver._one_hot

    def one_hot(nb, count):
        rows.append(nb ** count)
        return build(nb, count)

    monkeypatch.setattr(solver, "_one_hot", one_hot)
    return rows


@pytest.mark.parametrize("terms", [2 ** 20, 12])
def test_enumerate_node_matches_brute_force(monkeypatch, terms):
    # At 12 terms a box keeps a one-layer tail and splits its head rows
    # into chunks of at most six.
    monkeypatch.setattr(solver, "_ENUM_TERMS", terms)
    rng = np.random.default_rng(7)
    for case in range(8):
        menu_bits = (2, 8) if case % 2 else (2, 4, 8)
        num_layers = int(rng.integers(3, 7))
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=num_layers))
        entries = _random_symmetric(rng, num_layers * len(menu_bits))
        _check_nodes_match_brute_force(entries, sizes, menu_bits, rng)


def test_enumerate_node_matches_brute_force_with_row_capped_tails(monkeypatch):
    # At SUBCUBE_LIMIT 4 a tail keeps at most two layers of (2, 8) and one
    # of (2, 4, 8), so every box of three or more free layers splits.
    monkeypatch.setattr(solver, "SUBCUBE_LIMIT", 4)
    rows = _record_one_hot(monkeypatch)
    rng = np.random.default_rng(11)
    for case in range(8):
        menu_bits = (2, 8) if case % 2 else (2, 4, 8)
        num_layers = int(rng.integers(3, 7))
        sizes = tuple(int(s) for s in rng.integers(1, 5, size=num_layers))
        entries = _random_symmetric(rng, num_layers * len(menu_bits))
        _check_nodes_match_brute_force(entries, sizes, menu_bits, rng)
    assert max(rows) == 4


def test_enumerate_node_breaks_ties_like_brute_force(monkeypatch):
    # Every row ties on all-zero entries; small integers tie many rows.
    rng = np.random.default_rng(3)
    for terms in (2 ** 20, 12):
        monkeypatch.setattr(solver, "_ENUM_TERMS", terms)
        for case in range(6):
            menu_bits = (2, 4, 8)
            num_layers = int(rng.integers(3, 6))
            sizes = tuple(int(s) for s in rng.integers(1, 3, size=num_layers))
            dim = num_layers * len(menu_bits)
            if case % 3 == 0:
                entries = np.zeros((dim, dim))
            else:
                a = rng.integers(-1, 2, size=(dim, dim)).astype(np.float64)
                entries = np.triu(a) + np.triu(a, 1).T
            _check_nodes_match_brute_force(entries, sizes, menu_bits, rng)
    # (2, 4) and (4, 2) gather the same zeros, but the later one is smaller.
    entries = np.zeros((4, 4))
    entries[0, 2] = entries[2, 0] = 1.0
    wmat = _size_table((1, 5), (2, 4), 100)
    assert _enumerate_node(_enumeration(entries, (2, 4), wmat, 100), np.full(2, -1)) == (
        0.0, 14, (4, 2))


def _cancelling_matrix(seed):
    """``v v'`` for integer rows times 1e8 plus small noise: entries near
    1e17 whose sums cancel down to the noise."""
    rng = np.random.default_rng(seed)
    v = rng.integers(-3, 4, size=(18, 2)) * 1e8 + rng.normal(0.0, 0.1, size=(18, 2))
    g = v @ v.T
    return np.triu(g) + np.triu(g, 1).T


def test_enumeration_window_covers_cancelling_sums():
    # A window relative to the smallest score alone missed the optimum on
    # about a third of these matrices, whose float scores err by far more
    # than the scores themselves.
    sizes, menu_bits = (1,) * 6, (2, 4, 8)
    for seed in range(12):
        entries = _cancelling_matrix(seed)
        wmat = _size_table(sizes, menu_bits, 10 ** 6)
        want = _node_by_brute_force(entries, menu_bits, wmat, np.full(6, -1), 10 ** 6)
        report = solve_exhaustive(entries, sizes, menu_bits, 10 ** 6)
        assert (report.objective, report.size_bits, report.assignment.bits) == want
        _check_nodes_match_brute_force(entries, sizes, menu_bits, np.random.default_rng(seed))


def test_exhaustive_memory_stays_bounded():
    # 2**20 assignments: enumeration holds one chunk of _ENUM_TERMS scores
    # (8 MiB) beside one-hot tables of at most SUBCUBE_LIMIT rows.
    rng = np.random.default_rng(0)
    entries = _random_symmetric(rng, 40)
    entries = entries @ entries / 40
    entries = np.triu(entries) + np.triu(entries, 1).T
    sizes = tuple(int(s) for s in rng.integers(1, 5, size=20))
    report, peak = traced_peak(solve_exhaustive, entries, sizes, (2, 8), 5 * sum(sizes))
    assert report.nodes == 2 ** 20
    assert peak < 16 * 2 ** 20
    assert report.objective == solve_bnb(entries, sizes, (2, 8), 5 * sum(sizes)).objective


def test_exhaustive_tails_are_shared_node_sized_tables(monkeypatch):
    # 2**15 assignments run as 16 head rows against one 2**11-row tail.
    rows = _record_one_hot(monkeypatch)
    rng = np.random.default_rng(5)
    sizes = tuple(int(s) for s in rng.integers(1, 5, size=15))
    budget = 5 * sum(sizes)
    built = []
    for _ in range(2):
        entries = _random_symmetric(rng, 30)
        entries = entries @ entries / 30
        entries = np.triu(entries) + np.triu(entries, 1).T
        rows.clear()
        report, peak = traced_peak(solve_exhaustive, entries, sizes, (2, 8), budget)
        built.append(list(rows))
        assert report.nodes == 2 ** 15
        assert peak < 2 * 2 ** 20
        assert report.objective == solve_bnb(entries, sizes, (2, 8), budget).objective
    # The first solve builds only node-sized tables, the second none.
    assert built[0] and max(built[0]) <= solver.SUBCUBE_LIMIT
    assert built[1] == []
    assert not any(table.flags.writeable for table in solver._ONE_HOT.values())


def test_models_of_2_53_bits_are_refused():
    # Enumeration scores sizes in float64, exact only below 2**53.
    for solve in (solve_exhaustive, solve_bnb):
        with pytest.raises(ValueError, match=r"2\*\*53 bits"):
            solve(np.eye(2), (2 ** 50,), (2, 8), 2 ** 60)
    assert solve_exhaustive(np.eye(2), (2 ** 50 - 1,), (2, 8), 2 ** 60).size_bits == 2 ** 51 - 2


def test_exhaustive_all_max_bits_when_budget_allows():
    m = golden_quartet_matrix()
    report = solve_exhaustive(m, budget=SizeBudget(4 * 32))
    assert report.assignment.bits == (32, 32, 32, 32)
    assert report.objective == 0.0


def test_exhaustive_refuses_oversized_space():
    assert 2 ** 24 > EXHAUSTIVE_LIMIT
    entries = np.zeros((48, 48))
    with pytest.raises(SearchSpaceError):
        solve_exhaustive(entries, [1] * 24, (2, 4), budget=SizeBudget(10 ** 9))


def test_raw_entries_need_at_least_one_layer():
    for solve in (solve_exhaustive, solve_bnb):
        with pytest.raises(ValueError, match="at least one layer"):
            solve(np.zeros((0, 0)), (), (2, 4), 10)


def test_raw_entries_need_positive_layer_sizes():
    # A zero size used to divide by zero inside the LMO, and a negative one
    # returned an answer.
    rng = np.random.default_rng(0)
    a = rng.normal(size=(24, 24))
    g = a @ a.T / 24
    layer = np.repeat(np.arange(12), 2)
    g[(layer[:, None] == layer[None, :]) & ~np.eye(24, dtype=bool)] = 0.0
    g[1::2, 1::2][np.diag_indices(12)] -= 0.5
    for bad in (0, -1):
        sizes = (1, bad) + (1,) * 10
        for solve in (solve_exhaustive, solve_bnb, solve_diagonal_only):
            with pytest.raises(ValueError, match="layer sizes must be positive"):
                solve(g, sizes, (2, 4), 30)
        with pytest.raises(ValueError, match="layer sizes must be positive"):
            objective(g, BitAssignment([2] * 12), sizes=sizes, menu=(2, 4))


def test_budgets_beyond_int64_are_searched(monkeypatch):
    # A node's remaining budget is a Python int, so a budget of 2**63 bits
    # or more cannot overflow; it searches like one that fits every layer
    # at its widest width.
    monkeypatch.setattr(solver, "SUBCUBE_LIMIT", 4)
    m, _ = noisy_instance(0)
    roomy = solve_bnb(m, budget=8 * sum(m.layer_sizes))
    assert roomy.fw_iterations > 0
    for budget in (2 ** 63, 10 ** 30):
        report = solve_bnb(m, budget=budget)
        assert (report.assignment.bits, report.nodes, report.fw_iterations) == (
            roomy.assignment.bits, roomy.nodes, roomy.fw_iterations)
        assert solve_exhaustive(m, budget=budget).assignment.bits == roomy.assignment.bits


def test_infeasible_budget_raises():
    m = golden_quartet_matrix()
    with pytest.raises(InfeasibleBudgetError):
        solve_exhaustive(m, budget=SizeBudget(7))
    with pytest.raises(InfeasibleBudgetError):
        solve_bnb(m, budget=SizeBudget(7))


# ---------------------------------------------------------------------------
# branch and bound

def test_bnb_equals_exhaustive_on_psd_instances():
    for seed in range(15):
        rng = np.random.default_rng(seed)
        L = int(rng.integers(3, 8))
        sizes = [int(s) for s in rng.integers(1, 5, size=L)]
        m = _instance(seed, sizes, (2, 4, 8), rho=float(rng.uniform(0.2, 1.0)))
        budget = _mid_budget(m, float(rng.uniform(0.2, 0.8)))
        a = solve_exhaustive(m, budget=budget)
        b = solve_bnb(m, budget=budget)
        assert b.objective == a.objective
        assert b.assignment.bits == a.assignment.bits
        assert b.size_bits == a.size_bits
        assert b.proved


def test_bnb_without_psd_assumption_still_exact():
    # raw measured entries, indefinite for seed 2: the search must still
    # return the exact optimum
    for seed in (0, 1, 2):
        m = _instance(seed, [2, 1, 3, 2], (2, 4, 8), rho=0.9, psd=False)
        budget = _mid_budget(m, 0.4)
        a = solve_exhaustive(m, budget=budget)
        b = solve_bnb(m, budget=budget)
        assert b.objective == a.objective
        assert b.assignment.bits == a.assignment.bits
        assert b.proved


def test_bnb_branches_beyond_the_enumeration_floor():
    m = _instance(11, [3] * 14, (2, 8), rho=0.6)
    budget = _mid_budget(m, 0.5)
    report = solve_bnb(m, budget=budget)
    assert report.nodes > 1
    assert report.proved
    check = solve_exhaustive(m, budget=budget)
    assert report.objective == check.objective


def test_bnb_node_limit_degrades_to_incumbent():
    m = _instance(11, [3] * 14, (2, 8), rho=0.6)
    report = solve_bnb(m, budget=_mid_budget(m, 0.5), node_limit=1)
    assert report.status == "incumbent"
    assert not report.proved
    assert report.assignment is not None
    assert report.size_bits <= _mid_budget(m, 0.5).limit_bits


def test_bnb_time_limit_degrades_to_incumbent():
    m = _instance(12, [3] * 16, (2, 8), rho=0.6)
    report = solve_bnb(m, budget=_mid_budget(m, 0.5), time_limit=0.0)
    assert report.status == "incumbent"
    assert not report.proved


def test_bnb_rejects_unknown_options():
    m = golden_quartet_matrix()
    with pytest.raises(TypeError):
        solve_with_method("full", m, None, None, SizeBudget(68), fw_tol_typo=1.0)


@pytest.mark.parametrize("name, value", [
    ("node_limit", -5), ("node_limit", 2.0), ("node_limit", None),
    ("time_limit", -1.0), ("time_limit", math.nan), ("time_limit", "1"),
])
def test_bnb_rejects_invalid_limits(name, value):
    m = golden_quartet_matrix()
    for method in ("full", "diag", "block"):
        with pytest.raises(ValueError, match=name):
            solve_with_method(method, m, None, None, SizeBudget(68),
                              block_partition=[[0, 1], [2, 3]], **{name: value})
    # also where the budget is infeasible, so that no sweep row hides it
    with pytest.raises(ValueError, match=name):
        sweep(m, budgets=[1, 68], **{name: value})


def test_bnb_accepts_zero_and_infinite_limits():
    m, budget = golden_quartet_matrix(), SizeBudget(GOLDEN_QUARTET_BUDGET_BITS)
    assert solve_bnb(m, budget=budget, node_limit=0).nodes == 0
    report = solve_bnb(m, budget=budget, node_limit=np.int64(10), time_limit=math.inf)
    assert report.proved and report.status == "optimal"


def test_budget_monotonicity():
    m = _instance(21, [2, 3, 2, 1, 2], (2, 4, 8), rho=0.8)
    lo = sum(s * 2 for s in m.layer_sizes)
    hi = sum(s * 8 for s in m.layer_sizes)
    budgets = list(range(lo, hi + 1, 4))
    objectives = [solve_bnb(m, budget=SizeBudget(b)).objective for b in budgets]
    assert all(a >= b for a, b in zip(objectives, objectives[1:]))


def test_exact_budget_boundary():
    m = golden_quartet_matrix()
    at_min = solve_bnb(m, budget=SizeBudget(8))
    assert at_min.assignment.bits == (2, 2, 2, 2)
    assert at_min.size_bits == 8


# ---------------------------------------------------------------------------
# golden micro-instances

def test_golden_a_full_vs_diagonal_selection():
    m = golden_quartet_matrix()
    budget = SizeBudget(GOLDEN_QUARTET_BUDGET_BITS)
    full = solve_bnb(m, budget=budget)
    diag = solve_diagonal_only(m, budget=budget)
    assert full.assignment.bits == (32, 32, 2, 2)
    assert full.objective == 0.254
    assert diag.assignment.bits == (2, 2, 32, 32)
    assert objective(m, diag.assignment) == 0.273


def test_golden_b_full_vs_diagonal_selection():
    m = golden_trio_matrix()
    budget = SizeBudget(GOLDEN_TRIO_BUDGET_BITS)
    full = solve_bnb(m, budget=budget)
    diag = solve_diagonal_only(m, budget=budget)
    assert full.assignment.bits == (4, 32, 4)
    assert full.objective == 0.040
    assert diag.assignment.bits == (4, 4, 32)
    assert objective(m, diag.assignment) == 0.046


# ---------------------------------------------------------------------------
# ablation solvers

def test_diagonal_only_ignores_couplings():
    m = golden_quartet_matrix()
    report = solve_diagonal_only(m, budget=SizeBudget(GOLDEN_QUARTET_BUDGET_BITS))
    stripped = m.with_entries(np.diag(np.diag(m.entries)))
    check = solve_exhaustive(stripped, budget=SizeBudget(GOLDEN_QUARTET_BUDGET_BITS))
    assert report.objective == check.objective
    assert report.assignment.bits == check.assignment.bits
    assert report.method == "diag"


def test_block_partition_masks_cross_blocks():
    m = _instance(31, [2, 2, 2, 2], (2, 4), rho=1.0)
    budget = _mid_budget(m, 0.5)
    one_block = solve_block(m, budget=budget, block_partition=[(0, 1, 2, 3)])
    full = solve_bnb(m, budget=budget)
    assert one_block.objective == full.objective
    assert one_block.assignment.bits == full.assignment.bits
    singleton = solve_block(m, budget=budget, block_partition=[(0,), (1,), (2,), (3,)])
    diagonal = solve_diagonal_only(m, budget=budget)
    assert singleton.assignment.bits == diagonal.assignment.bits


def test_block_partition_validation():
    m = _instance(31, [2, 2, 2, 2], (2, 4), rho=1.0)
    budget = _mid_budget(m, 0.5)
    with pytest.raises(ValueError):
        solve_block(m, budget=budget, block_partition=[(0, 1)])
    with pytest.raises(ValueError):
        solve_block(m, budget=budget, block_partition=[(0, 1), (1, 2, 3)])
    with pytest.raises(ValueError):
        solve_block(m, budget=budget)


# ---------------------------------------------------------------------------
# relaxation machinery

def _relaxation_lp(cost, fixed, wmat, limit):
    """Reference LP solution via scipy linprog over the node's polytope."""
    num_layers, nb = cost.shape
    n = num_layers * nb
    a_eq = np.zeros((num_layers, n))
    for l in range(num_layers):
        a_eq[l, l * nb:(l + 1) * nb] = 1.0
    bounds = [(0.0, 1.0 if fixed[l] < 0 or k == fixed[l] else 0.0)
              for l in range(num_layers) for k in range(nb)]
    res = scipy.optimize.linprog(
        cost.ravel(), A_ub=wmat.ravel()[None, :], b_ub=[limit],
        A_eq=a_eq, b_eq=np.ones(num_layers), bounds=bounds, method="highs")
    assert res.status == 0
    return float(res.fun)


def _node(fixed, wmat, limit):
    """A node's smallest point, free layers and remaining budget, built as
    ``_bnb_core`` builds them for ``_frank_wolfe`` and ``_lmo``."""
    low = np.maximum(fixed, 0)
    rem = limit - int(wmat[np.arange(len(fixed)), low].sum())
    return np.eye(wmat.shape[1])[low], np.flatnonzero(fixed < 0), float(rem)


def _node_lmo(cost, fixed, wmat, limit):
    start, free, rem = _node(fixed, wmat, limit)
    return _lmo(cost, start, free, wmat, rem)


def test_lmo_matches_reference_lp():
    rng = np.random.default_rng(2)
    for trial in range(20):
        L = int(rng.integers(2, 6))
        nb = int(rng.integers(2, 4))
        menu_bits = tuple(sorted(rng.choice(range(2, 12), size=nb, replace=False)))
        sizes = rng.integers(1, 6, size=L)
        wmat = np.array([[int(s) * b for b in menu_bits] for s in sizes],
                        dtype=np.int64)
        limit = int(wmat[:, 0].sum() + rng.uniform(0.1, 0.9)
                    * (wmat[:, -1].sum() - wmat[:, 0].sum()))
        cost = rng.normal(size=(L, nb))
        fixed = np.full(L, -1)
        x = _node_lmo(cost, fixed, wmat, limit)
        assert np.all(x >= 0.0)
        assert np.allclose(x.sum(axis=1), 1.0, rtol=0, atol=1e-12)
        assert float((x * wmat).sum()) <= limit + 1e-9
        got = float((cost * x).sum())
        want = _relaxation_lp(cost, fixed, wmat, limit)
        assert got == pytest.approx(want, rel=1e-9, abs=1e-9)


def test_lmo_respects_fixed_layers():
    wmat = np.array([[2, 4, 8], [2, 4, 8], [2, 4, 8]], dtype=np.int64)
    cost = np.array([[0.0, -1.0, -2.0]] * 3)
    fixed = np.array([-1, 1, 0])
    # 4 bits are left above the node's smallest point: layer 0 moves to
    # position 1 and then halfway on to position 2
    x = _node_lmo(cost, fixed, wmat, limit=12)
    assert x.tolist() == [[0.0, 0.5, 0.5], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    want = _relaxation_lp(cost, fixed, wmat, 12)
    assert float((cost * x).sum()) == pytest.approx(want, rel=1e-12, abs=1e-12)
    rng = np.random.default_rng(3)
    for trial in range(20):
        wmat = np.array([[int(s) * b for b in (2, 4, 8)] for s in rng.integers(1, 6, size=5)],
                        dtype=np.int64)
        fixed = np.where(rng.random(5) < 0.4, rng.integers(0, 3, size=5), -1)
        start, free, rem = _node(fixed, wmat, 0)
        limit = int(-rem + rng.uniform(0.0, 1.0) * (wmat[free, -1] - wmat[free, 0]).sum())
        cost = rng.normal(size=(5, 3))
        x = _node_lmo(cost, fixed, wmat, limit)
        fixed_rows = np.flatnonzero(fixed >= 0)
        assert np.array_equal(x[fixed_rows], start[fixed_rows])
        want = _relaxation_lp(cost, fixed, wmat, limit)
        assert float((cost * x).sum()) == pytest.approx(want, rel=1e-9, abs=1e-9)


def _relaxation_instance(seed: int):
    """A 5-layer PSD instance with its root node: (matrix, budget, wmat, fixed)."""
    m = _instance(seed, [2, 2, 2, 2, 2], (2, 4, 8), rho=0.9)
    wmat = np.array([[s * b for b in m.menu.bits] for s in m.layer_sizes],
                    dtype=np.int64)
    return m, _mid_budget(m, 0.5), wmat, np.full(5, -1)


def test_frank_wolfe_bound_is_sound():
    for seed in (1, 4, 9):
        m, budget, wmat, fixed = _relaxation_instance(seed)
        start, free, rem = _node(fixed, wmat, budget.limit_bits)
        x, iters, lb = _frank_wolfe(m.entries, start, free, wmat, rem)
        integer_opt = solve_exhaustive(m, budget=budget).objective
        assert lb <= integer_opt + 1e-9
        assert np.allclose(x.sum(axis=1), 1.0, rtol=0, atol=1e-9)


def test_frank_wolfe_stops_once_the_primal_value_clears_the_cut():
    # The primal value bounds the relaxation optimum from above, so once it
    # is below the cut no bound at the node can reach the cut.
    m, budget, wmat, fixed = _relaxation_instance(1)
    stop_lb = _quadratic_form(m.entries, [l * 3 for l in range(5)]) + 1.0
    start, free, rem = _node(fixed, wmat, budget.limit_bits)
    x, iters, lb = _frank_wolfe(m.entries, start, free, wmat, rem, stop_lb=stop_lb)
    assert iters == 1
    assert float(x.ravel() @ m.entries @ x.ravel()) < stop_lb
    assert lb < stop_lb
    _, iters, _ = _frank_wolfe(m.entries, start, free, wmat, rem)
    assert iters > 1


def _shift_scale(entries):
    """The ``w`` the shift scales: the diagonal if positive, else all ones."""
    diagonal = np.diagonal(entries)
    return diagonal if np.all(diagonal > 0.0) else np.ones(len(entries))


def _assert_shift_makes_psd(entries, shift):
    assert shift > 0.0
    values = np.linalg.eigvalsh(entries + shift * np.diag(_shift_scale(entries)))
    assert values[0] >= -1e-12 * max(1.0, float(values[-1]))


def test_bnb_prunes_negative_curvature_through_a_shift(monkeypatch):
    # positive diagonals push off the start, the large negative coupling
    # between the upgrade options makes the step direction concave
    entries = np.zeros((4, 4))
    entries[0, 0] = entries[2, 2] = 1.0
    entries[1, 3] = entries[3, 1] = -4.0
    # bound every node that has a choice left instead of enumerating it
    monkeypatch.setattr(solver, "SUBCUBE_LIMIT", 1)
    for limit in (4, 6, 8):
        report = solve_bnb(entries, (1, 1), (2, 4), SizeBudget(limit))
        best = solve_exhaustive(entries, (1, 1), (2, 4), SizeBudget(limit))
        _assert_shift_makes_psd(entries, report.shift)
        assert report.proved
        assert (report.objective, report.assignment.bits) == (
            best.objective, best.assignment.bits)
    # an unpruned search of budget 8 visits all 7 nodes of the tree
    assert report.nodes < 7


def test_bnb_proof_holds_on_indefinite_matrices():
    # Frank-Wolfe sees no clearly concave step on these, so only a check of
    # the matrix itself keeps their unshifted bounds from pruning the
    # optimum.  The node limits are one below the unpruned search's counts.
    for seed, node_limit in ((71, 120), (92, 12), (244, 120), (282, 39)):
        m, budget = noisy_instance(seed)
        report = solve_bnb(m, budget=budget, node_limit=node_limit)
        best = solve_exhaustive(m, budget=budget)
        _assert_shift_makes_psd(m.entries, report.shift)
        assert report.proved
        assert (report.objective, report.assignment.bits) == (
            best.objective, best.assignment.bits)


def _convexify_case(case):
    if case == "psd":
        return _instance(3, [2, 3, 2, 4], (2, 4, 8), psd=False).entries
    entries = noisy_instance(11)[0].entries.copy()
    if case == "indefinite":
        np.fill_diagonal(entries, np.abs(np.diagonal(entries)))
    elif case == "zero-diagonal":
        entries[4, 4] = 0.0
    return entries


@pytest.mark.parametrize("case", ("psd", "noisy", "indefinite", "zero-diagonal"))
def test_convexify_is_tight_and_exact_on_one_hot_points(case):
    entries = _convexify_case(case)
    nb = 3
    num_layers = len(entries) // nb
    lowest = np.linalg.eigvalsh(entries)[0]
    bounded, offset, shift = _convexify(entries, nb)
    assert (shift < 0.0) if lowest > 0.0 else (shift > 0.0)
    w = _shift_scale(entries)
    assert np.all(w == 1.0) == (case in ("noisy", "zero-diagonal"))
    reformulated = entries + shift * np.diag(w)
    assert _psd_shift(reformulated) == 0.0
    assert offset == 0.0
    # no larger shift scale keeps the reformulated matrix PSD
    root = 1.0 / np.sqrt(w)
    values = np.linalg.eigvalsh(reformulated * root[:, None] * root[None, :])
    assert abs(values[0]) <= 1e-12 * max(1.0, float(values[-1]))
    # the bounded matrix carries that same shift, folded into each layer
    a = -shift * w
    layer = np.arange(len(entries)) // nb
    fold = np.where(layer[:, None] == layer[None, :], 0.5 * (a[:, None] + a[None, :]), 0.0)
    scale = np.max(np.abs(bounded))
    np.testing.assert_allclose(bounded, reformulated + fold, rtol=0, atol=1e-12 * scale)
    for pos in itertools.product(range(nb), repeat=num_layers):
        idx = np.arange(num_layers) * nb + pos
        exact = entries[np.ix_(idx, idx)].sum() + offset * num_layers
        assert bounded[np.ix_(idx, idx)].sum() == pytest.approx(
            exact, rel=1e-12, abs=1e-12 * scale)


def test_shift_is_computed_only_when_a_node_is_bounded():
    # every golden-quartet solve enumerates its root
    report = solve_bnb(golden_quartet_matrix(), budget=SizeBudget(GOLDEN_QUARTET_BUDGET_BITS))
    assert report.nodes == 1 and report.fw_iterations == 0
    assert report.shift == 0.0


def test_sixteen_layer_search_is_proved_within_300_nodes():
    # The scaled shift proves this search in about a hundred nodes;
    # bounding through the PSD matrix itself needs 1,060.
    m = _instance(1, [64] * 16, (2, 4, 8), rho=0.6)
    report = solve_bnb(m, budget=SizeBudget(5120), node_limit=300)
    assert report.proved
    assert report.assignment.bits == (4, 4, 8, 4, 4, 4, 4, 8, 4, 4, 4, 8, 4, 4, 4, 8)


# noisy_instance searches with every node of more than 4 assignments
# bounded: (seed, bits, objective, nodes, Frank-Wolfe iterations, shift).
_PINNED_NOISY_SEARCHES = (
    (0, (8, 4, 8, 8, 4, 4, 4, 8, 8, 4), -0.01129595466304226, 241, 2158, 0.004648990344560456),
    (1, (4, 4, 4, 4, 4, 4, 8, 8), -0.05815576470689356, 82, 204, 0.015649129122735743),
    (2, (8, 8, 8, 8, 8, 4, 4, 4, 4, 4), -0.03831826410522124, 391, 1604, 0.008497936617871424),
    (3, (4, 2, 4, 8, 8, 4, 4, 8, 4, 4), 0.002418730688518837, 619, 2623, 0.0035372238973556407),
    (4, (4, 8, 4, 4, 4, 4, 4, 4, 4), -0.033682001175886364, 106, 260, 0.013822553309431324),
    (5, (8, 8, 4, 4, 4, 4, 2, 4, 2), 0.0070251987191696135, 124, 849, 0.003659301783787894),
    (6, (2, 4, 2, 4, 4, 2, 4, 2), 0.16956835195099057, 190, 475, 0.011186996889874049),
    (7, (2, 4, 4, 4, 8, 4, 4, 8, 4, 4), 0.012382877058166323, 448, 2852, 0.003933392487453486),
    (8, (4, 4, 8, 2, 8, 4, 8, 8, 4), -0.012096260062488522, 493, 1623, 0.011249930353152809),
    (9, (4, 4, 8, 8, 4, 8, 4, 4), -0.10802844979636772, 91, 318, 0.03917878732032194),
)


def _search_summary(report):
    return (report.assignment.bits, pytest.approx(report.objective, rel=1e-12),
            report.nodes, report.fw_iterations, pytest.approx(report.shift, rel=1e-9))


def test_search_order_is_pinned(monkeypatch):
    # Any change to the order in which nodes are visited, rounded or
    # branched on moves these node and iteration counts.
    m = _instance(1, [64] * 16, (2, 4, 8), rho=0.6)
    report = solve_bnb(m, budget=SizeBudget(5120))
    assert report.proved
    assert _search_summary(report) == (
        (4, 4, 8, 4, 4, 4, 4, 8, 4, 4, 4, 8, 4, 4, 4, 8), 4.274448556423196,
        109, 187, -0.8475090453346978)
    monkeypatch.setattr(solver, "SUBCUBE_LIMIT", 4)
    for seed, *pinned in _PINNED_NOISY_SEARCHES:
        m, budget = noisy_instance(seed)
        report = solve_bnb(m, budget=budget)
        assert report.proved
        assert _search_summary(report) == tuple(pinned), seed


# ---------------------------------------------------------------------------
# dispatch and sweeping

def test_dispatch_validation():
    m = golden_quartet_matrix()
    with pytest.raises(ValueError):
        solve_with_method("simulated-annealing", m, None, None, SizeBudget(68))
    with pytest.raises(TypeError):
        solve_with_method("exhaustive", m, None, None, SizeBudget(68), node_limit=5)
    for method in METHODS:
        assert method in ("full", "diag", "block", "exhaustive")


def test_dispatch_routes_methods():
    m = golden_quartet_matrix()
    budget = SizeBudget(GOLDEN_QUARTET_BUDGET_BITS)
    full = solve_with_method("full", m, None, None, budget)
    assert full.method == "full"
    ex = solve_with_method("exhaustive", m, None, None, budget)
    assert ex.method == "exhaustive" and ex.objective == full.objective
    blk = solve_with_method("block", m, None, None, budget,
                            block_partition=[(0, 1), (2, 3)])
    assert blk.method == "block"


def test_sweep_reports_and_monotonicity():
    m = _instance(41, [2, 2, 3], (2, 4, 8), rho=0.7)
    lo = sum(s * 2 for s in m.layer_sizes)
    hi = sum(s * 8 for s in m.layer_sizes)
    budgets = [lo, (lo + hi) // 2, hi]
    reports = sweep(m, budgets=budgets)
    assert [r.budget_bits for r in reports] == budgets
    objectives = [r.objective for r in reports]
    assert all(a >= b for a, b in zip(objectives, objectives[1:]))
    assert all(r.proved for r in reports)


def test_sweep_inline_infeasible_and_order_check():
    m = _instance(41, [2, 2, 3], (2, 4, 8), rho=0.7)
    lo = sum(s * 2 for s in m.layer_sizes)
    reports = sweep(m, budgets=[lo - 1, lo])
    assert reports[0].status == "infeasible"
    assert reports[0].assignment is None and not reports[0].proved
    assert reports[1].status == "optimal"
    with pytest.raises(ValueError):
        sweep(m, budgets=[lo + 5, lo])
    with pytest.raises(ValueError):
        sweep(m, budgets=None)


# ---------------------------------------------------------------------------
# paths the default settings may skip

def test_bounding_path_matches_exhaustive(monkeypatch):
    # A tiny enumeration cutoff sends every node through Frank-Wolfe and
    # the LMO, whatever SUBCUBE_LIMIT is tuned to.
    monkeypatch.setattr(solver, "SUBCUBE_LIMIT", 4)
    rng = np.random.default_rng(2024)
    for case in range(10):
        menu = (2, 8) if case % 3 == 0 else (2, 4, 8)
        num_layers = int(rng.integers(4, 9)) if case % 3 == 0 else int(rng.integers(3, 7))
        sizes = [int(s) for s in rng.integers(2, 5, size=num_layers)]
        m = _instance(case, sizes, menu, rho=float(rng.uniform(0.2, 1.0)))
        budget = _mid_budget(m, float(rng.uniform(0.2, 0.8)))
        reference = solve_exhaustive(m, budget=budget)
        report = solve_bnb(m, budget=budget)
        assert report.fw_iterations > 0
        assert report.proved
        assert report.objective == reference.objective
        assert report.assignment.bits == reference.assignment.bits
        assert report.size_bits == reference.size_bits


def test_bounding_path_matches_exhaustive_on_indefinite_matrices(monkeypatch):
    # The same tiny enumeration cutoff, on matrices that are bounded
    # through their diagonal shift.
    monkeypatch.setattr(solver, "SUBCUBE_LIMIT", 4)
    for seed in range(10):
        m, budget = noisy_instance(seed)
        reference = solve_exhaustive(m, budget=budget)
        report = solve_bnb(m, budget=budget)
        assert report.shift > 0.0
        assert report.fw_iterations > 0
        assert report.proved
        assert report.objective == reference.objective
        assert report.assignment.bits == reference.assignment.bits
        assert report.size_bits == reference.size_bits


def test_block_extremes_equal_full_and_diagonal():
    # Without same-layer cross-bit entries, one all-layer block keeps every
    # coupling and singleton blocks keep only the diagonal.
    m = _instance(11, [2] * 12, (2, 8), rho=0.6, psd=False)
    assert m.has_block_zeros()
    budget = _mid_budget(m, 0.5)

    def summary(report):
        return (report.assignment.bits, report.objective, report.nodes, report.fw_iterations)

    one_block = solve_block(m, budget=budget, block_partition=[tuple(range(12))])
    full = solve_bnb(m, budget=budget)
    assert full.nodes > 1
    assert summary(one_block) == summary(full)
    singletons = solve_block(m, budget=budget, block_partition=[(l,) for l in range(12)])
    assert summary(singletons) == summary(solve_diagonal_only(m, budget=budget))


def test_vectorized_helpers_match_loop_references():
    rng = np.random.default_rng(5)
    entries = rng.normal(size=(12, 12))  # deliberately not symmetric
    for idx in ([3], [0, 4, 8], [2, 3, 7, 9, 11]):
        terms = [entries[p, p] for p in idx]
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                terms += [entries[idx[a], idx[b]], entries[idx[b], idx[a]]]
        assert _quadratic_form(entries, idx) == math.fsum(terms)
    # four layers of three menu positions, blocks {0, 2} and {1, 3}
    group = _partition_groups([(2, 0), (3, 1)], 4)
    masked = _mask_couplings(entries, np.repeat(group, 3))
    for p in range(12):
        for q in range(12):
            same = (p // 3) % 2 == (q // 3) % 2
            assert masked[p, q] == (entries[p, q] if same else 0.0)
            assert same or math.copysign(1.0, masked[p, q]) == 1.0
