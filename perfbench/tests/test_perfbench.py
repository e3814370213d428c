"""Tests of the benchmark's own arithmetic and checks.

Run from the repository root: python3 -m pytest -q perfbench/tests
"""

import dataclasses
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
sys.path[:0] = [BENCH, os.path.join(os.path.dirname(BENCH), "src")]

import pytest  # noqa: E402

import harness  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from mixprec import (BitAssignment, BitMenu, SizeBudget, objective,  # noqa: E402
                     random_quadratic, solve_exhaustive)
from mixprec import sensitivity  # noqa: E402


def span(name, start, end, parent=None):
    return [name, start, end, parent, {}]


def test_self_time_subtracts_covered_child_time_once():
    spans = [
        span("parent", 0.0, 10.0),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),      # overlaps a: [1, 5] is covered once
        span("grandchild", 2.5, 2.75, 2),
        span("c", 8.0, 12.0, 0),     # runs past the parent: only [8, 10] counts
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(3.0 - 0.25)
    assert selfs[3] == pytest.approx(0.25)
    assert tracing.top_level_seconds(spans) == pytest.approx(10.0)


def test_union_length_merges_overlaps_and_skips_nested():
    assert harness.union_length([]) == 0.0
    assert harness.union_length([(0, 1), (0.5, 2), (0.6, 0.7), (3, 4)]) == pytest.approx(3.0)


def test_p90_of_100_samples_leaves_ten_beyond():
    values = list(range(100, 0, -1))
    assert harness.nearest_rank(values, 90) == (90, 10)
    assert harness.nearest_rank(values, 50) == (50, 50)
    assert harness.nearest_rank([7.0], 90) == (7.0, 0)
    assert harness.median([3, 1, 2, 10]) == 2.5


def tiny_instance():
    oracle = random_quadratic(3, [2, 3, 2], 0.7)
    menu = BitMenu((2, 4, 8))
    # Resolved at call time, so a traced call records the build_matrix span.
    matrix = sensitivity.build_matrix(oracle, menu)
    budget = SizeBudget(4 * 7)
    return oracle, matrix, budget


def test_wrong_answer_on_a_tiny_instance_is_a_failed_operation():
    oracle, matrix, budget = tiny_instance()
    reference = solve_exhaustive(matrix, budget=budget)
    ledger = harness.Ledger()
    assert ledger.record("right", workloads.check_against_reference(
        reference, reference, measured=2.0, proxy=2.0))

    cheapest = BitAssignment((2, 2, 2))
    wrong = dataclasses.replace(reference, assignment=cheapest,
                                objective=objective(matrix, cheapest),
                                size_bits=cheapest.size_bits(matrix.layer_sizes))
    assert wrong.assignment != reference.assignment
    assert not ledger.record("wrong", workloads.check_against_reference(
        wrong, reference, measured=2.0, proxy=2.0))
    assert not ledger.record("unproved", workloads.check_against_reference(
        dataclasses.replace(reference, proved=False), reference, measured=2.0, proxy=2.0))
    assert not ledger.record("ratio", workloads.check_against_reference(
        reference, reference, measured=2.0, proxy=1.0))
    assert (ledger.attempted, ledger.failed) == (4, 3)


def test_wrong_cli_answers_are_problems():
    quad = workloads.Quad16(workloads.Quad16.default_instance_seed)
    right = {"status": "optimal", "proved": "true", "size_bits": "5120",
             "bits": quad.pinned_bits, "objective": "4.2744486857412411"}
    assert quad.check_solve(right) == []
    assert quad.check_solve(dict(right, bits="4|" * 15 + "8")) != []
    assert quad.check_solve(dict(right, objective="4.28")) != []
    assert quad.check_solve(dict(right, size_bits="5128")) != []
    assert quad.check_solve(dict(right, proved="false", status="incumbent")) != []
    assert harness.ratio_problem(1.0000000001, 1e-9) == ""
    assert harness.ratio_problem(1.01, 1e-9) != ""
    assert harness.ratio_problem(None, 1e-9) != ""
    assert harness.ratio_problem(float("nan"), 1e-9) != ""

    toy = workloads.ToyWide(0)
    budget = toy.budgets[2]
    reference = {"method": "exhaustive", "optimal": "true", "bits": "8|2|4|4",
                 "objective": "0.08"}
    assert toy.check_row(dict(reference, method="full"), reference, budget) == []
    assert toy.check_row(dict(reference, method="full", bits="8|2|4|8"), reference, budget) != []
    assert toy.check_row(dict(reference, method="diag", bits="8|8|8|8"), reference, budget) != []
    assert toy.check_row(None, reference, budget) != []


def test_traced_evaluations_match_the_formula_and_tracing_uninstalls():
    original = sensitivity.build_matrix
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        oracle, matrix, budget = tiny_instance()
        assert sensitivity.build_matrix is not original
    finally:
        uninstall()
    assert sensitivity.build_matrix is original
    metrics = tracing.layer_metrics(tracer.spans, process_start=[0.5], cli_self_s=0.0)
    assert metrics["oracles.evaluate_calls"] == workloads.evaluations_per_batch(3, 3)
    assert metrics["quantizer.calibrate_calls"] == 9
    assert metrics["quantizer.calibrate_weights"] == 3 * 7
    assert metrics["sensitivity.build_matrix_self_s"] > 0.0
    assert [name for name, _ in tracing.PER_LAYER] == list(metrics)


def test_stage_time_sums_per_instance_medians():
    samples = workloads.Samples()
    for seconds in (1.0, 3.0, 2.0):
        samples.add("solve", seconds, seconds / 2, "a")
    samples.add("solve", 10.0, 9.0, "b")
    samples.add("eval", 0.5, 0.25)
    assert samples.stage("solve") == (2.0 + 10.0, 4)
    assert samples.stage("solve", wall=True) == (1.0 + 9.0, 4)
    assert sorted(samples.latencies()) == [2.0, 10.0]
    assert samples.pipeline_s() == 12.5
    assert samples.pipeline_s(wall=True) == 10.25


def test_peak_rss_keeps_the_highest_step_and_names_it():
    ctx = workloads.Context(work="", env={}, deadline=0.0, ledger=None, run_seed=0)
    ctx.note_peak(40.0, "measure (rep0-measure)")
    ctx.note_peak(30.0, "solve (rep0-solve)")
    assert (ctx.peak_rss_mib, ctx.peak_rss_from) == (40.0, "measure (rep0-measure)")


def test_window_spreads_reps_fills_and_setups_over_every_slot():
    import run

    class Fake:
        """Steps that take fixed times on a fake clock."""

        def __init__(self):
            self.now = 0.0
            self.log = []

        def clock(self):
            return self.now

        def step(self, kind, seconds):
            self.log.append((kind, self.now))
            self.now += seconds
            return seconds, seconds

        def rep(self, ctx, samples, label, traced):
            self.step("rep", 8.0)

        def fill(self, ctx, samples, label):
            self.step("fill", 1.0)

        def setup(self, ctx, index):
            return self.step("setup", 0.5)

    fake = Fake()
    ctx = workloads.Context(work="", env={}, deadline=1e9, ledger=None, run_seed=0)
    window = run.measure_window(fake, ctx, workloads.Samples(), 20.0, 3, clock=fake.clock)
    assert window == {"reps": 2, "fill_rounds": 2, "setup_times": [(0.5, 0.5)] * 3}
    # Two 10 s slots, each starting with a rep and filled with rounds to its
    # end; no round starts that would overrun the window.
    # Set-ups are due at 5, 10 and 15 s; each runs at the next boundary.
    assert fake.log == [("rep", 0.0), ("setup", 8.0), ("fill", 8.5), ("rep", 9.5),
                        ("setup", 17.5), ("setup", 18.0), ("fill", 18.5)]
    assert fake.now <= 20.0


def test_normalized_time_drops_probe_time_and_scales_by_mean_speed():
    import hostspeed

    assert hostspeed.normalize(10.0, [0.25, 0.75], [1.0, 0.5]) == pytest.approx(9.0 * 0.75)
    # The speeds may come from other probes than the ones subtracted.
    assert hostspeed.normalize(10.0, [], [2.0]) == pytest.approx(20.0)
    assert hostspeed.normalize(10.0, [], []) == 10.0


def test_in_process_step_takes_its_speed_from_the_latest_probes_when_short():
    import hostspeed

    probe = hostspeed.Probe()
    probe.starts = [float(t) for t in range(20)]
    probe.durations = [0.001] * 20
    probe.speeds = [1.0] * 10 + [0.5] * 10
    # Ten probes of its own, all at half speed.
    assert probe.normalize(10.0, 19.5) == pytest.approx((9.5 - 0.01) * 0.5)
    # One probe of its own: the speed comes from the latest eight.
    assert probe.normalize(9.5, 10.5) == pytest.approx((1.0 - 0.001) * (7 + 0.5) / 8)
    # A real probe records while it runs, with both kernels once numpy is
    # imported, and stops cleanly.
    probe = hostspeed.Probe()
    probe.start()
    try:
        deadline = hostspeed.time.perf_counter() + 0.1
        while hostspeed.time.perf_counter() < deadline:
            pass
    finally:
        probe.stop()
    assert hostspeed._VECTOR is not None
    assert probe.durations and len(probe.speeds) == len(probe.durations)
    assert all(speed > 0 for speed in probe.speeds) and not probe.running
