"""Shared fixtures-in-spirit for the test suite: golden micro-instances,
an evaluation-counting oracle wrapper, a matrix replay oracle, and an
in-process CLI runner.
"""

from __future__ import annotations

import contextlib
import io

import numpy as np

from mixprec import BitMenu, LayerSpec, LossOracle, SensitivityMatrix, perturbation
from mixprec.cli import main as cli_main
from mixprec.solver import _quadratic_form

# Seed-stream tag of the replay oracle's synthetic weights.
_TAG_REPLAY = 41


def golden_quartet_matrix() -> SensitivityMatrix:
    """Four unit layers, menu (2, 32).

    Layers 2 and 3 interact destructively: quantizing both together is
    cheaper than the sum of their individual damages, so the pair the
    diagonal ranking prefers (layers 0 and 1) is not the true optimum.
    """
    g = np.zeros((8, 8))
    g[0, 0] = 0.115
    g[2, 2] = 0.140
    g[4, 4] = 0.246
    g[6, 6] = 0.148
    g[0, 2] = g[2, 0] = 0.009
    g[4, 6] = g[6, 4] = -0.070
    return SensitivityMatrix(BitMenu((2, 32)), (1, 1, 1, 1), g, 1)


# Exactly two layers fit at 32 bits: 2 + 2 + 32 + 32.
GOLDEN_QUARTET_BUDGET_BITS = 68


def golden_trio_matrix() -> SensitivityMatrix:
    """Three unit layers, menu (4, 32); one mildly negative coupling."""
    g = np.zeros((6, 6))
    g[0, 0] = 0.016
    g[2, 2] = 0.022
    g[4, 4] = 0.026
    g[0, 2] = g[2, 0] = 0.004
    g[0, 4] = g[4, 0] = -0.001
    return SensitivityMatrix(BitMenu((4, 32)), (1, 1, 1), g, 1)


# Exactly one layer fits at 32 bits: 4 + 4 + 32.
GOLDEN_TRIO_BUDGET_BITS = 40


def write_dense(path, matrix: SensitivityMatrix) -> None:
    """Dump entries as a whitespace-separated text matrix for import-matrix."""
    np.savetxt(path, matrix.entries, fmt="%.17g")


class CountingOracle:
    """Delegates to another oracle while counting evaluate() calls."""

    def __init__(self, inner):
        self._inner = inner
        self.layers = inner.layers
        self.calls = 0

    @property
    def sample_count(self) -> int:
        return self._inner.sample_count

    def evaluate(self, perturbations) -> float:
        self.calls += 1
        return self._inner.evaluate(perturbations)


class MatrixBackedOracle(LossOracle):
    """Replays a stored sensitivity matrix through the oracle interface.

    Synthetic seeded weights stand in for the original model; each menu
    bit-width yields a distinct precomputed perturbation per layer, and
    ``evaluate`` recognizes incoming perturbations by exact comparison.
    The loss of a recognized selection is half the corresponding
    quadratic form of the stored entries (baseline 0), summed with the
    solver's fsum helper, so entry and objective queries reproduce the
    stored values.  Combined same-layer perturbations are not replayable.
    """

    def __init__(self, matrix: SensitivityMatrix, *, seed: int = 0):
        self.matrix = matrix
        rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_REPLAY]))
        # Layers shorter than 4 elements are padded up: very short vectors
        # can be exactly representable at every bit-width, which would make
        # their perturbations collide at zero.
        self.layers = [
            LayerSpec(f"replay{i}", rng.normal(size=max(int(s), 4)))
            for i, s in enumerate(matrix.layer_sizes)
        ]
        self._deltas = [[perturbation(layer, b) for b in matrix.menu]
                        for layer in self.layers]
        for i, per_layer in enumerate(self._deltas):
            for m in range(len(per_layer)):
                for n in range(m + 1, len(per_layer)):
                    if np.array_equal(per_layer[m], per_layer[n]):
                        raise ValueError(
                            f"replay layer {i}: bit-widths {matrix.menu.bits[m]} and "
                            f"{matrix.menu.bits[n]} produce identical perturbations")

    @property
    def sample_count(self) -> int:
        return self.matrix.sample_count

    def evaluate(self, perturbations) -> float:
        checked = self._check_perturbations(perturbations)
        nb = len(self.matrix.menu)
        selected = []
        for idx in sorted(checked):
            vec = checked[idx]
            for m, delta in enumerate(self._deltas[idx]):
                if np.array_equal(vec, delta):
                    selected.append(idx * nb + m)
                    break
            else:
                raise ValueError(
                    f"perturbation for layer {idx} does not match any menu bit-width")
        return 0.5 * _quadratic_form(self.matrix.entries, selected)


def run_cli(*args: str) -> tuple[int, str, str]:
    """Run the CLI entry point in-process; returns (code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli_main(list(args))
    return code, out.getvalue(), err.getvalue()


def parse_kv(stdout: str) -> dict[str, str]:
    """Parse the key=value lines the solve/eval commands print."""
    pairs = {}
    for line in stdout.splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            pairs[key] = value
    return pairs
