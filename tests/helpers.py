"""Shared fixtures-in-spirit for the test suite: golden micro-instances,
noisy indefinite instances, the acceptance gate's enumeration-scale
instances, an evaluation-counting oracle wrapper, a matrix replay oracle,
a reference toy trainer, a candidate-major reference scorer, a tracemalloc
peak probe, and an in-process CLI runner.
"""

from __future__ import annotations

import contextlib
import functools
import io
import tracemalloc

import numpy as np

from mixprec import (
    BitMenu,
    LayerSpec,
    LossOracle,
    SensitivityMatrix,
    build_matrix,
    perturbation,
    random_quadratic,
)
from mixprec.cli import main as cli_main
from mixprec.oracles import _TAG_INIT, _cross_entropy, _forward, make_moons
from mixprec.solver import SizeBudget, _quadratic_form
from mixprec.spectra import psd_project

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


def noisy_instance(seed: int) -> tuple[SensitivityMatrix, SizeBudget]:
    """An indefinite matrix whose noise, like measurement noise, leaves the
    same-layer cross-bit entries zero; returns it with a budget."""
    rng = np.random.default_rng(seed)
    num_layers = int(rng.integers(6, 11))
    sizes = [int(s) for s in rng.integers(2, 5, size=num_layers)]
    oracle = random_quadratic(seed, sizes, float(rng.uniform(0.3, 1.0)), sample_ratio=0.6)
    m = build_matrix(oracle, BitMenu((2, 4, 8)))
    noise = rng.standard_normal(m.entries.shape) * (0.3 * np.mean(np.abs(m.entries)))
    noise = np.triu(noise) + np.triu(noise, 1).T
    layer = np.repeat(np.arange(num_layers), 3)
    noise[(layer[:, None] == layer[None, :]) & ~np.eye(m.dim, dtype=bool)] = 0.0
    noisy = m.with_entries(m.entries + noise)
    lo = 2 * sum(sizes)
    hi = 8 * sum(sizes)
    return noisy, SizeBudget(int(lo + float(rng.uniform(0.2, 0.8)) * (hi - lo)))


@functools.lru_cache(maxsize=1)
def enumeration_scale_instances() -> tuple[tuple[SensitivityMatrix, SizeBudget], ...]:
    """The acceptance gate's ``test_03`` instances, drawn in its order from
    seed 2024: 100 PSD-projected matrices of at most 1e5 assignments, each
    with its budget."""
    rng = np.random.default_rng(2024)
    out = []
    for case in range(100):
        if case % 3 == 0:
            menu = BitMenu((2, 8))
            num_layers = int(rng.integers(4, 17))
        else:
            menu = BitMenu((2, 4, 8))
            num_layers = int(rng.integers(3, 11))
        sizes = [int(s) for s in rng.integers(2, 5, size=num_layers)]
        m = build_matrix(random_quadratic(case, sizes, float(rng.uniform(0.2, 1.0))), menu)
        lo = sum(s * menu.bits[0] for s in sizes)
        hi = sum(s * menu.bits[-1] for s in sizes)
        budget = SizeBudget(int(lo + float(rng.uniform(0.2, 0.8)) * (hi - lo)))
        out.append((m.with_entries(psd_project(m.entries)), budget))
    return tuple(out)


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


def scaled_congruence(scale: float) -> np.ndarray:
    """``scale * X C X'`` at 40x40, seed 0: symmetric in exact arithmetic,
    with round-off asymmetry that grows with ``scale``."""
    rng = np.random.default_rng(0)
    x = rng.normal(size=(40, 40))
    c = rng.normal(size=(40, 40))
    return scale * (x @ (c @ c.T) @ x.T)


def traced_peak(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and the tracemalloc peak in bytes while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args, **kwargs)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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


def reference_train_toy(seed: int, epochs: int = 2000, *, depth: int = 8, hidden: int = 16,
                        train_count: int = 256, noise: float = 0.15, lr: float = 0.01,
                        loss_target: float = 1e-4):
    """``train_toy``'s weights and biases, and its number of Adam updates,
    from one array per parameter.

    Each parameter keeps its own gradient and Adam moments, updated by the
    textbook expressions on fresh arrays; ``train_toy`` must reproduce the
    weights and biases bit for bit from its flat buffers.
    """
    x, y = make_moons(seed, train_count, noise=noise)
    dims = (2,) + (hidden,) * (depth - 1) + (2,)
    rng = np.random.default_rng(np.random.SeedSequence([seed, _TAG_INIT]))
    weights = [rng.normal(0.0, 1.0, size=(a, b)) * np.sqrt(2.0 / (a + b))
               for a, b in zip(dims[:-1], dims[1:])]
    biases = [np.zeros(b) for b in dims[1:]]
    params = weights + biases
    first = [np.zeros_like(p) for p in params]
    second = [np.zeros_like(p) for p in params]
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    onehot = np.eye(2)[y]
    n = len(y)
    updates = 0
    for step in range(1, epochs + 1):
        *acts, logits = _forward(weights, biases, x)
        acts = [x] + acts
        z = logits - logits.max(axis=1, keepdims=True)
        p = np.exp(z)
        p /= p.sum(axis=1, keepdims=True)
        if _cross_entropy(logits, y)[0] <= loss_target:
            break
        updates = step
        d = (p - onehot) / n
        grads = [None] * len(params)
        for i in range(len(weights) - 1, -1, -1):
            grads[i] = acts[i].T @ d
            grads[len(weights) + i] = d.sum(axis=0)
            if i > 0:
                d = (d @ weights[i].T) * (1.0 - acts[i] ** 2)
        for i, par in enumerate(params):
            first[i] = beta1 * first[i] + (1.0 - beta1) * grads[i]
            second[i] = beta2 * second[i] + (1.0 - beta2) * grads[i] ** 2
            mhat = first[i] / (1.0 - beta1 ** step)
            vhat = second[i] / (1.0 - beta2 ** step)
            par -= lr * mhat / (np.sqrt(vhat) + eps)
    return weights, biases, updates


def reference_exact_mse(w: np.ndarray, cands: np.ndarray, bits: int) -> np.ndarray:
    """``quantizer._exact_mse``'s docstring expression, scored candidate-major:
    one row of errors per candidate, each averaged by ``np.mean``.

    Candidates whose squared errors overflow score inf here too, without a
    warning; ``_exact_mse`` must match these bytes at every layer size.
    """
    lo, hi = -(2 ** (bits - 1)), 2 ** (bits - 1) - 1
    c = cands[:, None]
    with np.errstate(over="ignore"):
        return np.mean((np.clip(np.round(w / c), lo, hi) * c - w) ** 2, axis=1)
