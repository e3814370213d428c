"""Forward-only measurement of the cross-layer sensitivity matrix.

Quantizing layer ``i`` to one of ``|B|`` candidate bit-widths perturbs
its weights by a fixed vector.  The loss increase of the whole model is
summarized by a symmetric matrix of dimension ``|B| * L``: diagonal
entries capture single-layer damage, off-diagonal entries capture how
two layers' quantization errors interact.  Everything is computed from
plain loss evaluations, and per-batch results are cached in a text
format that merges by sample-weighted averaging.

Flat indexing: entry ``(i * |B| + m, j * |B| + n)`` couples layer ``i``
at menu position ``m`` (0-based, menu sorted ascending) with layer ``j``
at position ``n``.  Entries coupling two different bit-widths of the
same layer are structurally zero: a one-hot assignment never selects
both, and the measurement loop never fills them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._files import write_atomic
from .quantizer import perturbation
from .spectra import _require_finite

__all__ = [
    "BitMenu",
    "SensitivityMatrix",
    "layer_perturbations",
    "build_matrix",
    "merge_batches",
    "save_matrix",
    "load_matrix",
]

CACHE_FORMAT = "mixprec-cache"
CACHE_VERSION = 1


def _bit_width(b) -> int:
    """``b`` as an int; a width that is not a whole number raises ``ValueError``."""
    if not -math.inf < b < math.inf or int(b) != b:
        raise ValueError(f"bit-widths must be integers, got {b!r}")
    return int(b)


@dataclass(frozen=True)
class BitMenu:
    """Sorted distinct candidate bit-widths, each at least 2."""

    bits: tuple[int, ...]

    def __init__(self, bits):
        values = sorted(set(_bit_width(b) for b in bits))
        if not values:
            raise ValueError("bit menu must not be empty")
        if any(b < 2 for b in values):
            raise ValueError(f"bit-widths must be >= 2, got {values}")
        object.__setattr__(self, "bits", tuple(values))

    def __len__(self) -> int:
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __contains__(self, bit) -> bool:
        return bit in self.bits

    def index(self, bit: int) -> int:
        try:
            return self.bits.index(bit)
        except ValueError:
            raise ValueError(f"bit-width {bit} is not in the menu {self.bits}") from None


def _mask_couplings(entries, group) -> np.ndarray:
    """Zero every entry whose row and column flat indices lie in different
    groups; masked entries become +0.0 whatever their sign."""
    return np.where(group[:, None] == group[None, :], entries, 0.0)


@dataclass(frozen=True, eq=False)
class SensitivityMatrix:
    """Symmetric ``|B|L x |B|L`` sensitivity entries plus their provenance.

    Matrices compare and hash by identity, as the arrays they hold cannot
    be compared with ``==``.
    """

    menu: BitMenu
    layer_sizes: tuple[int, ...]
    entries: np.ndarray
    sample_count: int

    def __post_init__(self):
        menu = BitMenu(self.menu)
        sizes = tuple(int(s) for s in self.layer_sizes)
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError(f"layer sizes must be positive, got {sizes}")
        entries = np.array(self.entries, dtype=np.float64)
        dim = len(menu) * len(sizes)
        if entries.shape != (dim, dim):
            raise ValueError(f"entries must have shape {(dim, dim)}, got {entries.shape}")
        _require_finite(entries, "entries")
        if not np.array_equal(entries, entries.T):
            raise ValueError("entries must be exactly symmetric")
        if int(self.sample_count) < 1:
            raise ValueError(f"sample_count must be >= 1, got {self.sample_count}")
        entries.setflags(write=False)
        object.__setattr__(self, "menu", menu)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "entries", entries)
        object.__setattr__(self, "sample_count", int(self.sample_count))

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes)

    @property
    def dim(self) -> int:
        return len(self.menu) * self.num_layers

    def with_entries(self, entries) -> "SensitivityMatrix":
        """Same menu, sizes and sample count with replaced entries."""
        return SensitivityMatrix(self.menu, self.layer_sizes, entries, self.sample_count)

    def has_block_zeros(self) -> bool:
        """True when every same-layer cross-bit entry is exactly zero."""
        layer = np.repeat(np.arange(self.num_layers), len(self.menu))
        return np.array_equal(_mask_couplings(self.entries, layer),
                              _mask_couplings(self.entries, np.arange(self.dim)))


def layer_perturbations(layers, menu) -> list[list[np.ndarray]]:
    """Calibrated quantization error of every layer at every menu width.

    Row ``i`` holds layer ``i``'s perturbation at each bit-width of the
    sorted menu.  The values depend only on the weights and the menu, so
    one table serves every evaluation batch of the same model.
    """
    menu = BitMenu(menu)
    return [[perturbation(layer, b) for b in menu] for layer in layers]


def _check_deltas(deltas, layers, nb: int) -> None:
    if len(deltas) != len(layers):
        raise ValueError(f"deltas cover {len(deltas)} layers, oracle has {len(layers)}")
    for i, (row, layer) in enumerate(zip(deltas, layers)):
        if len(row) != nb:
            raise ValueError(f"deltas row {i} has {len(row)} vectors, menu has {nb} widths")
        for m, vec in enumerate(row):
            if np.shape(vec) != (layer.count,):
                raise ValueError(f"deltas[{i}][{m}] has shape {np.shape(vec)}, "
                                 f"layer {i} has {layer.count} weights")
            _require_finite(np.asarray(vec, dtype=np.float64), f"deltas[{i}][{m}]")


def build_matrix(oracle, menu, *, include_same_layer_cross: bool = False,
                 deltas=None) -> SensitivityMatrix:
    """Measure the full sensitivity matrix of an oracle.

    Costs exactly ``1 + |B|L + |B|^2 L(L-1)/2`` loss evaluations: one
    baseline, one per (layer, bit-width), and one joint evaluation per
    cross pair, ``G_pq = loss(p and q) - baseline - G_pp/2 - G_qq/2``.
    Each entry and its mirror are filled as soon as the joint loss comes
    back, so the result is exactly symmetric and bit-identical across
    runs for a deterministic oracle.

    The singles ``p = (i, m)`` run from the last layer to the first and
    from the widest width down, each followed by its pairs ``(p, (j, n))``
    over later layers ``j``, latest layer first and widths ascending.
    Both singles of a pair thus come before it, and each call shares with
    the previous one every layer before ``j`` for a pair and before ``i``
    otherwise, as many as any earlier call could.  An oracle that resumes
    from its previous call's activations, such as ``ToyClassifierOracle``,
    skips those layers; one whose result does not depend on call order
    gives the same matrix in any order.

    ``include_same_layer_cross=True`` additionally measures the
    couplings between two bit-widths of the same layer by applying both
    perturbations to that layer at once, after the single's pairs.
    One-hot assignments never see these entries; they exist so the
    quadratic form ``v' G v`` matches the underlying curvature for
    arbitrary dense ``v``, which is what the PSD argument relies on.  The
    default leaves them zero.

    ``deltas`` is a table from :func:`layer_perturbations` for the same
    layers and menu; passing it skips the scale calibration, so batches
    of one model need to calibrate only once.  Without it the table is
    computed here.
    """
    menu = BitMenu(menu)
    layers = oracle.layers
    num_layers = len(layers)
    if num_layers < 1:
        raise ValueError("oracle must expose at least one layer")
    nb = len(menu)
    dim = nb * num_layers
    if deltas is None:
        deltas = layer_perturbations(layers, menu)
    else:
        _check_deltas(deltas, layers, nb)
    flat = [vec for row in deltas for vec in row]
    baseline = oracle.evaluate({})
    g = np.zeros((dim, dim))
    for p in range(dim - 1, -1, -1):
        i = p // nb
        g[p, p] = 2.0 * (oracle.evaluate({i: flat[p]}) - baseline)
        for j in range(num_layers - 1, i, -1):
            for q in range(j * nb, (j + 1) * nb):
                joint = oracle.evaluate({i: flat[p], j: flat[q]})
                g[p, q] = g[q, p] = joint - baseline - 0.5 * g[p, p] - 0.5 * g[q, q]
        if include_same_layer_cross:
            for q in range(p + 1, (i + 1) * nb):
                joint = oracle.evaluate({i: flat[p] + flat[q]})
                g[p, q] = g[q, p] = joint - baseline - 0.5 * g[p, p] - 0.5 * g[q, q]
    matrix = SensitivityMatrix(menu, tuple(l.count for l in layers), g, oracle.sample_count)
    if not include_same_layer_cross:
        assert matrix.has_block_zeros()
    return matrix


def merge_batches(parts) -> SensitivityMatrix:
    """Sample-count-weighted mean of per-batch matrices.

    The accumulation order is the order of ``parts``, folded left to
    right, so merging is reproducible; for two parts it is also exactly
    commutative because IEEE addition of two terms is.
    """
    parts = list(parts)
    if not parts:
        raise ValueError("cannot merge an empty list of matrices")
    first = parts[0]
    for p in parts[1:]:
        if p.menu.bits != first.menu.bits:
            raise ValueError(f"bit menus differ: {p.menu.bits} vs {first.menu.bits}")
        if p.layer_sizes != first.layer_sizes:
            raise ValueError(f"layer sizes differ: {p.layer_sizes} vs {first.layer_sizes}")
    total = sum(p.sample_count for p in parts)
    acc = np.zeros_like(first.entries)
    for p in parts:
        acc = acc + float(p.sample_count) * p.entries
    return SensitivityMatrix(first.menu, first.layer_sizes, acc / float(total), total)


def save_matrix(matrix: SensitivityMatrix, path) -> None:
    """Write one matrix as a text cache file.

    Upper-triangle values are printed with 17 significant digits, which
    round-trips IEEE doubles exactly, so save followed by load is the
    identity and identical matrices produce byte-identical files.

    Only matrices with structurally zero same-layer cross-bit entries
    are cacheable; the variant that measures those entries is an
    in-memory analysis tool, not a pipeline artifact.
    """
    if not matrix.has_block_zeros():
        raise ValueError("cache format requires zero same-layer cross-bit entries")
    dim = matrix.dim
    lines = [
        f"{CACHE_FORMAT} {CACHE_VERSION}",
        f"layers {matrix.num_layers}",
        "bits " + " ".join(str(b) for b in matrix.menu.bits),
        "sizes " + " ".join(str(s) for s in matrix.layer_sizes),
        f"samples {matrix.sample_count}",
        f"entries {dim * (dim + 1) // 2}",
    ]
    for p in range(dim):
        for q in range(p, dim):
            lines.append(f"{p} {q} {matrix.entries[p, q]:.17g}")
    write_atomic(path, ("\n".join(lines) + "\n").encode("ascii"))


def _header_value(line: str, key: str) -> str:
    tag, _, rest = line.partition(" ")
    if tag != key:
        raise ValueError(f"malformed cache file: expected {key!r}, got {line!r}")
    return rest


def load_matrix(path) -> SensitivityMatrix:
    """Read a text cache file written by :func:`save_matrix`."""
    with open(path, "r", encoding="ascii") as fh:
        lines = [line.rstrip("\n") for line in fh]
    if len(lines) < 6:
        raise ValueError(f"malformed cache file {path!r}: truncated header")
    fmt = _header_value(lines[0], CACHE_FORMAT)
    if int(fmt) != CACHE_VERSION:
        raise ValueError(f"unsupported cache version {fmt!r}")
    num_layers = int(_header_value(lines[1], "layers"))
    menu = BitMenu(int(b) for b in _header_value(lines[2], "bits").split())
    sizes = tuple(int(s) for s in _header_value(lines[3], "sizes").split())
    samples = int(_header_value(lines[4], "samples"))
    count = int(_header_value(lines[5], "entries"))
    if len(sizes) != num_layers:
        raise ValueError(f"cache file {path!r}: layer count does not match sizes")
    dim = len(menu) * num_layers
    if count != dim * (dim + 1) // 2:
        raise ValueError(f"cache file {path!r}: wrong entry count {count}")
    records = lines[6:]
    if len(records) != count:
        raise ValueError(f"cache file {path!r}: expected {count} records, found {len(records)}")
    entries = np.zeros((dim, dim))
    expect = ((p, q) for p in range(dim) for q in range(p, dim))
    for line, (p, q) in zip(records, expect):
        fields = line.split()
        if len(fields) != 3 or int(fields[0]) != p or int(fields[1]) != q:
            raise ValueError(f"cache file {path!r}: bad record {line!r}")
        value = float(fields[2])
        entries[p, q] = value
        entries[q, p] = value
    matrix = SensitivityMatrix(menu, sizes, entries, samples)
    if not matrix.has_block_zeros():
        raise ValueError(f"cache file {path!r}: same-layer cross-bit entries must be zero")
    return matrix
