"""Bit-width assignment under a model-size budget.

The problem: pick one bit-width per layer from a menu, minimizing the
quadratic form of the sensitivity matrix over the induced one-hot
selection vector, subject to ``sum(layer_size * bits) <= budget``.

``solve_exhaustive`` enumerates every assignment (an oracle for small
search spaces).  ``solve_bnb`` is an exact depth-first branch-and-bound.
A node is one int vector ``fixed`` holding each layer's menu position,
or -1 for a free layer: the root frees every layer, and a child copies
its parent with one more layer fixed.  Lower bounds come from a
Frank-Wolfe solve of the continuous relaxation over the free layers'
simplices cut by the budget half-space, whose linear subproblem is a
multiple-choice-knapsack LP solved greedily on the free layers' convex
hulls.  Bounds come from a convexified matrix in
the manner of the quadratic convex reformulation (Hammer & Rubin, RAIRO
1970; Billionnet & Elloumi, Math. Program. 109, 2007; Billionnet,
Elloumi & Plateau, Discrete Appl. Math. 157, 2009): the largest
diagonal ``a``, proportional to ``diag(G)``, that leaves ``G - diag(a)``
PSD on the simplex subspace, the directions that keep every layer's
simplex sum, is moved into a linear term ``a'x``, which tightens the
relaxation because ``x_p**2 <= x_p`` on it and equals ``a'x`` on one-hot
points.  The linear term is folded into each layer's block, where the
layer's simplex sum makes it quadratic without adding curvature.  This
works for matrices indefinite on that subspace too, whose ``a`` is
negative.  The first node that needs a bound also seeds the incumbent
with a local search (see ``_local_search``), from the all-smallest
assignment before its Frank-Wolfe solve and from its relaxed point,
rounded down in size, after it.
A node's Frank-Wolfe solve stops as soon as its primal value drops below
the pruning cut, because no bound at that node can prune it any more.
Nodes with at most ``SUBCUBE_LIMIT`` (2**16) assignments, the root
included, and ``solve_exhaustive``'s whole space, are enumerated instead:
every assignment's float score is read off one-hot matrix products over
the free layers alone, on tables of at most ``_TAIL_ROWS`` (2,048) rows,
and only the assignments within a proven round-off window of the smallest
are scored exactly (see ``_enumerate_node``).  The comment above
``SUBCUBE_LIMIT`` records how it was tuned.
``solve_diagonal_only`` and ``solve_block`` rerun the same search on
copies with the couplings fully or partially masked to zero.

Reported objectives are accumulated with ``math.fsum`` so every solver
returns bit-identical values for tied assignments, and ties break by
smaller total size, then lexicographically smaller bit vector.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass

import numpy as np

from .quantizer import _bit_widths
from .sensitivity import SensitivityMatrix, _mask_couplings
from .spectra import _psd_shift

__all__ = [
    "BitAssignment",
    "SizeBudget",
    "SolveReport",
    "SolverError",
    "InfeasibleBudgetError",
    "SearchSpaceError",
    "objective",
    "solve_exhaustive",
    "solve_bnb",
    "solve_diagonal_only",
    "solve_block",
    "solve_with_method",
    "sweep",
    "METHODS",
]

METHODS = ("full", "diag", "block", "exhaustive")

EXHAUSTIVE_LIMIT = 10_000_000
# A node with at most this many assignments, the root included, is
# enumerated outright instead of bounded.  ``solve_bnb`` ms (nodes /
# Frank-Wolfe iterations) with 1 BLAS thread on 2 vCPUs, over the 100
# enum-many (test_03) instances and on the 16-layer quad16 instance, each
# summed over the median of its runs, with the local-search incumbent and
# the subspace convexification:
#
#     limit   enum-many s2024    quad16 s1       enum-many s3     quad16 s3
#     2**15   24.3 (119 / 16)    4.82 (22 / 50)  18.9 (108 / 7)   3.95 (22 / 34)
#     2**16   15.5 (100 / 0)     5.46 (19 / 43)  15.0 (100 / 0)   4.47 (19 / 30)
#     2**17   15.8 (100 / 0)     5.14 (19 / 43)  15.2 (100 / 0)   4.43 (19 / 30)
#
# 2**16 enumerates every enum-many root: their largest spaces are 2**16 and
# 3**10 assignments.  That costs quad16 about 0.5 ms and saves enum-many
# 4-9 ms.  2**17 enumerates the same nodes on both workloads, since 3**11
# is above it, so it gains nothing over 2**16.
SUBCUBE_LIMIT = 2 ** 16
# Frank-Wolfe stops at this relative duality gap or after this many steps.
FW_TOL = 1e-9
FW_MAX_ITER = 1500

BITS_PER_MB = 8 * 2 ** 20

# Largest chunk of scores that enumeration builds at once (8 MiB of
# float64).  A tail's one-hot table stays within it too, which binds only
# where it is set far lower (see ``_enumerate_node``).
_ENUM_TERMS = 2 ** 20
# Largest one-hot tail table, in rows; larger boxes run as head rows
# against a tail of at most this many (see ``_enumerate_node``).
_TAIL_ROWS = 2048
# Read-only one-hot tables of at most _TAIL_ROWS rows, by (nb, count),
# built on first use and held for the process: about 0.7 MiB per menu size.
_ONE_HOT = {}
# Relative slack of the enumeration window, which also covers the proven
# round-off bound of ``_enumerate_node``.
_SAFETY = 1e-12
_PRUNE_SAFETY = 1e-9


class SolverError(Exception):
    """Base class for solver failures."""


class InfeasibleBudgetError(SolverError):
    """The budget cannot fit every layer at the smallest menu bit-width."""


class SearchSpaceError(SolverError):
    """Exhaustive enumeration was asked for an oversized search space."""


@dataclass(frozen=True)
class BitAssignment:
    """One menu bit-width per layer, each a whole number of at least 2, as
    in ``BitMenu``."""

    bits: tuple[int, ...]

    def __init__(self, bits):
        values = tuple(_bit_widths(bits))
        if not values:
            raise ValueError("assignment must cover at least one layer")
        object.__setattr__(self, "bits", values)

    def size_bits(self, layer_sizes) -> int:
        sizes = tuple(int(s) for s in layer_sizes)
        if len(sizes) != len(self.bits):
            raise ValueError(
                f"assignment covers {len(self.bits)} layers, sizes cover {len(sizes)}")
        return sum(s * b for s, b in zip(sizes, self.bits))


@dataclass(frozen=True)
class SizeBudget:
    """Model-size limit in bits; megabytes convert at ``BITS_PER_MB``."""

    limit_bits: int

    def __post_init__(self):
        if not 0 <= self.limit_bits < math.inf or int(self.limit_bits) != self.limit_bits:
            raise ValueError(f"budget must be a non-negative bit count, got {self.limit_bits!r}")
        object.__setattr__(self, "limit_bits", int(self.limit_bits))

    @classmethod
    def from_megabytes(cls, megabytes: float) -> "SizeBudget":
        bits = megabytes * BITS_PER_MB
        if not math.isfinite(bits):
            raise ValueError(f"budget must be a finite number of megabytes, got {megabytes!r}")
        return cls(int(math.floor(bits)))


@dataclass
class SolveReport:
    """Outcome of one solve: the assignment plus proof and effort metadata.

    ``shift`` is the scale of the diagonal shift branch-and-bound bounded
    through (see ``solve_bnb``): positive on a matrix indefinite on the
    simplex subspace, at most 0 on one PSD there, 0.0 when no node was
    bounded.
    """

    method: str
    status: str
    assignment: BitAssignment | None
    objective: float | None
    size_bits: int | None
    proved: bool
    nodes: int = 0
    fw_iterations: int = 0
    shift: float = 0.0
    budget_bits: int | None = None
    seconds: float | None = None


def _as_budget(budget) -> SizeBudget:
    if budget is None:
        raise ValueError("a budget is required")
    if isinstance(budget, SizeBudget):
        return budget
    return SizeBudget(budget)


def _require_matrix(matrix) -> None:
    if not isinstance(matrix, SensitivityMatrix):
        raise TypeError(f"expected a SensitivityMatrix, got {type(matrix).__name__}; wrap a "
                        "dense array as SensitivityMatrix(BitMenu(bits), sizes, entries, 1)")


def objective(matrix: SensitivityMatrix, assignment: BitAssignment) -> float:
    """Quadratic form of the entries over a one-hot assignment.

    Equals the sum of the selected diagonal entries plus both mirrored
    copies of each selected cross entry, accumulated with ``math.fsum``
    so the value does not depend on summation order.
    """
    _require_matrix(matrix)
    nb = len(matrix.menu)
    if len(assignment.bits) != matrix.num_layers:
        raise ValueError(
            f"assignment covers {len(assignment.bits)} layers, matrix has {matrix.num_layers}")
    return _quadratic_form(matrix.entries, [l * nb + matrix.menu.index(b)
                                            for l, b in enumerate(assignment.bits)])


def _quadratic_form(entries, idx) -> float:
    """``math.fsum`` of ``entries[p, q]`` over every ordered pair of the flat
    indices ``idx``; exact rounding makes it independent of term order."""
    return math.fsum(entries.take(idx, axis=0).take(idx, axis=1).ravel().tolist())


def _exact_key(entries, menu_bits, wmat, pos):
    """Tie-break key (fsum objective, total size, bit vector) for one assignment."""
    nb = len(menu_bits)
    size = int(sum(wmat[l, p] for l, p in enumerate(pos)))
    bits = tuple(menu_bits[p] for p in pos)
    return (_quadratic_form(entries, [l * nb + p for l, p in enumerate(pos)]), size, bits)


def _size_table(layer_sizes, menu_bits, limit) -> np.ndarray:
    """Bits of every (layer, menu position); raises when even the smallest
    model exceeds ``limit``, and when the largest reaches ``2**53`` bits,
    beyond which enumeration's float sizes would round."""
    if sum(layer_sizes) * menu_bits[-1] >= 2 ** 53:
        raise ValueError("models of 2**53 bits or more are not supported")
    wmat = np.array([[s * b for b in menu_bits] for s in layer_sizes], dtype=np.int64)
    min_total = int(wmat[:, 0].sum())
    if min_total > limit:
        raise InfeasibleBudgetError(
            f"smallest model needs {min_total} bits, budget is {limit}")
    return wmat


@dataclass
class _Enumeration:
    """What subcube enumeration reads of one solve, computed once per solve.

    ``window`` is the absolute preselection window derived in
    ``_enumerate_node``.  ``weights`` holds the size of every flat index as
    a float, exact since a model's size stays below ``2**53`` bits;
    ``offsets`` holds each layer's first flat index and ``powers`` the
    place value of each layer's position in a row number.
    """

    entries: np.ndarray
    menu_bits: tuple
    wmat: np.ndarray
    limit: int
    window: float
    weights: np.ndarray
    offsets: np.ndarray
    powers: np.ndarray


def _enumeration(entries, menu_bits, wmat, limit) -> _Enumeration:
    num_layers, nb = wmat.shape
    row_sums = np.abs(entries).sum(axis=1).reshape(num_layers, nb)
    window = 3.0 * (num_layers + 2) ** 2 * 2.0 ** -53 * float(row_sums.max(axis=1).sum())
    return _Enumeration(entries, menu_bits, wmat, limit, window,
                        wmat.ravel().astype(np.float64), np.arange(0, num_layers * nb, nb),
                        nb ** np.arange(num_layers - 1, -1, -1))


def _one_hot(nb, count) -> np.ndarray:
    """Transposed one-hot table of every row over ``count`` layers, in
    lexicographic order: entry ``(l*nb + m, row)`` is 1 where the row puts
    layer ``l`` at menu position ``m``."""
    eye = np.eye(nb)[:, None, :, None]
    table = np.empty((count, nb, nb ** count))
    for l in range(count):
        table[l].reshape(nb, nb ** l, nb, -1)[...] = eye
    return table.reshape(count * nb, nb ** count)


def _enumerate_node(en, fixed):
    """Best exact key over a node's assignments, or None if all infeasible.

    ``en`` is the solve's ``_Enumeration``; ``fixed`` holds each layer's
    menu position, or -1 for a free layer.  Rows run over the free layers'
    positions in lexicographic order; ``x`` is a row's one-hot vector over
    the free layers' positions.  A row scores ``const + x' Q x``: ``const``
    sums the entries among the fixed positions, and ``Q`` is the free x free
    part of the matrix with each free position's coupling to the fixed
    positions (both mirrored entries) added to its diagonal, since
    ``x_p**2 == x_p``.  A one-hot table ``X`` scores all its rows as
    ``rowsum((X Q) * X)``; same-layer cross-bit entries only ever meet a
    zero of ``X``.  A box splits its free layers into a head and a tail,
    the longest suffix whose table has at most ``_TAIL_ROWS`` rows and
    ``_ENUM_TERMS`` entries; at the defaults a branch-and-bound node's head
    rows fit in one chunk.  Tail tables come from
    ``_ONE_HOT``, built once per process and shared read-only.  The tail's
    scores are built once per box.  Head rows go in lexicographic order, in
    chunks of ``_ENUM_TERMS`` over the tail's row count (at least one); a
    chunk adds its own scores plus the cross term
    ``X_head (Q_ht + Q_th') X_tail'`` for every tail row, so a box holds one
    chunk of scores at a time.

    The float scores only preselect the feasible rows within a window of a
    chunk's smallest; only those gather their ``L x L`` entries.  Rows
    whose gathered entries and size are byte-identical share their exact
    key up to the bit vector, so only the first of them in lexicographic
    order is re-scored exactly, with fsum.

    The window is sound.  A row's exact sum ``E`` adds ``L**2`` entries,
    one for each ordered pair of layers; grouped by their row of the
    matrix, their magnitudes add up to at most ``S``, the sum over layers
    of the largest absolute row sum among the layer's rows.  The float
    score adds the same entries, less the fixed x fixed ones that every
    row shares, times exact factors 0 and 1, along a tree in which each
    passes fewer than ``n = (L + 2)**2`` roundings, wherever the head ends
    and the tail begins; so it errs by at most
    ``1.01 n u S`` for unit round-off ``u``.  The best row's fsum is at
    most any other feasible row's, so its ``E`` exceeds theirs by at most
    ``2 u S``, and its score exceeds the chunk's smallest by at most
    ``(2.02 n + 2) u S``.  ``3 n u S`` covers that, with room for rounding
    the window itself; the relative slack ``_SAFETY`` widens it where that
    is larger.
    """
    entries, wmat = en.entries, en.wmat
    num_layers, nb = wmat.shape
    free = np.flatnonzero(fixed < 0)
    k = len(free)
    span = k * nb
    if k < num_layers:
        held = np.flatnonzero(fixed >= 0)
        cols = np.concatenate(((en.offsets[free, None] + np.arange(nb)).ravel(),
                               en.offsets[held] + fixed[held]))
        gathered = entries[cols[:, None], cols]
        quad = gathered[:span, :span] + np.diag(
            gathered[:span, span:].sum(axis=1) + gathered[span:, :span].sum(axis=0))
        const = float(gathered[span:, span:].sum())
        weights = en.weights[cols[:span]]
        room = en.limit - int(en.weights[cols[span:]].sum())
    else:
        # Every layer is free, as at the root: Q is the matrix itself.
        quad, const, weights, room = entries, 0.0, en.weights, en.limit
    # The tail is the longest suffix of free layers whose table fits both caps.
    t = k
    while t > 1 and (nb ** t > _TAIL_ROWS or nb ** t * t * nb > _ENUM_TERMS):
        t -= 1
    h = k - t
    split = h * nb
    tail = _ONE_HOT.get((nb, t))
    if tail is None:
        tail = _one_hot(nb, t)
        tail.setflags(write=False)
        _ONE_HOT[nb, t] = tail
    width = tail.shape[1]
    # Scores leave out const and sizes the fixed layers' share, which are
    # the same for every row.
    tail_score = np.einsum("ij,ij->j", quad[split:, split:].T @ tail, tail)
    tail_size = weights[split:] @ tail
    powers = en.powers[num_layers - k:]
    step = max(1, _ENUM_TERMS // width)
    if h:
        cross = quad[:split, split:] + quad[split:, :split].T
        chunk = np.empty((min(step, nb ** h), width))
    seen = set()
    best = None
    for start in range(0, nb ** h, step):
        if h:
            heads = np.arange(start, min(start + step, nb ** h)) * width
            head = np.eye(nb)[heads[:, None] // powers[:h] % nb].reshape(-1, split)
            score = np.matmul(head @ cross, tail, out=chunk[:len(heads)])
            score += np.einsum("ij,ij->i", head @ quad[:split, :split], head)[:, None]
            score += tail_score
            feas = tail_size <= room - (head @ weights[:split])[:, None]
        else:
            score, feas = tail_score, tail_size <= room
        if not feas.any():
            continue
        low = float(np.min(score, where=feas, initial=np.inf))
        window = max(en.window, _SAFETY * max(1.0, abs(low + const)))
        rows = np.flatnonzero(feas & (score <= low + window))
        rows += start * width
        pos = np.repeat(fixed[None, :], len(rows), axis=0)
        pos[:, free] = rows[:, None] // powers % nb
        for row in pos.tolist():
            flat = en.offsets + row
            mark = (entries[flat[:, None], flat].tobytes(), en.weights[flat].sum())
            if mark in seen:
                continue
            seen.add(mark)
            key = _exact_key(entries, en.menu_bits, wmat, tuple(row))
            if best is None or key < best:
                best = key
    return best


def solve_exhaustive(matrix: SensitivityMatrix, budget) -> SolveReport:
    """Globally optimal assignment by full enumeration.

    Refuses search spaces above ``EXHAUSTIVE_LIMIT`` assignments.
    """
    _require_matrix(matrix)
    limit = _as_budget(budget).limit_bits
    num_layers, nb = matrix.num_layers, len(matrix.menu)
    total = nb ** num_layers
    if total > EXHAUSTIVE_LIMIT:
        raise SearchSpaceError(
            f"{nb}**{num_layers} assignments exceed the enumeration limit {EXHAUSTIVE_LIMIT}")
    wmat = _size_table(matrix.layer_sizes, matrix.menu.bits, limit)
    key = _enumerate_node(_enumeration(matrix.entries, matrix.menu.bits, wmat, limit),
                          np.full(num_layers, -1))
    return SolveReport(method="exhaustive", status="optimal",
                       assignment=BitAssignment(key[2]), objective=key[0],
                       size_bits=key[1], proved=True, nodes=total, budget_bits=limit)


def _lmo(cost, start, free, wmat, rem):
    """Minimize a linear cost over a node's relaxation polytope.

    ``start`` is the node's smallest point (one-hot at each fixed position
    and at each free layer's position 0), whose fixed rows the result
    keeps; ``free`` lists the free layers and ``rem`` the budget left above
    ``start``.  Multiple-choice-knapsack LP greedy: per free layer, keep the
    lower convex hull of (size, cost) points, whose slopes are all negative
    since sizes strictly increase along a row; then buy hull segments in
    slope order until the budget runs out.  At most one layer ends up
    fractional.
    """
    x = start.copy()
    segments = []
    for l, sizes, costs in zip(free.tolist(), wmat[free].tolist(), cost[free].tolist()):
        hull = [(sizes[0], costs[0], 0)]
        low = costs[0]
        for m in range(1, len(costs)):
            pt = (sizes[m], costs[m], m)
            if pt[1] >= low:
                continue
            low = pt[1]
            while len(hull) >= 2:
                w1, c1, _ = hull[-2]
                w2, c2, _ = hull[-1]
                if (c2 - c1) * (pt[0] - w2) >= (pt[1] - c2) * (w2 - w1):
                    hull.pop()
                else:
                    break
            hull.append(pt)
        for k in range(len(hull) - 1):
            w1, c1, m1 = hull[k]
            w2, c2, m2 = hull[k + 1]
            span = w2 - w1
            segments.append(((c2 - c1) / span, l, k, m1, m2, span))
    segments.sort()
    # Hull slopes increase, so this skips a segment only if rounding reorders them.
    taken = [0] * len(x)
    for _, l, k, m1, m2, span in segments:
        if rem <= 0.0:
            break
        if taken[l] != k:
            continue
        frac = min(1.0, rem / span)
        x[l, m1] = 1.0 - frac
        x[l, m2] = frac
        taken[l] = k + 1
        rem -= span
    return x


def _frank_wolfe(entries, start, free, wmat, rem, stop_lb=None):
    """Minimize ``x' G x`` over a node's relaxation from its smallest point
    ``start``; returns the last point, the iterations run and the best dual
    bound seen.  ``start``, ``free`` and ``rem`` are as in ``_lmo``.

    Each ``f - gap`` is a valid lower bound when ``x' G x`` is convex along
    every direction that keeps each layer's simplex sum, that is PSD on the
    simplex subspace, as the matrices ``_convexify`` builds are.
    ``stop_lb`` is the caller's pruning cut.  Iteration stops once the bound
    clears it, or once a step brings the primal value ``f`` below it: ``f``
    is the objective at a feasible point, so it bounds the relaxation
    optimum from above and no bound can reach the cut any more.  Otherwise
    iteration stops at the relative gap ``FW_TOL``, after ``FW_MAX_ITER``
    steps, or once the bound stops improving; the rate is sublinear on
    singular matrices, so chasing the gap itself can be hopeless.
    """
    num_layers, nb = start.shape
    xf = start.ravel()
    gx = entries @ xf
    f = float(xf @ gx)
    best_lb = window_best = -math.inf
    for iters in range(1, FW_MAX_ITER + 1):
        grad = 2.0 * gx
        v = _lmo(grad.reshape(num_layers, nb), start, free, wmat, rem).ravel()
        gap = float(grad @ (xf - v))
        if gap < 0.0:
            gap = 0.0
        best_lb = max(best_lb, f - gap)
        if gap <= FW_TOL * max(1.0, abs(f)):
            break
        if stop_lb is not None and best_lb >= stop_lb:
            break
        # Bound progress below the pruning margin's granularity cannot
        # change any prune decision; stop grinding.
        if iters % 50 == 0:
            if best_lb - window_best < _PRUNE_SAFETY * max(1.0, abs(f)):
                break
            window_best = best_lb
        d = v - xf
        gd = entries @ d
        dgd = float(d @ gd)
        if dgd > 0.0:
            gamma = min(1.0, max(0.0, -float(gx @ d) / dgd))
        else:
            # Linear or concave along the segment, and decreasing at 0, as
            # the gap is positive: the endpoint is best.
            gamma = 1.0
        if gamma == 0.0:
            break
        xf = xf + gamma * d
        gx = gx + gamma * gd
        if iters % 64 == 0:
            gx = entries @ xf
        f = float(xf @ gx)
        if stop_lb is not None and f < stop_lb:
            break
    return xf.reshape(num_layers, nb), iters, best_lb


def _congruence(matrix, basis):
    """``V' M V`` for the block-diagonal ``V`` whose block for layer ``l`` is
    ``basis[l]``, of shape ``(nb, k)``; built blockwise and symmetrized."""
    num_layers, nb, k = basis.shape
    blocks = matrix.reshape(num_layers, nb, num_layers, nb)
    out = np.einsum("limb,mbj->limj", np.einsum("lai,lamb->limb", basis, blocks), basis)
    out = out.reshape(num_layers * k, num_layers * k)
    return 0.5 * (out + out.T)


def _convexify(entries, nb):
    """Bounding matrix ``B``, cut offset ``s`` and reported shift of ``G``.

    Frank-Wolfe's bound needs ``B`` convex only along directions that keep
    each layer's simplex sum, the columns of ``Z = kron(I_L, U)`` with ``U``
    an orthonormal basis of the vectors of ``nb`` entries that sum to zero
    (Billionnet, Elloumi & Plateau, Discrete Appl. Math. 157, 2009).  With
    ``w = diag(G)`` when that is positive throughout and all ones otherwise,
    ``t`` is the largest scale that leaves ``Z'(G - t*W)Z`` PSD: the
    smallest eigenvalue of ``C^-1 Z'GZ C^-T``, with ``C`` the Cholesky
    factor of ``Z'WZ``.  ``Z'WZ`` and ``C`` are block diagonal, one block
    ``C_l`` per layer, so ``Z C^-T`` is built as each layer's ``U C_l^-T``
    and no ``kron`` product is formed.  ``a = t*w`` and
    ``Q = G - diag(a)``; ``s = _psd_shift(Z'QZ)`` only absorbs round-off,
    since ``Z'Z = I``.  ``B`` is ``Q + s*I`` plus ``a`` folded into each
    layer's block as ``(a_p + a_q) / 2``, which equals ``a'x`` on every
    point of the layer simplices and has no curvature along ``Z``.  On
    one-hot points ``x' B x = x' G x + s*L``.  The shift is ``-t``:
    ``Z'(G + shift*W)Z`` is ``Z'QZ``.
    """
    num_layers = len(entries) // nb
    diagonal = np.diagonal(entries)
    # Deliberate: flooring the non-positive entries instead doubles the nodes.
    w = diagonal if np.all(diagonal > 0.0) else np.ones(len(entries))
    # Helmert's basis: column j - 1 is (1, ..., 1, -j, 0, ...) / sqrt(j (j + 1)).
    j = np.arange(1, nb)
    helmert = np.triu(np.ones((nb, nb - 1)))
    helmert[j, j - 1] = -j
    helmert /= np.sqrt(j * (j + 1.0))
    basis = np.broadcast_to(helmert, (num_layers, nb, nb - 1))
    scaled = np.einsum("ai,la,aj->lij", helmert, w.reshape(num_layers, nb), helmert)
    # Z C^-T, as each layer's U C_l^-T.
    whitened = np.linalg.solve(np.linalg.cholesky(scaled), basis.transpose(0, 2, 1))
    t = float(np.linalg.eigvalsh(_congruence(entries, whitened.transpose(0, 2, 1)))[0])
    a = t * w
    bounded = entries - np.diag(a)
    s = _psd_shift(_congruence(bounded, basis))
    bounded += _mask_couplings(0.5 * (a[:, None] + a[None, :]), np.arange(len(entries)) // nb)
    bounded[np.diag_indices_from(bounded)] += s
    return bounded, s, -t


def _local_search(entries, menu_bits, wmat, limit, pos):
    """Best-improvement descent from the feasible assignment ``pos``, a
    menu position per layer, after Fischetti & Lodi (Math. Program. 98,
    2003); returns the exact key of the last assignment.

    A move changes the positions of two layers, one of which may stay.
    Moving layer ``l`` from flat index ``p`` to ``q`` changes ``x' G x`` by
    ``d_q = 2(r_q - G_qp) - 2(r_p - G_pp) + G_qq - G_pp``, with ``r`` the
    sum of ``G``'s columns at the selected flat indices; moving two layers
    changes it by ``d_q1 + d_q2 + 2(G_q1q2 - G_q1p2 - G_p1q2 + G_p1p2)``,
    which is ``d_q1`` when the second stays.  A pair only has to fit the
    budget as a whole, since at a full budget only trades can improve.  The
    scores are floats, so the caller keeps the result only if its exact key
    is smaller than the incumbent's.  Moves that gain less than the pruning
    margin are not taken, which also ends the descent.
    """
    num_layers, nb = wmat.shape
    layer = np.repeat(np.arange(num_layers), nb)
    # 2 G, +inf where both indices are one layer's: a layer moves once a step.
    twice = np.where(layer[:, None] == layer, np.inf, 2.0 * entries)
    diagonal = np.diagonal(entries)
    weights = wmat.ravel()
    # Every budget above the widest model's size allows the same moves.
    limit = min(limit, int(wmat[:, -1].sum()))
    pos = np.array(pos)
    idx = np.arange(num_layers) * nb + pos
    value = float(entries[np.ix_(idx, idx)].sum())
    while True:
        cur = idx[layer]
        # G_qp for every flat index q and every layer's selected p.
        near = entries[:, idx]
        r = near.sum(axis=1)
        single = (2.0 * (r - near[np.arange(len(layer)), layer] - r[cur] + diagonal[cur])
                  + diagonal - diagonal[cur])
        # Pair scores split as twice[q1, q2] + half[q1, q2] + half[q2, q1].
        half = (single[:, None] - 2.0 * near + near[idx][layer])[:, layer]
        delta = twice + half
        delta += half.T
        grow = weights - weights[cur]
        np.putmask(delta, grow[:, None] > limit - int(weights[idx].sum()) - grow, np.inf)
        best = int(np.argmin(delta))
        if not delta.flat[best] < -_PRUNE_SAFETY * max(1.0, abs(value)):
            return _exact_key(entries, menu_bits, wmat, tuple(pos.tolist()))
        value += float(delta.flat[best])
        for q in divmod(best, len(layer)):
            pos[layer[q]] = q % nb
            idx[layer[q]] = q


def _bnb_core(matrix, entries, budget, method, *,
              node_limit: int = 1_000_000, time_limit: float | None = None) -> SolveReport:
    """Depth-first branch-and-bound over ``entries``, the matrix's own or a
    masked copy; the keyword options are the only per-call solver settings
    and their defaults are declared here.

    ``node_limit`` is an integer >= 0 and ``time_limit`` None or a number
    >= 0, infinity included; 0 for either allows no search at all.
    """
    limit = _as_budget(budget).limit_bits
    if not isinstance(node_limit, numbers.Integral) or node_limit < 0:
        raise ValueError(f"node_limit must be an integer >= 0, got {node_limit!r}")
    # Written so that NaN fails the comparison.
    if time_limit is not None and not (isinstance(time_limit, numbers.Real)
                                       and time_limit >= 0):
        raise ValueError(f"time_limit must be None or a number >= 0, got {time_limit!r}")
    menu_bits, num_layers = matrix.menu.bits, matrix.num_layers
    nb = len(menu_bits)
    wmat = _size_table(matrix.layer_sizes, menu_bits, limit)
    layers = np.arange(num_layers)
    enumeration = _enumeration(entries, menu_bits, wmat, limit)
    inc_key = _exact_key(entries, menu_bits, wmat, (0,) * num_layers)
    stack = [np.full(num_layers, -1)]
    nodes = 0
    fw_total = 0
    # Bounds and cut see _convexify's matrix, built at the first node that
    # needs a bound; every exact score stays on G.
    bounded = None
    offset = shift = 0.0
    deadline = None if time_limit is None else time.monotonic() + float(time_limit)
    while stack and nodes < node_limit and (deadline is None or time.monotonic() <= deadline):
        fixed = stack.pop()
        nodes += 1
        free = fixed < 0
        low = np.maximum(fixed, 0)
        rem = limit - int(wmat[layers, low].sum())
        if rem < 0:
            continue
        # SUBCUBE_LIMIT >= 1, so a node with no free layer is enumerated.
        if nb ** int(np.count_nonzero(free)) <= SUBCUBE_LIMIT:
            best = _enumerate_node(enumeration, fixed)
            if best is not None and best < inc_key:
                inc_key = best
            continue
        first = bounded is None
        if first:
            bounded, offset, shift = _convexify(entries, nb)
            inc_key = min(inc_key, _local_search(entries, menu_bits, wmat, limit, low))
        target = inc_key[0] + offset * num_layers
        cut = target + _PRUNE_SAFETY * max(1.0, abs(target))
        x, iters, lb = _frank_wolfe(bounded, np.eye(nb)[low], np.flatnonzero(free), wmat,
                                    float(rem), stop_lb=cut)
        fw_total += iters
        if lb >= cut:
            continue
        rounded = np.where(free, x.argmax(1), fixed)
        if wmat[layers, rounded].sum() <= limit:
            inc_key = min(inc_key, _exact_key(entries, menu_bits, wmat, tuple(rounded.tolist())))
        if first:
            # The second start rounds x down in size: each layer takes its
            # widest width within its expected size, which fits the budget
            # as x does, up to the float sums checked here.
            down = np.maximum((wmat <= (x * wmat).sum(1, keepdims=True)).sum(1) - 1, 0)
            if wmat[layers, down].sum() <= limit:
                inc_key = min(inc_key, _local_search(entries, menu_bits, wmat, limit, down))
        branch = int(np.argmax(np.where(free, 1.0 - x.max(1), -1.0)))
        for m in reversed(sorted(range(nb), key=lambda m: (-x[branch, m], m))):
            child = fixed.copy()
            child[branch] = m
            stack.append(child)
    # The stack is empty unless a limit stopped the search.
    proved = not stack
    return SolveReport(method=method, status="optimal" if proved else "incumbent",
                       assignment=BitAssignment(inc_key[2]), objective=inc_key[0],
                       size_bits=inc_key[1], proved=proved, nodes=nodes,
                       fw_iterations=fw_total, shift=shift,
                       budget_bits=limit)


def solve_bnb(matrix: SensitivityMatrix, budget, **options) -> SolveReport:
    """Exact branch-and-bound over one-hot assignments.

    The matrix need not be PSD: the first node that needs a bound computes
    once the scaled diagonal shift that convexifies it on the simplex
    subspace, and the report's ``shift`` is its scale: bounds use ``G +
    shift*diag(w)``, with ``w`` the diagonal of ``G`` if that is positive
    and all ones otherwise, which is PSD on that subspace.  It is positive
    exactly when ``G`` is indefinite on the subspace (up to round-off), at
    most 0 when ``G`` is PSD there, and 0.0 when no node was bounded.  The
    same node seeds the incumbent with a local search; since the incumbent
    is replaced only by a smaller exact key, that changes node counts but
    not answers.  ``proved`` means neither the ``node_limit`` nor the
    ``time_limit`` option cut the search short.  Other option names raise
    ``TypeError``.
    """
    _require_matrix(matrix)
    return _bnb_core(matrix, matrix.entries, budget, "full", **options)


def solve_diagonal_only(matrix: SensitivityMatrix, budget, **options) -> SolveReport:
    """Branch-and-bound with every off-diagonal entry zeroed first."""
    _require_matrix(matrix)
    stripped = _mask_couplings(matrix.entries, np.arange(matrix.dim))
    return _bnb_core(matrix, stripped, budget, "diag", **options)


def _partition_groups(partition, num_layers) -> np.ndarray:
    """Block number of each layer; the blocks must cover every layer once."""
    blocks = [tuple(int(l) for l in block) for block in partition]
    seen = [l for block in blocks for l in block]
    if sorted(seen) != list(range(num_layers)):
        raise ValueError(
            f"partition {blocks} must cover every layer 0..{num_layers - 1} exactly once")
    group = np.empty(num_layers, dtype=np.int64)
    for b, block in enumerate(blocks):
        group[list(block)] = b
    return group


def solve_block(matrix: SensitivityMatrix, budget, block_partition, **options) -> SolveReport:
    """Branch-and-bound keeping couplings only inside the given layer blocks."""
    _require_matrix(matrix)
    if block_partition is None:
        raise ValueError("solve_block requires a block partition")
    group = _partition_groups(block_partition, matrix.num_layers)
    stripped = _mask_couplings(matrix.entries, np.repeat(group, len(matrix.menu)))
    return _bnb_core(matrix, stripped, budget, "block", **options)


def solve_with_method(method: str, matrix: SensitivityMatrix, budget, *,
                      block_partition=None, **options) -> SolveReport:
    """Dispatch by method name: full, diag, block, or exhaustive.

    The report's ``seconds`` holds the wall time of the solve.
    """
    started = time.monotonic()
    if method == "full":
        report = solve_bnb(matrix, budget, **options)
    elif method == "diag":
        report = solve_diagonal_only(matrix, budget, **options)
    elif method == "block":
        report = solve_block(matrix, budget, block_partition, **options)
    elif method == "exhaustive":
        report = solve_exhaustive(matrix, budget, **options)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    report.seconds = time.monotonic() - started
    return report


def sweep(matrix: SensitivityMatrix, budgets, *, method: str = "full",
          block_partition=None, **options) -> list[SolveReport]:
    """One solve per budget, budgets ascending; infeasible points are
    reported inline instead of raising."""
    _require_matrix(matrix)
    if budgets is None:
        raise ValueError("a list of budgets is required")
    coerced = [_as_budget(b) for b in budgets]
    limits = [b.limit_bits for b in coerced]
    if limits != sorted(limits):
        raise ValueError("budgets must be sorted ascending")
    reports = []
    for b in coerced:
        try:
            reports.append(solve_with_method(method, matrix, b,
                                             block_partition=block_partition, **options))
        except InfeasibleBudgetError:
            reports.append(SolveReport(method=method, status="infeasible", assignment=None,
                                       objective=None, size_bits=None, proved=False,
                                       budget_bits=b.limit_bits))
    return reports
