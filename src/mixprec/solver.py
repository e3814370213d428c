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
1970; Billionnet & Elloumi, Math. Program. 109, 2007): the largest
diagonal ``a``, proportional to ``diag(G)``, that leaves ``G - diag(a)``
PSD is moved into a linear term ``a'x``, which tightens the relaxation
because ``x_p**2 <= x_p`` on it and equals ``a'x`` on one-hot points.  The
linear term is folded into each layer's block, where the layer's simplex
sum makes it quadratic without adding curvature.  This works for
indefinite matrices too, whose ``a`` is negative.
A node's Frank-Wolfe solve stops as soon as its primal value drops below
the pruning cut, because no bound at that node can prune it any more.
``solve_diagonal_only`` and ``solve_block`` rerun the same search on
copies with the couplings fully or partially masked to zero.

Reported objectives are accumulated with ``math.fsum`` so every solver
returns bit-identical values for tied assignments, and ties break by
smaller total size, then lexicographically smaller bit vector.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .sensitivity import BitMenu, SensitivityMatrix, _mask_couplings
from .spectra import _psd_shift, _require_symmetric

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
# Nodes whose remaining search space is at most this large are enumerated
# outright instead of bounded; vectorized scoring makes that cheaper than
# grinding a relaxation bound to prune-grade accuracy.
SUBCUBE_LIMIT = 2048
# Frank-Wolfe stops at this relative duality gap or after this many steps.
FW_TOL = 1e-9
FW_MAX_ITER = 1500

BITS_PER_MB = 8 * 2 ** 20

# Gathered entries per enumeration chunk (8 MiB of float64).
_ENUM_TERMS = 2 ** 20
# Relative slack applied when preselecting near-minimal rows; orders of
# magnitude above accumulation round-off.
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
    """One menu bit-width per layer."""

    bits: tuple[int, ...]

    def __init__(self, bits):
        values = tuple(int(b) for b in bits)
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
        if int(self.limit_bits) != self.limit_bits or self.limit_bits < 0:
            raise ValueError(f"budget must be a non-negative bit count, got {self.limit_bits!r}")
        object.__setattr__(self, "limit_bits", int(self.limit_bits))

    @classmethod
    def from_megabytes(cls, megabytes: float) -> "SizeBudget":
        return cls(int(math.floor(megabytes * BITS_PER_MB)))


@dataclass
class SolveReport:
    """Outcome of one solve: the assignment plus proof and effort metadata.

    ``shift`` is the scale of the diagonal shift branch-and-bound bounded
    through (see ``solve_bnb``): positive on an indefinite matrix, at most
    0 on a PSD one, 0.0 when no node was bounded.
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


def _problem(g, sizes, menu):
    """Normalize (matrix-or-array, sizes, menu) into raw pieces."""
    if isinstance(g, SensitivityMatrix):
        if sizes is not None and tuple(int(s) for s in sizes) != g.layer_sizes:
            raise ValueError("explicit layer sizes disagree with the matrix metadata")
        if menu is not None:
            if BitMenu(menu).bits != g.menu.bits:
                raise ValueError("explicit bit menu disagrees with the matrix metadata")
        return g.entries, g.layer_sizes, g.menu
    entries = np.asarray(g, dtype=np.float64)
    if sizes is None or menu is None:
        raise ValueError("layer sizes and a bit menu are required with a raw entries array")
    menu = BitMenu(menu)
    sizes = tuple(int(s) for s in sizes)
    if not sizes:
        raise ValueError("layer sizes must cover at least one layer")
    dim = len(menu) * len(sizes)
    if entries.shape != (dim, dim):
        raise ValueError(f"entries must have shape {(dim, dim)}, got {entries.shape}")
    # Check only: the caller's bytes are what gets scored.
    _require_symmetric(entries)
    return entries, sizes, menu


def objective(g, assignment: BitAssignment, *, sizes=None, menu=None) -> float:
    """Quadratic form of the entries over a one-hot assignment.

    Equals the sum of the selected diagonal entries plus both mirrored
    copies of each selected cross entry, accumulated with ``math.fsum``
    so the value does not depend on summation order.
    """
    entries, layer_sizes, menu = _problem(g, sizes, menu)
    nb = len(menu)
    if len(assignment.bits) != len(layer_sizes):
        raise ValueError(
            f"assignment covers {len(assignment.bits)} layers, matrix has {len(layer_sizes)}")
    return _quadratic_form(entries, [l * nb + menu.index(b)
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
    model exceeds ``limit``."""
    wmat = np.array([[s * b for b in menu_bits] for s in layer_sizes], dtype=np.int64)
    min_total = int(wmat[:, 0].sum())
    if min_total > limit:
        raise InfeasibleBudgetError(
            f"smallest model needs {min_total} bits, budget is {limit}")
    return wmat


def _enumerate_node(entries, menu_bits, wmat, fixed, limit):
    """Best exact key over a node's assignments, or None if all infeasible.

    ``fixed`` holds each layer's menu position, or -1 for a free layer;
    rows run over the free layers' positions in lexicographic order.
    Each chunk gathers the ``L x L`` entries of every feasible row once.
    Their float sum preselects the near-minimal rows; rows whose gathered
    entries and size are byte-identical share their exact key up to the
    bit vector, so only the first of them in lexicographic order is
    re-scored exactly with fsum.
    """
    num_layers = len(fixed)
    layers = np.arange(num_layers)
    free = fixed < 0
    shape = tuple(np.where(free, len(menu_bits), 1).tolist())
    offsets = layers * len(menu_bits)
    total = math.prod(shape)
    chunk = max(1, _ENUM_TERMS // num_layers ** 2)
    seen = set()
    best = None
    for start in range(0, total, chunk):
        index = np.arange(start, min(start + chunk, total))
        pos = np.where(free, np.stack(np.unravel_index(index, shape), axis=1), fixed)
        size = wmat[layers, pos].sum(axis=1)
        feas = size <= limit
        if not feas.any():
            continue
        pos, size = pos[feas], size[feas]
        flat = pos + offsets
        terms = entries[flat[:, :, None], flat[:, None, :]].reshape(len(flat), -1)
        score = terms.sum(axis=1)
        low = float(score.min())
        for row in np.flatnonzero(score <= low + _SAFETY * max(1.0, abs(low))):
            mark = (terms[row].tobytes(), int(size[row]))
            if mark in seen:
                continue
            seen.add(mark)
            key = _exact_key(entries, menu_bits, wmat, tuple(pos[row].tolist()))
            if best is None or key < best:
                best = key
    return best


def solve_exhaustive(g, sizes=None, menu=None, budget=None) -> SolveReport:
    """Globally optimal assignment by full enumeration.

    Refuses search spaces above ``EXHAUSTIVE_LIMIT`` assignments.
    """
    entries, layer_sizes, menu = _problem(g, sizes, menu)
    budget = _as_budget(budget)
    num_layers = len(layer_sizes)
    nb = len(menu)
    total = nb ** num_layers
    if total > EXHAUSTIVE_LIMIT:
        raise SearchSpaceError(
            f"{nb}**{num_layers} assignments exceed the enumeration limit {EXHAUSTIVE_LIMIT}")
    wmat = _size_table(layer_sizes, menu.bits, budget.limit_bits)
    key = _enumerate_node(entries, menu.bits, wmat, np.full(num_layers, -1), budget.limit_bits)
    return SolveReport(method="exhaustive", status="optimal",
                       assignment=BitAssignment(key[2]), objective=key[0],
                       size_bits=key[1], proved=True, nodes=total,
                       budget_bits=budget.limit_bits)


def _node_start(fixed, wmat, limit):
    """A node's smallest point (one-hot at each fixed position and at each
    free layer's position 0), its free layers and the budget left there."""
    num_layers, nb = wmat.shape
    layers = np.arange(num_layers)
    low = np.maximum(fixed, 0)
    start = np.zeros((num_layers, nb))
    start[layers, low] = 1.0
    return start, np.flatnonzero(fixed < 0), float(limit - wmat[layers, low].sum())


def _lmo(cost, start, free, wmat, rem):
    """Minimize a linear cost over a node's relaxation polytope.

    ``start``, ``free`` and ``rem`` come from ``_node_start``; the fixed
    layers keep their rows of ``start``.  Classic multiple-choice-knapsack
    LP greedy: per free layer, keep the lower convex hull of (size, cost)
    points; then buy hull segments globally in slope order until the
    budget runs out.  At most one layer ends up fractional.
    """
    x = start.copy()
    hulls = {}
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
        hulls[l] = hull
        for k in range(len(hull) - 1):
            w1, c1, _ = hull[k]
            w2, c2, _ = hull[k + 1]
            segments.append(((c2 - c1) / (w2 - w1), l, k))
    segments.sort()
    taken = dict.fromkeys(hulls, 0)
    for slope, l, k in segments:
        if rem <= 0.0 or slope >= 0.0:
            break
        if taken[l] != k:
            continue
        w1, c1, m1 = hulls[l][k]
        w2, c2, m2 = hulls[l][k + 1]
        span = float(w2 - w1)
        if span <= rem:
            x[l, m1] = 0.0
            x[l, m2] = 1.0
            taken[l] = k + 1
            rem -= span
        else:
            frac = rem / span
            x[l, m1] = 1.0 - frac
            x[l, m2] = frac
            rem = 0.0
            break
    return x


def _frank_wolfe(entries, fixed, wmat, limit, tol, max_iter, stop_lb=None):
    """Minimize ``x' G x`` over a node's relaxation; returns the best dual bound seen.

    ``fixed`` holds each layer's menu position, or -1 for a free layer,
    whose row ranges over its simplex.  ``_node_start`` runs once, and
    every ``_lmo`` call reuses its start point, free layers and budget.

    Each ``f - gap`` is a valid lower bound when ``x' G x`` is convex along
    every direction that keeps each layer's simplex sum, as it is for the
    matrices ``_convexify`` builds.  ``stop_lb`` is the caller's pruning
    cut.  Iteration stops once the bound clears it, or once a step brings
    the primal value ``f`` below it: ``f`` is the objective at a feasible
    point, so it bounds the relaxation optimum from above and no bound can
    reach the cut any more.  Otherwise iteration stops once the gap is
    small or the bound stops improving; the rate is sublinear on singular
    matrices, so chasing the gap itself can be hopeless.
    """
    start, free, rem = _node_start(fixed, wmat, limit)
    num_layers, nb = start.shape
    xf = start.ravel()
    gx = entries @ xf
    f = float(xf @ gx)
    best_lb = -math.inf
    gap = math.inf
    iters = 0
    window_best = -math.inf
    for it in range(max_iter):
        iters = it + 1
        grad = 2.0 * gx
        v = _lmo(grad.reshape(num_layers, nb), start, free, wmat, rem).ravel()
        gap = float(grad @ (xf - v))
        if gap < 0.0:
            gap = 0.0
        best_lb = max(best_lb, f - gap)
        if gap <= tol * max(1.0, abs(f)):
            break
        if stop_lb is not None and best_lb >= stop_lb:
            break
        # Bound progress below the pruning margin's granularity cannot
        # change any prune decision; stop grinding.
        if (it + 1) % 50 == 0:
            if best_lb - window_best < _PRUNE_SAFETY * max(1.0, abs(f)):
                break
            window_best = best_lb
        d = v - xf
        gd = entries @ d
        dgd = float(d @ gd)
        xgd = float(gx @ d)
        if dgd > 0.0:
            gamma = -xgd / dgd
            gamma = min(1.0, max(0.0, gamma))
        else:
            # Concave along the segment and decreasing at 0: endpoint is best.
            gamma = 1.0
        if gamma == 0.0:
            break
        xf = xf + gamma * d
        gx = gx + gamma * gd
        if (it + 1) % 64 == 0:
            gx = entries @ xf
        f = float(xf @ gx)
        if stop_lb is not None and f < stop_lb:
            break
    return xf.reshape(num_layers, nb), f, gap, iters, best_lb


def _convexify(entries, nb):
    """Bounding matrix ``B``, cut offset ``s`` and reported shift of ``G``.

    With ``w = diag(G)`` when that is positive throughout and all ones
    otherwise, ``t`` is the smallest eigenvalue of ``W^-1/2 G W^-1/2`` and
    ``a = t*w``, so ``Q = G - diag(a)``, a congruence of that matrix minus
    ``t*I``, is PSD; ``s = _psd_shift(Q)`` only absorbs round-off.  ``B`` is
    ``Q + s*I`` plus ``a`` folded into each layer's block as
    ``(a_p + a_q) / 2``, which equals ``a'x`` on every point of the layer
    simplices.  On one-hot points ``x' B x = x' G x + s*L``.  The shift is
    ``-t``: ``G + shift*diag(w)`` is ``Q``.
    """
    diagonal = np.diagonal(entries)
    # Deliberate: flooring the non-positive entries instead doubles the nodes.
    w = diagonal if np.all(diagonal > 0.0) else np.ones(len(entries))
    root = 1.0 / np.sqrt(w)
    t = float(np.linalg.eigvalsh(entries * root[:, None] * root[None, :])[0])
    a = t * w
    bounded = entries - np.diag(a)
    s = _psd_shift(bounded)
    bounded += _mask_couplings(0.5 * (a[:, None] + a[None, :]), np.arange(len(entries)) // nb)
    bounded[np.diag_indices_from(bounded)] += s
    return bounded, s, -t


def _bnb_core(entries, layer_sizes, menu, budget, method, *,
              node_limit: int = 1_000_000, time_limit: float | None = None) -> SolveReport:
    """Depth-first branch-and-bound; the keyword options are the only
    per-call solver settings and their defaults are declared here."""
    menu_bits = menu.bits
    num_layers = len(layer_sizes)
    nb = len(menu_bits)
    limit = budget.limit_bits
    wmat = _size_table(layer_sizes, menu_bits, limit)
    layers = np.arange(num_layers)
    inc_key = _exact_key(entries, menu_bits, wmat, (0,) * num_layers)
    stack = [np.full(num_layers, -1)]
    nodes = 0
    fw_total = 0
    # Bounds and cut see _convexify's matrix, built at the first node that
    # needs a bound; every exact score stays on G.
    bounded = None
    offset = shift = 0.0
    limited = False
    deadline = None if time_limit is None else time.monotonic() + float(time_limit)
    while stack:
        if nodes >= node_limit or (deadline is not None and time.monotonic() > deadline):
            limited = True
            break
        fixed = stack.pop()
        nodes += 1
        free = fixed < 0
        if wmat[layers, np.maximum(fixed, 0)].sum() > limit:
            continue
        # SUBCUBE_LIMIT >= 1, so a node with no free layer is enumerated.
        if nb ** int(np.count_nonzero(free)) <= SUBCUBE_LIMIT:
            best = _enumerate_node(entries, menu_bits, wmat, fixed, limit)
            if best is not None and best < inc_key:
                inc_key = best
            continue
        if bounded is None:
            bounded, offset, shift = _convexify(entries, nb)
        target = inc_key[0] + offset * num_layers
        cut = target + _PRUNE_SAFETY * max(1.0, abs(target))
        x, f, gap, iters, lb = _frank_wolfe(
            bounded, fixed, wmat, limit, FW_TOL, FW_MAX_ITER, stop_lb=cut)
        fw_total += iters
        if lb >= cut:
            continue
        rounded = np.where(free, x.argmax(1), fixed)
        if wmat[layers, rounded].sum() <= limit:
            key = _exact_key(entries, menu_bits, wmat, tuple(rounded.tolist()))
            if key < inc_key:
                inc_key = key
        branch = int(np.argmax(np.where(free, 1.0 - x.max(1), -1.0)))
        for m in reversed(sorted(range(nb), key=lambda m: (-x[branch, m], m))):
            child = fixed.copy()
            child[branch] = m
            stack.append(child)
    proved = not limited
    return SolveReport(method=method, status="optimal" if proved else "incumbent",
                       assignment=BitAssignment(inc_key[2]), objective=inc_key[0],
                       size_bits=inc_key[1], proved=proved, nodes=nodes,
                       fw_iterations=fw_total, shift=shift,
                       budget_bits=limit)


def solve_bnb(g, sizes=None, menu=None, budget=None, **options) -> SolveReport:
    """Exact branch-and-bound over one-hot assignments.

    The matrix need not be PSD: the first node that needs a bound computes
    once the scaled diagonal shift that convexifies it, and the report's
    ``shift`` is its scale: bounds use ``G + shift*diag(w)``, with ``w`` the
    diagonal of ``G`` if that is positive and all ones otherwise.  It is
    positive exactly when ``G`` is indefinite (up to round-off), at most 0
    on PSD input, and 0.0 when no node was bounded.  ``proved`` means
    neither the ``node_limit`` nor the ``time_limit`` option cut the
    search short.  Other option names raise ``TypeError``.
    """
    entries, layer_sizes, menu = _problem(g, sizes, menu)
    return _bnb_core(entries, layer_sizes, menu, _as_budget(budget), "full", **options)


def solve_diagonal_only(g, sizes=None, menu=None, budget=None, **options) -> SolveReport:
    """Branch-and-bound with every off-diagonal entry zeroed first."""
    entries, layer_sizes, menu = _problem(g, sizes, menu)
    stripped = _mask_couplings(entries, np.arange(len(entries)))
    return _bnb_core(stripped, layer_sizes, menu, _as_budget(budget), "diag", **options)


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


def solve_block(g, sizes=None, menu=None, budget=None, block_partition=None,
                **options) -> SolveReport:
    """Branch-and-bound keeping couplings only inside the given layer blocks."""
    entries, layer_sizes, menu = _problem(g, sizes, menu)
    if block_partition is None:
        raise ValueError("solve_block requires a block partition")
    group = _partition_groups(block_partition, len(layer_sizes))
    stripped = _mask_couplings(entries, np.repeat(group, len(menu)))
    return _bnb_core(stripped, layer_sizes, menu, _as_budget(budget), "block", **options)


def solve_with_method(method: str, g, sizes=None, menu=None, budget=None, *,
                      block_partition=None, **options) -> SolveReport:
    """Dispatch by method name: full, diag, block, or exhaustive.

    The report's ``seconds`` holds the wall time of the solve.
    """
    started = time.monotonic()
    if method == "full":
        report = solve_bnb(g, sizes, menu, budget, **options)
    elif method == "diag":
        report = solve_diagonal_only(g, sizes, menu, budget, **options)
    elif method == "block":
        report = solve_block(g, sizes, menu, budget, block_partition, **options)
    elif method == "exhaustive":
        if options:
            raise TypeError(f"exhaustive solve takes no options, got {sorted(options)}")
        report = solve_exhaustive(g, sizes, menu, budget)
    else:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    report.seconds = time.monotonic() - started
    return report


def sweep(g, sizes=None, menu=None, budgets=None, *, method: str = "full",
          block_partition=None, **options) -> list[SolveReport]:
    """One solve per budget, budgets ascending; infeasible points are
    reported inline instead of raising."""
    if budgets is None:
        raise ValueError("a list of budgets is required")
    coerced = [_as_budget(b) for b in budgets]
    limits = [b.limit_bits for b in coerced]
    if limits != sorted(limits):
        raise ValueError("budgets must be sorted ascending")
    reports = []
    for b in coerced:
        try:
            reports.append(solve_with_method(method, g, sizes, menu, b,
                                             block_partition=block_partition, **options))
        except InfeasibleBudgetError:
            reports.append(SolveReport(method=method, status="infeasible",
                                       assignment=None, objective=None,
                                       size_bits=None, proved=False,
                                       budget_bits=b.limit_bits))
    return reports
