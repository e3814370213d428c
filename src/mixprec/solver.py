"""Bit-width assignment under a model-size budget.

The problem: pick one bit-width per layer from a menu, minimizing the
quadratic form of the sensitivity matrix over the induced one-hot
selection vector, subject to ``sum(layer_size * bits) <= budget``.

``solve_exhaustive`` enumerates every assignment (an oracle for small
search spaces).  ``solve_bnb`` is an exact depth-first branch-and-bound:
lower bounds come from a Frank-Wolfe solve of the continuous relaxation
over the product of per-layer simplices cut by the budget half-space,
whose linear subproblem is a multiple-choice-knapsack LP solved greedily
on per-layer convex hulls.  An indefinite matrix is bounded through
``G + s*I``, with the smallest uniform shift ``s`` that makes it PSD
(Hammer & Rubin, RAIRO 1970): on one-hot points of ``L`` layers that adds
exactly ``s*L`` to the objective, so the cut moves by the same amount.
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

from .sensitivity import BitMenu, SensitivityMatrix
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
# Nodes whose remaining search space is at most this large are enumerated
# outright instead of bounded; vectorized scoring makes that cheaper than
# grinding a relaxation bound to prune-grade accuracy.
SUBCUBE_LIMIT = 2048
# Frank-Wolfe stops at this relative duality gap or after this many steps.
FW_TOL = 1e-9
FW_MAX_ITER = 1500

BITS_PER_MB = 8 * 2 ** 20

_ENUM_CHUNK = 100_000
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

    @property
    def megabytes(self) -> float:
        return self.limit_bits / BITS_PER_MB


@dataclass
class SolveReport:
    """Outcome of one solve: the assignment plus proof and effort metadata."""

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
            menu = menu if isinstance(menu, BitMenu) else BitMenu(menu)
            if menu.bits != g.menu.bits:
                raise ValueError("explicit bit menu disagrees with the matrix metadata")
        return g.entries, g.layer_sizes, g.menu
    entries = np.asarray(g, dtype=np.float64)
    if sizes is None or menu is None:
        raise ValueError("layer sizes and a bit menu are required with a raw entries array")
    menu = menu if isinstance(menu, BitMenu) else BitMenu(menu)
    sizes = tuple(int(s) for s in sizes)
    dim = len(menu) * len(sizes)
    if entries.shape != (dim, dim):
        raise ValueError(f"entries must have shape {(dim, dim)}, got {entries.shape}")
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


def _enumerate_domains(entries, menu_bits, wmat, domains, limit):
    """Best (key, pos) over a restricted search box, or None if all infeasible.

    Chunks are scored with vectorized float sums, near-minimal rows are kept
    (one representative per distinct rounded value, smallest size then
    lexicographic order), and survivors are re-scored exactly with fsum.
    """
    num_layers = len(domains)
    nb = len(menu_bits)
    shape = tuple(len(d) for d in domains)
    total = 1
    for s in shape:
        total *= s
    dom_arrays = [np.asarray(d, dtype=np.int64) for d in domains]
    offsets = (np.arange(num_layers, dtype=np.int64) * nb)[None, :]
    candidates = []
    for start in range(0, total, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, total)
        grid = np.unravel_index(np.arange(start, stop), shape)
        pos = np.stack([dom_arrays[l][grid[l]] for l in range(num_layers)], axis=1)
        size = np.zeros(stop - start, dtype=np.int64)
        for l in range(num_layers):
            size += wmat[l, pos[:, l]]
        feas = size <= limit
        if not feas.any():
            continue
        flat = pos + offsets
        score = np.zeros(stop - start)
        for l in range(num_layers):
            score += entries[flat[:, l], flat[:, l]]
        for a in range(num_layers):
            for b in range(a + 1, num_layers):
                score += 2.0 * entries[flat[:, a], flat[:, b]]
        score_f = score[feas]
        size_f = size[feas]
        pos_f = pos[feas]
        low = float(score_f.min())
        near = score_f <= low + _SAFETY * max(1.0, abs(low))
        order = np.lexsort((size_f[near], score_f[near]))
        seen = set()
        near_pos = pos_f[near]
        near_score = score_f[near]
        for row in order:
            mark = near_score[row].tobytes()
            if mark in seen:
                continue
            seen.add(mark)
            candidates.append(near_pos[row])
    if not candidates:
        return None
    best = None
    for pos_row in candidates:
        pos_t = tuple(int(p) for p in pos_row)
        key = _exact_key(entries, menu_bits, wmat, pos_t)
        if best is None or key < best[0]:
            best = (key, pos_t)
    return best


def solve_exhaustive(g, sizes=None, menu=None, budget=None) -> SolveReport:
    """Globally optimal assignment by full enumeration.

    Refuses search spaces above ``EXHAUSTIVE_LIMIT`` assignments.
    """
    entries, layer_sizes, menu = _problem(g, sizes, menu)
    budget = _as_budget(budget)
    menu_bits = menu.bits
    num_layers = len(layer_sizes)
    nb = len(menu_bits)
    total = nb ** num_layers
    if total > EXHAUSTIVE_LIMIT:
        raise SearchSpaceError(
            f"{nb}**{num_layers} assignments exceed the enumeration limit {EXHAUSTIVE_LIMIT}")
    wmat = np.array([[s * b for b in menu_bits] for s in layer_sizes], dtype=np.int64)
    min_total = int(wmat[:, 0].sum())
    if min_total > budget.limit_bits:
        raise InfeasibleBudgetError(
            f"smallest model needs {min_total} bits, budget is {budget.limit_bits}")
    domains = tuple(tuple(range(nb)) for _ in range(num_layers))
    key, _pos = _enumerate_domains(entries, menu_bits, wmat, domains, budget.limit_bits)
    return SolveReport(method="exhaustive", status="optimal",
                       assignment=BitAssignment(key[2]), objective=key[0],
                       size_bits=key[1], proved=True, nodes=total,
                       budget_bits=budget.limit_bits)


def _lmo(cost, domains, wmat, limit):
    """Minimize a linear cost over the relaxation polytope.

    Classic multiple-choice-knapsack LP greedy: per layer, keep the
    lower convex hull of (size, cost) points; start every layer at its
    smallest size; then buy hull segments globally in slope order until
    the budget runs out.  At most one layer ends up fractional.
    """
    num_layers = len(domains)
    x = np.zeros_like(cost)
    hulls = []
    base = 0
    for l, dom in enumerate(domains):
        pts = [(int(wmat[l, m]), float(cost[l, m]), m) for m in dom]
        eff = [pts[0]]
        for wgt, c, m in pts[1:]:
            if c < eff[-1][1]:
                eff.append((wgt, c, m))
        hull = []
        for pt in eff:
            while len(hull) >= 2:
                w1, c1, _ = hull[-2]
                w2, c2, _ = hull[-1]
                if (c2 - c1) * (pt[0] - w2) >= (pt[1] - c2) * (w2 - w1):
                    hull.pop()
                else:
                    break
            hull.append(pt)
        hulls.append(hull)
        base += hull[0][0]
        x[l, hull[0][2]] = 1.0
    rem = float(limit - base)
    if rem < 0:
        raise InfeasibleBudgetError("linear subproblem called on an infeasible node")
    segments = []
    for l, hull in enumerate(hulls):
        for k in range(len(hull) - 1):
            w1, c1, _ = hull[k]
            w2, c2, _ = hull[k + 1]
            segments.append(((c2 - c1) / (w2 - w1), l, k))
    segments.sort()
    taken = [0] * num_layers
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


def _frank_wolfe(entries, domains, wmat, limit, tol, max_iter, stop_lb=None):
    """Minimize ``x' G x`` over the relaxation; returns the best dual bound seen.

    Each ``f - gap`` is a valid lower bound when ``entries`` is positive
    semidefinite.  ``stop_lb`` is the caller's pruning cut.  Iteration
    stops once the bound clears it, or once a step brings the primal
    value ``f`` below it: ``f`` is the objective at a feasible point, so
    it bounds the relaxation optimum from above and no bound can reach
    the cut any more.  Otherwise iteration stops once the gap is small
    or the bound stops improving; the rate is sublinear on singular
    matrices, so chasing the gap itself can be hopeless.
    """
    num_layers = len(domains)
    nb = wmat.shape[1]
    x = np.zeros((num_layers, nb))
    for l, dom in enumerate(domains):
        x[l, dom[0]] = 1.0
    xf = x.ravel()
    gx = entries @ xf
    f = float(xf @ gx)
    best_lb = -math.inf
    gap = math.inf
    iters = 0
    window_best = -math.inf
    for it in range(max_iter):
        iters = it + 1
        grad = 2.0 * gx
        v = _lmo(grad.reshape(num_layers, nb), domains, wmat, limit).ravel()
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


def _bnb_core(entries, layer_sizes, menu, budget, method, *,
              node_limit: int = 1_000_000, time_limit: float | None = None) -> SolveReport:
    """Depth-first branch-and-bound; the keyword options are the only
    per-call solver settings and their defaults are declared here."""
    menu_bits = menu.bits
    num_layers = len(layer_sizes)
    nb = len(menu_bits)
    wmat = np.array([[s * b for b in menu_bits] for s in layer_sizes], dtype=np.int64)
    limit = budget.limit_bits
    min_total = int(wmat[:, 0].sum())
    if min_total > limit:
        raise InfeasibleBudgetError(
            f"smallest model needs {min_total} bits, budget is {limit}")
    inc_pos = (0,) * num_layers
    inc_key = _exact_key(entries, menu_bits, wmat, inc_pos)
    root = tuple(tuple(range(nb)) for _ in range(num_layers))
    stack = [root]
    nodes = 0
    fw_total = 0
    # Bounds and cut see G + shift*I; every exact score stays on G.
    shift = _psd_shift(entries)
    bounded = entries + shift * np.eye(len(entries)) if shift > 0.0 else entries
    limited = False
    deadline = None if time_limit is None else time.monotonic() + float(time_limit)
    while stack:
        if nodes >= node_limit or (deadline is not None and time.monotonic() > deadline):
            limited = True
            break
        domains = stack.pop()
        nodes += 1
        node_min = sum(int(wmat[l, dom[0]]) for l, dom in enumerate(domains))
        if node_min > limit:
            continue
        product = 1
        for dom in domains:
            product *= len(dom)
        if product <= SUBCUBE_LIMIT:
            best = _enumerate_domains(entries, menu_bits, wmat, domains, limit)
            if best is not None and best[0] < inc_key:
                inc_key, inc_pos = best
            continue
        target = inc_key[0] + shift * num_layers
        cut = target + _PRUNE_SAFETY * max(1.0, abs(target))
        x, f, gap, iters, lb = _frank_wolfe(
            bounded, domains, wmat, limit, FW_TOL, FW_MAX_ITER, stop_lb=cut)
        fw_total += iters
        if lb >= cut:
            continue
        rounded = tuple(dom[int(np.argmax(x[l, list(dom)]))] for l, dom in enumerate(domains))
        if sum(int(wmat[l, p]) for l, p in enumerate(rounded)) <= limit:
            key = _exact_key(entries, menu_bits, wmat, rounded)
            if key < inc_key:
                inc_key, inc_pos = key, rounded
        fracs = [1.0 - float(np.max(x[l, list(dom)])) if len(dom) > 1 else -1.0
                 for l, dom in enumerate(domains)]
        branch_layer = int(np.argmax(fracs))
        children = sorted(domains[branch_layer],
                          key=lambda m: (-float(x[branch_layer, m]), m))
        for m in reversed(children):
            child = tuple((m,) if l == branch_layer else dom
                          for l, dom in enumerate(domains))
            stack.append(child)
    proved = not limited
    return SolveReport(method=method, status="optimal" if proved else "incumbent",
                       assignment=BitAssignment(inc_key[2]), objective=inc_key[0],
                       size_bits=inc_key[1], proved=proved, nodes=nodes,
                       fw_iterations=fw_total, shift=shift,
                       budget_bits=limit)


def solve_bnb(g, sizes=None, menu=None, budget=None, **options) -> SolveReport:
    """Exact branch-and-bound over one-hot assignments.

    The matrix need not be PSD: each solve computes once the diagonal
    shift that makes its bounds valid and reports it in ``shift`` (0.0 for
    a PSD matrix).  ``proved`` means neither the ``node_limit`` nor the
    ``time_limit`` option cut the search short.  Other option names raise
    ``TypeError``.
    """
    entries, layer_sizes, menu = _problem(g, sizes, menu)
    return _bnb_core(entries, layer_sizes, menu, _as_budget(budget), "full", **options)


def _mask_couplings(entries, group) -> np.ndarray:
    """Zero every entry whose row and column flat indices lie in different
    groups; masked entries become +0.0 whatever their sign."""
    return np.where(group[:, None] == group[None, :], entries, 0.0)


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
