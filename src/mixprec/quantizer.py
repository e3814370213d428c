"""Uniform symmetric quantization with MSE-calibrated scale factors.

A weight vector is mapped onto the signed integer grid
``{-2**(bits-1), ..., 2**(bits-1) - 1}`` stretched by a positive step
size.  The step size is picked per tensor from a fixed candidate grid
by minimizing the mean squared error against the float weights, so the
whole pipeline stays deterministic and backprop-free.

A layer of at least 32 weights per level is screened before it is scored.
The screen sorts the weights once, takes their prefix sums, and gets
every candidate's sum of squared errors from one ``searchsorted`` of its
rounding edges, together with a proven bound on how far that sum can be
from the exact score.  Only the candidates that can still be the minimum
(usually one) are then scored exactly, by the same code that scores a
smaller layer's whole grid, and in grid order.  The chosen scale is
therefore the whole grid's, ties included, by construction rather than
by test; smaller layers skip the screen, whose fixed cost they would not
repay.

A 3-weight layer scores the whole grid in about 26 us a call at 2 to 8
bits (one BLAS thread), most of it numpy's fixed per-call cost.  The grid
is therefore built by hand, from the IEEE operations ``np.geomspace``
runs, and scored with the sum and the one division behind ``np.mean``,
without either wrapper; both match the numpy calls byte for byte.  A grid
that would leave the float64 range raises ``ValueError``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .spectra import _require_finite

__all__ = [
    "LayerSpec",
    "quantize",
    "calibrate_scale_mse",
    "perturbation",
]

# Candidate step sizes scan this relative span around max|w| / 2**(bits-1).
SCALE_SPAN_LO = 0.01
SCALE_SPAN_HI = 1.2
SCALE_CANDIDATES = 200
# Candidate x weight elements scored at once, bounding calibration memory.
_CALIBRATE_CHUNK = 2 ** 20
# The grid's exponents, as np.geomspace's linspace builds them.
_STEPS = np.arange(float(SCALE_CANDIDATES))


def _immutable(a) -> np.ndarray:
    """``a`` itself when it is a float64 array viewing, at any depth, a
    ``bytes`` object, else such a copy of its values.

    numpy will not make an array over ``bytes``, or any view of one,
    writable again, so no name can ever change its values.  Every array a
    layer, oracle, model or matrix keeps is made so by this one rule.
    """
    base = a
    while isinstance(base, np.ndarray):
        base = base.base
    if isinstance(base, bytes) and a.dtype == np.float64:
        return a
    a = np.asarray(a, dtype=np.float64)
    return np.frombuffer(a.tobytes(), dtype=np.float64).reshape(a.shape)


@dataclass(frozen=True, eq=False)
class LayerSpec:
    """A named flat weight vector; the unit of bit-width assignment.

    The weights are immutable, as ``_immutable`` makes them: an array that
    already views a ``bytes`` object is kept, any other is copied into one,
    so no name, not even a view made before the layer, can change them.
    Layers compare and hash by identity, as their weight arrays cannot be
    compared with ``==``.
    """

    name: str
    weights: np.ndarray

    def __post_init__(self):
        w = _immutable(np.ravel(self.weights))
        _require_finite(w, f"layer {self.name!r}")
        self._take(w)

    @classmethod
    def _of_checked(cls, name: str, weights: np.ndarray) -> "LayerSpec":
        """A layer over ``weights``, a flat immutable float64 array whose
        values the caller has already checked finite."""
        layer = object.__new__(cls)
        object.__setattr__(layer, "name", name)
        layer._take(weights)
        return layer

    def _take(self, w: np.ndarray) -> None:
        if w.size < 1:
            raise ValueError(f"layer {self.name!r} has no weights")
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return int(self.weights.size)


def _bit_widths(bits) -> list[int]:
    """``bits`` as ints, in order; a width that is not a whole number of at
    least 2 raises ``ValueError``."""
    values = []
    for b in bits:
        if not -math.inf < b < math.inf or int(b) != b:
            raise ValueError(f"bit-widths must be integers, got {b!r}")
        values.append(int(b))
    for b in values:  # a loop, as any() over a generator costs 3x for one width
        if b < 2:
            raise ValueError(f"bit-widths must be >= 2, got {values}")
    return values


def _check_bits_scale(bits: int, scale: float) -> None:
    _bit_widths([bits])
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")


def quantize(w, bits: int, scale: float) -> np.ndarray:
    """Map ``w`` to the nearest representable values at the given step size.

    The result is, byte for byte, ``np.clip(np.round(w / scale), lo, hi) *
    scale`` with ``lo, hi = -2**(bits-1), 2**(bits-1) - 1``, computed in one
    buffer by the ufuncs behind those calls, without their wrappers.
    """
    _check_bits_scale(bits, scale)
    w = np.asarray(w, dtype=np.float64)
    return _quantize_into(np.empty(w.shape), w, scale, bits)


def _quantize_into(out: np.ndarray, w: np.ndarray, scale, bits: int) -> np.ndarray:
    """Write ``quantize``'s map of ``w`` at ``scale``, a scalar or a column, into ``out``."""
    np.divide(w, scale, out=out)
    # np.rint is round-half-to-even, which keeps results platform-stable.
    np.rint(out, out=out)
    # Clipping to nonzero integer bounds: the bytes np.clip gives, NaN included.
    np.maximum(out, -(2 ** (bits - 1)), out=out)
    np.minimum(out, 2 ** (bits - 1) - 1, out=out)
    np.multiply(out, scale, out=out)
    return out


def _candidate_scales(amax: float, bits: int) -> np.ndarray:
    """The scale grid: ``np.geomspace(lo, hi, 200)`` around ``base = amax /
    2**(bits-1)``, then both min-max conventions.

    The geometric part runs the IEEE operations ``np.geomspace`` runs for a
    positive start and stop, so it matches it byte for byte without the
    wrapper's argument handling: about 7 us a call instead of 40.  A grid
    whose smallest step rounds to zero, or whose width has more levels
    than a float64 holds, raises ``ValueError``.
    """
    try:
        base = amax / 2 ** (bits - 1)
        top = amax / (2 ** (bits - 1) - 1)
    except OverflowError:  # 2**(bits-1) is beyond float64
        base = 0.0
    lo, hi = SCALE_SPAN_LO * base, SCALE_SPAN_HI * base
    if not lo > 0.0:
        raise ValueError(
            f"cannot calibrate a width of {bits} bits for max|w| = {amax!r}: "
            "its candidate scales lie outside the float64 range")
    a, b = np.log10(lo), np.log10(hi)
    cands = np.empty(SCALE_CANDIDATES + 2)
    grid = np.multiply(_STEPS, (b - a) / (SCALE_CANDIDATES - 1), out=cands[:SCALE_CANDIDATES])
    grid += a
    grid[-1] = b
    np.power(10.0, grid, out=grid)
    grid[0], grid[-1] = lo, hi
    # Both min-max conventions are appended so neither clipping the top
    # code away nor using the full signed range is ever outside the search.
    cands[SCALE_CANDIDATES:] = base, top
    return cands


def _exact_mse(w: np.ndarray, cands: np.ndarray, bits: int) -> np.ndarray:
    """``mean((quantize(w, bits, c) - w) ** 2)`` for every candidate ``c``."""
    rows = min(len(cands), max(1, _CALIBRATE_CHUNK // w.size))
    # Every chunk is scored in place in one buffer, by quantize's own map.
    # The mean is the sum and the one division np.mean runs for float64.  A
    # row's mean depends only on that row, so any subset of the candidates
    # scores exactly as it does inside the full grid.
    buf = np.empty((rows, w.size))
    mse = np.empty(len(cands))
    # Candidates far below max|w| / 2**(bits-1) can overflow in the divide
    # or the square; their score is then inf, which the minimum passes over.
    with np.errstate(over="ignore"):
        for start in range(0, len(cands), rows):
            c = cands[start:start + rows, None]
            q = _quantize_into(buf[:len(c)], w, c, bits)
            np.subtract(q, w, out=q)
            np.square(q, out=q)
            np.add.reduce(q, axis=1, out=mse[start:start + len(c)])
    mse /= w.size
    return mse


def _screen(xs: np.ndarray, cands: np.ndarray, bits: int):
    """Approximate error sums of every candidate step, with proven bounds.

    ``xs`` is the weight vector sorted ascending.  Returns ``(approx,
    bound)`` with ``|approx - n * _exact_mse(xs, cands, bits)| <= bound``
    in exact arithmetic for every candidate, provided ``n < 2**33`` and
    every nonzero ``|x|`` lies in ``[2**-400, 2**200]``, so that nothing
    here or in the exact scorer overflows or underflows.

    The sum.  For a step ``c``, levels ``k = lo..hi`` and the rounding edge
    ``t_k = (k + 1/2) c`` between levels ``k`` and ``k + 1``, a weight
    errs at ``k`` by ``(x - kc)^2 = (x - (k+1)c)^2 + 2c (x - t_k)``.  Start
    every weight at the top level and move it down across each edge above
    it:

        SSE(c) = S2 + n (hi c)^2 - 2 hi c S1 + 2c sum_k (P[e_k] - t_k e_k)

    with ``S1 = sum x``, ``S2 = sum x^2``, ``P`` the prefix sums of ``xs``
    and ``e_k`` the number of weights below ``t_k`` (one ``searchsorted``).
    This is ``sum_k [(kc)^2 n_k - 2kc s1_k + s2_k]`` over the clipped
    levels, summed by parts, so it needs no prefix sums of ``x^2``.

    The bound, with ``u = 2**-53``, ``K = 2**bits`` levels, ``M = max|P|``
    as computed and ``R`` the exact scorer's sum in real arithmetic:

    * Prefix sums.  A sum of ``j`` terms in any order errs by at most
      ``(j-1) u sum|x|`` (Higham, *Accuracy and Stability of Numerical
      Algorithms*, 2nd ed., eq. 4.3), and ``sum|x| = S1 - 2 P[#negatives]
      <= 3M`` up to that error, so each ``P[e]`` and ``S1`` errs by at most
      ``3 n u M``.  ``S1`` enters times ``2 hi c`` and each ``P[e_k]`` times
      ``2c``: ``6 c (hi + K) n u M`` in all.  ``S2`` is a dot product:
      ``n u S2``.
    * Everything else.  No term passes through more than ``K + 6``
      roundings (products, the gather difference, the sum over ``K - 1``
      edges, the final additions), so they err by at most
      ``(K + 6) u T`` with ``T = S2 + n (hi c)^2 + 2 hi c |S1| +
      2c ((K-1) M + |lo| c sum_k e_k)`` bounding their magnitudes.  Using
      the rounded edge ``fl(t_k)`` for ``t_k`` adds at most ``u T``.
    * Edges.  The screen puts a weight below ``t_k`` when ``x < fl(t_k)``,
      the exact scorer when ``round(fl(x / c)) <= k``.  They can disagree
      only where ``|x - t_k| <= 2u |t_k|``, and there the two neighbouring
      levels' errors differ by ``2c |x - t_k| <= 4u c max|x|``: at most
      ``4 n u c max|x|`` over all weights.
    * The exact scorer.  With ``v = qc - x``, ``fl(fl(qc) - x)`` errs by at
      most ``u ((2+u)|v| + (1+u)|x|)`` and its rounded square by
      ``5u v^2 + 2u |x||v|`` to first order; the mean's sum adds
      ``(n-1) u`` of its total and the division ``u``.  By Cauchy-Schwarz
      and ``2 sqrt(ab) <= a + b``, ``|n * mean - R| <= (n + 7) u R +
      u S2``, and ``R`` is at most ``approx`` plus the three bounds above.

    Those are first-order bounds: each drops factors ``1 + O(n u)`` and
    products of two rounding errors.  With ``n u < 2**-20`` these add less
    than ``2**-19`` of the total, so doubling the sum covers them and the
    rounding of the bound's own arithmetic.
    """
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1) - 1
    n = xs.size
    levels = 2 ** bits
    u = 2.0 ** -53
    prefix = np.empty(n + 1)
    prefix[0] = 0.0
    np.cumsum(xs, out=prefix[1:])
    total = prefix[-1]
    peak = max(prefix.max(), -prefix.min())
    s2 = float(xs @ xs)
    half = np.arange(lo, hi) + 0.5
    gain = np.empty(len(cands))
    crossed = np.empty(len(cands))
    # The candidate x edge table goes in chunks whose temporaries together
    # stay within one scoring buffer; up to 8 bits that is a single chunk.
    rows = max(1, _CALIBRATE_CHUNK // 8 // levels)
    for start in range(0, len(cands), rows):
        edges = cands[start:start + rows, None] * half
        below = np.searchsorted(xs, edges)
        gain[start:start + rows] = (prefix[below] - edges * below).sum(axis=1)
        crossed[start:start + rows] = below.sum(axis=1)
    approx = s2 + cands * (n * hi * hi * cands - 2.0 * hi * total + 2.0 * gain)
    magnitude = s2 + cands * (2.0 * (hi * abs(total) + (levels - 1) * peak)
                              + cands * (n * hi * hi - 2.0 * lo * crossed))
    first = u * (n * s2 + (levels + 7) * magnitude
                 + cands * n * (6.0 * (hi + levels) * peak + 4.0 * max(-xs[0], xs[-1])))
    scorer = (n + 7) * u
    return approx, 2.0 * ((1.0 + scorer) * first + scorer * np.maximum(approx, 0.0) + u * s2)


def _survivors(w: np.ndarray, cands: np.ndarray, bits: int) -> np.ndarray:
    """The candidates whose exact score can still be the grid's minimum.

    Each candidate's exact score lies within ``bound`` of the screen's
    ``approx``, so one whose lowest possible score exceeds some candidate's
    highest possible score cannot win.  The survivors keep their grid order,
    so the exact scorer's first minimum among them is the full grid's.
    """
    xs = np.sort(w)
    small = slice(*np.searchsorted(xs, (-(2.0 ** -400), 2.0 ** -400)))
    # Beyond these magnitudes the screen's bound does not hold (see _screen).
    if max(-xs[0], xs[-1]) > 2.0 ** 200 or np.any(xs[small]):
        return cands
    approx, bound = _screen(xs, cands, bits)
    return cands[approx - bound <= np.min(approx + bound)]


def calibrate_scale_mse(w, bits: int) -> float:
    """Return the candidate scale minimizing ``||w - quantize(w, bits, s)||^2``.

    The search is a fixed deterministic grid, so the result depends only on
    the weight values and the bit-width.  An all-zero vector is represented
    exactly by every grid, so it calibrates to the sentinel scale 1.0.
    NaN and infinite weights raise ``ValueError``, and so do a grid that
    leaves the float64 range and squared errors that all overflow it.

    Large layers are screened first (``_screen``): a proven bound on each
    candidate's error sum drops every candidate that cannot be the minimum,
    and only the rest are scored exactly, so the chosen scale is the one
    the full grid picks, ties included.
    """
    _check_bits_scale(bits, 1.0)
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size == 0:
        raise ValueError("cannot calibrate an empty vector")
    amax = float(np.maximum.reduce(np.abs(w)))
    if not math.isfinite(amax):
        _require_finite(w, "weights")
    if amax == 0.0:
        return 1.0
    cands = _candidate_scales(amax, bits)
    # The screen pays once a layer holds 32 weights per level (measured on
    # normal weights, one BLAS thread): below that its sort and its
    # 202 x (2**bits - 1) edge table cost more than scoring every candidate.
    if w.size >= 32 * 2 ** bits:
        cands = _survivors(w, cands, bits)
    mse = _exact_mse(w, cands, bits)
    best = mse.argmin()
    if not math.isfinite(mse[best]):
        raise ValueError(
            f"cannot calibrate a width of {bits} bits for max|w| = {amax!r}: "
            "every candidate scale's squared error overflows float64")
    return float(cands[best])


def perturbation(layer, bits: int) -> np.ndarray:
    """Quantization error ``quantize(w, bits, s*) - w`` at the calibrated scale."""
    if isinstance(layer, LayerSpec):
        w = layer.weights
    else:
        w = np.asarray(layer, dtype=np.float64).ravel()
    # calibrate_scale_mse has checked the width: quantize's map, unchecked.
    delta = _quantize_into(np.empty(w.shape), w, calibrate_scale_mse(w, bits), bits)
    delta -= w
    return delta
