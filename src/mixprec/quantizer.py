"""Uniform symmetric quantization with MSE-calibrated scale factors.

A weight vector is mapped onto the signed integer grid
``{-2**(bits-1), ..., 2**(bits-1) - 1}`` stretched by a positive step
size.  The step size is picked per tensor from a fixed candidate grid
by minimizing the mean squared error against the float weights, so the
whole pipeline stays deterministic and backprop-free.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


@dataclass(frozen=True)
class LayerSpec:
    """A named flat weight vector; the unit of bit-width assignment."""

    name: str
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=np.float64).ravel()
        if w.size < 1:
            raise ValueError(f"layer {self.name!r} has no weights")
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def count(self) -> int:
        return int(self.weights.size)


def _check_bits_scale(bits: int, scale: float) -> None:
    if int(bits) != bits or bits < 2:
        raise ValueError(f"bits must be an integer >= 2, got {bits!r}")
    if not scale > 0:
        raise ValueError(f"scale must be positive, got {scale!r}")


def quantize(w, bits: int, scale: float) -> np.ndarray:
    """Map ``w`` to the nearest representable values at the given step size."""
    _check_bits_scale(bits, scale)
    w = np.asarray(w, dtype=np.float64)
    # np.round is round-half-to-even, which keeps results platform-stable.
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1) - 1
    return np.clip(np.round(w / scale), lo, hi) * scale


def _candidate_scales(amax: float, bits: int) -> np.ndarray:
    base = amax / 2 ** (bits - 1)
    grid = np.geomspace(SCALE_SPAN_LO * base, SCALE_SPAN_HI * base, SCALE_CANDIDATES)
    # Both min-max conventions are appended so neither clipping the top
    # code away nor using the full signed range is ever outside the search.
    return np.concatenate([grid, [base, amax / (2 ** (bits - 1) - 1)]])


def calibrate_scale_mse(w, bits: int) -> float:
    """Return the candidate scale minimizing ``||w - quantize(w, bits, s)||^2``.

    The search is a fixed deterministic grid, so the result depends only on
    the weight values and the bit-width.  An all-zero vector is represented
    exactly by every grid, so it calibrates to the sentinel scale 1.0.
    """
    _check_bits_scale(bits, 1.0)
    w = np.asarray(w, dtype=np.float64).ravel()
    if w.size == 0:
        raise ValueError("cannot calibrate an empty vector")
    amax = float(np.max(np.abs(w)))
    if amax == 0.0:
        return 1.0
    cands = _candidate_scales(amax, bits)
    lo = -(2 ** (bits - 1))
    hi = 2 ** (bits - 1) - 1
    rows = min(len(cands), max(1, _CALIBRATE_CHUNK // w.size))
    # Every chunk is scored in place in one buffer: the same IEEE operations
    # on the same contiguous rows as the expression
    # mean((clip(round(w / c), lo, hi) * c - w) ** 2), without its temporaries.
    buf = np.empty((rows, w.size))
    mse = np.empty(len(cands))
    for start in range(0, len(cands), rows):
        c = cands[start:start + rows, None]
        q = buf[:len(c)]
        np.divide(w, c, out=q)
        np.round(q, out=q)
        np.clip(q, lo, hi, out=q)
        np.multiply(q, c, out=q)
        np.subtract(q, w, out=q)
        np.square(q, out=q)
        mse[start:start + rows] = np.mean(q, axis=1)
    return float(cands[int(np.argmin(mse))])


def perturbation(layer, bits: int) -> np.ndarray:
    """Quantization error ``quantize(w, bits, s*) - w`` at the calibrated scale."""
    if isinstance(layer, LayerSpec):
        w = layer.weights
    else:
        w = np.asarray(layer, dtype=np.float64).ravel()
    scale = calibrate_scale_mse(w, bits)
    return quantize(w, bits, scale) - w
