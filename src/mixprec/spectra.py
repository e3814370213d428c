"""Symmetric eigendecomposition and projection onto the PSD cone.

The eigensolver is LAPACK's, through ``numpy.linalg.eigh``, wrapped in
a fixed order and sign convention so the decomposition is a pure
function of the input.  Projection zeroes every non-positive eigenvalue
and rebuilds the matrix, which is the Frobenius-nearest
positive-semidefinite matrix (Higham, Linear Algebra Appl. 103, 1988).

``_require_symmetric`` is the one symmetry check; here and in
``import-matrix`` it accepts ``max|a - a'| <= SYMMETRY_TOL * max(1, max|a|)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EigenDecomposition", "eigh", "psd_project", "SYMMETRY_TOL"]

# Inputs may carry round-off asymmetry up to this bound times max(1, max|a|);
# anything larger is a caller error rather than silently averaged away.
SYMMETRY_TOL = 1e-12
_SYMMETRY_ROWS = 64  # rows compared with their columns at a time


@dataclass(frozen=True, eq=False)
class EigenDecomposition:
    """Eigenvalues in descending order with orthonormal column eigenvectors.

    Decompositions compare and hash by identity, as their arrays cannot
    be compared with ``==``.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def reconstruct(self) -> np.ndarray:
        v = self.eigenvectors
        return (v * self.eigenvalues) @ v.T


def _require_finite(a: np.ndarray, what: str) -> None:
    """Reject NaN and infinite values, naming the first one in row-major order."""
    # A finite sum proves every entry finite; one that overflows is scanned.
    if math.isfinite(np.add.reduce(a, axis=None)):
        return
    bad = np.argwhere(~np.isfinite(a))
    if bad.size:
        where = tuple(int(i) for i in bad[0])
        raise ValueError(f"{what} holds a non-finite value {a[where]} "
                         f"at ({', '.join(map(str, where))})")


def _require_symmetric(a, what: str, side: int | None = None, *,
                       exact: bool = False) -> np.ndarray:
    """``a`` as float64 once it is square, of ``side`` rows (any non-empty
    side for ``None``), finite, and symmetric: exactly, or else within
    ``SYMMETRY_TOL * max(1, max|a|)``.  Errors name ``what``."""
    a = np.asarray(a, dtype=np.float64)
    if side is None:
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not a.size:
            raise ValueError(f"{what}: expected a non-empty square matrix, got shape {a.shape}")
    elif a.shape != (side, side):
        raise ValueError(f"{what}: expected shape {(side, side)}, got {a.shape}")
    _require_finite(a, what)
    # A stripe of rows from the diagonal on against its columns: each pair
    # is compared once, and no temporary holds more than a stripe.
    gap = 0.0
    for start in range(0, len(a), _SYMMETRY_ROWS):
        end = start + _SYMMETRY_ROWS
        rows, cols = a[start:end, start:], a[start:, start:end].T
        if not exact:
            diff = rows - cols
            gap = max(gap, np.abs(diff, out=diff).max())
        elif not (rows == cols).all():
            raise ValueError(f"{what} must be exactly symmetric")
    if gap > SYMMETRY_TOL and gap > SYMMETRY_TOL * max(1.0, a.max(), -a.min()):
        raise ValueError(f"{what} is not symmetric within {SYMMETRY_TOL:g} * max(1, max|a|)")
    return a


def _symmetric_mean(a) -> np.ndarray:
    """``(a + a') / 2`` of a matrix ``_require_symmetric`` accepts within
    tolerance, so LAPACK, which reads one triangle, sees the mean."""
    a = _require_symmetric(a, "matrix")
    return 0.5 * (a + a.T)


def eigh(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues come back sorted descending.  Each eigenvector is signed so
    that its largest-magnitude component is positive, which makes the
    decomposition a pure function of the input.
    """
    values, vectors = np.linalg.eigh(_symmetric_mean(a))
    # LAPACK returns ascending eigenvalues; flip to descending.
    values, vectors = values[::-1], vectors[:, ::-1]
    lead = vectors[np.argmax(np.abs(vectors), axis=0), np.arange(len(values))]
    vectors = vectors * np.where(lead < 0, -1.0, 1.0)
    return EigenDecomposition(eigenvalues=values, eigenvectors=vectors)


def psd_project(a) -> np.ndarray:
    """Frobenius-nearest PSD matrix: drop every eigenvalue that is not > 0."""
    dec = eigh(a)
    kept = np.where(dec.eigenvalues > 0.0, dec.eigenvalues, 0.0)
    v = dec.eigenvectors
    out = (v * kept) @ v.T
    return 0.5 * (out + out.T)


def _psd_shift(a) -> float:
    """Diagonal shift ``s`` that makes ``a + s*I`` positive semidefinite.

    The solver's round-off net: it checks a matrix that is PSD in exact
    arithmetic, so the answer is normally 0.0.  That is returned when the
    smallest eigenvalue of ``a`` is at least ``-1e-12 * max(1, largest)``,
    far above the round-off psd_project leaves; otherwise minus that
    eigenvalue, which lifts it to zero and so keeps the tolerance as margin
    against round-off.
    """
    values = np.linalg.eigvalsh(_symmetric_mean(a))
    low = float(values[0])
    return -low if low < -1e-12 * max(1.0, float(values[-1])) else 0.0
