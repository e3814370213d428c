"""Symmetric eigendecomposition and projection onto the PSD cone.

The eigensolver is LAPACK's, through ``numpy.linalg.eigh``, wrapped in
a fixed order and sign convention so the decomposition is a pure
function of the input.  Projection zeroes every non-positive eigenvalue
and rebuilds the matrix, which is the Frobenius-nearest
positive-semidefinite matrix (Higham, Linear Algebra Appl. 103, 1988).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["EigenDecomposition", "eigh", "psd_project", "SYMMETRY_TOL"]

# Inputs may carry round-off asymmetry up to this bound; anything larger
# is treated as a caller error rather than silently averaged away.
SYMMETRY_TOL = 1e-12


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


def _require_symmetric(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {a.shape}")
    if a.shape[0] == 0:
        raise ValueError("expected a non-empty matrix")
    _require_finite(a, "matrix")
    if np.max(np.abs(a - a.T), initial=0.0) > SYMMETRY_TOL:
        raise ValueError("matrix is not symmetric within tolerance")
    # Absorb round-off so LAPACK, which reads one triangle, sees the mean.
    return 0.5 * (a + a.T)


def eigh(a) -> EigenDecomposition:
    """Eigendecomposition of a symmetric matrix.

    Eigenvalues come back sorted descending.  Each eigenvector is signed so
    that its largest-magnitude component is positive, which makes the
    decomposition a pure function of the input.
    """
    values, vectors = np.linalg.eigh(_require_symmetric(a))
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
    values = np.linalg.eigvalsh(_require_symmetric(a))
    low = float(values[0])
    return -low if low < -1e-12 * max(1.0, float(values[-1])) else 0.0
