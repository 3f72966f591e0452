"""Symmetric-matrix machinery: the Moore-Penrose inverse square root of
covariance matrices and its one rank rule."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["SymMatrix", "pinv_sqrt"]

_SYM_RTOL = 1e-10


@dataclass(frozen=True)
class SymMatrix:
    """A real symmetric d x d matrix.

    Input is checked for symmetry to relative tolerance 1e-10 and then
    symmetrized exactly, so downstream eigendecompositions always see
    (A + A') / 2.
    """

    entries: np.ndarray

    def __post_init__(self) -> None:
        a = np.asarray(self.entries, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {a.shape}")
        if a.shape[0] < 1:
            raise ValueError("matrix dimension must be positive")
        if not np.all(np.isfinite(a)):
            raise ValueError("matrix entries must be finite")
        scale = np.max(np.abs(a)) or 1.0
        if np.max(np.abs(a - a.T)) > _SYM_RTOL * scale:
            raise ValueError("matrix is not symmetric to 1e-10 relative tolerance")
        sym = 0.5 * (a + a.T)
        sym.flags.writeable = False
        object.__setattr__(self, "entries", sym)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


def _inverse_roots(w: np.ndarray, rank_tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Moore-Penrose inverse square roots of ascending eigenvalues, and ranks.

    ``w`` holds the eigenvalues of a stack of symmetric matrices, shape
    (..., d).  The one rank rule of the package: eigenvalues above
    ``rank_tol * max_eig`` map to lam**-0.5 and count towards the rank, the
    rest map to 0.  An eigenvalue below ``-rank_tol * max_eig`` (or below
    ``-rank_tol`` for a zero matrix) means the matrix is materially
    indefinite and is rejected.
    """
    floor = rank_tol * np.maximum(w[..., -1:], 0.0)
    bad = w[..., 0] < -np.maximum(floor[..., 0], rank_tol)
    if np.any(bad):
        raise ValueError(
            f"matrix is not positive semidefinite: min eigenvalue {w[..., 0][bad][0]:.3e}"
        )
    keep = w > floor
    inv_roots = np.where(keep, 1.0 / np.sqrt(np.maximum(w, 1e-300)), 0.0)
    return inv_roots, np.count_nonzero(keep, axis=-1)


def pinv_sqrt(a, rank_tol: float = 1e-10) -> SymMatrix:
    """Moore-Penrose inverse square root of a symmetric PSD matrix.

    Eigenvalues above ``rank_tol * max_eig`` map to lam**-0.5, the rest to 0,
    so singular directions are projected out.  Negative eigenvalues below
    ``-rank_tol * max_eig`` mean the input is materially indefinite and are
    rejected.
    """
    a = a if isinstance(a, SymMatrix) else SymMatrix(a)
    w, v = np.linalg.eigh(a.entries)
    inv_roots, _ = _inverse_roots(w, rank_tol)
    out = (v * inv_roots) @ v.T
    return SymMatrix(0.5 * (out + out.T))
