"""Normalization and truncated SVD kernels.

Dense matrices are plain float64 ``numpy.ndarray`` values throughout.
The SVD takes the leading eigenpairs of the Gram matrix ``m.T @ m``,
which is only (columns x columns), and recovers the left-singular
vectors as ``m @ v / s``; one deterministic path serves every shape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class SvdResult:
    """Leading singular triplets of a matrix ``m ~= u_d @ diag(s) @ v_d.T``.

    ``u_d`` and ``v_d`` have orthonormal columns; ``singular_values``
    are sorted in non-increasing order.  Column signs are fixed so that
    the largest-magnitude entry of each ``u_d`` column is positive, and
    ``v_d`` takes the same flips.
    """

    u_d: np.ndarray
    singular_values: np.ndarray
    v_d: np.ndarray


def normalize_rows(m: np.ndarray) -> np.ndarray:
    """Scale each row to unit L2 norm; all-zero rows are left unchanged."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=1, keepdims=True)
    return m / np.where(norms == 0.0, 1.0, norms)


def normalize_columns(m: np.ndarray) -> np.ndarray:
    """Scale each column to unit L2 norm; all-zero columns are left unchanged."""
    m = np.asarray(m, dtype=np.float64)
    norms = np.linalg.norm(m, axis=0, keepdims=True)
    return m / np.where(norms == 0.0, 1.0, norms)


def _column_signs(u: np.ndarray) -> np.ndarray:
    # SVD sign is arbitrary; pin each column for determinism.
    lead = np.argmax(np.abs(u), axis=0)
    signs = np.sign(u[lead, np.arange(u.shape[1])])
    signs[signs == 0] = 1.0
    return signs


def truncated_svd(m: np.ndarray, d: int) -> SvdResult:
    """Leading ``d`` singular vectors and values of ``m``.

    Raises ``ValueError`` when ``d`` exceeds the numerical rank of
    ``m`` (the trailing singular vectors would then be arbitrary) or
    when the Gram product overflows.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got shape {m.shape}")
    rows, cols = m.shape
    if not 1 <= d <= min(rows, cols):
        raise ValueError(f"d={d} out of range for a {rows}x{cols} matrix")
    with np.errstate(over="ignore", invalid="ignore"):
        gram = m.T @ m
    if not np.isfinite(gram).all():
        raise ValueError(f"the Gram matrix of the {rows}x{cols} matrix is not finite")
    eigvals, eigvecs = np.linalg.eigh(gram)
    eigvals, eigvecs = eigvals[::-1], eigvecs[:, ::-1]
    # Eigenvalues below this are rounding noise of the Gram product.
    tol = eigvals[0] * max(rows, cols) * np.finfo(np.float64).eps
    rank = int(np.count_nonzero(eigvals > tol))
    if d > rank:
        raise ValueError(f"d={d} exceeds the rank {rank} of the {rows}x{cols} matrix")
    s, v = np.sqrt(eigvals[:d]), eigvecs[:, :d]
    u = (m @ v) / s
    signs = _column_signs(u)
    return SvdResult(u_d=u * signs, singular_values=s, v_d=v * signs)
