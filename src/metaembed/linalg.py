"""Normalization, truncated SVD and Gram solve kernels.

Dense matrices are plain float64 ``numpy.ndarray`` values throughout.
The SVD takes the leading eigenpairs of the smaller Gram matrix,
``m.T @ m`` (columns x columns) or ``m @ m.T`` (rows x rows), and
recovers the other side's singular vectors as ``m @ v / s`` or
``m.T @ u / s``; the path depends only on the shape, so it is
deterministic.  It and ``min_norm_solve`` drop Gram eigenvalues at or
below the rounding noise, largest eigenvalue * rows summed * eps; the
solve uses LU unless a Cholesky factorization finds one, then ``eigh``.
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
    return normalize_rows(np.asarray(m).T).T


def _noise(largest: float, rows: int) -> float:
    """Rounding noise of a Gram matrix of ``rows`` rows whose largest eigenvalue is ``largest``."""
    return largest * rows * np.finfo(np.float64).eps


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
    wide = rows < cols
    short = m.T if wide else m  # short.T @ short is the smaller Gram matrix
    with np.errstate(over="ignore", invalid="ignore"):
        gram = short.T @ short
    if not np.isfinite(gram).all():
        raise ValueError(f"the Gram matrix of the {rows}x{cols} matrix is not finite")
    eigvals, eigvecs = np.linalg.eigh(gram)  # ascending
    rank = int(np.count_nonzero(eigvals > _noise(eigvals[-1], max(rows, cols))))
    if d > rank:
        raise ValueError(f"d={d} exceeds the rank {rank} of the {rows}x{cols} matrix")
    s, w = np.sqrt(eigvals[::-1][:d]), eigvecs[:, ::-1][:, :d]
    u, v = (w, (short @ w) / s) if wide else ((short @ w) / s, w)
    signs = _column_signs(u)
    return SvdResult(u_d=u * signs, singular_values=s, v_d=v * signs)


def min_norm_solve(gram: np.ndarray, rhs: np.ndarray, rows: int, shift: float = 0.0) -> np.ndarray:
    """Minimum-norm rows ``x`` of ``x @ (gram + shift * I) = rhs``, ``gram``
    being the Gram matrix of ``rows`` rows: one LU solve once a Cholesky
    factorization of ``gram`` less the noise of its trace (which bounds the
    largest eigenvalue) succeeds, else ``eigh`` without the eigenvalues at
    the noise.  An infinite ``shift`` gives 0, the ridge limit."""
    if shift == np.inf:
        return np.zeros_like(rhs)
    try:
        np.linalg.cholesky(gram - _noise(np.trace(gram), rows) * np.eye(len(gram)))
    except np.linalg.LinAlgError:
        eigvals, eigvecs = np.linalg.eigh(gram)
        keep = eigvals > _noise(eigvals[-1], rows)
        v = eigvecs[:, keep]
        return (rhs @ v / (eigvals[keep] + shift)) @ v.T
    return np.linalg.solve(gram + shift * np.eye(len(gram)), rhs.T).T
