"""Dense linear algebra: thin QR with sign correction, and PCA.

Both factorizations are numpy's LAPACK bindings (Householder QR via
``geqrf``/``orgqr``, the symmetric eigensolver behind ``eigh``) and run
in float64; this module adds the shape checks, the sign conventions and
the descending eigenvalue order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, ShapeError


@dataclass
class PcaResult:
    components: np.ndarray  # k x d, orthonormal rows
    projected: np.ndarray  # n x k
    explained_variance: np.ndarray  # k, non-negative, non-increasing
    mean: np.ndarray  # d


def _as_matrix(a: np.ndarray) -> np.ndarray:
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeError(f"expected a non-empty 2D matrix, got shape {a.shape}")
    return a


def qr_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR via Householder reflections (LAPACK).

    Requires rows >= cols.  Returns q (rows x cols, orthonormal columns)
    and r (cols x cols, upper-triangular).  Diagonal entries of r may be
    negative; see :func:`sign_adjust`.
    """
    a = _as_matrix(a)
    m, n = a.shape
    if m < n:
        raise ShapeError(f"thin QR needs rows >= cols, got {m} x {n}")
    return np.linalg.qr(a)


def sign_adjust(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Multiply each column j of q by sign(r_jj), with sign(0) := +1.

    Treating a zero diagonal as +1 keeps the columns orthonormal even for
    rank-deficient input instead of zeroing them out.
    """
    q = _as_matrix(q)
    r = _as_matrix(r)
    if r.shape[0] != r.shape[1] or q.shape[1] != r.shape[0]:
        raise ShapeError(
            f"expected q cols == r rows == r cols, got q {q.shape}, r {r.shape}"
        )
    signs = np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return q * signs[np.newaxis, :]


def eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise ShapeError(f"expected a square matrix, got {a.shape}")
    evals, evecs = np.linalg.eigh(a)
    order = np.argsort(-evals, kind="stable")
    return evals[order], np.ascontiguousarray(evecs[:, order])


def pca_project(x: np.ndarray, k: int) -> PcaResult:
    """Project n x d samples onto the top-k principal directions.

    Uses the sample covariance (1/(n-1)); components follow a fixed sign
    convention (largest-magnitude entry positive) so results are
    deterministic.
    """
    x = _as_matrix(x)
    n, d = x.shape
    if n < 2:
        raise DegenerateInput(f"need at least 2 samples, got {n}")
    if not 1 <= k <= min(n - 1, d):
        raise DegenerateInput(
            f"k must satisfy 1 <= k <= min(n-1, d) = {min(n - 1, d)}, got {k}"
        )
    mean = x.mean(axis=0)
    xc = x - mean
    cov = (xc.T @ xc) / (n - 1)
    evals, evecs = eigh_descending(cov)
    evals = np.maximum(evals, 0.0)
    components = np.ascontiguousarray(evecs[:, :k].T)
    for row in components:
        if row[np.argmax(np.abs(row))] < 0.0:
            row *= -1.0
    return PcaResult(
        components=components,
        projected=xc @ components.T,
        explained_variance=evals[:k].copy(),
        mean=mean,
    )
