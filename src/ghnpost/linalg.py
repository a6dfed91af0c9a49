"""Dense linear algebra: thin QR with sign correction, and PCA.

Both factorizations are LAPACK and run in float64.  The QR is Householder
``dgeqrf`` + ``dorgqr`` run in place on the caller's Fortran-ordered
array, called through numpy's bundled OpenBLAS with ctypes, which releases
the GIL, on one BLAS thread, or through ``numpy.linalg.lapack_lite`` where
that library is not found.  A caller that must keep its input takes
``np.linalg.qr``, which copies it and, on one BLAS thread, gives the same
bytes.  ``eigh`` is numpy's.  This module adds the shape checks, the sign
conventions and the descending eigenvalue order.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from numpy.linalg import lapack_lite

from .errors import NumericalError


@dataclass
class PcaResult:
    components: np.ndarray  # k x d, orthonormal rows
    projected: np.ndarray  # n x k
    explained_variance: np.ndarray  # k, non-negative, non-increasing
    mean: np.ndarray  # d


def _as_matrix(a: np.ndarray) -> np.ndarray:
    return _check_matrix(np.ascontiguousarray(a, dtype=np.float64))


def _check_matrix(a: np.ndarray) -> np.ndarray:
    """``a``, once it is checked to be a non-empty 2D array."""
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise NumericalError(f"expected a non-empty 2D matrix, got shape {a.shape}")
    return a


@functools.cache
def _openblas() -> ctypes.CDLL | None:
    """numpy's bundled ILP64 OpenBLAS, or None where it is not found.

    Loaded on the first QR, not at import.  Its LAPACK routines take every
    argument by reference, integers as 64 bits.
    """
    if not lapack_lite._ilp64:
        return None
    package = Path(np.__file__).parent
    pattern = "libscipy_openblas64_*"
    for path in sorted([*package.parent.glob(f"numpy.libs/{pattern}"),
                        *package.glob(f".dylibs/{pattern}")]):
        try:
            lib = ctypes.CDLL(str(path))
            geqrf, orgqr = lib.scipy_dgeqrf_64_, lib.scipy_dorgqr_64_
            get_threads = lib.scipy_openblas_get_num_threads64_
            set_threads = lib.scipy_openblas_set_num_threads64_
        except (OSError, AttributeError):
            continue
        geqrf.argtypes, geqrf.restype = [ctypes.c_void_p] * 8, None
        orgqr.argtypes, orgqr.restype = [ctypes.c_void_p] * 9, None
        get_threads.argtypes, get_threads.restype = [], ctypes.c_int
        set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
        return lib
    return None


def gil_free_qr() -> bool:
    """Whether :func:`qr_decompose` releases the GIL while LAPACK runs."""
    return _openblas() is not None


@contextlib.contextmanager
def one_blas_thread() -> Iterator[None]:
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    previous thread count.  A no-op where the library is not found."""
    lib = _openblas()
    if lib is None:
        yield
        return
    previous = lib.scipy_openblas_get_num_threads64_()
    lib.scipy_openblas_set_num_threads64_(1)
    try:
        yield
    finally:
        lib.scipy_openblas_set_num_threads64_(previous)


def _call(routine: str, dims: tuple[int, ...], a: np.ndarray, tau: np.ndarray,
          work: np.ndarray, lwork: int) -> None:
    """One ``dgeqrf(m, n, a, m, tau, ...)`` or ``dorgqr(m, n, k, a, m, tau, ...)``
    call on the Fortran-ordered float64 m x n array ``a``."""
    lib = _openblas()
    if lib is None:
        # lapack_lite wants C-contiguous arrays: a.T is that view of a's memory.
        fn = getattr(lapack_lite, routine)
        info = fn(*dims, a.T, a.shape[0], tau, work, lwork, 0)["info"]
    else:
        def ref(value):
            return ctypes.byref(ctypes.c_int64(value))

        status = ctypes.c_int64(0)
        getattr(lib, f"scipy_{routine}_64_")(
            *map(ref, dims), a.ctypes.data, ref(a.shape[0]), tau.ctypes.data,
            work.ctypes.data, ref(lwork), ctypes.byref(status))
        info = status.value
    if info != 0:
        raise RuntimeError(f"{routine} rejected argument {-info}")


def _in_place(routine: str, dims: tuple[int, ...], a: np.ndarray, tau: np.ndarray) -> None:
    """Run ``routine`` on ``a`` after the workspace query numpy's own QR
    makes, lwork = max(1, n, optimal), so the blocking and thus the bytes
    match ``np.linalg.qr``."""
    query = np.zeros(1)
    _call(routine, dims, a, tau, query, -1)
    lwork = max(1, dims[1], int(query[0]))
    _call(routine, dims, a, tau, np.empty(lwork), lwork)


def qr_decompose(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Thin QR via Householder reflections (LAPACK), in place.

    ``a`` (rows >= cols) must be a writeable Fortran-ordered float64 array:
    it is overwritten with Q (orthonormal columns) and returned with R's
    diagonal (length cols), read before LAPACK overwrites R to form Q, so
    the working set is ``a`` and the LAPACK workspace.  Diagonal entries
    may be negative; the caller corrects Q's column signs by them.  Q and
    the diagonal are ``np.linalg.qr``'s bytes on one BLAS thread.
    """
    a = _check_matrix(np.asarray(a))
    m, n = a.shape
    if m < n:
        raise NumericalError(f"thin QR needs rows >= cols, got {m} x {n}")
    if a.dtype != np.float64 or not (a.flags.f_contiguous and a.flags.writeable):
        raise ValueError("qr_decompose needs a writeable Fortran-ordered float64 array")
    tau = np.empty(n)
    # Threaded OpenBLAS splits some of the QR's sums by thread count, and
    # so rounds them differently: on one thread, Q's bytes do not depend
    # on the caller's count.
    with one_blas_thread():
        _in_place("dgeqrf", (m, n), a, tau)
        diag = a.diagonal().copy()
        _in_place("dorgqr", (m, n, n), a, tau)
    return a, diag


def eigh_descending(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending."""
    a = _as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NumericalError(f"expected a square matrix, got {a.shape}")
    evals, evecs = np.linalg.eigh(a)
    order = np.argsort(-evals, kind="stable")
    return evals[order], np.ascontiguousarray(evecs[:, order])


def pca_project(x: np.ndarray, k: int) -> PcaResult:
    """Project n x d samples onto the top-k principal directions.

    Uses the sample covariance (1/(n-1)); components follow a fixed sign
    convention (largest-magnitude entry positive) so results are
    deterministic.  Fewer than 2 samples ("need at least 2 samples"), a
    ``k`` out of range ("k must satisfy") and a covariance that is not
    finite (NaN or Inf samples, or samples large enough to overflow it:
    "the sample covariance is not finite") raise NumericalError.
    """
    x = _as_matrix(x)
    n, d = x.shape
    if n < 2:
        raise NumericalError(f"need at least 2 samples, got {n}")
    if not 1 <= k <= min(n - 1, d):
        raise NumericalError(
            f"k must satisfy 1 <= k <= min(n-1, d) = {min(n - 1, d)}, got {k}"
        )
    # Samples near float64's max overflow here; the check below reports it.
    with np.errstate(over="ignore", invalid="ignore"):
        mean = x.mean(axis=0)
        xc = x - mean
        cov = (xc.T @ xc) / (n - 1)
    if not np.isfinite(cov).all():
        raise NumericalError("the sample covariance is not finite")
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
