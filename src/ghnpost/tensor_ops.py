"""Reshaping between parameter tensors and their 2D matrix form.

A rank-4 tensor (K, C, H, W) flattens row-major to a K x CHW matrix; a
rank-2 tensor (K, C) takes the same path with H = W = 1.  Whenever
K < CHW the matrix is transposed so that the result always has at least
as many rows as columns, which is what the QR step downstream requires.
:func:`geometry` is the one place that reads K, CHW and that choice off a
shape, and that rejects any other rank.  :func:`check_finite` is the one
place that finds NaN or Inf in layer data, and blames the input or the
arithmetic for it.  :func:`row_blocks` walks a K x CHW matrix in blocks
of whole rows, from an array or from a checkpoint file.
"""

from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteTensor, UnsupportedRank


@dataclass
class Matricized:
    """2D view of a parameter tensor plus the bookkeeping to undo it."""

    data: np.ndarray  # 2D, row-major
    transposed: bool
    original_shape: tuple[int, ...]

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def geometry(shape: tuple[int, ...]) -> tuple[int, int, bool]:
    """(K, CHW, transposed) of a rank-2/4 tensor of ``shape``: its K x CHW
    matrix, and whether the matrix is used transposed (K < CHW).  Raises
    UnsupportedRank for any other rank."""
    if len(shape) not in (2, 4):
        raise UnsupportedRank(f"expected rank 2 or 4 tensor, got rank {len(shape)}")
    k, chw = shape[0], math.prod(shape[1:])
    return k, chw, k < chw


# Values per row block, also per block of the noise and of the histogram
# counter: 512 KiB of float64, which stays in cache across a block's passes.
_ROW_VALUES = 1 << 16


def row_step(k: int, chw: int) -> int:
    """Rows per :func:`row_blocks` block of a K x CHW matrix: about 64K
    values, at least one row and at most K."""
    return min(max(1, _ROW_VALUES // chw), k)


def row_blocks(w) -> Iterator[tuple[int, np.ndarray]]:
    """(r0, rows r0 .. r0 + :func:`row_step` of w's K x CHW matrix) for
    each block, in order.  ``w`` is a rank-2/4 array, whose blocks are
    views, or a row source: anything with ``shape`` and ``read(r0, r1)``,
    such as :class:`~ghnpost.checkpoint_io.TensorRows`, whose blocks are
    valid until the next read."""
    k, chw, _ = geometry(w.shape)
    step = row_step(k, chw)
    if isinstance(w, np.ndarray):
        mat = w.reshape(k, chw)
        for r0 in range(0, k, step):
            yield r0, mat[r0 : r0 + step]
    else:
        for r0 in range(0, k, step):
            r1 = min(r0 + step, k)
            yield r0, w.read(r0, r1).reshape(r1 - r0, chw)


def check_finite(out: np.ndarray, source: np.ndarray | None = None) -> None:
    """Raise NonFiniteTensor if ``out`` holds NaN or Inf: "tensor holds"
    when ``source``, the values out was made from, holds one too, "output
    would hold" (an overflow) otherwise.  source is read only then."""
    if not np.isfinite(out).all():
        held = source is not None and not np.isfinite(source).all()
        raise NonFiniteTensor("tensor holds NaN or Inf values" if held
                              else "output would hold NaN or Inf values")


def matricize(w: np.ndarray) -> Matricized:
    """Reshape a rank-2/4 tensor to K x CHW, transposing if K < CHW.

    Raises UnsupportedRank for any other rank.  The value multiset and
    dtype are preserved exactly; ``dematricize`` is its exact inverse.
    """
    k, chw, transposed = geometry(w.shape)
    mat = np.ascontiguousarray(w.reshape(k, chw))
    if transposed:
        mat = np.ascontiguousarray(mat.T)
    return Matricized(data=mat, transposed=transposed, original_shape=tuple(w.shape))


def dematricize(m: Matricized) -> np.ndarray:
    """Invert :func:`matricize`, restoring the original shape bit-exactly."""
    mat = m.data
    if m.transposed:
        mat = mat.T
    return np.ascontiguousarray(mat.reshape(m.original_shape))
