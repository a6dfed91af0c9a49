"""Reshaping between parameter tensors and their 2D matrix form.

A rank-4 tensor (K, C, H, W) flattens row-major to a K x CHW matrix; a
rank-2 tensor (K, C) takes the same path with H = W = 1.  Whenever
K < CHW the matrix is transposed so that the result always has at least
as many rows as columns, which is what the QR step downstream requires.
:func:`geometry` is the one place that reads K, CHW and that choice off a
shape, and that rejects any other rank.  :func:`check_finite` is the one
place that finds NaN or Inf in layer data, and blames the input or the
arithmetic for it.  :func:`row_blocks` walks a tensor of any rank in
blocks of whole rows (a K x CHW matrix's, for a layer), from an array or
from a checkpoint file.
:func:`layer_buffer` gives a layer's float64 copy a memory mapping of its
own, and :func:`largest_layer_buffer` one for every layer of a run, whose
pages past the layer in flight :func:`release_tail` gives back.
"""

from __future__ import annotations

import errno
import math
import mmap
from collections.abc import Iterable, Iterator

import numpy as np

from .errors import NumericalError, naming


def geometry(shape: tuple[int, ...]) -> tuple[int, int, bool]:
    """(K, CHW, transposed) of a rank-2/4 tensor of ``shape``: its K x CHW
    matrix, and whether the matrix is used transposed (K < CHW).  Any
    other rank raises NumericalError ("expected rank 2 or 4 tensor")."""
    if len(shape) not in (2, 4):
        raise NumericalError(f"expected rank 2 or 4 tensor, got rank {len(shape)}")
    k, chw = shape[0], math.prod(shape[1:])
    return k, chw, k < chw


# Values per row block, also per block of the noise: 512 KiB of float64,
# which stays in cache across a block's passes.
_ROW_VALUES = 1 << 16


def row_step(k: int, row: int) -> int:
    """Rows per :func:`row_blocks` block of k rows of ``row`` values (a
    K x CHW matrix: row = CHW): about 64K values, at least one row and at
    most k."""
    return min(max(1, _ROW_VALUES // row), k)


def row_blocks(w) -> Iterator[tuple[int, np.ndarray]]:
    """(r0, rows r0 .. r0 + :func:`row_step` of w) for each block of w's
    rows, in order, each block shaped (rows, values per row).  The rows
    are w's first-axis slices, of any rank: for a rank-2/4 tensor, the
    rows of its K x CHW matrix.  ``w`` is an array, whose blocks are
    views where its layout allows, or a row source: anything with
    ``shape`` and ``read(r0, r1)``, such as
    :class:`~ghnpost.checkpoint_io.TensorRows`, whose blocks are valid
    until the next read."""
    k, row = w.shape[0], math.prod(w.shape[1:])
    step = row_step(k, row)
    for r0 in range(0, k, step):
        r1 = min(r0 + step, k)
        rows = w[r0:r1] if isinstance(w, np.ndarray) else w.read(r0, r1)
        yield r0, rows.reshape(r1 - r0, row)


# A private mapping where mmap can ask for one: the default, a shared one,
# keeps a page's memory after MADV_DONTNEED, as shared memory.
_PRIVATE = ({"flags": mmap.MAP_PRIVATE | mmap.MAP_ANONYMOUS}
            if hasattr(mmap, "MAP_PRIVATE") else {})


def layer_buffer(size: int) -> np.ndarray:
    """An uninitialized float64 array of ``size`` elements on an anonymous
    mapping of its own, unmapped when the array is freed: its pages go
    back to the OS whichever thread frees it, where a malloc block would
    stay in that thread's arena, or in the heap once glibc has raised its
    mmap threshold to a freed layer's size.  A mapping the OS refuses
    raises MemoryError."""
    nbytes = 8 * size
    try:
        mapping = mmap.mmap(-1, max(1, nbytes), **_PRIVATE)
    except (OSError, OverflowError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map {nbytes} bytes for the float64 layer buffer") from exc
    return np.frombuffer(mapping, np.float64, size)


def largest_layer_buffer(metas: Iterable) -> np.ndarray | None:
    """One :func:`layer_buffer` the size of the largest of the tensors
    ``metas`` (the first of equals), or None if there are none: made once
    per run and reused for every layer's float64 channels, since a fresh
    mapping per layer costs page faults.  Only the layer in flight need
    be resident: :func:`release_tail` gives back the pages past it.  A
    buffer that cannot be mapped raises OutOfMemory naming that tensor."""
    largest = max(metas, key=lambda meta: math.prod(meta.shape), default=None)
    if largest is None:
        return None
    with naming(largest.name):
        return layer_buffer(math.prod(largest.shape))


def release_tail(buf: np.ndarray, size: int) -> None:
    """Give the OS back the pages of ``buf``, an array as
    :func:`layer_buffer` returns it, that lie past the page boundary
    after its first ``size`` elements; they read as zeros when next
    touched.  Does nothing where ``mmap`` has no ``MADV_DONTNEED``."""
    start = -(-8 * size // mmap.PAGESIZE) * mmap.PAGESIZE
    if hasattr(mmap, "MADV_DONTNEED") and start < buf.nbytes:
        buf.base.obj.madvise(mmap.MADV_DONTNEED, start, buf.nbytes - start)


def check_finite(out: np.ndarray, source: np.ndarray | None = None) -> None:
    """Raise NumericalError if ``out`` holds NaN or Inf: "tensor holds NaN
    or Inf values" when ``source``, the values out was made from, holds
    one too, "output would hold NaN or Inf values" (an overflow)
    otherwise.  source is read only then."""
    if not np.isfinite(out).all():
        held = source is not None and not np.isfinite(source).all()
        raise NumericalError("tensor holds NaN or Inf values" if held
                             else "output would hold NaN or Inf values")
