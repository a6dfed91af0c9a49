"""Channel-wise Pearson correlation statistics.

A "channel" is row k of the K x CHW view of a rank-2/4 weight tensor.
All accumulation runs in float64 regardless of storage dtype, so that
correlations of near-identical channels stay stable.

The correlation matrix is symmetric with a unit diagonal, so it is kept
as its strict upper triangle packed row-major: the vector every
statistic here consumes.  It is computed row panel by row panel out of
one K x K Gram buffer, so the elementwise passes run on cache-sized
blocks instead of K x K temporaries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelTooShort, NonFiniteTensor, TooFewChannels, UnsupportedRank

# Rows per panel of the Gram matrix, and columns per tile when a panel's
# mirror (the transposed column panel) is copied in: wide enough that each
# Gram row hands over whole cache lines, small enough that the panel-sized
# work buffers stay in a core's L2 cache at K in the thousands.
_PANEL_ROWS = 32
_TILE = 64

# Exactly collinear channels compute as +-1 give or take a few ulp
# (numerator and denominator round the same sum differently).  Entries
# within this distance of +-1 are snapped to it, so identical channels
# yield a constant distribution with std exactly 0, which the no-noise
# degenerate contract relies on.
_SNAP = 64.0 * np.finfo(np.float64).eps


class CorrelationMatrix:
    """Symmetric K x K Pearson correlation between output channels.

    Built either from a full matrix (``CorrelationMatrix(values=m)``) or
    from its packed strict upper triangle (``upper=``, ``k=``), which is
    what :func:`channel_correlation` produces.  ``values`` is the K x K
    float64 matrix, entries in [-1, 1] with a unit diagonal; for a packed
    matrix it is built anew on each access.
    """

    def __init__(
        self,
        values: np.ndarray | None = None,
        *,
        upper: np.ndarray | None = None,
        k: int | None = None,
    ):
        if (values is None) == (upper is None):
            raise TypeError("give exactly one of values or upper")
        if values is not None:
            values = np.asarray(values)
            k = values.shape[0]
        elif upper.shape != (k * (k - 1) // 2,):
            raise ValueError(f"a packed k={k} matrix holds {k * (k - 1) // 2} values")
        self._values = values
        self._upper = upper
        self.k = k

    @property
    def values(self) -> np.ndarray:
        if self._values is not None:
            return self._values
        r = np.empty((self.k, self.k), dtype=np.float64)
        iu = np.triu_indices(self.k, k=1)
        r[iu] = self._upper
        r.T[iu] = self._upper
        np.fill_diagonal(r, 1.0)
        return r

    @property
    def upper(self) -> np.ndarray:
        """Strict upper triangle, row-major (read-only for a packed matrix)."""
        if self._values is not None:
            return self._values[np.triu_indices(self.k, k=1)]
        return self._upper


@dataclass
class Histogram:
    bin_edges: np.ndarray  # len bins + 1, spanning [-1, 1]
    counts: np.ndarray  # len bins, non-negative ints


def channel_correlation(w: np.ndarray) -> CorrelationMatrix:
    """Pearson correlation between the K channels of a rank-2/4 tensor.

    Zero-variance channels correlate 0 with everything off-diagonal; the
    diagonal is 1 by convention, so downstream noise scaling stays finite.
    A tensor holding NaN or Inf raises NonFiniteTensor: it has no finite
    correlation.
    """
    if w.ndim not in (2, 4):
        raise UnsupportedRank(f"expected rank 2 or 4 tensor, got rank {w.ndim}")
    k = w.shape[0]
    chw = math.prod(w.shape[1:])
    if chw < 2:
        raise ChannelTooShort(f"channels have {chw} elements, need at least 2")
    xc = w.reshape(k, chw).astype(np.float64)
    # A NaN or Inf in a channel makes its norm NaN or Inf (so would float64
    # values whose squares overflow, which float32 data cannot reach).
    with np.errstate(invalid="ignore", over="ignore"):
        xc -= xc.mean(axis=1, keepdims=True)
        norms = np.sqrt(np.sum(xc * xc, axis=1))
    if not np.isfinite(norms).all():
        raise NonFiniteTensor("tensor holds NaN or Inf values")
    dead = norms == 0.0
    safe = np.where(dead, 1.0, norms)
    gram = xc @ xc.T
    del xc

    upper = np.empty(k * (k - 1) // 2, dtype=np.float64)
    rows = min(_PANEL_ROWS, k)
    block = np.empty(rows * k)
    mirror = np.empty(rows * k)
    mask = np.empty(rows * k, dtype=bool)
    pos = 0
    for i0 in range(0, k, rows):
        i1 = min(i0 + rows, k)
        shape = (i1 - i0, k - i0)
        n = shape[0] * shape[1]
        r, rt = block[:n].reshape(shape), mirror[:n].reshape(shape)
        near = mask[:n].reshape(shape)
        # r = G / (s s^T) and its transpose, dead channels zeroed, then
        # averaged: numpy hands xc @ xc.T to syrk, whose Gram is exactly
        # symmetric, so the average only guards other BLAS routines.
        np.multiply(safe[i0:i1, None], safe[None, i0:], out=r)
        for j0 in range(i0, k, _TILE):
            rt[:, j0 - i0 : j0 - i0 + _TILE] = gram[j0 : j0 + _TILE, i0:i1].T
        np.divide(rt, r, out=rt)
        np.divide(gram[i0:i1, i0:], r, out=r)
        if dead[i0:].any():
            for half in (r, rt):
                half[dead[i0:i1], :] = 0.0
                half[:, dead[i0:]] = 0.0
        np.add(r, rt, out=r)
        np.multiply(r, 0.5, out=r)
        # Snap |r - 1| <= _SNAP to 1, then clip to [-1, 1].  r - 1 is exact
        # for r in [0.5, 2], so together this is: r >= 1 - _SNAP becomes 1
        # (and r <= -1 + _SNAP becomes -1).
        np.greater_equal(r, 1.0 - _SNAP, out=near)
        np.copyto(r, 1.0, where=near)
        np.less_equal(r, -1.0 + _SNAP, out=near)
        np.copyto(r, -1.0, where=near)
        # Row i of the panel holds columns i0 .. k-1; keep those right of i.
        for row in range(shape[0]):
            count = shape[1] - row - 1
            upper[pos : pos + count] = r[row, row + 1 :]
            pos += count
    upper.flags.writeable = False
    return CorrelationMatrix(upper=upper, k=k)


def offdiagonal_values(r: CorrelationMatrix) -> np.ndarray:
    """Upper-triangle off-diagonal entries, row-major order."""
    return r.upper


def correlation_std(r: CorrelationMatrix) -> float:
    """Population standard deviation of the off-diagonal correlations.

    The diagonal is constant 1 and carries no information, so it is
    excluded.  Requires at least two channels.
    """
    if r.k < 2:
        raise TooFewChannels(f"need k >= 2 channels, got {r.k}")
    return float(np.std(offdiagonal_values(r)))


def correlation_histogram(r: CorrelationMatrix, bins: int) -> Histogram:
    """Equal-width histogram of the off-diagonal correlations over [-1, 1].

    Values exactly 1.0 land in the last bin; entries a hair outside the
    range from rounding are clipped so every off-diagonal entry is counted.
    """
    if r.k < 2:
        raise TooFewChannels(f"need k >= 2 channels, got {r.k}")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    vals = np.clip(offdiagonal_values(r), -1.0, 1.0)
    counts, edges = np.histogram(vals, bins=bins, range=(-1.0, 1.0))
    return Histogram(bin_edges=edges, counts=counts)
