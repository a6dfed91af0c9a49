"""Channel-wise Pearson correlation statistics.

A "channel" is row k of the K x CHW view of a rank-2/4 weight tensor.
All accumulation runs in float64 regardless of storage dtype, so that
correlations of near-identical channels stay stable.

:func:`correlation_stats` computes everything the command line reports
(sigma_r, mean |r| and the histogram) in one pass over row panels of the
Gram matrix, ``xc[i0:i1] @ xc[i0:].T``: each panel is normalized into
correlations, folded into running moments and histogram counts, and
dropped, so no K x K or K(K-1)/2 array ever exists.  Panel moments are
merged with the pairwise update of Chan, Golub & LeVeque, "Updating
formulae and a pairwise algorithm for computing sample variances"
(1979), in coordinates shifted by the first panel's mean: near-duplicate
layers have every r within 1e-7 of 1, and unshifted sums would lose the
digits of their spread.

:func:`channel_correlation` builds the whole matrix from one Gram and the
same normalization; it is a library and test-oracle type, not used by
the command line.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelTooShort, NonFiniteTensor, TooFewChannels, UnsupportedRank

# Gram rows per panel.  Each panel's GEMM reads all channels below the
# panel again, so short panels cost memory traffic when CHW > K: with 32
# rows a 1000 x 2048 layer ran 30% slower than one full Gram, with 128 it
# runs faster (2 cores, OpenBLAS).  The two panel buffers then take
# 2 MiB per 1024 channels.
_PANEL_ROWS = 128

# Exactly collinear channels compute as +-1 give or take a few ulp
# (numerator and denominator round the same sum differently).  Entries
# within this distance of +-1 are snapped to it, so identical channels
# yield a constant distribution with std exactly 0, which the no-noise
# degenerate contract relies on.
_SNAP = 64.0 * np.finfo(np.float64).eps


class CorrelationMatrix:
    """Symmetric K x K Pearson correlation between output channels.

    ``values`` is the K x K float64 matrix, entries in [-1, 1] with a unit
    diagonal.
    """

    def __init__(self, values: np.ndarray):
        self.values = np.asarray(values)
        self.k = self.values.shape[0]

    @property
    def upper(self) -> np.ndarray:
        """Strict upper triangle, row-major, as a read-only copy."""
        upper = self.values[np.triu_indices(self.k, k=1)]
        upper.flags.writeable = False
        return upper


@dataclass
class Histogram:
    bin_edges: np.ndarray  # len bins + 1, spanning [-1, 1]
    counts: np.ndarray  # len bins, non-negative ints


@dataclass(frozen=True)
class CorrelationStats:
    """Summary of the K(K-1)/2 off-diagonal correlations of one tensor."""

    sigma_r: float  # population standard deviation
    mean_abs: float  # mean |r|
    histogram: Histogram | None  # None unless bins were asked for


def _centered(w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-centered float64 channels, their safe norms and the dead mask.

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
    norms = np.empty(k)
    # A NaN or Inf in a channel makes its norm NaN or Inf (so would float64
    # values whose squares overflow, which float32 data cannot reach).
    with np.errstate(invalid="ignore", over="ignore"):
        xc -= xc.mean(axis=1, keepdims=True)
        # Each row sums on its own, so panels of rows give the same norms
        # as one K x CHW square, without the K x CHW temporary.
        for i0 in range(0, k, _PANEL_ROWS):
            rows = xc[i0 : i0 + _PANEL_ROWS]
            np.sqrt(np.sum(rows * rows, axis=1), out=norms[i0 : i0 + _PANEL_ROWS])
    if not np.isfinite(norms).all():
        raise NonFiniteTensor("tensor holds NaN or Inf values")
    dead = norms == 0.0
    return xc, np.where(dead, 1.0, norms), dead


def _normalize(g: np.ndarray, rows: slice, cols: slice, safe: np.ndarray,
               dead: np.ndarray, scratch: np.ndarray) -> None:
    """Turn the Gram block ``g`` = G[rows, cols] into correlations in place.

    r = G / (s_i s_j), dead channels zeroed, and entries within _SNAP of
    +-1 snapped to it.  r - 1 is exact near 1, so setting ``r >= 1 - _SNAP``
    to 1 snaps ``|r - 1| <= _SNAP`` and clips r > 1 in one step (likewise
    at -1).  ``scratch`` is a float64 buffer of g's shape.
    """
    np.multiply(safe[rows, None], safe[None, cols], out=scratch)
    np.divide(g, scratch, out=g)
    if dead[rows].any() or dead[cols].any():
        g[dead[rows], :] = 0.0
        g[:, dead[cols]] = 0.0
    np.copyto(g, 1.0, where=g >= 1.0 - _SNAP)
    np.copyto(g, -1.0, where=g <= -1.0 + _SNAP)


def channel_correlation(w: np.ndarray) -> CorrelationMatrix:
    """Pearson correlation between the K channels of a rank-2/4 tensor.

    Zero-variance channels correlate 0 with everything off-diagonal; the
    diagonal is 1 by convention.  A tensor holding NaN or Inf raises
    NonFiniteTensor.  Holds the K x K matrix; for its statistics alone use
    :func:`correlation_stats`.
    """
    xc, safe, dead = _centered(w)
    k = xc.shape[0]
    r = xc @ xc.T  # numpy hands this to syrk: exactly symmetric
    del xc
    scratch = np.empty((min(_PANEL_ROWS, k), k))
    for i0 in range(0, k, _PANEL_ROWS):
        rows = slice(i0, min(i0 + _PANEL_ROWS, k))
        _normalize(r[rows], rows, slice(None), safe, dead, scratch[: rows.stop - i0])
    np.fill_diagonal(r, 1.0)
    return CorrelationMatrix(r)


class _Fold:
    """Running count, shifted mean, M2, sum |r| and histogram counts."""

    def __init__(self, bins: int | None):
        self.bins = bins
        self.counts = None if bins is None else np.zeros(bins, dtype=np.intp)
        self.edges = None
        self.n = 0
        self.shift = self.mean = self.m2 = self.abs_sum = 0.0

    def add(self, v: np.ndarray, tmp: np.ndarray) -> None:
        """Fold the values v in; tmp is float64 scratch of v's length."""
        if self.bins is not None:
            counts, self.edges = np.histogram(v, bins=self.bins, range=(-1.0, 1.0))
            self.counts += counts
        nb = len(v)
        if self.n == 0:
            self.shift = float(np.sum(v)) / nb
        np.abs(v, out=tmp)
        self.abs_sum += float(np.sum(tmp))
        # Two-pass moments of this panel about the shift ...
        np.subtract(v, self.shift, out=tmp)
        mean_b = float(np.sum(tmp)) / nb
        np.subtract(tmp, mean_b, out=tmp)
        np.multiply(tmp, tmp, out=tmp)
        m2_b = float(np.sum(tmp))
        # ... merged into the running ones (Chan, Golub & LeVeque).
        n = self.n + nb
        delta = mean_b - self.mean
        self.mean += delta * nb / n
        self.m2 += m2_b + delta * delta * (self.n * nb / n)
        self.n = n

    def result(self) -> CorrelationStats:
        hist = None if self.bins is None else Histogram(self.edges, self.counts)
        return CorrelationStats(
            sigma_r=math.sqrt(self.m2 / self.n),
            mean_abs=self.abs_sum / self.n,
            histogram=hist,
        )


def correlation_stats(w: np.ndarray, bins: int | None = None) -> CorrelationStats:
    """sigma_r, mean |r| and (with ``bins``) the histogram of a tensor's
    off-diagonal channel correlations, holding only the float64 channels
    and two ``_PANEL_ROWS x K`` buffers.

    Each Gram panel is normalized as in :func:`channel_correlation`,
    its strict upper triangle packed and folded in, and the panel reused.
    Needs at least two channels.
    """
    if bins is not None and bins < 1:
        raise ValueError("bins must be >= 1")
    xc, safe, dead = _centered(w)
    k = xc.shape[0]
    if k < 2:
        raise TooFewChannels(f"need k >= 2 channels, got {k}")
    size = min(_PANEL_ROWS, k) * k
    panel, scratch = np.empty(size), np.empty(size)
    fold = _Fold(bins)
    for i0 in range(0, k, _PANEL_ROWS):
        rows = slice(i0, min(i0 + _PANEL_ROWS, k))
        shape = (rows.stop - i0, k - i0)
        g = panel[: shape[0] * shape[1]].reshape(shape)
        np.matmul(xc[rows], xc[i0:].T, out=g)
        _normalize(g, rows, slice(i0, k), safe, dead, scratch[: g.size].reshape(shape))
        # Row i of the panel holds columns i0 .. k-1; pack those right of i
        # into the scratch buffer, free again after normalizing, and fold
        # them in with the panel buffer as workspace.
        pos = 0
        for row in range(shape[0]):
            count = shape[1] - row - 1
            scratch[pos : pos + count] = g[row, row + 1 :]
            pos += count
        if pos:
            fold.add(scratch[:pos], panel[:pos])
    return fold.result()


def offdiagonal_values(r: CorrelationMatrix) -> np.ndarray:
    """Upper-triangle off-diagonal entries, row-major order."""
    return r.upper


def correlation_std(r: CorrelationMatrix) -> float:
    """Population standard deviation of the off-diagonal correlations.

    The diagonal is constant 1 and carries no information, so it is
    excluded.  Computed with the same shifted two-pass moments as
    :func:`correlation_stats`.  Requires at least two channels.
    """
    if r.k < 2:
        raise TooFewChannels(f"need k >= 2 channels, got {r.k}")
    fold = _Fold(None)
    upper = r.upper
    fold.add(upper, np.empty_like(upper))
    return fold.result().sigma_r


def correlation_histogram(r: CorrelationMatrix, bins: int) -> Histogram:
    """Equal-width histogram of the off-diagonal correlations over [-1, 1].

    Values exactly 1.0 land in the last bin.  Entries a hair outside the
    range from rounding (possible in a user-supplied matrix) are clipped,
    so every off-diagonal entry is counted.
    """
    if r.k < 2:
        raise TooFewChannels(f"need k >= 2 channels, got {r.k}")
    if bins < 1:
        raise ValueError("bins must be >= 1")
    vals = np.clip(offdiagonal_values(r), -1.0, 1.0)
    counts, edges = np.histogram(vals, bins=bins, range=(-1.0, 1.0))
    return Histogram(bin_edges=edges, counts=counts)
