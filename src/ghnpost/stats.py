"""Channel-wise Pearson correlation statistics: sigma_r, the spread of a
layer's channel-correlation distribution that scales the repair's noise,
and the mean |r| and histogram that ``analyze`` reports.

A "channel" is row k of the K x CHW view of a rank-2/4 weight tensor.
All accumulation runs in float64 regardless of storage dtype, so that
correlations of near-identical channels stay stable.  The channels come
from an array or, a block of rows at a time, from a checkpoint file;
either way they are copied once, into float64.

No K x K or K(K-1)/2 array is built for the command line: the statistics
are folded from row panels of the Gram matrix, and the panel moments
merged with the pairwise update of Chan, Golub & LeVeque, "Updating
formulae and a pairwise algorithm for computing sample variances" (1979),
in coordinates shifted by the first panel's mean.  Near-duplicate layers
have every r within 1e-7 of 1, and unshifted sums would lose the digits
of their spread.  The histogram counts are ``np.histogram``'s over
[-1, 1].  A tall layer's (K > CHW) sigma_r alone comes from the smaller
CHW x CHW Gram, within about 1e-10 relative of the fold; ``analyze``
prints the fold's value.  The whole correlation matrix is here too, as a
library and test oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ChannelTooShort, TooFewChannels
from .tensor_ops import _ROW_VALUES, check_finite, geometry, row_blocks, row_step

# Gram rows per panel: each panel's GEMM rereads the channels below it, so
# shorter panels cost time and longer ones memory (CHANGES.md).
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


def _centered(w, work: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-centered float64 channels, their safe norms and the dead mask.

    ``w`` is a rank-2/4 array or a row source (see
    :func:`~ghnpost.tensor_ops.row_blocks`): its channels are copied a
    block of rows at a time, from views of the array or from the source's
    float32 buffer, so a source's layer is never whole in float32.  They
    go to a new array, or into ``work``, a contiguous float64 buffer of
    w's size.  A tensor holding NaN or Inf raises NonFiniteTensor
    (:func:`~ghnpost.tensor_ops.check_finite` on each block's norms
    against its rows): it has no finite correlation.
    """
    k, chw, _ = geometry(w.shape)
    if chw < 2:
        raise ChannelTooShort(f"channels have {chw} elements, need at least 2")
    xc = np.empty((k, chw)) if work is None else work.reshape(k, chw)
    norms = np.empty(k)
    # Each row is centered and reduced on its own, so blocks of rows give
    # the bits of whole-array passes, with each block still in cache:
    # about 64K values a block (one row where a row is longer), squared
    # into one reused buffer.
    squares = np.empty((row_step(k, chw), chw))
    # A NaN or Inf in a channel makes its squared norm NaN or Inf (so do
    # float64 values whose squares overflow, blamed on the overflow;
    # float32 squares cannot overflow).
    with np.errstate(invalid="ignore", over="ignore"):
        for r0, src in row_blocks(w):
            r1 = r0 + len(src)
            rows = xc[r0:r1]
            np.copyto(rows, src)
            rows -= rows.mean(axis=1, keepdims=True)
            sq = squares[: r1 - r0]
            np.multiply(rows, rows, out=sq)
            np.sum(sq, axis=1, out=norms[r0:r1])
            check_finite(norms[r0:r1], src)
        np.sqrt(norms, out=norms)
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
    """Running count, shifted mean, M2, sum |r| and histogram counts of the
    correlations of ``k`` channels; raises TooFewChannels for k < 2, and
    ValueError for ``bins`` < 1.

    Every value folded in must lie in [-1, 1], as the correlations of
    :func:`_normalize` do (:func:`correlation_histogram` clips a user's
    matrix first): the bin counter has no range mask.
    """

    def __init__(self, k: int, bins: int | None):
        if k < 2:
            raise TooFewChannels(f"need k >= 2 channels, got {k}")
        if bins is not None and bins < 1:
            raise ValueError("bins must be >= 1")
        self.bins = bins
        self.counts = self.edges = None
        if bins is not None:
            self.counts = np.zeros(bins, dtype=np.intp)
            # np.histogram's own edges for range=(-1, 1), byte for byte.
            self.edges = np.linspace(-1.0, 1.0, bins + 1)
            self._blocks = (np.empty(_ROW_VALUES), np.empty(_ROW_VALUES),
                            np.empty(_ROW_VALUES, dtype=np.intp),
                            np.empty(_ROW_VALUES, dtype=bool))
        self.n = 0
        self.shift = self.mean = self.m2 = self.abs_sum = 0.0

    def add(self, v: np.ndarray, tmp: np.ndarray) -> None:
        """Fold the values v in; tmp is float64 scratch of v's length."""
        if self.bins is not None:
            # A step of the bin counter stays in cache across its passes.
            for start in range(0, len(v), _ROW_VALUES):
                self._count(v[start : start + _ROW_VALUES])
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

    def _count(self, r: np.ndarray) -> None:
        """Add the bin counts of at most _ROW_VALUES values r to ``counts``, as
        ``np.histogram(r, bins, range=(-1, 1))`` counts them: bin i holds
        edges[i] <= r < edges[i + 1], the last bin r = 1 too.

        f = r * bins/2 + (bins/2 + tol) is r's place among the bins
        shifted up by tol = bins * 2^-40, and is off from where the edges
        put r by a few ulp of ``bins``, far less than tol.  So trunc(f) is
        r's bin, or the bin above where f lies less than 2 tol above an
        integer; only those few values are rechecked against the edges.
        (That needs tol < 1/4, so bins < 2^38.)  Only r in the last bin
        get f past bins - 1/2 (r = 1 gives f = bins): f is capped there.
        """
        bins = self.bins
        f, t, idx, near = (buf[: len(r)] for buf in self._blocks)
        tol = bins * 2.0**-40
        np.multiply(r, 0.5 * bins, out=f)
        np.add(f, 0.5 * bins + tol, out=f)
        np.minimum(f, bins - 0.5, out=f)
        np.trunc(f, out=t)
        np.copyto(idx, t, casting="unsafe")
        np.subtract(f, t, out=f)
        np.less(f, 2.0 * tol, out=near)
        if near.any():
            at = np.flatnonzero(near)
            idx[at] -= r[at] < self.edges[idx[at]]
        self.counts += np.bincount(idx, minlength=bins)

    def result(self) -> CorrelationStats:
        hist = None if self.bins is None else Histogram(self.edges, self.counts)
        return CorrelationStats(
            sigma_r=math.sqrt(self.m2 / self.n),
            mean_abs=self.abs_sum / self.n,
            histogram=hist,
        )


def correlation_stats(w, bins: int | None = None) -> CorrelationStats:
    """sigma_r, mean |r| and (with ``bins``) the histogram of a tensor's
    off-diagonal channel correlations, holding only the float64 channels
    and two ``_PANEL_ROWS x K`` buffers.  ``w`` is an array or a row
    source, as for :func:`_centered`; both give the same bits.

    Each Gram panel is normalized as in :func:`channel_correlation`,
    its strict upper triangle packed and folded in, and the panel reused.
    Needs at least two channels.
    """
    return _fold_panels(*_centered(w), bins)


def _fold_panels(
    xc: np.ndarray, safe: np.ndarray, dead: np.ndarray, bins: int | None
) -> CorrelationStats:
    """:func:`correlation_stats` of the :func:`_centered` channels."""
    k = xc.shape[0]
    fold = _Fold(k, bins)
    size = min(_PANEL_ROWS, k) * k
    panel, scratch = np.empty(size), np.empty(size)
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


def sigma_r(w, work: np.ndarray | None = None) -> float:
    """sigma_r of a tensor's channel correlations, as
    ``correlation_stats(w).sigma_r`` computes it; ``w`` is an array or a
    row source, as for :func:`_centered`.

    The float64 channels go to a new array, or into ``work``, a contiguous
    float64 buffer of w's size, which is left clobbered.  With
    K <= CHW the value is the fold's, bit for bit.  A tall layer (K > CHW)
    gets it from the CHW x CHW Gram instead (see :func:`_tall_sigma`),
    within about 1e-10 relative of the fold.  Needs at least two channels.
    """
    xc, safe, dead = _centered(w, work)
    k, chw = xc.shape
    if k <= chw:
        return _fold_panels(xc, safe, dead, None).sigma_r
    return _tall_sigma(xc, safe)


def _tall_sigma(xc: np.ndarray, safe: np.ndarray) -> float:
    """Population std of r_ij = y_i . y_j over the pairs i != j of the
    unit channels y_i, from sums over channels and the CHW x CHW Gram.

    With m the mean channel, d_i = y_i - m and a_i = d_i . m,
    r_ij = d_i . d_j + a_i + a_j + |m|^2.  Over the N = K(K-1) ordered
    pairs, with alpha = a - mean(a), s = sum d_i and
    dbar = (|s|^2 - sum |d_i|^2) / N the mean of d_i . d_j,

      N var = 2(K-2) sum alpha_i^2 + 4 sum alpha_i (d_i . s - |d_i|^2)
              + ||d^T d||_F^2 - sum |d_i|^4 - N dbar^2,

    an identity for any m.  Taking m as the mean keeps every term as small
    as the spread, so nothing cancels on near-duplicate layers.  The
    channels in ``xc`` are overwritten with d.  A result under _SNAP is
    returned as 0.0: the fold snaps such layers' r to +-1 (positive
    multiples of one channel compute as r = 1 give or take an ulp).
    """
    k = xc.shape[0]
    d = xc
    d /= safe[:, None]  # unit channels; dead ones stay 0, so their r is 0
    # m = y_0 + mean(y - y_0), so identical channels give d = 0 exactly.
    m = d[0].copy()
    d -= m
    shift = d.mean(axis=0)
    d -= shift
    m += shift
    s = d.sum(axis=0)
    alpha = d @ m
    alpha -= alpha.mean()
    norm2 = np.einsum("ij,ij->i", d, d)
    ds = d @ s
    ds -= norm2
    n = k * (k - 1)
    dbar = (float(s @ s) - float(norm2.sum())) / n
    total = (
        2.0 * (k - 2) * float(alpha @ alpha)
        + 4.0 * float(alpha @ ds)
        + _gram_frobenius2(d)
        - float(norm2 @ norm2)
        - n * dbar * dbar
    )
    sigma = math.sqrt(max(total / n, 0.0))
    return 0.0 if sigma < _SNAP else sigma


def _gram_frobenius2(d: np.ndarray) -> float:
    """||d^T d||_F^2, from ``_PANEL_ROWS``-row panels of the upper triangle
    of the CHW x CHW Gram ``d[:, i0:i1].T @ d[:, i0:]`` in one reused
    buffer; entries right of a panel's diagonal block count twice."""
    chw = d.shape[1]
    panel = np.empty(min(_PANEL_ROWS, chw) * chw)
    total = 0.0
    for i0 in range(0, chw, _PANEL_ROWS):
        b = min(_PANEL_ROWS, chw - i0)
        g = panel[: b * (chw - i0)].reshape(b, chw - i0)
        np.matmul(d[:, i0 : i0 + b].T, d[:, i0:], out=g)
        np.multiply(g, g, out=g)
        total += float(g[:, :b].sum()) + 2.0 * float(g[:, b:].sum())
    return total


def offdiagonal_values(r: CorrelationMatrix) -> np.ndarray:
    """Upper-triangle off-diagonal entries, row-major, as a read-only copy."""
    upper = r.values[np.triu_indices(r.k, k=1)]
    upper.flags.writeable = False
    return upper


def correlation_std(r: CorrelationMatrix) -> float:
    """Population standard deviation of the off-diagonal correlations.

    The diagonal is constant 1 and carries no information, so it is
    excluded.  Computed with the same shifted two-pass moments as
    :func:`correlation_stats`.  Requires at least two channels.
    """
    return _fold_values(r.k, offdiagonal_values(r), None).sigma_r


def correlation_histogram(r: CorrelationMatrix, bins: int) -> Histogram:
    """Equal-width histogram of the off-diagonal correlations over [-1, 1].

    Values exactly 1.0 land in the last bin.  Entries a hair outside the
    range from rounding (possible in a user-supplied matrix) are clipped,
    so every off-diagonal entry is counted.  A NaN entry has no bin: the
    bin counter rejects it with ValueError.
    """
    return _fold_values(r.k, np.clip(offdiagonal_values(r), -1.0, 1.0), bins).histogram


def _fold_values(k: int, values: np.ndarray, bins: int | None) -> CorrelationStats:
    """The :class:`_Fold` of the correlations ``values`` of ``k`` channels."""
    fold = _Fold(k, bins)
    fold.add(values, np.empty_like(values))
    return fold.result()
