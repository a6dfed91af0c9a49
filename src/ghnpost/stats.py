"""Channel-wise Pearson correlation statistics: sigma_r, the spread of a
layer's channel-correlation distribution that scales the repair's noise,
and the mean |r| and histogram that ``analyze`` reports.

A "channel" is row k of the K x CHW view of a rank-2/4 weight tensor.
All accumulation runs in float64 regardless of storage dtype, so that
correlations of near-identical channels stay stable.  The channels come
from an array or, a block of rows at a time, from a checkpoint file;
either way they are copied once, into the caller's float64 buffer.

No K x K or K(K-1)/2 array is built: the statistics
are folded from row panels of the Gram matrix, and the panel moments
merged with the pairwise update of Chan, Golub & LeVeque, "Updating
formulae and a pairwise algorithm for computing sample variances" (1979),
in coordinates shifted by the first panel's mean.  Near-duplicate layers
have every r within 1e-7 of 1, and unshifted sums would lose the digits
of their spread.  The histogram counts are ``np.histogram``'s over
[-1, 1].  A tall layer's (K > CHW) sigma_r comes from the smaller
CHW x CHW Gram instead, within 2^-53 / (sigma_r sqrt(K)) relative of
the fold (see _ROUTES_AGREE): always in :func:`sigma_r` (``compare``
and the repair), and in :func:`correlation_stats` (``analyze``) where a
spread certificate shows that every r lies in the top histogram bin and
above 0, as on the collapsed layers the paper diagnoses.  Such a layer's
histogram and mean |r| then need no fold either, and a wide layer so
certified skips only the bin counter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NumericalError
from .tensor_ops import check_finite, geometry, row_blocks, row_step

# Gram rows per panel: each panel's GEMM rereads the channels below it, so
# shorter panels cost time and longer ones memory (CHANGES.md).
_PANEL_ROWS = 128

# Exactly collinear channels compute as +-1 give or take a few ulp
# (numerator and denominator round the same sum differently).  Entries
# within this distance of +-1 are snapped to it, so identical channels
# yield a constant distribution with std exactly 0, which the no-noise
# degenerate contract relies on.
_SNAP = 64.0 * np.finfo(np.float64).eps

# The spread certificate passes a layer only where its bound on r clears
# the top bin's lower edge, and 0, by this much plus 8 CHW eps.  The
# rounding of a correlation, and of the bound, is at most a few times
# CHW eps / 2, the error bound of a CHW-term dot product (Higham,
# "Accuracy and Stability of Numerical Algorithms", 3.1); the fixed part
# leaves room for the few ulp of the norms and the edges.
_MARGIN = 1e-9

# The tall route and the fold round differently: a correlation of the
# fold carries its two channels' norm rounding, which moves sigma_r by up
# to about 2^-53 / (sigma_r sqrt(K)) relative (measured at a third of
# that or less).  A certified tall layer keeps the tall route only where that
# estimate is at most this, so that its sigma_r stays the fold's to 1e-10.
_ROUTES_AGREE = 1e-10

# Values per step of the histogram's bin counter: its two value buffers
# are 128 KiB each, and stay in L2 across a step's passes.
_COUNT_VALUES = 1 << 14


@dataclass(frozen=True)
class CorrelationStats:
    """Summary of the K(K-1)/2 off-diagonal correlations of one tensor."""

    sigma_r: float  # population standard deviation
    mean_abs: float  # mean |r|
    # Counts of equal-width bins over [-1, 1], as np.histogram's with
    # range=(-1, 1).
    histogram: np.ndarray


def _centered(w, work: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Mean-centered float64 channels, their safe norms and the dead mask.

    ``w`` is a rank-2/4 array or a row source (see
    :func:`~ghnpost.tensor_ops.row_blocks`): its channels are copied a
    block of rows at a time, from views of the array or from the source's
    float32 buffer, so a source's layer is never whole in float32.  They
    go into the start of ``work``, a contiguous float64 buffer of at
    least w's size.  Channels of fewer than 2 values raise
    NumericalError ("channels have"); a tensor holding NaN or Inf
    raises NumericalError ("tensor holds NaN or Inf values", from
    :func:`~ghnpost.tensor_ops.check_finite` on each block's norms against
    its rows): it has no finite correlation.
    """
    k, chw, _ = geometry(w.shape)
    if chw < 2:
        raise NumericalError(f"channels have {chw} elements, need at least 2")
    xc = work[: k * chw].reshape(k, chw)
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


def _lower_edge(i, bins: int):
    """The lower edge of bin i < ``bins`` (an int or an int array) of
    ``np.histogram(..., bins, range=(-1, 1))``, byte for byte: its edges
    are ``np.linspace(-1, 1, bins + 1)``, which computes edge i < bins as
    ``i * (2 / bins) + -1``."""
    return i * (2.0 / bins) - 1.0


class _Fold:
    """Running count, shifted mean, M2, sum |r| and, unless ``bins`` is
    None, the histogram counts of the correlations of ``k`` channels;
    raises NumericalError for k < 2 ("need k >= 2 channels").

    Every value folded in must lie in [-1, 1], as the correlations of
    :func:`_normalize` do: the bin counter has no range mask.  It counts
    _COUNT_VALUES values per step through buffers of one step (0.27 MB),
    which are all it holds besides the counts; the channels and panels
    it folds are the caller's, and ``analyze`` keeps only the layer in
    flight in its channel mapping.
    """

    def __init__(self, k: int, bins: int | None):
        if k < 2:
            raise NumericalError(f"need k >= 2 channels, got {k}")
        self.bins = bins
        self.counts = None
        if bins is not None:
            self.counts = np.zeros(bins, dtype=np.intp)
            self._blocks = (np.empty(_COUNT_VALUES), np.empty(_COUNT_VALUES, dtype=np.intp),
                            np.empty(_COUNT_VALUES, dtype=bool))
        self.n = 0
        self.shift = self.mean = self.m2 = self.abs_sum = 0.0

    def add(self, v: np.ndarray, tmp: np.ndarray) -> None:
        """Fold the values v in; tmp is float64 scratch of v's length."""
        if self.bins is not None:
            for start in range(0, len(v), _COUNT_VALUES):
                self._count(v[start : start + _COUNT_VALUES])
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
        """Add the bin counts of at most _COUNT_VALUES values r to ``counts``, as
        ``np.histogram(r, bins, range=(-1, 1))`` counts them: bin i holds
        the r from its :func:`_lower_edge` up to bin i + 1's, the last bin
        r = 1 too.

        f = r * bins/2 + (bins/2 + tol) is r's place among the bins
        shifted up by tol = bins * 2^-40, and is off from where the edges
        put r by a few ulp of ``bins``, far less than tol.  So trunc(f) is
        r's bin, or the bin above where f lies less than 2 tol above an
        integer; only those few values are rechecked against the edges.
        (That needs tol < 1/4, so bins < 2^38; ``--bins`` is at most
        2^20.)  Only r in the last bin get f past bins - 1/2 (r = 1 gives
        f = bins): f is capped there.
        """
        bins = self.bins
        f, idx, near = (buf[: len(r)] for buf in self._blocks)
        tol = bins * 2.0**-40
        np.multiply(r, 0.5 * bins, out=f)
        np.add(f, 0.5 * bins + tol, out=f)
        np.minimum(f, bins - 0.5, out=f)
        np.copyto(idx, f, casting="unsafe")  # f > 0, so the cast is trunc(f)
        np.subtract(f, idx, out=f)
        np.less(f, 2.0 * tol, out=near)
        if near.any():
            at = np.flatnonzero(near)
            idx[at] -= r[at] < _lower_edge(idx[at], bins)
        self.counts += np.bincount(idx, minlength=bins)


def correlation_stats(w, bins: int, work: np.ndarray) -> CorrelationStats:
    """sigma_r, mean |r| and the ``bins``-bin histogram of a tensor's
    off-diagonal channel correlations, holding only the float64 channels
    and two ``_PANEL_ROWS x K`` buffers.  ``w`` is an array or a row
    source, as for :func:`_centered`; both give the same bits.  The
    channels go into ``work``, as for :func:`sigma_r`.

    Each Gram panel is normalized by :func:`_normalize`, its strict upper
    triangle packed and folded in, and the panel reused.
    Where :func:`_certified_mean` shows that every r lies in the top bin
    and above 0, the histogram is all K(K-1)/2 in the last bin and no
    value is counted.  A wide or square layer (K <= CHW) then still folds
    its panels for sigma_r and mean |r|, which keep their bits.  A tall
    one (K > CHW) folds none: it takes sigma_r from :func:`_tall_sigma`,
    as :func:`sigma_r` does, holding one ``_PANEL_ROWS x CHW`` panel, and
    mean |r| from the mean channel.  Only where its spread is too near
    float64's resolution for the two routes to agree to 1e-10 (see
    _ROUTES_AGREE) are its channels read again and folded, as a wide
    layer's.  Needs at least two channels.
    """
    xc, safe, dead = _centered(w, work)
    k, chw = xc.shape
    fold = _Fold(k, bins)
    mean = _certified_mean(xc, safe, _lower_edge(bins - 1, bins))
    if mean is None:
        return CorrelationStats(*_fold_panels(xc, safe, dead, fold), fold.counts)
    fold.counts[-1] = k * (k - 1) // 2
    if k > chw:
        sigma = _tall_sigma(xc, safe)
        if sigma * math.sqrt(k) * _ROUTES_AGREE >= 2.0**-53:
            return CorrelationStats(sigma, mean, fold.counts)
        del xc  # overwritten by _tall_sigma: the channels are read again
        xc, safe, dead = _centered(w, work)
    return CorrelationStats(*_fold_panels(xc, safe, dead, _Fold(k, None)), fold.counts)


def _certified_mean(xc: np.ndarray, safe: np.ndarray, edge: float) -> float | None:
    """The mean r of the :func:`_centered` channels ``xc`` where every r
    provably lies at or above ``edge`` and above 0, else None.

    With unit channels y_i = xc_i / s_i and any vector m, the triangle
    inequality gives |y_i - y_j| <= 2 rho for rho^2 = max_i |y_i - m|^2 =
    max_i (1 - 2 y_i . m + |m|^2), so r_ij = 1 - |y_i - y_j|^2 / 2 >=
    lo = 1 - 2 rho^2.  With m the mean channel that takes two GEMVs, and
    lo must clear ``edge`` and 0 by _MARGIN plus 8 CHW eps.  A dead
    channel (y_i = 0) gives rho^2 >= 1, so it never passes.  The mean r
    over the pairs is (K |m|^2 - 1) / (K - 1), as |sum_i y_i|^2 =
    K^2 |m|^2 = K + 2 sum_{i<j} r_ij; with every r above 0 it is the
    mean |r|.
    """
    k, chw = xc.shape
    inv = 1.0 / safe
    m = (xc.T @ inv) / k
    mm = float(m @ m)
    dots = (xc @ m) * inv
    lo = 1.0 - 2.0 * (1.0 - 2.0 * float(dots.min()) + mm)
    if lo - max(edge, 0.0) <= _MARGIN + 8.0 * chw * np.finfo(np.float64).eps:
        return None
    return (k * mm - 1.0) / (k - 1)


def _fold_panels(xc: np.ndarray, safe: np.ndarray, dead: np.ndarray, fold: _Fold
                 ) -> tuple[float, float]:
    """sigma_r and mean |r| of the :func:`_centered` channels, their panels
    folded into ``fold``, which counts their bins if it has any."""
    k = xc.shape[0]
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
    return math.sqrt(fold.m2 / fold.n), fold.abs_sum / fold.n


def sigma_r(w, work: np.ndarray) -> float:
    """sigma_r of a tensor's channel correlations, as
    ``correlation_stats(w, bins, work).sigma_r`` computes it; ``w`` is an
    array or a row source, as for :func:`_centered`.

    The float64 channels go into ``work``, a contiguous float64 buffer of
    at least w's size, which is left clobbered.  With K <= CHW the value
    is the fold's, bit for bit.  A tall layer (K > CHW) gets it from the
    CHW x CHW Gram instead (see :func:`_tall_sigma`), within
    2^-53 / (sigma_r sqrt(K)) relative of the fold (see _ROUTES_AGREE):
    the closer the channels, the wider the gap.  Needs at least two
    channels.
    """
    xc, safe, dead = _centered(w, work)
    k, chw = xc.shape
    if k <= chw:
        return _fold_panels(xc, safe, dead, _Fold(k, None))[0]
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
