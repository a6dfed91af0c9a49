"""Checkpoint post-processing, the engine of ``postprocess`` and ``init``:
conditional noise, orthogonal re-initialization, and the baseline
initializers (He-normal and Saxe-orthogonal), a file's tensors at a time.

The pipeline applies, to every conv/linear tensor at depth >=
``start_layer``, a Gaussian perturbation whose std is ``beta`` times the
spread of the layer's channel-correlation distribution, followed by
replacement of the matricized weights with the sign-corrected Q factor of
their QR decomposition.  Normalization weights, biases and shallower
layers pass through bit-identical.  The baselines are the same pipeline
on a zero source: He-normal init is the noise step at std
sqrt(2 / fan_in), orthogonal init the noise step at std 1 and then the QR
step, times ``gain``.

One routine, :func:`_write_layer`, writes every conv/linear layer: every
``postprocess`` mode and both ``init`` methods.  It hands its result on
one row block of float32 at a time, so the command line writes each
block at its file offset and holds no whole-layer copy of the output.
Internally everything runs in float64, and each layer is rounded to
float32 exactly once.
"""

from __future__ import annotations

import math
import os
import threading
from collections import deque
from collections.abc import Callable, Iterable, Sequence

import numpy as np

from .checkpoint_io import ELIGIBLE_KINDS, CheckpointReader, TensorMeta, TensorRows
from .errors import OutOfMemory, naming
from .linalg import gil_free_qr, one_blas_thread, qr_decompose
from .rng import RngStream
from .stats import sigma_r
from .tensor_ops import (
    check_finite,
    geometry,
    largest_layer_buffer,
    layer_buffer,
    row_blocks,
    row_step,
)

DEFAULT_BETA = 3e-5

# Bound on |z| for every stream value: a uniform is at least 2**-53, so
# |z| <= sqrt(-2 ln 2**-53) = sqrt(106 ln 2) ~= 8.572; 8.6 leaves room for
# the last bits of log, sqrt, cos and sin.
_ZMAX = 8.6


def _noise_scale(w, beta: float, work: np.ndarray) -> float | None:
    """beta * sigma_r(w), or None where the noise is skipped (beta == 0, a
    single channel, or sigma_r == 0); ``w`` and ``work`` as for sigma_r,
    which the first two cases do not call."""
    if beta == 0.0 or w.shape[0] < 2:
        return None
    sigma = sigma_r(w, work)
    return beta * sigma if sigma != 0.0 else None


def _add_noise(layer: np.ndarray, shape: tuple[int, ...], src, scale: float | None,
               rng: RngStream, put: Callable[[int, np.ndarray], None] | None = None
               ) -> None:
    """Set ``layer``, the K x CHW matrix (either memory order) of a tensor
    of ``shape``, to ``src + scale * z`` (to src if ``scale`` is None; src
    None reads as -0.0), z the stream in C order, summed in float64 and
    rounded once to layer's dtype, a :func:`~ghnpost.tensor_ops.row_step`
    block of whole rows at a time, so the noise never needs a buffer the
    size of the layer.  ``src`` is a rank-2/4 array or a row source, read
    once through :func:`~ghnpost.tensor_ops.row_blocks`.  With ``put``,
    ``layer`` is instead a flat buffer of one block's values, reused for
    every block: each block is made there and handed to ``put(r0, block)``.
    Each block goes through :func:`~ghnpost.tensor_ops.check_finite`
    against its rows of src.  The stream runs over the layer in C order,
    whatever its memory order: a block's first value is stream position
    r0 * CHW.

    Noise under 2**-(nmant+4) |w_i| is under a quarter of the smaller gap
    of layer's dtype next to w_i (subnormals included), so the sum rounds
    back to w_i; as |z_i| <= _ZMAX, only |w_i| <= limit can move.  A
    C-ordered block with some |w_i| > limit draws only those
    (:func:`_gather`), others draw all: the same bytes either way.
    """
    k, chw, _ = geometry(shape)
    step = row_step(k, chw)
    blocks = row_blocks(src) if src is not None else ((r0, None) for r0 in range(0, k, step))
    if scale is not None:
        limit = 2.0 ** (np.finfo(layer.dtype).nmant + 4) * scale * _ZMAX
    # A huge beta overflows here; the block check reports it, so numpy need
    # not warn as well.
    with np.errstate(over="ignore"):
        for r0, rows in blocks:
            n = min(step, k - r0)
            block = layer[r0 : r0 + n] if put is None else layer[: n * chw].reshape(n, chw)
            block[...] = -0.0 if rows is None else rows  # -0.0 + x is x, even x = +-0
            if scale is not None:
                gathered = False
                if (rows is not None and block.flags.c_contiguous
                        and limit < max(float(rows.max()), -float(rows.min()))):
                    gathered = _gather(block.reshape(-1), r0 * chw, limit, scale, rng)
                if not gathered:
                    z = rng.normal(block.size, start=r0 * chw).reshape(block.shape)
                    z *= scale
                    block += z
            check_finite(block, rows)
            if put is not None:
                put(r0, block)


def _gather(chunk, start, limit, scale, rng) -> bool:
    """Add noise to the elements of ``chunk`` (stream values from
    ``start``) with magnitude <= limit, unless more than a quarter of
    them are: then return False and leave the chunk to the dense draw.
    A gathered value costs about two dense ones (it needs its pair).
    """
    near = np.flatnonzero(np.abs(chunk) <= limit)
    if near.size > chunk.size // 4:
        return False
    z = rng.normal_at(near + start, np.empty(near.size))
    z *= scale
    z += chunk[near]
    chunk[near] = z
    return True


def _write_layer(shape: tuple[int, ...], src, put: Callable[[int, np.ndarray], None],
                 rng: RngStream, *, orth: bool, beta: float | None = None,
                 scale: float | None = None, gain: float = 1.0,
                 work: np.ndarray | None = None) -> None:
    """Make the conv/linear layer of ``shape`` from ``src`` and hand it to
    ``put(r0, rows)`` a row block of its K x CHW matrix at a time, as
    float32; a block is valid until ``put`` returns.  This is the one
    routine that writes such a layer.

    ``src`` is an array, a row source (see
    :func:`~ghnpost.tensor_ops.row_blocks`) or None, read as -0.0.  The
    layer is src plus the noise of :func:`_add_noise` from ``rng``, at std
    ``beta`` * sigma_r(src) (see :func:`_noise_scale`) when ``beta`` is
    given, else at std ``scale`` (None: no noise).  With ``orth`` it is
    then replaced by the sign-corrected Q of its QR, times ``gain``.

    With ``orth`` the layer lives in one float64
    :func:`~ghnpost.tensor_ops.layer_buffer` from sigma_r's channels to Q,
    so src is read twice with noise, once without.  Without, sigma_r's
    channels go in ``work``, a contiguous float64 buffer of at least the
    layer's size, which only ``beta`` needs.
    Either way the result leaves through one block loop,
    :func:`_add_noise` into one reused buffer of a row block: the noised
    src, or Q times gain without noise.  Each block is checked finite
    before it is put (an overflow of the noise or the gain, or a NaN/Inf
    of src), so no whole-layer copy of the output is ever held, and no
    NaN/Inf reaches the QR.
    """
    k, chw, transposed = geometry(shape)
    if orth:
        # The matrix LAPACK factors is Fortran-ordered: the K x CHW matrix
        # is C-ordered when transposed.
        layer = layer_buffer(k * chw).reshape((k, chw), order="C" if transposed else "F")
        work = layer.ravel(order="K")  # the whole buffer
    if beta is not None:
        scale = _noise_scale(src, beta, work)
    if orth:
        _add_noise(layer, shape, src, scale, rng)
        q, diag = qr_decompose(layer.T if transposed else layer)
        # +-gain * q is the float64 product (+-q) * gain: one rounding to float32.
        q *= np.where(diag < 0.0, -gain, gain)
        src, scale = layer, None
    _add_noise(np.empty(row_step(k, chw) * chw, np.float32), shape, src, scale, rng, put)


def _run_pool(fn: Callable[[int], None], order: Iterable[int], costs: Sequence[int],
              budget: int, width: int, name: Callable[[int], str]) -> None:
    """Run ``fn(i)`` for each index of ``order``, each on a thread of its
    own, at most ``width`` at once.

    Items are admitted in ``order`` and may finish in any order.  While
    fewer than ``width`` run, the first queued item whose cost fits, the
    ``costs`` running and its own summing to at most ``budget``, is
    admitted (backfill: with ``order`` largest first, the largest that
    fits); when none runs, the head of the queue is.  An item that runs
    out of memory (MemoryError or OutOfMemory) goes back to the head of
    the queue once, to run again alone: nothing is admitted beside it, or
    past it, until none runs, so only an item that fails alone fails the
    run.  A thread that cannot start (no memory for its stack) counts as
    its item running out of memory, as OutOfMemory naming ``name(i)``.
    After a failure at index j no later index is admitted but every
    earlier one runs; then the failure at the lowest index propagates.  An
    interrupt of the calling thread (even one raised as a worker starts)
    admits nothing more, and every item started finishes first.
    """
    # Imported here: queue's module costs the commands without a pool 0.1 MB.
    from queue import SimpleQueue

    queue = deque(order)
    running: dict[int, threading.Thread] = {}
    alone: set[int] = set()  # items run again with nothing beside them
    finished: SimpleQueue = SimpleQueue()  # (index, exception or None)

    def admissible() -> int | None:
        if not running:
            return queue[0]
        if len(running) >= width or queue[0] in alone or not alone.isdisjoint(running):
            return None
        room = budget - sum(costs[j] for j in running)
        return next((i for i in queue if costs[i] <= room), None)

    def work(i: int) -> None:
        try:
            fn(i)
        except BaseException as exc:
            finished.put((i, exc))
        else:
            finished.put((i, None))

    failures: dict[int, BaseException] = {}
    try:
        while queue or running:
            while queue and (i := admissible()) is not None:
                queue.remove(i)
                running[i] = threading.Thread(target=work, args=(i,))
                try:
                    running[i].start()
                except RuntimeError as exc:  # the thread never ran
                    try:
                        with naming(name(i)):
                            raise MemoryError(f"cannot start a thread: {exc}") from exc
                    except OutOfMemory as named:
                        finished.put((i, named))
                    break
            i, exc = finished.get()
            del running[i]
            if isinstance(exc, (MemoryError, OutOfMemory)) and i not in alone:
                alone.add(i)
                queue.appendleft(i)
            elif exc is not None:
                failures[i] = exc
            if failures:
                queue = deque(j for j in queue if j < min(failures))
    finally:
        # A worker whose start() was interrupted may run all the same.
        for worker in running.values():
            if worker.is_alive():
                worker.join()
    if failures:
        raise failures[min(failures)]


def _pool_budget(sizes: Sequence[int], width: int) -> int:
    """The pool's budget for layers of ``sizes`` (in any unit; a size of 0,
    a tensor that streams, counts for nothing) on ``width`` threads: the
    largest layer plus the first layer after the largest-first prefix
    that holds at most 1/width of the total size, and at most twice the
    largest (0 for no layers).

    Any layer no larger than that next one fits beside any other, so a
    thread can wait for memory only while the prefix's layers are left,
    and they hold at most a thread's share of the work: the condition
    under which Graham's list-scheduling bound ("Bounds on
    multiprocessing timing anomalies", 1969) is that of room for any two
    layers.  Where one layer is most of the work, the budget stays at two
    of the largest.
    """
    order = sorted(sizes, reverse=True)
    total, prefix = sum(order), 0
    for n in order:
        prefix += n
        if prefix * width > total:
            return min(order[0] + n, 2 * order[0])
    return order[0] if order else 0


def _run_layers(
    metas: Sequence[TensorMeta], mapped: Sequence[bool], fn: Callable[[int], None]
) -> None:
    """:func:`_run_pool` ``fn`` over the tensors of ``metas``, with BLAS on one
    thread so the bytes do not depend on the core count, and one thread per
    usable CPU where the QR releases the GIL.  The ``mapped`` tensors (the
    layers made in a float64 :func:`~ghnpost.tensor_ops.layer_buffer`)
    cost 8 bytes per element; the others stream, holding one row block,
    and cost nothing.  The budget is :func:`_pool_budget` of the costs.
    The mapped tensors go first, largest first, then the others, largest
    first, ties in header order."""
    sizes = [math.prod(meta.shape) for meta in metas]
    costs = [8 * n if m else 0 for m, n in zip(mapped, sizes)]
    order = sorted(range(len(metas)), key=lambda i: (not mapped[i], -sizes[i], i))
    width = _cpu_count() if gil_free_qr() else 1
    # The QR pins BLAS itself, but the thread count is global: unpinned
    # here, concurrent layers would restore each other's count mid-QR, and
    # their sigma_r GEMMs would each use every core.
    with one_blas_thread():
        _run_pool(fn, order, costs, _pool_budget(costs, width), width,
                  lambda i: metas[i].name)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ghn_orth_tensors(reader: CheckpointReader, put: Callable[..., None], *,
                     start_layer: int, beta: float, seed: int, orth: bool) -> None:
    """The two-step post-processing of each tensor i of the checkpoint file
    ``reader``, handed to ``put(i, block, r0)`` a block of rows r0.. at a
    time as soon as it is made: what ``postprocess`` runs on its input
    file, with the settings its command line has checked (``orth`` off
    for ``--skip-orth``, ``beta`` 0 for ``--skip-noise``).

    An eligible tensor (kind conv or linear, depth >= ``start_layer``)
    is read a row block at a time through
    :class:`~ghnpost.checkpoint_io.TensorRows` (twice with noise: for
    sigma_r, then for the noise), made by :func:`_write_layer` from its
    own substream of ``seed`` keyed by its name, and put a row block of
    float32 at a time, so no float32 copy of it is held.  Any
    other tensor streams through the same reader's one reused float32
    buffer of a row block, each block read, checked finite and put.
    With the orth step on, the tensors run on :func:`_run_layers`' pool,
    each eligible one in its float64 layer buffer.  ``--skip-orth`` runs
    them one at a time in header order, on BLAS's default thread count
    (on the pool the noise-only path peaks higher, CHANGES.md), with
    sigma_r's channels in the one
    :func:`~ghnpost.tensor_ops.largest_layer_buffer` of the eligible
    tensors.  Each layer is made on its own, so the bytes do not depend
    on the order.  NaN or Inf, as the input holds it or as an
    overflowing ``beta`` makes it, raises NumericalError naming the
    tensor ("tensor holds" or "output would hold NaN or Inf values",
    :func:`~ghnpost.tensor_ops.check_finite`).
    """
    metas = reader.metas
    eligible = [meta.kind in ELIGIBLE_KINDS and meta.depth >= start_layer for meta in metas]

    def one(i: int, work: np.ndarray | None = None) -> None:
        meta = metas[i]
        with naming(meta.name):
            if eligible[i]:
                _write_layer(meta.shape, TensorRows(reader, i), lambda r0, block: put(i, block, r0),
                             RngStream(seed, meta.name), beta=beta, orth=orth, work=work)
                return
            for r0, block in row_blocks(TensorRows(reader, i)):
                check_finite(block, block)
                put(i, block, r0)

    if orth:
        _run_layers(metas, eligible, one)
        return
    work = largest_layer_buffer(m for m, e in zip(metas, eligible) if e)
    for i in range(len(metas)):
        one(i, work)


def init_tensors(metas: Sequence[TensorMeta], store: Callable[..., None],
                 orth: bool, gain: float, seed: int) -> None:
    """A baseline initialization of each tensor i of ``metas``, handed to
    ``store(i, block, r0)`` a block of rows r0.. at a time as it is made,
    on :func:`_run_layers`' pool: what ``init`` runs, with ``orth`` for
    ``--method orth`` and the ``gain`` its command line has checked.

    conv and linear tensors draw from their own substream of ``seed``
    keyed by tensor name, and are made by :func:`_write_layer` and
    stored a row block of float32 at a time: He-normal, std
    sqrt(2 / fan_in) with fan_in = C*H*W (or C), or with ``orth`` the
    sign-corrected Q of a standard normal draw, times ``gain``, in a
    float64 layer buffer.  norm tensors are ones, and bias and other
    tensors zeros, stored from one row block of them.  A tensor of
    unsupported rank, whose weights would overflow float32, or that
    cannot be allocated raises a NumericalError naming it.
    """
    eligible = [meta.kind in ELIGIBLE_KINDS for meta in metas]

    def one(i: int) -> None:
        meta = metas[i]
        with naming(meta.name):
            if eligible[i]:
                scale = 1.0 if orth else math.sqrt(2.0 / geometry(meta.shape)[1])
                _write_layer(meta.shape, None, lambda r0, block: store(i, block, r0),
                             RngStream(seed, meta.name), scale=scale, orth=orth, gain=gain)
                return
            k, row = meta.shape[0], math.prod(meta.shape[1:])
            step = row_step(k, row)
            fill = np.ones if meta.kind == "norm" else np.zeros  # bias, other: zeros
            block = fill((step, row), np.float32)
            for r0 in range(0, k, step):
                store(i, block[: k - r0], r0)

    _run_layers(metas, [e and orth for e in eligible], one)
