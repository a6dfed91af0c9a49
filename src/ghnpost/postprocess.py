"""Checkpoint post-processing: conditional noise, orthogonal
re-initialization, the combined per-layer pipeline, and the baseline
initializers (He-normal and Saxe-orthogonal).

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
``postprocess`` mode, both ``init`` methods and each single-tensor
function here.  It hands its result on one row block at a time, so the
command line writes each block at its file offset and holds no
whole-layer copy of the output.  Public single-tensor operations preserve
the input dtype unless told otherwise; internally everything runs in
float64, and each layer is rounded to its output dtype exactly once.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .checkpoint_io import (
    ELIGIBLE_KINDS,
    Checkpoint,
    CheckpointReader,
    TensorMeta,
    TensorRows,
    validate_checkpoint,
)
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


@dataclass(frozen=True)
class PostprocessConfig:
    start_layer: int
    beta: float = DEFAULT_BETA
    seed: int = 0
    skip_orth: bool = False

    def __post_init__(self):
        _check_beta(self.beta)
        if self.start_layer < 0:
            raise ValueError("start_layer must be non-negative")


def _check_beta(beta: float) -> None:
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and non-negative")


def add_conditional_noise(
    w: np.ndarray, beta: float, rng: RngStream, dtype: np.dtype | None = None
) -> np.ndarray:
    """Add i.i.d. Gaussian noise with std beta * sigma(r(w)).

    sigma(r(w)) is the spread of the channel-correlation distribution, so
    layers are perturbed relative to how degenerate their channels are.
    With beta == 0, a single channel, or fully identical channels the
    output equals the input bit-exactly.  The output is a new array of
    ``dtype`` (default: w's); the sum is rounded to it once.  NaN or Inf
    in w, or noise that overflows, raises NonFiniteTensor.
    """
    _check_beta(beta)
    return _collected(w.shape, lambda put: _write_layer(
        w.shape, w, put, rng, beta=beta, orth=False, dtype=w.dtype if dtype is None else dtype))


def _noise_scale(w, beta: float, work: np.ndarray | None = None) -> float | None:
    """beta * sigma_r(w), or None where the noise is skipped (beta == 0, a
    single channel, or sigma_r == 0); ``w`` and ``work`` as for sigma_r,
    which the first two cases do not call."""
    if beta == 0.0 or w.shape[0] < 2:
        return None
    sigma = sigma_r(w, work)
    return beta * sigma if sigma != 0.0 else None


def _add_noise(layer: np.ndarray, shape: tuple[int, ...], src, scale: float | None,
               rng: RngStream | None, put: Callable[[int, np.ndarray], None] | None = None
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
    (:class:`_Gather`), others draw all: the same bytes either way.
    """
    k, chw, _ = geometry(shape)
    step = row_step(k, chw)
    blocks = row_blocks(src) if src is not None else ((r0, None) for r0 in range(0, k, step))
    gather = None
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
                    gather = gather or _Gather(layer.dtype, step * chw)
                    gathered = gather.add(block.reshape(-1), r0 * chw, limit, scale, rng)
                if not gathered:
                    z = rng.normal(block.size, start=r0 * chw).reshape(block.shape)
                    z *= scale
                    block += z
            check_finite(block, rows)
            if put is not None:
                put(r0, block)


class _Gather:
    """Noise for the few elements of a chunk that it can move.

    The buffers hold one chunk (``size`` elements) and are reused for every
    chunk of a layer, so the number of elements gathered does not change
    the sizes the heap sees.
    """

    def __init__(self, dtype: np.dtype, size: int):
        self.index = np.arange(size)
        self.near = np.empty(size, bool)
        self.pos = np.empty(size, np.int64)
        self.z = np.empty(size)
        self.w = np.empty(size, dtype)

    def add(self, chunk, start, limit, scale, rng) -> bool:
        """Add noise to the elements of ``chunk`` (stream values from
        ``start``) with magnitude <= limit, unless more than a quarter of
        them are: then return False and leave the chunk to the dense draw.
        A gathered value costs about two dense ones (it needs its pair).
        """
        n = chunk.size
        near = np.less_equal(np.abs(chunk, out=self.w[:n]), limit, out=self.near[:n])
        m = np.count_nonzero(near)
        if m > n // 4:
            return False
        pos = np.compress(near, self.index[:n], out=self.pos[:m])
        pos += start
        z = rng.normal_at(pos, out=self.z[:m])
        z *= scale
        z += np.compress(near, chunk, out=self.w[:m])
        np.copyto(self.w[:m], z, casting="same_kind")
        np.place(chunk, near, self.w[:m])
        return True


def orthogonal_reinit(w: np.ndarray) -> np.ndarray:
    """Replace w by the sign-corrected Q factor of its matricized form.

    The K x CHW matrix is factored as is, or transposed when K < CHW, as
    :func:`~ghnpost.tensor_ops.matricize` would.  ``w`` is copied once, into
    the float64 buffer that LAPACK factors in place (see
    :func:`_write_layer`), and is left untouched.  The matricized output
    has orthonormal columns even for rank-deficient input (zero R diagonal
    entries count as +1 in the sign correction, as in
    :func:`~ghnpost.linalg.sign_adjust`).  The result is C-ordered, with
    w's shape and dtype.
    """
    return _collected(w.shape, lambda put: _write_layer(w.shape, w, put, dtype=w.dtype))


def _write_layer(shape: tuple[int, ...], src, put: Callable[[int, np.ndarray], None],
                 rng: RngStream | None = None, *, beta: float | None = None,
                 scale: float | None = None, orth: bool = True, gain: float = 1.0,
                 work: np.ndarray | None = None, dtype: np.dtype = np.float32) -> None:
    """Make the conv/linear layer of ``shape`` from ``src`` and hand it to
    ``put(r0, rows)`` a row block of its K x CHW matrix at a time, as
    ``dtype``; a block is valid until ``put`` returns.  This is the one
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
    channels go in ``work`` (a contiguous float64 buffer of at least the
    layer's size; a new array if None).
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
        # +-gain * q is the float64 product (+-q) * gain: one rounding to dtype.
        q *= np.where(diag < 0.0, -gain, gain)
        src, scale = layer, None
    _add_noise(np.empty(row_step(k, chw) * chw, dtype), shape, src, scale, rng, put)


def _collected(shape: tuple[int, ...], fill: Callable[[Callable], None]) -> np.ndarray:
    """The C-ordered array of ``shape`` whose K x CHW row blocks
    ``fill(put)`` hands to ``put(r0, rows)``, of the blocks' dtype.  It is
    made at the first block, after sigma_r's channels are freed."""
    out = []

    def put(r0: int, block: np.ndarray) -> None:
        if not out:
            out.append(np.empty((shape[0], block.shape[1]), block.dtype))
        out[0][r0 : r0 + len(block)] = block

    fill(put)
    return out[0].reshape(shape)


def _eligible(meta: TensorMeta, cfg: PostprocessConfig) -> bool:
    return meta.kind in ELIGIBLE_KINDS and meta.depth >= cfg.start_layer


def _orth_layer(name: str, src, cfg: PostprocessConfig, put: Callable[[int, np.ndarray], None],
                work: np.ndarray | None = None) -> None:
    """:func:`_write_layer` of the eligible tensor ``name`` from ``src`` as
    ``cfg`` asks, drawing from its own substream keyed by name: the
    routine of both :func:`ghn_orth_tensor` and :func:`ghn_orth_tensors`."""
    _write_layer(src.shape, src, put, RngStream(cfg.seed, name),
                 beta=cfg.beta, orth=not cfg.skip_orth, work=work)


def ghn_orth_tensor(meta: TensorMeta, arr: np.ndarray, cfg: PostprocessConfig) -> np.ndarray:
    """One tensor of the :func:`ghn_orth` output.

    An eligible tensor (kind conv or linear, depth >= cfg.start_layer)
    gets the two-step post-processing of :func:`_orth_layer`, and comes
    back as a new C-ordered float32 array; any other tensor comes back as
    ``arr`` itself.  Either way the result must be finite: NaN or Inf
    raises NonFiniteTensor naming the tensor, as held by the input or as
    produced by an overflowing ``beta`` (see
    :func:`~ghnpost.tensor_ops.check_finite`).
    """
    with naming(meta.name):
        if not _eligible(meta, cfg):
            check_finite(arr, arr)
            return arr
        return _collected(arr.shape, lambda put: _orth_layer(meta.name, arr, cfg, put))


def _run_pool(fn: Callable[[int], None], order: Iterable[int], costs: Sequence[int],
              budget: int, width: int) -> None:
    """Run ``fn(i)`` for each index of ``order`` on ``width`` threads.

    Items are admitted in ``order`` and may finish in any order.  While
    fewer than ``width`` run, the first queued item whose cost fits, the
    ``costs`` running and its own summing to at most ``budget``, is
    admitted (backfill: with ``order`` largest first, the largest that
    fits); when none runs, the head of the queue is.  An item that runs
    out of memory (MemoryError or OutOfMemory) goes back to the head of
    the queue once, to run again alone: nothing is admitted beside it, or
    past it, until none runs, so only an item that fails alone fails the
    run.  After a failure at index j no later index is admitted but every
    earlier one runs; then the failure at the lowest index propagates.  An
    interrupt of the calling thread admits nothing more, and the items
    running finish first.
    """
    # Imported here: about 10 ms at start-up that no other command needs.
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    queue = deque(order)
    running: dict = {}  # future -> index
    in_flight = 0
    alone: set[int] = set()  # items run again with nothing beside them

    def admissible() -> int | None:
        if not running:
            return queue[0]
        if len(running) >= width or queue[0] in alone or not alone.isdisjoint(running.values()):
            return None
        return next((i for i in queue if in_flight + costs[i] <= budget), None)

    failures: dict[int, BaseException] = {}
    with ThreadPoolExecutor(width) as pool:
        while queue or running:
            while queue and (i := admissible()) is not None:
                queue.remove(i)
                running[pool.submit(fn, i)] = i
                in_flight += costs[i]
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i = running.pop(future)
                in_flight -= costs[i]
                exc = future.exception()
                if isinstance(exc, (MemoryError, OutOfMemory)) and i not in alone:
                    alone.add(i)
                    queue.appendleft(i)
                elif exc is not None:
                    failures[i] = exc
                if failures:
                    queue = deque(j for j in queue if j < min(failures))
    if failures:
        raise failures[min(failures)]


def _pool_budget(sizes: Sequence[int], width: int) -> int:
    """The pool's budget, in elements, for float64 layers of ``sizes`` on
    ``width`` threads: the largest layer plus the first layer after the
    largest-first prefix that holds at most 1/width of all the elements,
    and at most twice the largest (0 for no layers).

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


def _block_values(shape: tuple[int, ...]) -> int:
    """Values in one block of whole rows (first-axis slices) of a tensor of
    ``shape``, of any rank: :func:`~ghnpost.tensor_ops.row_step`'s rows."""
    row = math.prod(shape[1:])
    return row_step(shape[0], row) * row


def _put_rows(shape: tuple[int, ...], rows: Callable[[int, int], np.ndarray],
              put: Callable[[int, np.ndarray], None]) -> None:
    """Hand ``rows(r0, r1)``, the values of rows r0..r1 of the first axis of
    a tensor of ``shape``, to ``put(r0, block)`` as a (r1 - r0) x (values
    per row) block, a :func:`_block_values` block at a time; each block
    is checked finite (an input NaN/Inf) before it is put.  The tensors
    that pass through stream this way."""
    row = math.prod(shape[1:])
    step = row_step(shape[0], row)
    for r0 in range(0, shape[0], step):
        r1 = min(r0 + step, shape[0])
        block = rows(r0, r1).reshape(r1 - r0, row)
        check_finite(block, block)
        put(r0, block)


# Pool cost per value of a streamed tensor's row block: its float32 block
# and, for a drawn layer, the float64 draw.
_STREAM_BYTES = 4 + 8


def _run_layers(
    metas: Sequence[TensorMeta], mapped: Sequence[bool], fn: Callable[[int], None]
) -> None:
    """:func:`_run_pool` ``fn`` over the tensors of ``metas``, with BLAS on one
    thread so the bytes do not depend on the core count, and one thread per
    usable CPU where the QR releases the GIL.  Each tensor costs what it
    holds: the ``mapped`` ones (the layers made in a float64
    :func:`~ghnpost.tensor_ops.layer_buffer`) 8 bytes per element, the
    others, which stream, :data:`_STREAM_BYTES` per value of one row
    block.  The mapped tensors go first, largest first, then the others,
    largest first, ties in header order.  The budget is
    :func:`_pool_budget` of the mapped tensors, or room for a row block
    on every thread if that is more."""
    sizes = [math.prod(meta.shape) for meta in metas]
    costs = [8 * n if m else _STREAM_BYTES * _block_values(meta.shape)
             for meta, m, n in zip(metas, mapped, sizes)]
    order = sorted(range(len(metas)), key=lambda i: (not mapped[i], -sizes[i], i))
    width = _cpu_count() if gil_free_qr() else 1
    budget = max(8 * _pool_budget([n for m, n in zip(mapped, sizes) if m], width),
                 width * max((c for m, c in zip(mapped, costs) if not m), default=0))
    # The QR pins BLAS itself, but the thread count is global: unpinned
    # here, concurrent layers would restore each other's count mid-QR, and
    # their sigma_r GEMMs would each use every core.
    with one_blas_thread():
        _run_pool(fn, order, costs, budget, width)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ghn_orth_tensors(reader: CheckpointReader, put: Callable[..., None],
                     cfg: PostprocessConfig) -> None:
    """The :func:`ghn_orth` result of each tensor i of the checkpoint file
    ``reader``, handed to ``put(i, block, r0)`` a block of rows r0.. at a
    time as soon as it is made: what ``postprocess`` runs on its input
    file.

    An eligible tensor is read a row block at a time through
    :class:`~ghnpost.checkpoint_io.TensorRows` (twice with noise: for
    sigma_r, then for the noise), and put a row block of float32 at a
    time by :func:`_orth_layer`, so no float32 copy of it is held.  Any
    other tensor streams through one reused float32 buffer of a row
    block, each block read, checked finite and put (:func:`_put_rows`).
    With the orth step on, the tensors run on :func:`_run_layers`' pool,
    each eligible one in its float64 layer buffer.  ``--skip-orth`` runs
    them one at a time in header order, on BLAS's default thread count
    (on the pool the noise-only path peaks higher, CHANGES.md), with
    sigma_r's channels in the one
    :func:`~ghnpost.tensor_ops.largest_layer_buffer` of the eligible
    tensors.  The bytes are those of :func:`ghn_orth_tensor` of each
    tensor.
    """
    metas = reader.metas
    eligible = [_eligible(meta, cfg) for meta in metas]

    def one(i: int, work: np.ndarray | None = None) -> None:
        meta = metas[i]
        with naming(meta.name):
            if eligible[i]:
                _orth_layer(meta.name, TensorRows(reader, i), cfg,
                            lambda r0, block: put(i, block, r0), work)
                return
            buf = np.empty(_block_values(meta.shape), "<f4")
            _put_rows(meta.shape, lambda r0, r1: reader.read_rows(i, r0, r1, buf),
                      lambda r0, block: put(i, block, r0))

    if not cfg.skip_orth:
        _run_layers(metas, eligible, one)
        return
    work = largest_layer_buffer(m for m, e in zip(metas, eligible) if e)
    for i in range(len(metas)):
        one(i, work)


def ghn_orth(c: Checkpoint, cfg: PostprocessConfig) -> Checkpoint:
    """Apply the two-step post-processing to every eligible tensor: the
    in-memory reference, :func:`ghn_orth_tensor` of each tensor in header
    order, one at a time.

    Everything else is passed through as is.  Each layer is processed on
    its own, so the result does not depend on processing order, and
    :func:`ghn_orth_tensors` writes the same bytes from a file.
    """
    validate_checkpoint(c)
    return Checkpoint(tensors=[(meta, ghn_orth_tensor(meta, arr, cfg)) for meta, arr in c])


def _init_layer(shape: tuple[int, ...], method: str, gain: float, rng: RngStream,
                put: Callable[[int, np.ndarray], None]) -> None:
    """:func:`_write_layer` of a ``method`` init of a conv/linear tensor of
    ``shape`` from ``rng``: "rand" is He-normal, std sqrt(2 / fan_in) with
    fan_in = C*H*W (or C); "orth" is the sign-corrected Q of a standard
    normal draw, times ``gain``."""
    _, fan_in, _ = geometry(shape)
    if any(d < 1 for d in shape):
        raise ValueError(f"shape dimensions must be positive, got {shape}")
    if method == "rand":
        _write_layer(shape, None, put, rng, scale=math.sqrt(2.0 / fan_in), orth=False)
        return
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError("gain must be finite and positive")
    _write_layer(shape, None, put, rng, scale=1.0, gain=gain)


def he_init(shape: tuple[int, ...], rng: RngStream) -> np.ndarray:
    """Gaussian init with std sqrt(2 / fan_in); fan_in is C*H*W (or C)."""
    shape = tuple(shape)
    return _collected(shape, lambda put: _init_layer(shape, "rand", 1.0, rng, put))


def saxe_orthogonal_init(
    shape: tuple[int, ...], gain: float, rng: RngStream
) -> np.ndarray:
    """Orthogonal init: orthogonalize a Gaussian draw, then scale by gain."""
    shape = tuple(shape)
    return _collected(shape, lambda put: _init_layer(shape, "orth", gain, rng, put))


def init_tensors(metas: Sequence[TensorMeta], store: Callable[..., None],
                 method: str, gain: float, seed: int) -> None:
    """A baseline initialization of each tensor i of ``metas``, handed to
    ``store(i, block, r0)`` a block of rows r0.. at a time as it is made,
    on :func:`_run_layers`' pool.

    conv and linear tensors get ``method``, drawing from their own
    substream keyed by tensor name: ``"rand"`` is :func:`he_init`,
    ``"orth"`` is :func:`saxe_orthogonal_init` with ``gain`` (made in a
    float64 layer buffer); each is stored a row block of float32 at a
    time by :func:`_write_layer`.  norm tensors are ones, and bias and
    other tensors zeros, stored from one row block of them.  Any other
    method raises ValueError before anything is stored.  A tensor of
    unsupported rank, whose weights would overflow float32, or that
    cannot be allocated raises a NumericalError naming it.
    """
    if method not in ("rand", "orth"):
        raise ValueError(f"unknown init method {method!r}")
    eligible = [meta.kind in ELIGIBLE_KINDS for meta in metas]

    def one(i: int) -> None:
        meta = metas[i]
        with naming(meta.name):
            if eligible[i]:
                _init_layer(meta.shape, method, gain, RngStream(seed, meta.name),
                            lambda r0, block: store(i, block, r0))
                return
            row = math.prod(meta.shape[1:])
            fill = np.ones if meta.kind == "norm" else np.zeros  # bias, other: zeros
            values = fill(_block_values(meta.shape), np.float32)
            _put_rows(meta.shape, lambda r0, r1: values[: (r1 - r0) * row],
                      lambda r0, block: store(i, block, r0))

    _run_layers(metas, [e and method == "orth" for e in eligible], one)
