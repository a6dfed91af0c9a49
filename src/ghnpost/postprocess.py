"""Checkpoint post-processing: conditional noise, orthogonal
re-initialization, the combined per-layer pipeline, and the baseline
initializers (He-normal and Saxe-orthogonal).

The pipeline applies, to every conv/linear tensor at depth >=
``start_layer``, a Gaussian perturbation whose std is ``beta`` times the
spread of the layer's channel-correlation distribution, followed by
replacement of the matricized weights with the sign-corrected Q factor of
their QR decomposition.  Normalization weights, biases and shallower
layers pass through bit-identical.

Public single-tensor operations preserve the input dtype unless told
otherwise; internally everything runs in float64, and ``ghn_orth_tensor``
casts each layer to float32 exactly once.  A layer that gets the QR step
lives in one float64 buffer from its correlation to that cast (see
:func:`_reinit`).
"""

from __future__ import annotations

import contextlib
import errno
import math
import mmap
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .checkpoint_io import ELIGIBLE_KINDS, Checkpoint, TensorMeta, validate_checkpoint
from .errors import GhnpostError, NonFiniteTensor, OutOfMemory, UnsupportedRank
from .linalg import gil_free_qr, one_blas_thread, qr_decompose
from .rng import RngStream
from .stats import sigma_r

DEFAULT_BETA = 3e-5

# Noise values drawn and added per step: 512 KiB of float64, so the noise
# never needs a buffer the size of the layer.
_NOISE_CHUNK = 1 << 16

# Bound on |z| for every stream value: a uniform is at least 2**-53, so
# |z| <= sqrt(-2 ln 2**-53) = sqrt(106 ln 2) ~= 8.572; 8.6 leaves room for
# the last bits of log, sqrt, cos and sin.
_ZMAX = 8.6


@dataclass(frozen=True)
class PostprocessConfig:
    start_layer: int
    beta: float = DEFAULT_BETA
    seed: int = 0
    skip_noise: bool = False
    skip_orth: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError("beta must be finite and non-negative")
        if self.start_layer < 0:
            raise ValueError("start_layer must be non-negative")
        if self.skip_noise and self.skip_orth:
            raise ValueError("at most one of skip_noise/skip_orth may be set")


def _check_tensor(w: np.ndarray) -> None:
    if w.ndim not in (2, 4):
        raise UnsupportedRank(f"expected rank 2 or 4 tensor, got rank {w.ndim}")
    if not np.isfinite(w).all():
        raise NonFiniteTensor("tensor holds NaN or Inf values")


def add_conditional_noise(
    w: np.ndarray, beta: float, rng: RngStream, dtype: np.dtype | None = None
) -> np.ndarray:
    """Add i.i.d. Gaussian noise with std beta * sigma(r(w)).

    sigma(r(w)) is the spread of the channel-correlation distribution, so
    layers are perturbed relative to how degenerate their channels are.
    With beta == 0, a single channel, or fully identical channels the
    output equals the input bit-exactly.  The output is a new array of
    ``dtype`` (default: w's); the sum is rounded to it once.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and non-negative")
    _check_tensor(w)
    sigma = 0.0 if w.shape[0] < 2 else sigma_r(w)
    out = np.array(w, dtype=dtype, order="C")
    if beta == 0.0 or sigma == 0.0:
        return out
    scale = beta * sigma
    flat = out.reshape(-1)
    # Element i is w_i + scale * z_i summed in float64 and rounded once to
    # out's dtype, the same value one whole-layer noise array would give.
    # Noise under 2**-(nmant+4) |w_i| is under a quarter of the smaller gap
    # of out's dtype next to w_i (subnormals included), so the sum rounds
    # back to w_i; as |z_i| <= _ZMAX, only an element with |w_i| <= limit
    # can move.  Elements above the limit are skipped, not drawn.
    limit = 2.0 ** (np.finfo(out.dtype).nmant + 4) * scale * _ZMAX
    gather = _Gather(out.dtype) if limit < max(float(flat.max()), -float(flat.min())) else None
    # A huge beta overflows here; callers check the result for Inf
    # (check_finite_output), so numpy need not warn as well.
    with np.errstate(over="ignore"):
        for start in range(0, flat.size, _NOISE_CHUNK):
            chunk = flat[start : start + _NOISE_CHUNK]
            if gather is None or not gather.add(chunk, start, limit, scale, rng):
                z = rng.normal(chunk.size, start=start)
                z *= scale
                chunk += z
    return out


class _Gather:
    """Noise for the few elements of a chunk that it can move.

    The buffers hold one chunk and are reused for every chunk of a layer,
    so the number of elements gathered does not change the sizes the heap
    sees.
    """

    def __init__(self, dtype: np.dtype):
        self.index = np.arange(_NOISE_CHUNK)
        self.near = np.empty(_NOISE_CHUNK, bool)
        self.pos = np.empty(_NOISE_CHUNK, np.int64)
        self.z = np.empty(_NOISE_CHUNK)
        self.w = np.empty(_NOISE_CHUNK, dtype)

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
    the float64 buffer that LAPACK factors in place (see :func:`_reinit`),
    and is left untouched.  The matricized output has orthonormal columns
    even for rank-deficient input (zero R diagonal entries count as +1 in
    the sign correction, as in :func:`~ghnpost.linalg.sign_adjust`).  The
    result is C-ordered, with w's shape and dtype.
    """
    return _reinit(w, None).astype(w.dtype, order="C", copy=False).reshape(w.shape)


def _reinit(w: np.ndarray, noise: tuple[float, RngStream] | None) -> np.ndarray:
    """The sign-corrected Q of w's K x CHW matrix, after the conditional
    noise of ``noise`` = (beta, rng) if given, in one :func:`_layer_matrix`.

    The buffer holds the channels while :func:`~ghnpost.stats.sigma_r`
    works on them, then ``w + beta * sigma_r * z`` (the bytes of
    :func:`add_conditional_noise` into float64, where every value is
    drawn), then Q.  A NaN or Inf in w
    or in the noised layer raises NonFiniteTensor before the QR.
    """
    _check_tensor(w)
    k = w.shape[0]
    mat = w.reshape(k, math.prod(w.shape[1:]))
    layer, transposed = _layer_matrix(w.shape)
    scale = None
    if noise is not None:
        beta, rng = noise
        work = layer.ravel(order="K")  # the whole buffer, C-ordered K x CHW
        sigma = 0.0 if k < 2 else sigma_r(w, work)
        if beta != 0.0 and sigma != 0.0:
            scale = beta * sigma
    for rows, start in _row_blocks(layer):
        block = layer[rows]
        block[...] = mat[rows]
        if scale is None:
            continue
        z = rng.normal(block.size, start=start).reshape(block.shape)
        # A huge beta overflows here and is reported just below.
        with np.errstate(over="ignore"):
            z *= scale
            block += z
        if not np.isfinite(block).all():
            raise NonFiniteTensor("tensor holds NaN or Inf values")
    _orthonormalize(layer, transposed)
    return layer


def _layer_buffer(size: int) -> np.ndarray:
    """An uninitialized float64 array of ``size`` elements on an anonymous
    mapping of its own, unmapped when the array is freed: its pages go
    back to the OS whichever thread frees it, where a malloc block would
    stay in that thread's arena.  A mapping the OS refuses raises
    MemoryError."""
    nbytes = 8 * size
    try:
        mapping = mmap.mmap(-1, max(1, nbytes))
    except (OSError, OverflowError) as exc:
        if isinstance(exc, OSError) and exc.errno != errno.ENOMEM:
            raise
        raise MemoryError(f"cannot map {nbytes} bytes for the float64 layer buffer") from exc
    return np.frombuffer(mapping, np.float64, size)


def _layer_matrix(shape: tuple[int, ...]) -> tuple[np.ndarray, bool]:
    """An uninitialized :func:`_layer_buffer` K x CHW matrix for a tensor of
    ``shape``, and whether the QR factors its transpose (when K < CHW, as
    :func:`~ghnpost.tensor_ops.matricize`).  The matrix LAPACK factors is
    Fortran-ordered: the K x CHW matrix is C-ordered when transposed."""
    k = shape[0]
    chw = math.prod(shape[1:])
    transposed = k < chw
    layer = _layer_buffer(k * chw).reshape((k, chw), order="C" if transposed else "F")
    return layer, transposed


def _row_blocks(layer: np.ndarray) -> Iterator[tuple[slice, int]]:
    """Blocks of whole rows of the K x CHW ``layer``, about _NOISE_CHUNK
    values each, with the stream position of each block's first value:
    the stream runs over the layer in C order, whatever its memory order."""
    k, chw = layer.shape
    step = max(1, _NOISE_CHUNK // chw)
    for r0 in range(0, k, step):
        yield slice(r0, r0 + step), r0 * chw


def _orthonormalize(layer: np.ndarray, transposed: bool) -> None:
    """Overwrite a :func:`_layer_matrix` matrix with the sign-corrected Q
    of its QR, factored in place; only R's diagonal is kept."""
    q, diag = qr_decompose(layer.T if transposed else layer, overwrite_a=True)
    q *= np.where(diag < 0.0, -1.0, 1.0)


def _eligible(meta: TensorMeta, cfg: PostprocessConfig) -> bool:
    return meta.kind in ELIGIBLE_KINDS and meta.depth >= cfg.start_layer


def ghn_orth_tensor(
    meta: TensorMeta, arr: np.ndarray, cfg: PostprocessConfig
) -> np.ndarray:
    """One tensor of the :func:`ghn_orth` output.

    An eligible tensor (kind conv or linear, depth >= cfg.start_layer)
    gets the two-step post-processing, drawing from its own substream
    keyed by tensor name, and comes back as a new float32 array; any other
    tensor comes back as ``arr`` itself.  Either way the result must be
    finite: NaN or Inf, passed through or produced by an overflowing
    ``beta``, raises NonFiniteTensor naming the tensor.
    """
    w = arr
    if _eligible(meta, cfg):
        with _naming(meta.name):
            rng = RngStream(cfg.seed, meta.name)
            if cfg.skip_orth:
                w = add_conditional_noise(arr, cfg.beta, rng)
            else:
                # Noise feeding the QR step stays float64 until the cast.
                w = _reinit(arr, None if cfg.skip_noise else (cfg.beta, rng))
            w = w.astype(np.float32, order="C", copy=False).reshape(arr.shape)
    return check_finite_output(meta.name, w)


@contextlib.contextmanager
def _naming(name: str) -> Iterator[None]:
    """Prefix the message of a package error raised in the block with the
    tensor's name; a MemoryError becomes OutOfMemory naming it."""
    try:
        yield
    except GhnpostError as exc:
        raise type(exc)(f"tensor {name!r}: {exc}") from exc
    except MemoryError as exc:
        raise OutOfMemory(f"tensor {name!r}: {exc}") from exc


def check_finite_output(name: str, w: np.ndarray) -> np.ndarray:
    """Return w, or raise NonFiniteTensor naming the tensor if it holds NaN
    or Inf: no command writes a non-finite tensor."""
    if not np.isfinite(w).all():
        raise NonFiniteTensor(f"tensor {name!r}: output would hold NaN or Inf values")
    return w


def _ordered_map(
    fn: Callable, items: Iterable, sizes: Iterable[int], budget: int, width: int
) -> Iterator:
    """Yield ``fn(item)`` for each of ``items``, in order, from ``width`` threads.

    ``sizes`` gives each item's size before the item is pulled.  An item is
    in flight from when it is pulled and submitted until the consumer takes
    its result.  The next item is admitted only while the sizes in flight,
    its own included, sum to at most ``budget``, and always when nothing is
    in flight.  The first failure in item order propagates, and items not
    yet started are cancelled.
    """
    items = iter(items)
    if width <= 1:
        yield from map(fn, items)
        return
    # Imported here: about 10 ms at start-up that no other command needs.
    from concurrent.futures import ThreadPoolExecutor

    pending: deque = deque()  # (future, size), in item order
    in_flight = 0
    with ThreadPoolExecutor(width) as pool:
        try:
            for size in sizes:
                while pending and in_flight + size > budget:
                    future, done = pending.popleft()
                    yield future.result()
                    in_flight -= done
                try:
                    item = next(items)
                except Exception:
                    # Run sequentially, an earlier item's failure would
                    # have come first.
                    for future, _ in pending:
                        future.result()
                    raise
                pending.append((pool.submit(fn, item), size))
                in_flight += size
            while pending:
                yield pending.popleft()[0].result()
        finally:
            for future, _ in pending:
                future.cancel()


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ghn_orth_tensors(
    metas: Sequence[TensorMeta],
    tensors: Iterable[tuple[TensorMeta, np.ndarray]],
    cfg: PostprocessConfig,
) -> Iterator[np.ndarray]:
    """Yield :func:`ghn_orth_tensor` of each (meta, arr) pair, in order.

    ``metas`` is the header of ``tensors``, whose pairs are pulled lazily.
    With the orth step on, BLAS runs on one thread, so the bytes do not
    depend on the core count, and where the QR releases the GIL the
    tensors run on one thread per usable CPU.  A tensor is admitted while
    the element counts of the tensors in flight, its own included, sum to
    at most twice the largest eligible tensor's: two of the largest layers'
    working sets, not one per CPU.
    """
    if cfg.skip_orth:
        # The noise-only path stays sequential, on BLAS's default thread
        # count: on the layer pool with BLAS pinned, ViT-B/16 on 2 cores
        # ran no faster (7.15-7.80 s against 7.09-7.15 s, 3 runs each)
        # and peaked at 106-109 MB RSS instead of 72 MB.
        for meta, arr in tensors:
            yield ghn_orth_tensor(meta, arr, cfg)
        return
    sizes = [math.prod(meta.shape) for meta in metas]
    budget = 2 * max(
        (n for meta, n in zip(metas, sizes) if _eligible(meta, cfg)), default=0
    )
    width = _cpu_count() if gil_free_qr() else 1
    with one_blas_thread():
        yield from _ordered_map(
            lambda pair: ghn_orth_tensor(*pair, cfg), tensors, sizes, budget, width
        )


def ghn_orth(c: Checkpoint, cfg: PostprocessConfig) -> Checkpoint:
    """Apply the two-step post-processing to every eligible tensor.

    Everything else is copied bit-identically.  Each layer is processed
    by :func:`ghn_orth_tensor` on its own, so the result does not depend on
    processing order; :func:`ghn_orth_tensors` runs them.
    """
    validate_checkpoint(c)
    results = ghn_orth_tensors(c.metas, c.tensors, cfg)
    out = [(meta, arr.copy() if w is arr else w) for (meta, arr), w in zip(c.tensors, results)]
    return Checkpoint(tensors=out, version=c.version)


def _check_init_shape(shape: tuple[int, ...]) -> None:
    if len(shape) not in (2, 4):
        raise UnsupportedRank(f"expected rank 2 or 4 shape, got rank {len(shape)}")
    if any(d < 1 for d in shape):
        raise ValueError(f"shape dimensions must be positive, got {shape}")


def he_init(shape: tuple[int, ...], rng: RngStream) -> np.ndarray:
    """Gaussian init with std sqrt(2 / fan_in); fan_in is C*H*W (or C)."""
    shape = tuple(shape)
    _check_init_shape(shape)
    fan_in = math.prod(shape[1:])
    std = math.sqrt(2.0 / fan_in)
    out = np.empty(shape, np.float32)
    flat = out.reshape(-1)
    # Drawn, scaled and rounded to float32 a chunk at a time: the bytes of
    # one whole-layer draw, without its float64 array.
    for start in range(0, flat.size, _NOISE_CHUNK):
        vals = rng.normal(min(_NOISE_CHUNK, flat.size - start), start=start)
        vals *= std
        flat[start : start + vals.size] = vals
    return out


def saxe_orthogonal_init(
    shape: tuple[int, ...], gain: float, rng: RngStream
) -> np.ndarray:
    """Orthogonal init: orthogonalize a Gaussian draw, then scale by gain."""
    shape = tuple(shape)
    _check_init_shape(shape)
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError("gain must be finite and positive")
    # The draw goes straight into the buffer LAPACK factors in place.
    layer, transposed = _layer_matrix(shape)
    for rows, start in _row_blocks(layer):
        block = layer[rows]
        block[...] = rng.normal(block.size, start=start).reshape(block.shape)
    _orthonormalize(layer, transposed)
    layer *= gain
    # A gain near float32's max overflows here; callers check the result
    # for Inf (check_finite_output), so numpy need not warn as well.
    with np.errstate(over="ignore"):
        return layer.astype(np.float32, order="C").reshape(shape)


def init_checkpoint(
    metas: Iterable[TensorMeta], method: str, gain: float, seed: int
) -> Iterator[np.ndarray]:
    """Yield a baseline initialization of each tensor of ``metas``, in order.

    conv and linear tensors get ``method``, drawing from their own
    substream keyed by tensor name: ``"rand"`` is :func:`he_init`,
    ``"orth"`` is :func:`saxe_orthogonal_init` with ``gain``.  norm
    tensors are ones; bias and other tensors are zeros.  A tensor of
    unsupported rank, or whose weights would overflow float32, raises a
    NumericalError naming it.
    """
    if method not in ("rand", "orth"):
        raise ValueError(f"unknown init method {method!r}")
    # Only the metas are bound between items, so the tensor yielded last
    # is not kept alive while the next one is made.
    return (_init_tensor(meta, method, gain, seed) for meta in metas)


def _init_tensor(meta: TensorMeta, method: str, gain: float, seed: int) -> np.ndarray:
    if meta.kind not in ELIGIBLE_KINDS:
        fill = np.ones if meta.kind == "norm" else np.zeros  # bias, other: zeros
        return fill(meta.shape, dtype=np.float32)
    stream = RngStream(seed, meta.name)
    with _naming(meta.name):
        if method == "rand":
            w = he_init(meta.shape, stream)
        else:
            w = saxe_orthogonal_init(meta.shape, gain, stream)
    return check_finite_output(meta.name, w)
