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
casts each layer to float32 exactly once.
"""

from __future__ import annotations

import math
import os
from collections import deque
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from .checkpoint_io import ELIGIBLE_KINDS, Checkpoint, TensorMeta, validate_checkpoint
from .errors import GhnpostError, NonFiniteTensor, UnsupportedRank
from .linalg import gil_free_qr, one_blas_thread, qr_decompose
from .rng import RngStream
from .stats import correlation_stats

DEFAULT_BETA = 3e-5

# Noise values drawn and added per step: 512 KiB of float64, so the noise
# never needs a buffer the size of the layer.
_NOISE_CHUNK = 1 << 16


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
    sigma = 0.0 if w.shape[0] < 2 else correlation_stats(w).sigma_r
    out = np.array(w, dtype=dtype, order="C")
    if beta == 0.0 or sigma == 0.0:
        return out
    scale = beta * sigma
    flat = out.reshape(-1)
    # Element i is w_i + scale * z_i summed in float64 and rounded once to
    # out's dtype, the same value one whole-layer noise array would give.
    for start in range(0, flat.size, _NOISE_CHUNK):
        z = rng.normal(min(_NOISE_CHUNK, flat.size - start), start=start)
        # A huge beta overflows here; callers check the result for Inf
        # (check_finite_output), so numpy need not warn as well.
        with np.errstate(over="ignore"):
            z *= scale
            chunk = flat[start : start + z.size]
            chunk += z
    return out


def orthogonal_reinit(w: np.ndarray) -> np.ndarray:
    """Replace w by the sign-corrected Q factor of its matricized form.

    The K x CHW matrix is factored as is, or transposed when K < CHW, as
    :func:`~ghnpost.tensor_ops.matricize` would; the transpose of a
    C-ordered matrix is the Fortran-ordered one LAPACK wants, so no copy is
    made here.  The matricized output has orthonormal columns even for
    rank-deficient input (zero R diagonal entries count as +1 in the sign
    correction, as in :func:`~ghnpost.linalg.sign_adjust`).  The result has
    w's shape and dtype; for float64 input it is the QR's own buffer, which
    is column-major when K >= CHW.
    """
    _check_tensor(w)
    k = w.shape[0]
    mat = w.reshape(k, math.prod(w.shape[1:]))
    transposed = k < mat.shape[1]
    q, r = qr_decompose(mat.T if transposed else mat)
    q *= np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return (q.T if transposed else q).astype(w.dtype, copy=False).reshape(w.shape)


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
        try:
            # A single stage rounds its own float64 result to float32 once;
            # noise feeding the QR step stays float64 until the final cast.
            if not cfg.skip_noise:
                dtype = None if cfg.skip_orth else np.float64
                w = add_conditional_noise(arr, cfg.beta, RngStream(cfg.seed, meta.name), dtype)
            if not cfg.skip_orth:
                w = orthogonal_reinit(w)
        except GhnpostError as exc:
            raise type(exc)(f"tensor {meta.name!r}: {exc}") from exc
        w = w.astype(np.float32, order="C", copy=False)
    return check_finite_output(meta.name, w)


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
        # The noise step mostly holds the GIL: it stays sequential, on
        # BLAS's default thread count.
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
    vals = rng.normal(math.prod(shape))
    vals *= std
    return vals.reshape(shape).astype(np.float32)


def saxe_orthogonal_init(
    shape: tuple[int, ...], gain: float, rng: RngStream
) -> np.ndarray:
    """Orthogonal init: orthogonalize a Gaussian draw, then scale by gain."""
    shape = tuple(shape)
    _check_init_shape(shape)
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError("gain must be finite and positive")
    w = rng.normal(math.prod(shape)).reshape(shape)
    return (orthogonal_reinit(w) * gain).astype(np.float32)
