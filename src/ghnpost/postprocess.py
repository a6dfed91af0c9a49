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

Each step is written once: the noise std in :func:`_noise_scale`, the
Gaussian fill in :func:`_add_noise` (the noise of
:func:`add_conditional_noise` and the repair, and the draws of both
initializers), the QR step in :func:`_orthonormalize`, the init methods
in :func:`_initializer`.  A layer's K x CHW geometry comes from
:func:`~ghnpost.tensor_ops.geometry`, the NaN/Inf check and its blame
(the input, or an overflow) from :func:`~ghnpost.tensor_ops.check_finite`,
and errors get the tensor's name from :func:`~ghnpost.errors.naming`.
"""

from __future__ import annotations

import errno
import math
import mmap
import os
from collections import deque
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass

import numpy as np

from .checkpoint_io import ELIGIBLE_KINDS, Checkpoint, TensorMeta, validate_checkpoint
from .errors import naming
from .linalg import gil_free_qr, one_blas_thread, qr_decompose
from .rng import RngStream
from .stats import sigma_r
from .tensor_ops import check_finite, geometry, row_step

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
    skip_noise: bool = False
    skip_orth: bool = False

    def __post_init__(self):
        _check_beta(self.beta)
        if self.start_layer < 0:
            raise ValueError("start_layer must be non-negative")
        if self.skip_noise and self.skip_orth:
            raise ValueError("at most one of skip_noise/skip_orth may be set")


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
    k, chw, _ = geometry(w.shape)
    # sigma_r's float64 channels are freed before the output is allocated.
    scale = _noise_scale(w, beta)
    out = np.empty((k, chw), w.dtype if dtype is None else dtype)
    _add_noise(out, w.reshape(k, chw), scale, rng)
    return out.reshape(w.shape)


def _noise_scale(w: np.ndarray, beta: float, work: np.ndarray | None = None) -> float | None:
    """beta * sigma_r(w), or None where the noise is skipped (beta == 0, a
    single channel, or sigma_r == 0); ``work`` as for sigma_r."""
    sigma = 0.0 if w.shape[0] < 2 else sigma_r(w, work)
    return beta * sigma if beta != 0.0 and sigma != 0.0 else None


def _add_noise(layer: np.ndarray, mat: np.ndarray | None, scale: float | None,
               rng: RngStream) -> None:
    """Set the K x CHW ``layer`` (either memory order) to ``mat + scale * z``
    (to mat if ``scale`` is None; mat None reads as -0.0), z the stream in
    C order, summed in float64 and rounded once to layer's dtype, a
    :func:`~ghnpost.tensor_ops.row_step` block of whole rows at a time, so
    the noise never needs a buffer the size of the layer; each block goes
    through :func:`~ghnpost.tensor_ops.check_finite` against its rows of
    mat.  The stream runs over the layer in C order, whatever its memory
    order: a block's first value is stream position r0 * CHW.
    This is the one place a layer is filled from the stream: the
    initializers pass ``mat=None``.

    Noise under 2**-(nmant+4) |w_i| is under a quarter of the smaller gap
    of layer's dtype next to w_i (subnormals included), so the sum rounds
    back to w_i; as |z_i| <= _ZMAX, only |w_i| <= limit can move.  A
    C-ordered layer draws only those (:class:`_Gather`), others draw all.
    """
    k, chw = layer.shape
    step = row_step(k, chw)
    gather = None
    if scale is not None and mat is not None and layer.flags.c_contiguous:
        limit = 2.0 ** (np.finfo(layer.dtype).nmant + 4) * scale * _ZMAX
        if limit < max(float(mat.max()), -float(mat.min())):
            gather = _Gather(layer.dtype, step * chw)
    # A huge beta overflows here; the block check reports it, so numpy need
    # not warn as well.
    with np.errstate(over="ignore"):
        for r0 in range(0, k, step):
            rows, start = slice(r0, r0 + step), r0 * chw
            block = layer[rows]
            block[...] = -0.0 if mat is None else mat[rows]  # -0.0 + x is x, even x = +-0
            if scale is not None and (
                gather is None or not gather.add(block.reshape(-1), start, limit, scale, rng)
            ):
                z = rng.normal(block.size, start=start).reshape(block.shape)
                z *= scale
                block += z
            check_finite(block, None if mat is None else mat[rows])


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
    works on them, then :func:`_add_noise`'s ``w + beta * sigma_r * z``
    (the bytes of :func:`add_conditional_noise` into float64), then Q.  A
    NaN or Inf in w or in the noised layer raises NonFiniteTensor before
    the QR: sigma_r's norms or the block check of :func:`_add_noise` see
    it.
    """
    k, chw, transposed = geometry(w.shape)
    layer = _layer_matrix(k, chw, transposed)
    scale = rng = None
    if noise is not None:
        beta, rng = noise
        scale = _noise_scale(w, beta, layer.ravel(order="K"))  # the whole buffer
    _add_noise(layer, w.reshape(k, chw), scale, rng)
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


def _layer_matrix(k: int, chw: int, transposed: bool) -> np.ndarray:
    """An uninitialized :func:`_layer_buffer` K x CHW matrix for a tensor of
    that :func:`~ghnpost.tensor_ops.geometry`.  The matrix LAPACK factors
    is Fortran-ordered: the K x CHW matrix is C-ordered when transposed."""
    return _layer_buffer(k * chw).reshape((k, chw), order="C" if transposed else "F")


def _orthonormalize(layer: np.ndarray, transposed: bool) -> None:
    """Overwrite a :func:`_layer_matrix` matrix with the sign-corrected Q
    of its QR, factored in place; only R's diagonal is kept."""
    q, diag = qr_decompose(layer.T if transposed else layer, overwrite_a=True)
    q *= np.where(diag < 0.0, -1.0, 1.0)


def _eligible(meta: TensorMeta, cfg: PostprocessConfig) -> bool:
    return meta.kind in ELIGIBLE_KINDS and meta.depth >= cfg.start_layer


def ghn_orth_tensor(
    meta: TensorMeta, arr: np.ndarray, cfg: PostprocessConfig, out: np.ndarray | None = None
) -> np.ndarray:
    """One tensor of the :func:`ghn_orth` output.

    An eligible tensor (kind conv or linear, depth >= cfg.start_layer)
    gets the two-step post-processing, drawing from its own substream
    keyed by tensor name, and comes back as a new float32 array (or, after
    the QR step, in ``out``: C-ordered float32, arr itself allowed); any
    other tensor comes back as ``arr`` itself.  Either way the result must
    be finite: NaN or Inf raises NonFiniteTensor naming the tensor, as
    held by the input or as produced by an overflowing ``beta`` (see
    :func:`~ghnpost.tensor_ops.check_finite`).
    """
    w = arr
    eligible = _eligible(meta, cfg)
    with naming(meta.name):
        if eligible:
            rng = RngStream(cfg.seed, meta.name)
            if cfg.skip_orth:
                w = add_conditional_noise(arr, cfg.beta, rng).astype(np.float32, copy=False)
            else:
                # Noise feeding the QR step stays float64 until the cast.
                q = _reinit(arr, None if cfg.skip_noise else (cfg.beta, rng))
                w = np.empty(arr.shape, np.float32) if out is None else out
                np.copyto(w.reshape(q.shape), q, casting="same_kind")
        # A pass-through tensor is its own source; an eligible one's input
        # may have been overwritten by its result (out=arr).
        check_finite(w, None if eligible else arr)
    return w


def _run_pool(fn: Callable[[int], None], order: Iterable[int], costs: Sequence[int],
              budget: int, width: int) -> None:
    """Run ``fn(i)`` for each index of ``order`` on ``width`` threads.

    Items are admitted in ``order`` and may finish in any order.  The next
    is admitted while fewer than ``width`` run and the ``costs`` running,
    its own included, sum to at most ``budget``, or when none runs.  After
    a failure at index j no later index is admitted but every earlier one
    runs; then the failure at the lowest index propagates.
    """
    # Imported here: about 10 ms at start-up that no other command needs.
    from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

    queue = deque(order)
    running: dict = {}  # future -> index
    in_flight = 0
    failures: dict[int, BaseException] = {}
    with ThreadPoolExecutor(width) as pool:
        while queue or running:
            while queue and len(running) < width and (
                not running or in_flight + costs[queue[0]] <= budget
            ):
                i = queue.popleft()
                running[pool.submit(fn, i)] = i
                in_flight += costs[i]
            done, _ = wait(running, return_when=FIRST_COMPLETED)
            for future in done:
                i = running.pop(future)
                in_flight -= costs[i]
                if future.exception() is not None:
                    failures[i] = future.exception()
                    queue = deque(j for j in queue if j < min(failures))
    if failures:
        raise failures[min(failures)]


def _run_layers(
    metas: Sequence[TensorMeta], eligible: Sequence[bool], fn: Callable[[int], None]
) -> None:
    """:func:`_run_pool` ``fn`` over the tensors of ``metas``, with BLAS on one
    thread so the bytes do not depend on the core count, and one thread per
    usable CPU where the QR releases the GIL.  Eligible tensors go first,
    largest first, ties in header order, and cost 12 bytes per element
    (float32 array and float64 layer buffer), others 4; the budget is two
    of the largest eligible tensor."""
    sizes = [math.prod(meta.shape) for meta in metas]
    costs = [(12 if e else 4) * n for e, n in zip(eligible, sizes)]
    order = sorted(range(len(metas)), key=lambda i: (not eligible[i], -sizes[i], i))
    budget = 2 * max((c for e, c in zip(eligible, costs) if e), default=0)
    width = _cpu_count() if gil_free_qr() else 1
    with one_blas_thread():
        _run_pool(fn, order, costs, budget, width)


def _cpu_count() -> int:
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def ghn_orth_tensors(metas: Sequence[TensorMeta], load: Callable[[int], np.ndarray],
                     store: Callable[[int, np.ndarray], None], cfg: PostprocessConfig) -> None:
    """``store(i, w)`` with w = :func:`ghn_orth_tensor` of each tensor i of
    ``metas``, given by ``load(i)``, whose array a layer that gets the QR
    step is cast back into.  With the orth step on, the tensors run on
    :func:`_run_layers`' pool, and each is stored as soon as it is made.
    """
    if cfg.skip_orth:
        # Sequential, on BLAS's default thread count: on the pool the
        # noise-only path peaks higher (CHANGES.md).
        for i, meta in enumerate(metas):
            store(i, ghn_orth_tensor(meta, load(i), cfg))
        return

    def repair(i: int) -> None:
        arr = load(i)
        store(i, ghn_orth_tensor(metas[i], arr, cfg, out=arr))

    _run_layers(metas, [_eligible(meta, cfg) for meta in metas], repair)


def ghn_orth(c: Checkpoint, cfg: PostprocessConfig) -> Checkpoint:
    """Apply the two-step post-processing to every eligible tensor.

    Everything else is copied bit-identically.  Each layer is processed
    by :func:`ghn_orth_tensor` on its own, so the result does not depend on
    processing order; :func:`ghn_orth_tensors` runs them on copies.
    """
    validate_checkpoint(c)
    out: list = [None] * len(c)
    ghn_orth_tensors(c.metas, lambda i: c.tensors[i][1].copy(), out.__setitem__, cfg)
    return Checkpoint(tensors=list(zip(c.metas, out)), version=c.version)


def _check_init_shape(shape: tuple[int, ...]) -> tuple[int, int, bool]:
    """The :func:`~ghnpost.tensor_ops.geometry` of a shape to initialize."""
    dims = geometry(shape)
    if any(d < 1 for d in shape):
        raise ValueError(f"shape dimensions must be positive, got {shape}")
    return dims


def he_init(shape: tuple[int, ...], rng: RngStream) -> np.ndarray:
    """Gaussian init with std sqrt(2 / fan_in); fan_in is C*H*W (or C)."""
    shape = tuple(shape)
    k, fan_in, _ = _check_init_shape(shape)
    out = np.empty(shape, np.float32)
    # std * z rounded once to float32: the bytes of one whole-layer draw.
    _add_noise(out.reshape(k, fan_in), None, math.sqrt(2.0 / fan_in), rng)
    return out


def saxe_orthogonal_init(
    shape: tuple[int, ...], gain: float, rng: RngStream
) -> np.ndarray:
    """Orthogonal init: orthogonalize a Gaussian draw, then scale by gain."""
    shape = tuple(shape)
    k, chw, transposed = _check_init_shape(shape)
    if not (math.isfinite(gain) and gain > 0):
        raise ValueError("gain must be finite and positive")
    # The draw goes straight into the buffer LAPACK factors in place.
    layer = _layer_matrix(k, chw, transposed)
    _add_noise(layer, None, 1.0, rng)
    _orthonormalize(layer, transposed)
    layer *= gain
    # A gain near float32's max overflows here; _init_tensor checks the
    # result, so numpy need not warn as well.
    with np.errstate(over="ignore"):
        return layer.astype(np.float32, order="C").reshape(shape)


def init_tensors(metas: Sequence[TensorMeta], store: Callable[[int, np.ndarray], None],
                 method: str, gain: float, seed: int) -> None:
    """``store(i, w)`` with w a baseline initialization of each tensor i of
    ``metas``, made on :func:`_run_layers`' pool.

    conv and linear tensors get ``method``, drawing from their own
    substream keyed by tensor name: ``"rand"`` is :func:`he_init`,
    ``"orth"`` is :func:`saxe_orthogonal_init` with ``gain``.  norm
    tensors are ones; bias and other tensors are zeros.  Any other method
    raises ValueError before anything is stored.  A tensor of unsupported
    rank, or whose weights would overflow float32, raises a NumericalError
    naming it.
    """
    make = _initializer(method, gain)
    _run_layers(metas, [meta.kind in ELIGIBLE_KINDS for meta in metas],
                lambda i: store(i, _init_tensor(metas[i], make, seed)))


def _initializer(method: str, gain: float) -> Callable[[tuple[int, ...], RngStream], np.ndarray]:
    """The conv/linear initializer of an init ``method``."""
    if method == "rand":
        return he_init
    if method == "orth":
        return lambda shape, rng: saxe_orthogonal_init(shape, gain, rng)
    raise ValueError(f"unknown init method {method!r}")


def _init_tensor(meta: TensorMeta, make: Callable, seed: int) -> np.ndarray:
    with naming(meta.name):
        if meta.kind not in ELIGIBLE_KINDS:
            fill = np.ones if meta.kind == "norm" else np.zeros  # bias, other: zeros
            return fill(meta.shape, dtype=np.float32)
        w = make(meta.shape, RngStream(seed, meta.name))
        check_finite(w)
    return w
