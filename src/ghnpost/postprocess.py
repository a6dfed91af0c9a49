"""Checkpoint post-processing: conditional noise, orthogonal
re-initialization, the combined per-layer pipeline, and the baseline
initializers (He-normal and Saxe-orthogonal).

The pipeline applies, to every conv/linear tensor at depth >=
``start_layer``, a Gaussian perturbation whose std is ``beta`` times the
spread of the layer's channel-correlation distribution, followed by
replacement of the matricized weights with the sign-corrected Q factor of
their QR decomposition.  Normalization weights, biases and shallower
layers pass through bit-identical.

Public single-tensor operations preserve the input dtype; internally
everything runs in float64, and ``ghn_orth_tensor`` casts each layer to
float32 exactly once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .checkpoint_io import ELIGIBLE_KINDS, Checkpoint, TensorMeta, validate_checkpoint
from .errors import GhnpostError, NonFiniteTensor, UnsupportedRank
from .linalg import qr_decompose, sign_adjust
from .rng import RngStream
from .stats import correlation_stats
from .tensor_ops import Matricized, dematricize, matricize

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


def add_conditional_noise(w: np.ndarray, beta: float, rng: RngStream) -> np.ndarray:
    """Add i.i.d. Gaussian noise with std beta * sigma(r(w)).

    sigma(r(w)) is the spread of the channel-correlation distribution, so
    layers are perturbed relative to how degenerate their channels are.
    With beta == 0, a single channel, or fully identical channels the
    output equals the input bit-exactly.
    """
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError("beta must be finite and non-negative")
    _check_tensor(w)
    sigma = 0.0 if w.shape[0] < 2 else correlation_stats(w).sigma_r
    out = np.array(w, order="C")
    if beta == 0.0 or sigma == 0.0:
        return out
    scale = beta * sigma
    flat = out.reshape(-1)
    # Element i is w_i + scale * z_i summed in float64 and rounded once to
    # w's dtype, the same value one whole-layer noise array would give.
    for start in range(0, flat.size, _NOISE_CHUNK):
        z = rng.normal(min(_NOISE_CHUNK, flat.size - start), start=start)
        z *= scale
        chunk = flat[start : start + z.size]
        chunk += z
    return out


def orthogonal_reinit(w: np.ndarray) -> np.ndarray:
    """Replace w by the sign-corrected Q factor of its matricized form.

    The matricized output has orthonormal columns even for rank-deficient
    input (zero R diagonal entries count as +1 in the sign correction).
    """
    _check_tensor(w)
    m = matricize(w)
    q, r = qr_decompose(m.data)
    adjusted = sign_adjust(q, r).astype(w.dtype, copy=False)
    return dematricize(Matricized(adjusted, m.transposed, m.original_shape))


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
    if meta.kind in ELIGIBLE_KINDS and meta.depth >= cfg.start_layer:
        try:
            # A single stage rounds its own float64 result to float32 once;
            # noise feeding the QR step stays float64 until the final cast.
            both = not (cfg.skip_noise or cfg.skip_orth)
            w = arr.astype(np.float64) if both else arr
            if not cfg.skip_noise:
                w = add_conditional_noise(w, cfg.beta, RngStream(cfg.seed, meta.name))
            if not cfg.skip_orth:
                w = orthogonal_reinit(w)
        except GhnpostError as exc:
            raise type(exc)(f"tensor {meta.name!r}: {exc}") from exc
        w = w.astype(np.float32, copy=False)
    return check_finite_output(meta.name, w)


def check_finite_output(name: str, w: np.ndarray) -> np.ndarray:
    """Return w, or raise NonFiniteTensor naming the tensor if it holds NaN
    or Inf: no command writes a non-finite tensor."""
    if not np.isfinite(w).all():
        raise NonFiniteTensor(f"tensor {name!r}: output would hold NaN or Inf values")
    return w


def ghn_orth(c: Checkpoint, cfg: PostprocessConfig) -> Checkpoint:
    """Apply the two-step post-processing to every eligible tensor.

    Everything else is copied bit-identically.  Each layer is processed
    by :func:`ghn_orth_tensor` on its own, so the result does not depend on
    processing order.
    """
    validate_checkpoint(c)
    out: list = []
    for meta, arr in c.tensors:
        w = ghn_orth_tensor(meta, arr, cfg)
        out.append((meta, arr.copy() if w is arr else w))
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
