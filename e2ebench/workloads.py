"""Shape tables, deterministic synthetic inputs and the `.ckpt` container.

The container is written and read here from its documented layout
(README "File formats"), not through ``ghnpost``, so the checks in
``checks.py`` are an oracle independent of the code under test and a
change to ``ghnpost``'s internal API never breaks input generation.

Every conv/linear tensor mixes one shared and one private component per
output channel:

* near-duplicate layers, like hypernetwork outputs, use
  ``w_k = s + eps * p_k``; their correlation spread ``sigma_r`` is tiny;
* every ``BROAD_EVERY``-th eligible layer uses
  ``w_k = c_k * s + sqrt(1 - c_k**2) * p_k`` with ``c_k`` drawn per
  channel, which spreads ``sigma_r`` to about 1e-2..1e-1.  Without these
  layers the noise ``beta * sigma_r`` would sit below float32 resolution
  and the noise step could not be checked.
"""

from __future__ import annotations

import io
import json
import math
import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

MAGIC = b"GHNP"
ELIGIBLE = ("conv", "linear")
NEAR_DUP_EPS = 1e-3
BROAD_EVERY = 5
BROAD_C_RANGE = (0.75, 0.98)
_PREFIX = struct.Struct("<4sIQ")


@dataclass(frozen=True)
class Spec:
    name: str
    shape: tuple[int, ...]
    kind: str
    depth: int

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def resnet50_table(width: int = 64, blocks=(3, 4, 6, 3), classes: int = 1000) -> list[Spec]:
    """Bottleneck ResNet: conv weights, BN weights (norm), fc weight+bias.

    The defaults give torchvision's ResNet-50 layout: 53 convs + 1 fc
    (54 eligible) and 25,530,472 parameters.
    """
    specs: list[Spec] = []
    depth = 0

    def conv(name, k, c, h):
        nonlocal depth
        specs.append(Spec(f"{name}.weight", (k, c, h, h), "conv", depth))
        specs.append(Spec(f"{name.replace('conv', 'bn')}.weight", (k,), "norm", depth))
        depth += 1

    conv("conv1", width, 3, 7)
    c_in = width
    for stage, n_blocks in enumerate(blocks):
        mid = width * 2**stage
        out = mid * 4
        for b in range(n_blocks):
            p = f"layer{stage + 1}.{b}"
            conv(f"{p}.conv1", mid, c_in, 1)
            conv(f"{p}.conv2", mid, mid, 3)
            conv(f"{p}.conv3", out, mid, 1)
            if b == 0:
                conv(f"{p}.downsample.conv", out, c_in, 1)
            c_in = out
    specs.append(Spec("fc.weight", (classes, c_in), "linear", depth))
    specs.append(Spec("fc.bias", (classes,), "bias", depth))
    return specs


def vit_table(dim: int = 768, layers: int = 12, patch: int = 16, tokens: int = 197,
              classes: int = 1000) -> list[Spec]:
    """ViT encoder: patch conv, per block qkv/proj/fc1/fc2 (+biases, LN
    weights), position embedding and head.

    The defaults give ViT-B/16: 50 eligible tensors, 86,546,920 parameters.
    """
    hidden = 4 * dim
    specs = [
        Spec("patch_embed.weight", (dim, 3, patch, patch), "conv", 0),
        Spec("patch_embed.bias", (dim,), "bias", 0),
        Spec("pos_embed", (tokens, dim), "other", 0),
    ]
    depth = 1
    for i in range(layers):
        p = f"blocks.{i}"
        for name, shape, kind in (
            ("norm1.weight", (dim,), "norm"),
            ("attn.qkv.weight", (3 * dim, dim), "linear"),
            ("attn.qkv.bias", (3 * dim,), "bias"),
            ("attn.proj.weight", (dim, dim), "linear"),
            ("attn.proj.bias", (dim,), "bias"),
            ("norm2.weight", (dim,), "norm"),
            ("mlp.fc1.weight", (hidden, dim), "linear"),
            ("mlp.fc1.bias", (hidden,), "bias"),
            ("mlp.fc2.weight", (dim, hidden), "linear"),
            ("mlp.fc2.bias", (dim,), "bias"),
        ):
            specs.append(Spec(f"{p}.{name}", shape, kind, depth))
            depth += kind in ELIGIBLE
    specs.append(Spec("head.weight", (classes, dim), "linear", depth))
    specs.append(Spec("head.bias", (classes,), "bias", depth))
    return specs


def is_broad(eligible_index: int) -> bool:
    return eligible_index % BROAD_EVERY == BROAD_EVERY - 1


def synth_tensors(specs: list[Spec], seed: int) -> list[np.ndarray]:
    """Deterministic float32 tensors for a shape table (see module doc)."""
    rng = np.random.default_rng(seed)
    f32 = np.float32
    out = []
    eligible = 0
    for spec in specs:
        if spec.kind in ELIGIBLE:
            k, chw = spec.shape[0], spec.size // spec.shape[0]
            shared = rng.standard_normal(chw, dtype=f32)
            private = rng.standard_normal((k, chw), dtype=f32)
            if is_broad(eligible):
                c = rng.uniform(*BROAD_C_RANGE, size=(k, 1)).astype(f32)
                w = c * shared + np.sqrt(1 - c * c) * private
            else:
                w = shared + f32(NEAR_DUP_EPS) * private
            w *= f32(math.sqrt(2.0 / chw))
            eligible += 1
        elif spec.kind == "norm":
            w = np.ones(spec.shape, dtype=f32)
        else:
            w = f32(0.01) * rng.standard_normal(spec.shape, dtype=f32)
        out.append(w.reshape(spec.shape))
    return out


def write_ckpt(handle: BinaryIO, specs: list[Spec], arrays: list[np.ndarray]) -> int:
    """Write the canonical container for the given tensors; returns bytes written."""
    entries, offset = [], 0
    for spec in specs:
        entries.append({"name": spec.name, "shape": list(spec.shape), "kind": spec.kind,
                        "depth": spec.depth, "offset": offset, "length": spec.size})
        offset += 4 * spec.size
    header = json.dumps({"tensors": entries}, sort_keys=True, separators=(",", ":")).encode()
    head = _PREFIX.pack(MAGIC, 1, len(header)) + header
    head += b"\x00" * (-len(head) % 8)
    handle.write(head)
    for a in arrays:
        handle.write(np.ascontiguousarray(a, dtype="<f4").data)
    return len(head) + offset


def encode_ckpt(specs: list[Spec], arrays: list[np.ndarray]) -> bytes:
    buf = io.BytesIO()
    write_ckpt(buf, specs, arrays)
    return buf.getvalue()


def decode_ckpt(data: bytes) -> tuple[list[Spec], list[np.ndarray]]:
    """Parse container bytes into specs and read-only float32 views."""
    magic, _, header_len = _PREFIX.unpack_from(data, 0)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}")
    end = _PREFIX.size + header_len
    start = end + (-end % 8)
    specs, arrays = [], []
    for e in json.loads(data[_PREFIX.size:end])["tensors"]:
        spec = Spec(e["name"], tuple(e["shape"]), e["kind"], e["depth"])
        arr = np.frombuffer(data, dtype="<f4", count=e["length"], offset=start + e["offset"])
        specs.append(spec)
        arrays.append(arr.reshape(spec.shape))
    return specs, arrays


def archspec_json(specs: list[Spec]) -> str:
    return json.dumps([{"name": s.name, "shape": list(s.shape), "kind": s.kind,
                        "depth": s.depth} for s in specs])


def embeddings_csv(n: int, dim: int, seed: int) -> tuple[str, np.ndarray]:
    """Clustered embeddings with a label column; returns (csv, values).

    The returned values are parsed back from the CSV text, so the PCA
    oracle sees exactly what the program reads.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    centers = rng.standard_normal((3, dim)) * 3.0
    scales = np.linspace(2.0, 0.2, dim)
    x = centers[labels] + rng.standard_normal((n, dim)) * scales
    lines = ["id,label," + ",".join(f"v{i}" for i in range(dim))]
    for i in range(n):
        lines.append(f"e{i},{labels[i]}," + ",".join(f"{v:.6g}" for v in x[i]))
    text = "\n".join(lines) + "\n"
    parsed = np.array([[float(v) for v in line.split(",")[2:]] for line in lines[1:]])
    return text, parsed
