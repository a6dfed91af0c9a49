"""Binary checkpoint container and JSON fixture import.

File layout (all integers little-endian)::

    offset 0   magic b"GHNP"
    offset 4   u32 format version (currently 1)
    offset 8   u64 header length in bytes
    offset 16  UTF-8 JSON header, exactly header-length bytes
    ...        zero padding up to the next 8-byte boundary
    ...        data section: raw float32 tensor values, concatenated
               in header order

The JSON header is ``{"tensors": [...]}`` where each entry carries
``name``, ``shape``, ``kind``, ``depth`` plus the derived layout fields
``offset`` (bytes into the data section) and ``length`` (element count).
Serialization is canonical: sorted keys, no whitespace, contiguous
offsets.  Writing the same checkpoint twice yields identical bytes, and
``read_checkpoint(write_checkpoint(c)) == c`` bit-exactly.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadMagic,
    CorruptHeader,
    SchemaError,
    ShapeMismatch,
    TruncatedData,
    UnsupportedVersion,
)

MAGIC = b"GHNP"
FORMAT_VERSION = 1
KINDS = ("conv", "linear", "norm", "bias", "other")
ELIGIBLE_KINDS = ("conv", "linear")  # the kinds that are analyzed and post-processed

_HEADER_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length
_F32_BYTES = 4


@dataclass(frozen=True)
class TensorMeta:
    name: str
    shape: tuple[int, ...]
    kind: str
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))


@dataclass(eq=False)
class Checkpoint:
    """Ordered collection of named parameter tensors."""

    tensors: list[tuple[TensorMeta, np.ndarray]] = field(default_factory=list)
    version: int = FORMAT_VERSION

    def __len__(self) -> int:
        return len(self.tensors)

    def names(self) -> list[str]:
        return [meta.name for meta, _ in self.tensors]

    def get(self, name: str) -> tuple[TensorMeta, np.ndarray]:
        for meta, arr in self.tensors:
            if meta.name == name:
                return meta, arr
        raise KeyError(name)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Checkpoint):
            return NotImplemented
        if self.version != other.version or len(self.tensors) != len(other.tensors):
            return False
        for (ma, aa), (mb, ab) in zip(self.tensors, other.tensors):
            if ma != mb:
                return False
            if aa.shape != ab.shape or aa.dtype != ab.dtype:
                return False
            if aa.tobytes() != ab.tobytes():  # bit-exact, NaN-safe
                return False
        return True


def validate_checkpoint(c: Checkpoint) -> None:
    """Enforce checkpoint invariants; raises ValueError on violation.

    These are preconditions of :func:`write_checkpoint`, so arriving here
    with a bad checkpoint is a programming error, not a data error.
    """
    if c.version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {c.version}")
    seen: set[str] = set()
    prev_depth = -1
    for meta, arr in c.tensors:
        if meta.name in seen:
            raise ValueError(f"duplicate tensor name {meta.name!r}")
        seen.add(meta.name)
        if meta.kind not in KINDS:
            raise ValueError(f"tensor {meta.name!r}: unknown kind {meta.kind!r}")
        if not 1 <= len(meta.shape) <= 4 or any(d < 1 for d in meta.shape):
            raise ValueError(f"tensor {meta.name!r}: bad shape {meta.shape}")
        if meta.depth < 0:
            raise ValueError(f"tensor {meta.name!r}: negative depth")
        if meta.depth < prev_depth:
            raise ValueError(f"tensor {meta.name!r}: depth decreases in file order")
        prev_depth = meta.depth
        if tuple(arr.shape) != meta.shape:
            raise ValueError(
                f"tensor {meta.name!r}: metadata shape {meta.shape} != "
                f"array shape {tuple(arr.shape)}"
            )
        if arr.dtype != np.float32:
            raise ValueError(f"tensor {meta.name!r}: dtype {arr.dtype}, expected float32")


def write_checkpoint(c: Checkpoint) -> bytearray:
    """Serialize to the canonical byte form (pure; same input, same bytes).

    All offsets are known from the shapes, so the whole file is laid out in
    one buffer and each tensor is copied into place once.
    """
    validate_checkpoint(c)
    entries = []
    offset = 0
    for meta, _ in c.tensors:
        length = math.prod(meta.shape)
        entries.append(
            {
                "name": meta.name,
                "shape": list(meta.shape),
                "kind": meta.kind,
                "depth": meta.depth,
                "offset": offset,
                "length": length,
            }
        )
        offset += length * _F32_BYTES
    header = json.dumps({"tensors": entries}, sort_keys=True, separators=(",", ":"))
    header_bytes = header.encode("utf-8")
    header_end = _HEADER_PREFIX.size + len(header_bytes)
    data_start = header_end + (-header_end % 8)
    out = bytearray(data_start + offset)
    _HEADER_PREFIX.pack_into(out, 0, MAGIC, c.version, len(header_bytes))
    out[_HEADER_PREFIX.size:header_end] = header_bytes
    data = np.frombuffer(out, dtype="<f4", offset=data_start)
    start = 0
    for _, arr in c.tensors:
        data[start:start + arr.size] = arr.reshape(-1)
        start += arr.size
    return out


def _header_field(entry, index: int, key: str, types):
    if key not in entry:
        raise CorruptHeader(f"tensors[{index}]: missing field {key!r}")
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise CorruptHeader(f"tensors[{index}].{key}: wrong type {type(value).__name__}")
    return value


def read_checkpoint(data: bytes) -> Checkpoint:
    """Parse checkpoint bytes, validating header and data bounds."""
    if len(data) < 4 or data[:4] != MAGIC:
        raise BadMagic(f"magic: expected {MAGIC!r}, got {bytes(data[:4])!r}")
    if len(data) < _HEADER_PREFIX.size:
        raise CorruptHeader("header_length: file shorter than the fixed header")
    _, version, header_len = _HEADER_PREFIX.unpack_from(data, 0)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"version: got {version}, supported {FORMAT_VERSION}")
    header_end = _HEADER_PREFIX.size + header_len
    if header_end > len(data):
        raise CorruptHeader(
            f"header_length: declares {header_len} bytes, file has "
            f"{len(data) - _HEADER_PREFIX.size} after the fixed header"
        )
    try:
        header = json.loads(data[_HEADER_PREFIX.size:header_end].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptHeader(f"header: {exc}") from exc
    if not isinstance(header, dict) or "tensors" not in header:
        raise CorruptHeader("header: missing 'tensors' field")
    raw_entries = header["tensors"]
    if not isinstance(raw_entries, list):
        raise CorruptHeader("tensors: expected a list")

    data_start = header_end + (-header_end % 8)
    if data_start > len(data):
        raise TruncatedData("data: file ends inside the alignment padding")
    data_size = len(data) - data_start

    tensors: list[tuple[TensorMeta, np.ndarray]] = []
    seen: set[str] = set()
    prev_depth = -1
    for i, entry in enumerate(raw_entries):
        if not isinstance(entry, dict):
            raise CorruptHeader(f"tensors[{i}]: expected an object")
        name = _header_field(entry, i, "name", str)
        shape_raw = _header_field(entry, i, "shape", list)
        kind = _header_field(entry, i, "kind", str)
        depth = _header_field(entry, i, "depth", int)
        offset = _header_field(entry, i, "offset", int)
        length = _header_field(entry, i, "length", int)
        if name in seen:
            raise CorruptHeader(f"tensors[{i}].name: duplicate {name!r}")
        seen.add(name)
        if kind not in KINDS:
            raise CorruptHeader(f"tensors[{i}].kind: unknown kind {kind!r}")
        if depth < 0:
            raise CorruptHeader(f"tensors[{i}].depth: negative")
        if depth < prev_depth:
            raise CorruptHeader(f"tensors[{i}].depth: decreases in file order")
        prev_depth = depth
        if not 1 <= len(shape_raw) <= 4 or any(
            isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in shape_raw
        ):
            raise CorruptHeader(f"tensors[{i}].shape: expected 1-4 positive integers")
        shape = tuple(shape_raw)
        if math.prod(shape) != length:
            raise CorruptHeader(
                f"tensors[{i}].length: {length} != product(shape) {math.prod(shape)}"
            )
        if offset < 0:
            raise CorruptHeader(f"tensors[{i}].offset: negative")
        end = offset + length * _F32_BYTES
        if end > data_size:
            raise TruncatedData(
                f"tensor {name!r}: data section holds {data_size} bytes, "
                f"entry needs bytes [{offset}, {end})"
            )
        arr = np.frombuffer(
            data, dtype="<f4", count=length, offset=data_start + offset
        ).astype(np.float32).reshape(shape)
        tensors.append((TensorMeta(name=name, shape=shape, kind=kind, depth=depth), arr))
    return Checkpoint(tensors=tensors, version=version)


# --------------------------------------------------------------------------
# JSON fixture import
# --------------------------------------------------------------------------

_JSON_KEYS = ("name", "shape", "kind", "depth")


def _validate_entry(entry, i: int, with_data: bool) -> TensorMeta:
    path = f"$[{i}]"
    if not isinstance(entry, dict):
        raise SchemaError(f"{path}: expected an object")
    allowed = set(_JSON_KEYS) | ({"data"} if with_data else set())
    unknown = set(entry) - allowed
    if unknown:
        raise SchemaError(f"{path}: unknown keys {sorted(unknown)}")
    for key in _JSON_KEYS + (("data",) if with_data else ()):
        if key not in entry:
            raise SchemaError(f"{path}.{key}: missing")
    name = entry["name"]
    if not isinstance(name, str) or not name:
        raise SchemaError(f"{path}.name: expected a non-empty string")
    shape = entry["shape"]
    if (
        not isinstance(shape, list)
        or not 1 <= len(shape) <= 4
        or any(isinstance(d, bool) or not isinstance(d, int) or d < 1 for d in shape)
    ):
        raise SchemaError(f"{path}.shape: expected 1-4 positive integers")
    kind = entry["kind"]
    if kind not in KINDS:
        raise SchemaError(f"{path}.kind: expected one of {list(KINDS)}, got {kind!r}")
    depth = entry["depth"]
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        raise SchemaError(f"{path}.depth: expected a non-negative integer")
    return TensorMeta(name=name, shape=tuple(shape), kind=kind, depth=depth)


def parse_tensor_specs(text: str, with_data: bool) -> list[tuple[TensorMeta, list | None]]:
    """Shared validator for the fixture and archspec JSON schemas."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from exc
    if not isinstance(doc, list):
        raise SchemaError("$: expected a list of tensor objects")
    out = []
    seen: set[str] = set()
    prev_depth = -1
    for i, entry in enumerate(doc):
        meta = _validate_entry(entry, i, with_data)
        if meta.name in seen:
            raise SchemaError(f"$[{i}].name: duplicate {meta.name!r}")
        seen.add(meta.name)
        if meta.depth < prev_depth:
            raise SchemaError(f"$[{i}].depth: depth values must be non-decreasing")
        prev_depth = meta.depth
        values = None
        if with_data:
            values = entry["data"]
            if not isinstance(values, list):
                raise SchemaError(f"$[{i}].data: expected a list of numbers")
            for j, x in enumerate(values):
                if isinstance(x, bool) or not isinstance(x, (int, float)):
                    raise SchemaError(f"$[{i}].data[{j}]: expected a number")
            if len(values) != math.prod(meta.shape):
                raise ShapeMismatch(
                    f"$[{i}].data: {len(values)} values for shape "
                    f"{list(meta.shape)} (expected {math.prod(meta.shape)})"
                )
        out.append((meta, values))
    return out


def import_json(text: str) -> Checkpoint:
    """Build a checkpoint from the JSON fixture schema; data coerced to f32."""
    tensors = []
    for meta, values in parse_tensor_specs(text, with_data=True):
        arr = np.asarray(values, dtype=np.float32).reshape(meta.shape)
        tensors.append((meta, arr))
    return Checkpoint(tensors=tensors)
