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

Files are read and written one tensor at a time: :class:`CheckpointReader`
parses the header and loads tensors on demand, :func:`write_tensors`
writes the header and then a stream of arrays.  ``read_checkpoint`` and
``write_checkpoint`` run the same two over an in-memory buffer, and
:func:`positional_writer` writes each tensor at its offset, in any order.
"""

from __future__ import annotations

import io
import json
import math
import os
import struct
import threading
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from typing import BinaryIO

import numpy as np

from .errors import (
    BadMagic,
    CorruptHeader,
    SchemaError,
    ShapeMismatch,
    TruncatedData,
    UnsupportedVersion,
    naming,
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

    def __iter__(self) -> Iterator[tuple[TensorMeta, np.ndarray]]:
        return iter(self.tensors)

    @property
    def metas(self) -> list[TensorMeta]:
        return [meta for meta, _ in self.tensors]

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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_metas(
    metas: Iterable[TensorMeta], error: type[Exception], path: str = "tensors"
) -> None:
    """The metadata rules every checkpoint obeys, raising ``error`` at ``path[i].field``.

    Names are unique, kinds are known, shapes have 1-4 positive integer
    dimensions, and depths are non-negative integers that do not decrease
    in file order.  The header reader, the writer and the JSON importer
    all check through here, each with its own error class.
    """
    seen: set[str] = set()
    prev_depth = 0
    for i, meta in enumerate(metas):
        at = f"{path}[{i}]"
        if meta.name in seen:
            raise error(f"{at}.name: duplicate {meta.name!r}")
        seen.add(meta.name)
        if meta.kind not in KINDS:
            raise error(f"{at}.kind: expected one of {list(KINDS)}, got {meta.kind!r}")
        dims = meta.shape
        if not 1 <= len(dims) <= 4 or not all(_is_int(d) and d >= 1 for d in dims):
            raise error(f"{at}.shape: expected 1-4 positive integers, got {list(dims)}")
        if not _is_int(meta.depth) or meta.depth < 0:
            raise error(f"{at}.depth: expected a non-negative integer, got {meta.depth!r}")
        if meta.depth < prev_depth:
            raise error(f"{at}.depth: {meta.depth} after {prev_depth}; must not decrease")
        prev_depth = meta.depth


def _check_array(meta: TensorMeta, arr: np.ndarray) -> None:
    if tuple(arr.shape) != meta.shape:
        raise ValueError(
            f"tensor {meta.name!r}: metadata shape {meta.shape} != "
            f"array shape {tuple(arr.shape)}"
        )
    if arr.dtype != np.float32:
        raise ValueError(f"tensor {meta.name!r}: dtype {arr.dtype}, expected float32")


def validate_checkpoint(c: Checkpoint) -> None:
    """Enforce checkpoint invariants; raises ValueError on violation.

    These are preconditions of :func:`write_checkpoint`, so arriving here
    with a bad checkpoint is a programming error, not a data error.
    """
    if c.version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {c.version}")
    _check_metas(c.metas, ValueError)
    for meta, arr in c.tensors:
        _check_array(meta, arr)


def encode_header(metas: Sequence[TensorMeta]) -> tuple[bytes, list[int]]:
    """The canonical header of ``metas`` as bytes (prefix, JSON, padding) and
    the file offset of each tensor's data, then the file size; bad metas
    raise ValueError."""
    _check_metas(metas, ValueError)
    entries = []
    offset = 0
    for meta in metas:
        length = math.prod(meta.shape)
        entries.append({"name": meta.name, "shape": list(meta.shape), "kind": meta.kind,
                        "depth": meta.depth, "offset": offset, "length": length})
        offset += length * _F32_BYTES
    header = json.dumps({"tensors": entries}, sort_keys=True, separators=(",", ":"))
    header_bytes = header.encode("utf-8")
    head = _HEADER_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes)) + header_bytes
    head += bytes(-len(head) % 8)
    return head, [len(head) + e["offset"] for e in entries] + [len(head) + offset]


def write_tensors(
    handle: BinaryIO, metas: Sequence[TensorMeta], arrays: Iterable[np.ndarray]
) -> None:
    """Write a checkpoint in canonical form to ``handle``, one tensor at a time.

    All offsets follow from the shapes, so the header goes out first; then
    each array of ``arrays`` is checked against its meta (shape, float32)
    and written in header order.  Only one array of the stream needs to be
    in memory at a time.  Bad metas, a bad array, or a stream that is
    shorter or longer than ``metas`` raise ValueError: these are
    programming errors, not data errors.
    """
    handle.write(encode_header(metas)[0])
    for meta, arr in zip(metas, arrays, strict=True):
        _check_array(meta, arr)
        handle.write(np.ascontiguousarray(arr, dtype="<f4").data)


def positional_writer(fd: int, metas: Sequence[TensorMeta]) -> Callable[[int, np.ndarray], None]:
    """Write the header of ``metas`` into the file open for writing at ``fd``,
    size the file to hold every tensor, and return ``put(i, arr)``: check
    ``arr`` as :func:`write_tensors` does and write it at tensor i's offset.
    ``put`` may run on any thread, in any order, once per tensor
    (``os.pwrite`` releases the GIL); a tensor never put reads as zeros.
    """
    head, offsets = encode_header(metas)
    _pwrite_all(fd, head, 0)
    os.ftruncate(fd, offsets[-1])

    def put(i: int, arr: np.ndarray) -> None:
        _check_array(metas[i], arr)
        _pwrite_all(fd, np.ascontiguousarray(arr, dtype="<f4"), offsets[i])

    return put


def _pwrite_all(fd: int, data, offset: int) -> None:
    view = memoryview(data).cast("B")
    while view:  # a write may be partial
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


def write_checkpoint(c: Checkpoint) -> bytearray:
    """Serialize to the canonical byte form (pure; same input, same bytes)."""
    if c.version != FORMAT_VERSION:
        raise ValueError(f"unsupported checkpoint version {c.version}")
    buf = io.BytesIO()
    write_tensors(buf, c.metas, (arr for _, arr in c.tensors))
    return bytearray(buf.getbuffer())


def _header_field(entry, index: int, key: str, types):
    if key not in entry:
        raise CorruptHeader(f"tensors[{index}]: missing field {key!r}")
    value = entry[key]
    if isinstance(value, bool) or not isinstance(value, types):
        raise CorruptHeader(f"tensors[{index}].{key}: wrong type {type(value).__name__}")
    return value


def _read_header(handle: BinaryIO) -> tuple[int, list[TensorMeta], list[int]]:
    """(version, metas, absolute data offsets), checked against the file size."""
    size = handle.seek(0, io.SEEK_END)
    handle.seek(0)
    prefix = handle.read(_HEADER_PREFIX.size)
    if prefix[:4] != MAGIC:
        raise BadMagic(f"magic: expected {MAGIC!r}, got {prefix[:4]!r}")
    if len(prefix) < _HEADER_PREFIX.size:
        raise CorruptHeader("header_length: file shorter than the fixed header")
    _, version, header_len = _HEADER_PREFIX.unpack(prefix)
    if version != FORMAT_VERSION:
        raise UnsupportedVersion(f"version: got {version}, supported {FORMAT_VERSION}")
    header_end = _HEADER_PREFIX.size + header_len
    if header_end > size:
        raise CorruptHeader(
            f"header_length: declares {header_len} bytes, file has "
            f"{size - _HEADER_PREFIX.size} after the fixed header"
        )
    try:
        header = json.loads(handle.read(header_len).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise CorruptHeader(f"header: {exc}") from exc
    if not isinstance(header, dict) or "tensors" not in header:
        raise CorruptHeader("header: missing 'tensors' field")
    raw_entries = header["tensors"]
    if not isinstance(raw_entries, list):
        raise CorruptHeader("tensors: expected a list")

    data_start = header_end + (-header_end % 8)
    if data_start > size:
        raise TruncatedData("data: file ends inside the alignment padding")
    data_size = size - data_start

    metas: list[TensorMeta] = []
    spans: list[tuple[int, int]] = []
    for i, entry in enumerate(raw_entries):
        if not isinstance(entry, dict):
            raise CorruptHeader(f"tensors[{i}]: expected an object")
        metas.append(
            TensorMeta(
                name=_header_field(entry, i, "name", str),
                shape=_header_field(entry, i, "shape", list),
                kind=_header_field(entry, i, "kind", str),
                depth=_header_field(entry, i, "depth", int),
            )
        )
        spans.append(
            (_header_field(entry, i, "offset", int), _header_field(entry, i, "length", int))
        )
    _check_metas(metas, CorruptHeader)

    starts = []
    for i, (meta, (offset, length)) in enumerate(zip(metas, spans)):
        if math.prod(meta.shape) != length:
            raise CorruptHeader(
                f"tensors[{i}].length: {length} != product(shape) {math.prod(meta.shape)}"
            )
        if offset < 0:
            raise CorruptHeader(f"tensors[{i}].offset: negative")
        end = offset + length * _F32_BYTES
        if end > data_size:
            raise TruncatedData(
                f"tensor {meta.name!r}: data section holds {data_size} bytes, "
                f"entry needs bytes [{offset}, {end})"
            )
        starts.append(data_start + offset)
    return version, metas, starts


class CheckpointReader:
    """A checkpoint file whose tensors are loaded one at a time.

    The constructor reads and checks the whole header and every tensor's
    byte range against the file size, so a malformed or truncated file
    fails before any tensor is loaded.  Tensors are then read by offset,
    in any order and from any thread: each load is one ``seek`` +
    ``readinto`` into a fresh float32 array, under a lock.  The handle must
    stay open while tensors are loaded.
    """

    def __init__(self, handle: BinaryIO):
        self._handle = handle
        self._lock = threading.Lock()
        self.version, self.metas, self._starts = _read_header(handle)
        self._index = {meta.name: i for i, meta in enumerate(self.metas)}

    def __iter__(self) -> Iterator[tuple[TensorMeta, np.ndarray]]:
        for i, meta in enumerate(self.metas):
            yield meta, self._load(i)

    def get(self, name: str) -> tuple[TensorMeta, np.ndarray]:
        i = self._index[name]
        return self.metas[i], self._load(i)

    def _load(self, i: int) -> np.ndarray:
        meta = self.metas[i]
        with naming(meta.name):
            arr = np.empty(math.prod(meta.shape), dtype="<f4")
            with self._lock:
                self._handle.seek(self._starts[i])
                got = self._handle.readinto(arr)
            if got != arr.nbytes:
                raise TruncatedData(
                    f"read {got or 0} of {arr.nbytes} bytes; the file shrank while it was read"
                )
        return arr.reshape(meta.shape).astype(np.float32, copy=False)


def read_checkpoint(data: bytes) -> Checkpoint:
    """Parse checkpoint bytes, validating header and data bounds."""
    reader = CheckpointReader(io.BytesIO(data))
    return Checkpoint(tensors=list(reader), version=reader.version)


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
    if not isinstance(entry["shape"], list):
        raise SchemaError(f"{path}.shape: expected 1-4 positive integers")
    return TensorMeta(
        name=name, shape=entry["shape"], kind=entry["kind"], depth=entry["depth"]
    )


def parse_tensor_specs(text: str, with_data: bool) -> list[tuple[TensorMeta, list | None]]:
    """Shared validator for the fixture and archspec JSON schemas."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"$: not valid JSON ({exc})") from exc
    if not isinstance(doc, list):
        raise SchemaError("$: expected a list of tensor objects")
    metas = [_validate_entry(entry, i, with_data) for i, entry in enumerate(doc)]
    _check_metas(metas, SchemaError, path="$")
    out = []
    for i, (meta, entry) in enumerate(zip(metas, doc)):
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
