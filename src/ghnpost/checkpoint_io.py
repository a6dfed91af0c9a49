"""Binary checkpoint container.

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
Both follow from the shapes (:func:`_layout`): the reader accepts only
the contiguous values the writer gives, and ignores any bytes after the
last tensor.  Serialization is canonical: sorted keys, no whitespace,
so the same tensors always give the same bytes.

This module is the one place that reads or writes checkpoint bytes.  A
file is read a block of a tensor's rows at a time, on demand, into the
caller's float32 buffer, so no command holds a whole file; it is written
at each tensor's offset, in any order, a block of rows at a time.  A
header or an architecture spec (the bytes of its file) that breaks a
rule raises DataFormatError naming the entry and field, before any
tensor is read or written.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import struct
import threading
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass
from itertools import accumulate
from typing import BinaryIO

import numpy as np

from .errors import DataFormatError
from .tensor_ops import row_step

MAGIC = b"GHNP"
FORMAT_VERSION = 1
KINDS = ("conv", "linear", "norm", "bias", "other")
ELIGIBLE_KINDS = ("conv", "linear")  # the kinds that are analyzed and post-processed

_HEADER_PREFIX = struct.Struct("<4sIQ")  # magic, version, header length
# A non-empty name that encodes as UTF-8: no surrogate code points.
_NAME = re.compile(r"[^\ud800-\udfff]+")
_F32_BYTES = 4


@dataclass(frozen=True)
class TensorMeta:
    name: str
    shape: tuple[int, ...]
    kind: str
    depth: int

    def __post_init__(self):
        object.__setattr__(self, "shape", tuple(self.shape))


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _check_metas(
    metas: Iterable[TensorMeta], error: type[Exception], path: str = "tensors"
) -> None:
    """The metadata rules every checkpoint obeys, raising ``error`` at ``path[i].field``.

    Names are unique non-empty strings that encode as UTF-8, kinds are
    known, shapes have 1-4 positive integer dimensions, and depths are
    non-negative integers that do not decrease in file order.  The header
    reader and the archspec reader check through here with DataFormatError,
    the writer with ValueError.
    """
    seen: set[str] = set()
    prev_depth = 0
    for i, meta in enumerate(metas):
        at = f"{path}[{i}]"
        if not (isinstance(meta.name, str) and _NAME.fullmatch(meta.name)):
            raise error(f"{at}.name: expected a non-empty UTF-8 string, got {meta.name!r}")
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


def _check_array(meta: TensorMeta, arr: np.ndarray, row: int) -> None:
    """``arr`` is float32 and is the rows row .. row + len(arr) of the
    first axis of ``meta``'s tensor, of any shape that holds whole rows
    (such as rows of the K x CHW matrix)."""
    if not (arr.ndim and arr.size == len(arr) * math.prod(meta.shape[1:])
            and 0 <= row <= meta.shape[0] - len(arr)):
        raise ValueError(
            f"tensor {meta.name!r}: array shape {tuple(arr.shape)} at row {row} is not "
            f"whole rows of metadata shape {meta.shape}"
        )
    if arr.dtype != np.float32:
        raise ValueError(f"tensor {meta.name!r}: dtype {arr.dtype}, expected float32")


def _layout(metas: Sequence[TensorMeta]) -> list[int]:
    """Each tensor's offset into the data section, then the section's size:
    4 bytes a value, contiguous, in header order.  The one place that says
    where a tensor's bytes lie, for the writer and the reader alike."""
    return list(accumulate((math.prod(meta.shape) * _F32_BYTES for meta in metas), initial=0))


def encode_header(metas: Sequence[TensorMeta]) -> tuple[bytes, list[int]]:
    """The canonical header of ``metas`` as bytes (prefix, JSON, padding) and
    the file offset of each tensor's data, then the file size; bad metas
    raise ValueError."""
    _check_metas(metas, ValueError)
    offsets = _layout(metas)
    entries = [{"name": meta.name, "shape": list(meta.shape), "kind": meta.kind,
                "depth": meta.depth, "offset": offset, "length": math.prod(meta.shape)}
               for meta, offset in zip(metas, offsets)]
    header = json.dumps({"tensors": entries}, sort_keys=True, separators=(",", ":"))
    header_bytes = header.encode("utf-8")
    head = _HEADER_PREFIX.pack(MAGIC, FORMAT_VERSION, len(header_bytes)) + header_bytes
    head += bytes(-len(head) % 8)
    return head, [len(head) + offset for offset in offsets]


def _tensor_bytes(meta: TensorMeta, arr: np.ndarray, row: int) -> memoryview:
    """The bytes of ``arr`` as the file stores them (C-ordered ``<f4``),
    once it is checked against ``meta`` by :func:`_check_array` as the
    tensor's rows from ``row``.  A bad array raises ValueError, a
    programming error, not a data error."""
    _check_array(meta, arr, row)
    return memoryview(np.ascontiguousarray(arr, dtype="<f4")).cast("B")


def positional_writer(
    fd: int, metas: Sequence[TensorMeta]
) -> Callable[[int, np.ndarray, int], None]:
    """Write the header of ``metas`` into the file open for writing at ``fd``,
    size the file to hold every tensor, and return ``put(i, arr, row)``:
    write :func:`_tensor_bytes` of ``arr`` as rows row .. row + len(arr) of
    tensor i's first axis, at its offset plus 4 * row * (elements per row);
    a whole tensor is its rows from 0.  ``put`` may run on any thread, in
    any order, once per block of rows (``os.pwrite`` releases the GIL);
    bytes never put read as zeros.
    """
    head, offsets = encode_header(metas)
    _pwrite_all(fd, head, 0)
    os.ftruncate(fd, offsets[-1])

    def put(i: int, arr: np.ndarray, row: int) -> None:
        meta = metas[i]
        start = row * math.prod(meta.shape[1:]) * _F32_BYTES
        _pwrite_all(fd, _tensor_bytes(meta, arr, row), offsets[i] + start)

    return put


def _pwrite_all(fd: int, data, offset: int) -> None:
    view = memoryview(data).cast("B")
    while view:  # a write may be partial
        written = os.pwrite(fd, view, offset)
        view, offset = view[written:], offset + written


_META_KEYS = ("name", "shape", "kind", "depth")  # TensorMeta's fields, in order


def _entry_meta(entry, at: str, extra: tuple[str, ...]) -> TensorMeta:
    """The TensorMeta of the JSON ``entry`` at path ``at``: an object that
    holds the meta keys and ``extra``, with a list ``shape``, or
    DataFormatError.  The rules on the values are :func:`_check_metas`'s."""
    if not isinstance(entry, dict):
        raise DataFormatError(f"{at}: expected an object")
    for key in _META_KEYS + extra:
        if key not in entry:
            raise DataFormatError(f"{at}.{key}: missing")
    if not isinstance(entry["shape"], list):
        raise DataFormatError(f"{at}.shape: expected a list of 1-4 positive integers")
    return TensorMeta(*(entry[key] for key in _META_KEYS))


def _decode_json(raw: bytes, at: str):
    """The JSON document in the UTF-8 bytes ``raw``.  Bytes that are not
    UTF-8, text that is not JSON, an integer too long to convert and
    nesting too deep to parse raise DataFormatError at ``at``."""
    try:
        return json.loads(raw.decode("utf-8"))
    # UnicodeDecodeError, JSONDecodeError and the int digit limit are ValueErrors.
    except (ValueError, RecursionError) as exc:
        raise DataFormatError(f"{at}: not valid JSON ({exc})") from exc


def _read_header(handle: BinaryIO) -> tuple[list[TensorMeta], list[int]]:
    """(metas, absolute data offsets), checked against the file size.  Any
    rule broken raises DataFormatError naming the field: ``magic``,
    ``version`` (one other than FORMAT_VERSION), ``header_length``,
    ``header``, ``tensors``, ``data`` (the file ends inside the padding),
    ``tensors[i].field``, or the tensor whose bytes the data section
    does not hold."""
    size = handle.seek(0, io.SEEK_END)
    handle.seek(0)
    prefix = handle.read(_HEADER_PREFIX.size)
    if prefix[:4] != MAGIC:
        raise DataFormatError(f"magic: expected {MAGIC!r}, got {prefix[:4]!r}")
    if len(prefix) < _HEADER_PREFIX.size:
        raise DataFormatError("header_length: file shorter than the fixed header")
    _, version, header_len = _HEADER_PREFIX.unpack(prefix)
    if version != FORMAT_VERSION:
        raise DataFormatError(f"version: got {version}, supported {FORMAT_VERSION}")
    header_end = _HEADER_PREFIX.size + header_len
    if header_end > size:
        raise DataFormatError(
            f"header_length: declares {header_len} bytes, file has "
            f"{size - _HEADER_PREFIX.size} after the fixed header"
        )
    header = _decode_json(handle.read(header_len), "header")
    if not isinstance(header, dict) or "tensors" not in header:
        raise DataFormatError("header: missing 'tensors' field")
    raw_entries = header["tensors"]
    if not isinstance(raw_entries, list):
        raise DataFormatError("tensors: expected a list")

    data_start = header_end + (-header_end % 8)
    if data_start > size:
        raise DataFormatError("data: file ends inside the alignment padding")
    data_size = size - data_start

    metas = [_entry_meta(entry, f"tensors[{i}]", ("offset", "length"))
             for i, entry in enumerate(raw_entries)]
    _check_metas(metas, DataFormatError)

    offsets = _layout(metas)
    for i, (meta, entry) in enumerate(zip(metas, raw_entries)):
        for key, want in (("offset", offsets[i]), ("length", math.prod(meta.shape))):
            if not _is_int(entry[key]) or entry[key] != want:
                raise DataFormatError(f"tensors[{i}].{key}: expected {want}, got {entry[key]!r}")
        if offsets[i + 1] > data_size:
            raise DataFormatError(
                f"tensor {meta.name!r}: data section holds {data_size} bytes, "
                f"entry needs bytes [{offsets[i]}, {offsets[i + 1]})"
            )
    return metas, [data_start + offset for offset in offsets[:-1]]


class CheckpointReader:
    """A checkpoint file whose tensors are read one at a time.

    The constructor reads and checks the whole header, each tensor's
    ``offset`` and ``length`` against :func:`_layout`'s, and the data
    section's size against each tensor's end, so a malformed or truncated
    file fails before any tensor is read.  Blocks of a tensor's rows
    (:meth:`read_rows`) are then read by offset, in any order and from
    any thread: each read is one ``seek`` + ``readinto`` loop under a
    lock.  The handle must stay open while tensors are read; an
    unbuffered one (``buffering=0``) sees a file that shrinks after the
    header check, where a buffered one may serve the old bytes.
    """

    def __init__(self, handle: BinaryIO):
        self._handle = handle
        self._lock = threading.Lock()
        self.metas, self._starts = _read_header(handle)

    def read_rows(self, i: int, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        """Rows r0..r1 of tensor i's first axis, shaped (r1 - r0, *shape[1:]),
        read into the float32 buffer ``out``, which must hold at least
        that many values.  A read may return part of what was asked (a raw
        read gives at most about 2 GiB), so reads repeat until the rows
        are in; a file that shrank since the header was checked raises
        DataFormatError ("the file shrank while it was read"), and the
        caller names the tensor."""
        shape = self.metas[i].shape
        row = math.prod(shape[1:])
        count = (r1 - r0) * row
        buf = out[:count]
        view = memoryview(buf).cast("B")
        with self._lock:
            self._handle.seek(self._starts[i] + r0 * row * _F32_BYTES)
            while view:
                got = self._handle.readinto(view)
                if not got:
                    raise DataFormatError(
                        f"read {buf.nbytes - len(view)} of {buf.nbytes} bytes; "
                        "the file shrank while it was read"
                    )
                view = view[got:]
        return buf.reshape((r1 - r0, *shape[1:]))


class TensorRows:
    """Tensor ``i`` of a :class:`CheckpointReader`, of any rank, as a row
    source of :func:`~ghnpost.tensor_ops.row_blocks`: ``read(r0, r1)``
    gives rows r0..r1 of its first axis through ``read_rows``, into one
    float32 buffer of a block's rows that every read reuses.  So a file's
    tensor is never held whole as float32.  The constructor allocates
    the buffer; the caller names the tensor.
    """

    def __init__(self, source: CheckpointReader, i: int):
        self.shape = source.metas[i].shape
        self._source, self._i = source, i
        row = math.prod(self.shape[1:])
        self._buf = np.empty(row_step(self.shape[0], row) * row, dtype="<f4")

    def read(self, r0: int, r1: int) -> np.ndarray:
        return self._source.read_rows(self._i, r0, r1, self._buf)


def parse_tensor_specs(raw: bytes) -> list[TensorMeta]:
    """The tensors of an archspec, a JSON list of ``{name, shape, kind,
    depth}`` objects; ``raw`` is the file's bytes (UTF-8).  Any
    other document, a missing or unknown key, or a value that breaks a
    metadata rule raises DataFormatError at its JSON path (``$``,
    ``$[i]`` or ``$[i].field``)."""
    doc = _decode_json(raw, "$")
    if not isinstance(doc, list):
        raise DataFormatError("$: expected a list of tensor objects")
    metas = [_entry_meta(entry, f"$[{i}]", ()) for i, entry in enumerate(doc)]
    _check_metas(metas, DataFormatError, path="$")
    for i, entry in enumerate(doc):
        unknown = set(entry) - set(_META_KEYS)
        if unknown:
            raise DataFormatError(f"$[{i}]: unknown keys {sorted(unknown)}")
    return metas
