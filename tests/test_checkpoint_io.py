import io
import json
import math
import os
import random
import re
import struct
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghnpost.checkpoint_io import (
    CheckpointReader,
    TensorMeta,
    encode_header,
    parse_tensor_specs,
    positional_writer,
)
from ghnpost.errors import DataFormatError


from conftest import decode_ckpt, make_checkpoint, reader_of, repair, through_file

# No tensor is this deep: postprocess passes every tensor through, read
# through the reader and written back through positional_writer.
_PASS = repair(10**9)


def _assert_reads_back(blob):
    """The reader gives the metas and the float32 tensors that the
    independent codec decodes from ``blob``, bit for bit."""
    reader = reader_of(blob)
    specs, arrays = decode_ckpt(blob)
    assert reader.metas == [TensorMeta(s.name, s.shape, s.kind, s.depth) for s in specs]
    for i, arr in enumerate(arrays):
        got = reader.read_rows(i, 0, arr.shape[0], np.empty(arr.size, np.float32))
        assert got.dtype == np.float32 and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()


def test_round_trip_identity(small_checkpoint):
    _assert_reads_back(small_checkpoint)


def test_write_is_deterministic(small_checkpoint):
    assert through_file(small_checkpoint, _PASS) == through_file(small_checkpoint, _PASS)


def test_write_read_write_fixpoint(small_checkpoint):
    assert through_file(small_checkpoint, _PASS) == small_checkpoint


def test_empty_checkpoint():
    blob = make_checkpoint([])
    assert reader_of(blob).metas == []
    assert through_file(blob, _PASS) == blob


def test_hand_built_file_matches_format():
    # One tensor "w", shape [2,2], values [1,2,3,4]; bytes assembled by hand
    # from the documented layout.  The writer must reproduce them.
    header = json.dumps(
        {
            "tensors": [
                {
                    "depth": 0,
                    "kind": "linear",
                    "length": 4,
                    "name": "w",
                    "offset": 0,
                    "shape": [2, 2],
                }
            ]
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode("utf-8")
    blob = b"GHNP" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
    blob += b"\x00" * (-len(blob) % 8)
    blob += struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)

    reader = reader_of(blob)
    assert reader.metas == [TensorMeta(name="w", shape=(2, 2), kind="linear", depth=0)]
    arr = reader.read_rows(0, 0, 2, np.empty(4, np.float32))
    assert arr.dtype == np.float32
    np.testing.assert_array_equal(arr, np.array([[1, 2], [3, 4]], dtype=np.float32))

    assert through_file(blob, _PASS) == blob


def test_bad_magic():
    with pytest.raises(DataFormatError, match="^magic: expected b'GHNP', got b'XXXX'$"):
        reader_of(b"XXXX" + b"\x00" * 32)
    with pytest.raises(DataFormatError, match="^magic: expected b'GHNP', got b'GH'$"):
        reader_of(b"GH")


def test_unsupported_version(small_checkpoint):
    blob = bytearray(small_checkpoint)
    blob[4:8] = struct.pack("<I", 9)
    with pytest.raises(DataFormatError, match="^version: got 9, supported 1$"):
        reader_of(bytes(blob))


def test_header_longer_than_file():
    blob = b"GHNP" + struct.pack("<I", 1) + struct.pack("<Q", 10_000)
    with pytest.raises(DataFormatError, match="^header_length: declares 10000 bytes"):
        reader_of(blob + b"{}")


def test_header_not_json():
    payload = b"not json!!"
    blob = b"GHNP" + struct.pack("<I", 1) + struct.pack("<Q", len(payload)) + payload
    with pytest.raises(DataFormatError, match="^header: not valid JSON"):
        reader_of(blob)


def _blob_with_header(header_obj):
    header = json.dumps(header_obj, sort_keys=True, separators=(",", ":")).encode()
    blob = b"GHNP" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
    blob += b"\x00" * (-len(blob) % 8)
    return blob


def test_header_schema_violations():
    entry = {"name": "w", "shape": [2], "kind": "linear", "depth": 0,
             "offset": 0, "length": 2}
    cases = [
        ({}, "^header: missing 'tensors' field$"),
        ({"tensors": [{**entry, "kind": "wat"}]}, r"^tensors\[0\]\.kind: expected one of"),
        ({"tensors": [dict(entry, length=3)]}, r"^tensors\[0\]\.length: expected 2, got 3$"),
        ({"tensors": [dict(entry, depth=-1)]},
         r"^tensors\[0\]\.depth: expected a non-negative integer"),
        ({"tensors": [dict(entry, shape=[0])]}, r"^tensors\[0\]\.shape: expected 1-4 positive"),
        ({"tensors": [dict(entry, shape=[1, 1, 1, 1, 1], length=1)]},
         r"^tensors\[0\]\.shape: expected 1-4 positive"),
        ({"tensors": [entry, dict(entry, offset=8)]}, r"^tensors\[1\]\.name: duplicate 'w'$"),
        ({"tensors": [dict(entry, depth=3),
                      dict(entry, name="v", depth=1, offset=8)]},
         r"^tensors\[1\]\.depth: 1 after 3; must not decrease$"),
    ]
    for header_obj, pattern in cases:
        blob = _blob_with_header(header_obj) + b"\x00" * 64
        with pytest.raises(DataFormatError, match=pattern):
            reader_of(blob)


@pytest.mark.parametrize("name", ["", "\ud800", "a\udfffb"])
def test_name_rule_holds_in_reader_writer_and_archspec(name):
    # One rule, each path with its own error class and prefix: a name is a
    # non-empty string that encodes as UTF-8; the writer's error is ValueError.
    entry = {"name": name, "shape": [2], "kind": "linear", "depth": 0,
             "offset": 0, "length": 2}
    with pytest.raises(DataFormatError, match=r"^tensors\[0\]\.name: expected a non-empty"):
        reader_of(_blob_with_header({"tensors": [entry]}) + b"\x00" * 8)
    with pytest.raises(ValueError, match=r"^tensors\[0\]\.name: expected a non-empty"):
        encode_header([TensorMeta(name, (2,), "linear", 0)])
    text = json.dumps([{"name": name, "shape": [2], "kind": "linear", "depth": 0}])
    with pytest.raises(DataFormatError, match=r"^\$\[0\]\.name: expected a non-empty"):
        parse_tensor_specs(text.encode())


@pytest.mark.parametrize("field, want", [("offset", 8), ("length", 2)])
@pytest.mark.parametrize("value", [2.0, "2", True, None, [2]])
def test_non_integer_offset_or_length_is_corrupt_header(field, want, value):
    entry = {"name": "w", "shape": [2], "kind": "linear", "depth": 0,
             "offset": 0, "length": 2}
    blob = _blob_with_header({"tensors": [entry, {**entry, "name": "v", "offset": 8,
                                                  field: value}]})
    with pytest.raises(DataFormatError, match=(
            rf"^tensors\[1\]\.{field}: expected {want}, got {re.escape(repr(value))}$")):
        reader_of(blob + b"\x00" * 16)


def test_too_deeply_nested_json_is_a_data_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(DataFormatError, match="^header: not valid JSON"):
        reader_of(b"GHNP" + struct.pack("<IQ", 1, len(deep)) + deep.encode())
    with pytest.raises(DataFormatError, match=r"^\$: not valid JSON"):
        parse_tensor_specs(deep.encode())


def test_truncated_data():
    entry = {"name": "w", "shape": [4], "kind": "linear", "depth": 0,
             "offset": 0, "length": 4}
    blob = _blob_with_header({"tensors": [entry]})
    blob += struct.pack("<2f", 1.0, 2.0)  # 8 of the 16 declared bytes
    with pytest.raises(DataFormatError, match="^tensor 'w': data section holds 8 bytes"):
        reader_of(blob)


def _two_tensor_blob(offsets) -> bytes:
    """"a" and "b", two values each, at ``offsets`` in a 16-byte data
    section; the layout the writer gives is (0, 8)."""
    entries = [{"name": name, "shape": [2], "kind": "linear", "depth": 0, "offset": offset,
                "length": 2} for name, offset in zip("ab", offsets)]
    return _blob_with_header({"tensors": entries}) + struct.pack("<4f", 1.0, 2.0, 3.0, 4.0)


@pytest.mark.parametrize("offsets", [(8, 0), (0, 4), (4, 0), (0, 0), (8, 4), (0, 12), (4, 12),
                                     (-8, 8)],
                         ids=["swapped", "second_half", "first_half", "same_start",
                              "out_of_order", "gap", "gap_first", "negative"])
def test_each_offset_is_the_contiguous_one(offsets):
    # Gaps, any other order and shared bytes all break the one rule: tensor
    # i starts where tensor i - 1 ends, the first at 0.
    i = 0 if offsets[0] != 0 else 1
    with pytest.raises(DataFormatError, match=(
            rf"^tensors\[{i}\]\.offset: expected {(0, 8)[i]}, got {offsets[i]}$")):
        reader_of(_two_tensor_blob(offsets))


def test_bytes_after_the_last_tensor_are_ignored(small_checkpoint):
    reader = reader_of(small_checkpoint + b"\xff" * 13)
    for i, arr in enumerate(decode_ckpt(small_checkpoint)[1]):
        assert reader.read_rows(i, 0, arr.shape[0], np.empty(arr.size, np.float32)
                                ).tobytes() == arr.tobytes()
    reader = reader_of(_two_tensor_blob((0, 8)) + bytes(8))
    np.testing.assert_array_equal(reader.read_rows(1, 0, 2, np.empty(2, np.float32)),
                                  np.array([3, 4], dtype=np.float32))


@pytest.mark.parametrize("size", ["full", "toy"])
@pytest.mark.parametrize("table", ["resnet", "vit"])
def test_benchmark_inputs_have_the_writers_header(table, size, monkeypatch):
    # The benchmark writes its inputs with a writer of its own; the header
    # it writes is the one encode_header gives, so the reader takes it.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "e2ebench"))
    from run import TABLES
    from workloads import resnet50_table, vit_table, write_ckpt

    specs = {"resnet": resnet50_table, "vit": vit_table}[table](**TABLES[size][table])
    handle = io.BytesIO()
    write_ckpt(handle, specs, [np.zeros(0, np.float32)] * len(specs))
    head, _ = encode_header([TensorMeta(s.name, s.shape, s.kind, s.depth) for s in specs])
    assert handle.getvalue() == head


def test_short_readinto_is_truncated_data(small_checkpoint, tmp_path):
    # The header checks pass; the file then shrinks before the tensors are read.
    path = tmp_path / "c.ckpt"
    blob = small_checkpoint
    path.write_bytes(blob)
    with open(path, "rb") as handle:
        reader = CheckpointReader(handle)
        os.truncate(path, len(blob) - 4)
        *whole, last = reader.metas
        for i, meta in enumerate(whole):
            reader.read_rows(i, 0, meta.shape[0], np.empty(math.prod(meta.shape), np.float32))
        assert last.name == "head.fc"  # 10 x 16 values, 640 bytes
        with pytest.raises(DataFormatError, match=(
                "^read 636 of 640 bytes; the file shrank while it was read$")):
            reader.read_rows(len(whole), 0, last.shape[0], np.empty(160, np.float32))


class _PieceReader(io.BytesIO):
    """A file whose ``readinto`` returns at most 7 bytes, as a raw read
    that the OS cuts short."""

    def readinto(self, buf):
        return super().readinto(memoryview(buf).cast("B")[:7])


def test_a_read_in_pieces_is_reassembled_bit_for_bit(small_checkpoint):
    reader = CheckpointReader(_PieceReader(small_checkpoint))
    arrays = decode_ckpt(small_checkpoint)[1]
    for i, arr in enumerate(arrays):
        assert reader.read_rows(i, 0, arr.shape[0], np.empty(arr.size, np.float32)
                                ).tobytes() == arr.tobytes()
    w = arrays[2]
    assert reader.read_rows(2, 3, 11, np.empty(w[3:11].size, np.float32)
                            ).tobytes() == w[3:11].tobytes()


def test_writers_match_for_non_contiguous_arrays(tmp_path):
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    path = tmp_path / "c.ckpt"
    with open(path, "wb") as handle:
        positional_writer(handle.fileno(), [TensorMeta("w", (3, 2), "linear", 0)])(0, w.T, 0)
    assert path.read_bytes() == make_checkpoint([("w", (3, 2), "linear", 0, w.T)])
    np.testing.assert_array_equal(
        reader_of(path.read_bytes()).read_rows(0, 0, 3, np.empty(6, np.float32)), w.T)


def _many_tensors(n=24):
    """n linear tensors of random shapes, up to 64 x 2048, as
    (name, shape, kind, depth, array)."""
    rng = np.random.default_rng(5)
    tensors = []
    for i in range(n):
        shape = (int(rng.integers(1, 64)), int(rng.integers(1, 2048)))
        tensors.append((f"t{i}", shape, "linear", 0,
                        rng.standard_normal(shape, dtype=np.float32)))
    return tensors


def test_loads_from_four_threads_equal_a_sequential_read(tmp_path):
    tensors = _many_tensors()
    path = tmp_path / "c.ckpt"
    path.write_bytes(make_checkpoint(tensors))
    ids = list(range(len(tensors)))
    with open(path, "rb") as handle:
        reader = CheckpointReader(handle)

        def read(i):
            shape = reader.metas[i].shape
            return reader.read_rows(i, 0, shape[0], np.empty(math.prod(shape), np.float32)
                                    ).tobytes()

        expected = [read(i) for i in ids]
        mismatches = []

        def load_all(seed):
            for i in random.Random(seed).sample(ids * 4, len(ids) * 4):
                if read(i) != expected[i]:
                    mismatches.append(i)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads between seek and read
        try:
            threads = [threading.Thread(target=load_all, args=(k,)) for k in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert mismatches == []


def test_positional_writer_in_any_order_equals_the_encoded_bytes(tmp_path, monkeypatch):
    tensors = _many_tensors()
    metas = [TensorMeta(*t[:4]) for t in tensors]
    pwrite = os.pwrite
    # At most 1000 bytes per call, as a write that the OS cuts short.
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:1000], offset))
    path = tmp_path / "c.ckpt"
    def put_tensor(i):
        # Odd tensors of two rows or more go as two blocks of rows, the
        # later rows first.
        w = tensors[i][4]
        if i % 2 and len(w) > 1:
            half = len(w) // 2
            put(i, w[half:], half)
            put(i, w[:half], 0)
        else:
            put(i, w, 0)

    with open(path, "wb") as handle:
        put = positional_writer(handle.fileno(), metas)
        threads = [
            threading.Thread(target=lambda ids: [put_tensor(i) for i in ids],
                             args=(range(k, len(metas), 3)[::-1],))
            for k in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert path.read_bytes() == make_checkpoint(tensors)
    with open(path, "wb") as handle:
        put = positional_writer(handle.fileno(), metas)
        rows, cols = metas[0].shape
        for block, row in [(np.zeros((2, cols), np.float32), rows - 1),  # past the end
                           (np.zeros((2, cols + 1), np.float32), 0)]:  # not whole rows
            with pytest.raises(ValueError, match="whole rows"):
                put(0, block, row)


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("{}", r"^\$: expected a list of tensor objects$"),
        ("[1]", r"^\$\[0\]: expected an object$"),
        ('[{"name":"w","shape":[2],"kind":"linear"}]', r"^\$\[0\]\.depth: missing$"),
        ('[{"name":"w","shape":[2],"kind":"wat","depth":0}]', r"^\$\[0\]\.kind: expected one of"),
        ('[{"name":"w","shape":[2],"kind":"conv","depth":-1}]',
         r"^\$\[0\]\.depth: expected a non-negative integer"),
        ('[{"name":"w","shape":2,"kind":"conv","depth":0}]',
         r"^\$\[0\]\.shape: expected a list of 1-4 positive integers$"),
        ('[{"name":"w","shape":[2],"kind":"conv","depth":0,"data":[1,2]}]',
         r"^\$\[0\]: unknown keys \['data'\]$"),
        ('[{"name":"a","shape":[1],"kind":"conv","depth":1},'
         '{"name":"b","shape":[1],"kind":"conv","depth":0}]',
         r"^\$\[1\]\.depth: 0 after 1; must not decrease$"),
        ("not json", r"^\$: not valid JSON"),
    ],
)
def test_parse_tensor_specs_schema_errors(text, pattern):
    with pytest.raises(DataFormatError, match=pattern):
        parse_tensor_specs(text.encode())


def test_parse_tensor_specs_returns_the_metas():
    text = '[{"name":"w","shape":[2,3],"kind":"linear","depth":1}]'
    assert parse_tensor_specs(text.encode()) == [TensorMeta("w", (2, 3), "linear", 1)]


def test_write_rejects_invariant_violations(tmp_path):
    arr = np.zeros((2, 2), dtype=np.float32)
    meta = TensorMeta("w", (2, 2), "conv", 0)
    with open(tmp_path / "c.ckpt", "wb") as handle:
        with pytest.raises(ValueError, match="whole rows"):
            positional_writer(handle.fileno(), [TensorMeta("w", (2, 3), "conv", 0)])(0, arr, 0)
        with pytest.raises(ValueError, match="duplicate"):
            positional_writer(handle.fileno(), [meta, meta])
        with pytest.raises(ValueError, match="float32"):
            positional_writer(handle.fileno(), [meta])(0, arr.astype(np.float64), 0)


_names = st.text(
    alphabet="abcdefghijklmnopqrstuvwxyz0123456789._-", min_size=1, max_size=12
)
_shapes = st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=4)


@st.composite
def _checkpoints(draw):
    n = draw(st.integers(min_value=0, max_value=5))
    names = draw(st.lists(_names, min_size=n, max_size=n, unique=True))
    depths = sorted(draw(st.lists(st.integers(0, 9), min_size=n, max_size=n)))
    tensors = []
    for name, depth in zip(names, depths):
        shape = tuple(draw(_shapes))
        kind = draw(st.sampled_from(["conv", "linear", "norm", "bias", "other"]))
        seed = draw(st.integers(0, 2**31))
        arr = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
        tensors.append((name, shape, kind, depth, arr))
    return make_checkpoint(tensors)


@settings(max_examples=30, deadline=None)
@given(_checkpoints())
def test_round_trip_property(blob):
    _assert_reads_back(blob)
    assert through_file(blob, _PASS) == blob
