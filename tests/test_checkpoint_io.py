import io
import json
import math
import os
import random
import struct
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghnpost.checkpoint_io import (
    Checkpoint,
    CheckpointReader,
    TensorMeta,
    parse_tensor_specs,
    positional_writer,
    read_checkpoint,
    write_checkpoint,
)
from ghnpost.errors import (
    BadMagic,
    CorruptHeader,
    SchemaError,
    TruncatedData,
    UnsupportedVersion,
)

from conftest import make_checkpoint


def test_round_trip_identity(small_checkpoint):
    blob = write_checkpoint(small_checkpoint)
    assert read_checkpoint(blob) == small_checkpoint


def test_write_is_deterministic(small_checkpoint):
    assert write_checkpoint(small_checkpoint) == write_checkpoint(small_checkpoint)


def test_write_read_write_fixpoint(small_checkpoint):
    blob = write_checkpoint(small_checkpoint)
    assert write_checkpoint(read_checkpoint(blob)) == blob


def test_empty_checkpoint():
    c = Checkpoint(tensors=[])
    blob = write_checkpoint(c)
    back = read_checkpoint(blob)
    assert len(back) == 0
    assert back == c


def _ckpt(*arrays, name="w"):
    return make_checkpoint([(f"{name}{i}", (2, 3), "conv", 0, a) for i, a in enumerate(arrays)])


_W = np.arange(6, dtype=np.float32).reshape(2, 3)
_NAN = np.full((2, 3), np.nan, np.float32)
# Each pair differs in one way only, so each is told apart by one check of
# Checkpoint.__eq__; the arrays need not match their metas' shapes.
_UNEQUAL = {
    "meta": (_ckpt(_W), _ckpt(_W, name="v")),
    "tensor count": (_ckpt(_W), _ckpt(_W, _W)),
    "shape": (_ckpt(_W), _ckpt(_W.reshape(3, 2))),
    "dtype": (_ckpt(_W), _ckpt(_W.view(np.int32))),
    "signed zero": (_ckpt(np.zeros((2, 3), np.float32)), _ckpt(np.full((2, 3), -0.0, np.float32))),
    "nan payload": (_ckpt(_NAN), _ckpt((_NAN.view(np.uint32) | 1).view(np.float32))),
    "not a checkpoint": (_ckpt(_W), object()),
}


@pytest.mark.parametrize("left, right", _UNEQUAL.values(), ids=_UNEQUAL.keys())
def test_checkpoints_that_differ_are_unequal(left, right):
    assert left == Checkpoint(tensors=[(meta, arr.copy()) for meta, arr in left])
    assert not left == right and not right == left
    assert left != right


def test_hand_built_file_matches_format():
    # One tensor "w", shape [2,2], values [1,2,3,4]; bytes assembled by hand
    # from the documented layout.  write_checkpoint must reproduce them.
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

    c = read_checkpoint(blob)
    assert len(c) == 1
    meta, arr = c.tensors[0]
    assert meta == TensorMeta(name="w", shape=(2, 2), kind="linear", depth=0)
    assert arr.dtype == np.float32
    np.testing.assert_array_equal(arr, np.array([[1, 2], [3, 4]], dtype=np.float32))

    rebuilt = make_checkpoint([("w", (2, 2), "linear", 0, arr)])
    assert write_checkpoint(rebuilt) == blob


def test_bad_magic():
    with pytest.raises(BadMagic):
        read_checkpoint(b"XXXX" + b"\x00" * 32)
    with pytest.raises(BadMagic):
        read_checkpoint(b"GH")


def test_unsupported_version(small_checkpoint):
    blob = bytearray(write_checkpoint(small_checkpoint))
    blob[4:8] = struct.pack("<I", 9)
    with pytest.raises(UnsupportedVersion, match="version"):
        read_checkpoint(bytes(blob))


def test_header_longer_than_file():
    blob = b"GHNP" + struct.pack("<I", 1) + struct.pack("<Q", 10_000)
    with pytest.raises(CorruptHeader, match="header_length"):
        read_checkpoint(blob + b"{}")


def test_header_not_json():
    payload = b"not json!!"
    blob = b"GHNP" + struct.pack("<I", 1) + struct.pack("<Q", len(payload)) + payload
    with pytest.raises(CorruptHeader, match="header"):
        read_checkpoint(blob)


def _blob_with_header(header_obj):
    header = json.dumps(header_obj, sort_keys=True, separators=(",", ":")).encode()
    blob = b"GHNP" + struct.pack("<I", 1) + struct.pack("<Q", len(header)) + header
    blob += b"\x00" * (-len(blob) % 8)
    return blob


def test_header_schema_violations():
    entry = {"name": "w", "shape": [2], "kind": "linear", "depth": 0,
             "offset": 0, "length": 2}
    cases = [
        ({}, "tensors"),
        ({"tensors": [{**entry, "kind": "wat"}]}, r"tensors\[0\].kind"),
        ({"tensors": [dict(entry, length=3)]}, r"tensors\[0\].length"),
        ({"tensors": [dict(entry, depth=-1)]}, r"tensors\[0\].depth"),
        ({"tensors": [dict(entry, shape=[0])]}, r"tensors\[0\].shape"),
        ({"tensors": [dict(entry, shape=[1, 1, 1, 1, 1], length=1)]},
         r"tensors\[0\].shape"),
        ({"tensors": [entry, dict(entry, offset=8)]}, r"tensors\[1\].name"),
        ({"tensors": [dict(entry, depth=3),
                      dict(entry, name="v", depth=1, offset=8)]},
         r"tensors\[1\].depth"),
    ]
    for header_obj, pattern in cases:
        blob = _blob_with_header(header_obj) + b"\x00" * 64
        with pytest.raises(CorruptHeader, match=pattern):
            read_checkpoint(blob)


@pytest.mark.parametrize("name", ["", "\ud800", "a\udfffb"])
def test_name_rule_holds_in_reader_writer_and_archspec(name):
    # One rule, each path with its own error class and prefix: a name is a
    # non-empty string that encodes as UTF-8.
    entry = {"name": name, "shape": [2], "kind": "linear", "depth": 0,
             "offset": 0, "length": 2}
    with pytest.raises(CorruptHeader, match=r"^tensors\[0\]\.name: expected a non-empty"):
        read_checkpoint(_blob_with_header({"tensors": [entry]}) + b"\x00" * 8)
    c = make_checkpoint([(name, (2,), "linear", 0, np.zeros(2, np.float32))])
    with pytest.raises(ValueError, match=r"^tensors\[0\]\.name: expected a non-empty"):
        write_checkpoint(c)
    text = json.dumps([{"name": name, "shape": [2], "kind": "linear", "depth": 0}])
    with pytest.raises(SchemaError, match=r"^\$\[0\]\.name: expected a non-empty"):
        parse_tensor_specs(text)


@pytest.mark.parametrize("field", ["offset", "length"])
@pytest.mark.parametrize("value", [2.0, "2", True, None, [2]])
def test_non_integer_offset_or_length_is_corrupt_header(field, value):
    entry = {"name": "w", "shape": [2], "kind": "linear", "depth": 0,
             "offset": 0, "length": 2}
    blob = _blob_with_header({"tensors": [entry, {**entry, "name": "v", field: value}]})
    with pytest.raises(CorruptHeader, match=r"^tensors\[1\]: offset and length must be"):
        read_checkpoint(blob + b"\x00" * 16)


def test_too_deeply_nested_json_is_a_data_error():
    deep = "[" * 100_000 + "]" * 100_000
    with pytest.raises(CorruptHeader, match="^header: not valid JSON"):
        read_checkpoint(b"GHNP" + struct.pack("<IQ", 1, len(deep)) + deep.encode())
    with pytest.raises(SchemaError, match=r"^\$: not valid JSON"):
        parse_tensor_specs(deep)


def test_truncated_data():
    entry = {"name": "w", "shape": [4], "kind": "linear", "depth": 0,
             "offset": 0, "length": 4}
    blob = _blob_with_header({"tensors": [entry]})
    blob += struct.pack("<2f", 1.0, 2.0)  # 8 of the 16 declared bytes
    with pytest.raises(TruncatedData, match="'w'"):
        read_checkpoint(blob)


def test_non_canonical_offsets_still_read():
    # a gap before the tensor data is legal on read, just never written
    entry = {"name": "w", "shape": [2], "kind": "linear", "depth": 0,
             "offset": 8, "length": 2}
    blob = _blob_with_header({"tensors": [entry]})
    blob += b"\xff" * 8 + struct.pack("<2f", 5.0, 6.0)
    c = read_checkpoint(blob)
    np.testing.assert_array_equal(c.tensors[0][1], np.array([5, 6], dtype=np.float32))


def test_out_of_order_offsets_read_the_same():
    # "a" is stored after "b" in the data section; both lookups follow the
    # header's offsets, whatever order the tensors are asked for in.
    entries = [
        {"name": "a", "shape": [2], "kind": "linear", "depth": 0, "offset": 8, "length": 2},
        {"name": "b", "shape": [2], "kind": "linear", "depth": 0, "offset": 0, "length": 2},
    ]
    blob = _blob_with_header({"tensors": entries}) + struct.pack("<4f", 3.0, 4.0, 1.0, 2.0)
    c = read_checkpoint(blob)
    assert c.names() == ["a", "b"]
    np.testing.assert_array_equal(c.get("a")[1], np.array([1, 2], dtype=np.float32))
    np.testing.assert_array_equal(c.get("b")[1], np.array([3, 4], dtype=np.float32))
    reader = CheckpointReader(io.BytesIO(blob))
    assert reader.load(1).tobytes() == c.get("b")[1].tobytes()
    assert reader.load(0).tobytes() == c.get("a")[1].tobytes()


@pytest.mark.parametrize("offsets", [(0, 4), (4, 0), (0, 0), (8, 4)],
                         ids=["second_half", "first_half", "same_start", "out_of_order"])
def test_overlapping_byte_ranges_are_corrupt(offsets):
    # Two values each: [0, 8) and [4, 12) share bytes 4..7, so one tensor
    # would alias the other's values, whatever order the header lists them.
    entries = [{"name": name, "shape": [2], "kind": "linear", "depth": 0, "offset": offset,
                "length": 2} for name, offset in zip("ab", offsets)]
    blob = _blob_with_header({"tensors": entries}) + bytes(16)
    first, second = sorted(range(2), key=lambda i: (offsets[i], i))
    names = "ab"
    with pytest.raises(CorruptHeader, match=(
            rf"^tensors\[{second}\]: '{names[second]}' bytes \[{offsets[second]}, "
            rf"{offsets[second] + 8}\) overlap '{names[first]}' bytes")):
        read_checkpoint(blob)


def test_short_readinto_is_truncated_data(small_checkpoint, tmp_path):
    # The header checks pass; the file then shrinks before the tensors are read.
    path = tmp_path / "c.ckpt"
    blob = write_checkpoint(small_checkpoint)
    path.write_bytes(blob)
    with open(path, "rb") as handle:
        reader = CheckpointReader(handle)
        os.truncate(path, len(blob) - 4)
        with pytest.raises(TruncatedData, match="'head.fc'"):
            [reader.load(i) for i in range(len(reader.metas))]


class _PieceReader(io.BytesIO):
    """A file whose ``readinto`` returns at most 7 bytes, as a raw read
    that the OS cuts short."""

    def readinto(self, buf):
        return super().readinto(memoryview(buf).cast("B")[:7])


def test_a_read_in_pieces_is_reassembled_bit_for_bit(small_checkpoint):
    reader = CheckpointReader(_PieceReader(write_checkpoint(small_checkpoint)))
    for i, (_, arr) in enumerate(small_checkpoint):
        assert reader.load(i).tobytes() == arr.tobytes()
    w = small_checkpoint.tensors[2][1]
    assert reader.read_rows(2, 3, 11).tobytes() == w[3:11].tobytes()


def test_writers_match_for_non_contiguous_arrays(tmp_path):
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    c = make_checkpoint([("w", (3, 2), "linear", 0, w.T)])
    path = tmp_path / "c.ckpt"
    with open(path, "wb") as handle:
        positional_writer(handle.fileno(), c.metas)(0, w.T)
    assert path.read_bytes() == write_checkpoint(c)
    np.testing.assert_array_equal(read_checkpoint(path.read_bytes()).get("w")[1], w.T)


def _many_tensors(n=24):
    """n linear tensors of random shapes, up to 64 x 2048."""
    rng = np.random.default_rng(5)
    tensors = []
    for i in range(n):
        shape = (int(rng.integers(1, 64)), int(rng.integers(1, 2048)))
        tensors.append((f"t{i}", shape, "linear", 0,
                        rng.standard_normal(shape, dtype=np.float32)))
    return make_checkpoint(tensors)


def test_loads_from_four_threads_equal_a_sequential_read(tmp_path):
    c = _many_tensors()
    path = tmp_path / "c.ckpt"
    path.write_bytes(write_checkpoint(c))
    ids = list(range(len(c)))
    with open(path, "rb") as handle:
        reader = CheckpointReader(handle)
        expected = [reader.load(i).tobytes() for i in ids]
        mismatches = []

        def load_all(seed):
            for i in random.Random(seed).sample(ids * 4, len(ids) * 4):
                if reader.load(i).tobytes() != expected[i]:
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


def test_positional_writer_in_any_order_equals_write_checkpoint(tmp_path, monkeypatch):
    c = _many_tensors()
    pwrite = os.pwrite
    # At most 1000 bytes per call, as a write that the OS cuts short.
    monkeypatch.setattr(os, "pwrite", lambda fd, data, offset: pwrite(fd, data[:1000], offset))
    path = tmp_path / "c.ckpt"
    def put_tensor(i):
        # Odd tensors of two rows or more go as two blocks of rows, the
        # later rows first.
        w = c.tensors[i][1]
        if i % 2 and len(w) > 1:
            half = len(w) // 2
            put(i, w[half:], half)
            put(i, w[:half], 0)
        else:
            put(i, w)

    with open(path, "wb") as handle:
        put = positional_writer(handle.fileno(), c.metas)
        threads = [
            threading.Thread(target=lambda ids: [put_tensor(i) for i in ids],
                             args=(range(k, len(c), 3)[::-1],))
            for k in range(3)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert path.read_bytes() == write_checkpoint(c)
    with open(path, "wb") as handle:
        put = positional_writer(handle.fileno(), c.metas)
        with pytest.raises(ValueError, match="shape"):
            put(0, np.zeros(3, np.float32))
        rows, cols = c.metas[0].shape
        for block, row in [(np.zeros((2, cols), np.float32), rows - 1),  # past the end
                           (np.zeros((2, cols + 1), np.float32), 0)]:  # not whole rows
            with pytest.raises(ValueError, match="whole rows"):
                put(0, block, row)


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("{}", r"\$"),
        ("[1]", r"\$\[0\]"),
        ('[{"name":"w","shape":[2],"kind":"linear"}]', r"\$\[0\].depth"),
        ('[{"name":"w","shape":[2],"kind":"wat","depth":0}]', r"\$\[0\].kind"),
        ('[{"name":"w","shape":[2],"kind":"conv","depth":-1}]', r"\$\[0\].depth"),
        ('[{"name":"w","shape":2,"kind":"conv","depth":0}]', r"\$\[0\].shape"),
        ('[{"name":"w","shape":[2],"kind":"conv","depth":0,"data":[1,2]}]',
         r"\$\[0\]: unknown keys \['data'\]"),
        ('[{"name":"a","shape":[1],"kind":"conv","depth":1},'
         '{"name":"b","shape":[1],"kind":"conv","depth":0}]',
         r"\$\[1\].depth"),
        ("not json", r"\$"),
    ],
)
def test_parse_tensor_specs_schema_errors(text, pattern):
    with pytest.raises(SchemaError, match=pattern):
        parse_tensor_specs(text)


def test_parse_tensor_specs_returns_the_metas():
    text = '[{"name":"w","shape":[2,3],"kind":"linear","depth":1}]'
    assert parse_tensor_specs(text) == [TensorMeta("w", (2, 3), "linear", 1)]


def test_write_rejects_invariant_violations():
    arr = np.zeros((2, 2), dtype=np.float32)
    bad_shape = make_checkpoint([("w", (2, 3), "conv", 0, arr)])
    with pytest.raises(ValueError, match="shape"):
        write_checkpoint(bad_shape)
    dup = make_checkpoint([("w", (2, 2), "conv", 0, arr), ("w", (2, 2), "conv", 0, arr)])
    with pytest.raises(ValueError, match="duplicate"):
        write_checkpoint(dup)
    f64 = make_checkpoint([("w", (2, 2), "conv", 0, arr.astype(np.float64))])
    with pytest.raises(ValueError, match="float32"):
        write_checkpoint(f64)


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
        tensors.append((TensorMeta(name, shape, kind, depth), arr))
    return Checkpoint(tensors=tensors)


@settings(max_examples=30, deadline=None)
@given(_checkpoints())
def test_round_trip_property(c):
    blob = write_checkpoint(c)
    assert read_checkpoint(blob) == c
    assert write_checkpoint(read_checkpoint(blob)) == blob
