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
    import_json,
    positional_writer,
    read_checkpoint,
    write_checkpoint,
    write_tensors,
)
from ghnpost.errors import (
    BadMagic,
    CorruptHeader,
    SchemaError,
    ShapeMismatch,
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
    assert reader.get("b")[1].tobytes() == c.get("b")[1].tobytes()
    assert reader.get("a")[1].tobytes() == c.get("a")[1].tobytes()
    assert Checkpoint(tensors=list(reader)) == c


def test_short_readinto_is_truncated_data(small_checkpoint, tmp_path):
    # The header checks pass; the file then shrinks before the tensors are read.
    path = tmp_path / "c.ckpt"
    blob = write_checkpoint(small_checkpoint)
    path.write_bytes(blob)
    with open(path, "rb") as handle:
        reader = CheckpointReader(handle)
        os.truncate(path, len(blob) - 4)
        with pytest.raises(TruncatedData, match="'head.fc'"):
            list(reader)


def test_write_tensors_rejects_a_stream_of_the_wrong_length(small_checkpoint):
    arrays = [arr for _, arr in small_checkpoint]
    for stream in (arrays[:-1], arrays + arrays[:1]):
        with pytest.raises(ValueError):
            write_tensors(io.BytesIO(), small_checkpoint.metas, iter(stream))


def test_write_tensors_matches_write_checkpoint_for_non_contiguous_arrays():
    w = np.arange(6, dtype=np.float32).reshape(2, 3)
    c = make_checkpoint([("w", (3, 2), "linear", 0, w.T)])
    buf = io.BytesIO()
    write_tensors(buf, c.metas, (arr for _, arr in c))
    assert buf.getvalue() == write_checkpoint(c)
    np.testing.assert_array_equal(read_checkpoint(buf.getvalue()).get("w")[1], w.T)


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
    names = c.names()
    with open(path, "rb") as handle:
        reader = CheckpointReader(handle)
        expected = {meta.name: arr.tobytes() for meta, arr in reader}
        mismatches = []

        def load_all(seed):
            for name in random.Random(seed).sample(names * 4, len(names) * 4):
                if reader.get(name)[1].tobytes() != expected[name]:
                    mismatches.append(name)

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
    with open(path, "wb") as handle:
        put = positional_writer(handle.fileno(), c.metas)
        threads = [
            threading.Thread(target=lambda ids: [put(i, c.tensors[i][1]) for i in ids],
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
        with pytest.raises(ValueError, match="shape"):
            positional_writer(handle.fileno(), c.metas)(0, np.zeros(3, np.float32))


def test_import_json_single_tensor():
    text = '[{"name":"w","shape":[2],"kind":"linear","depth":0,"data":[1.0,2.0]}]'
    c = import_json(text)
    assert len(c) == 1
    meta, arr = c.tensors[0]
    assert meta.name == "w" and meta.kind == "linear"
    assert arr.dtype == np.float32
    np.testing.assert_array_equal(arr, np.array([1, 2], dtype=np.float32))


def test_import_json_shape_mismatch():
    text = '[{"name":"w","shape":[2,2],"kind":"linear","depth":0,"data":[1,2,3]}]'
    with pytest.raises(ShapeMismatch, match=r"\$\[0\].data"):
        import_json(text)


@pytest.mark.parametrize(
    "text, pattern",
    [
        ("{}", r"\$"),
        ("[1]", r"\$\[0\]"),
        ('[{"name":"w","shape":[2],"kind":"linear","depth":0}]', r"\$\[0\].data"),
        ('[{"name":"w","shape":[2],"kind":"wat","depth":0,"data":[1,2]}]',
         r"\$\[0\].kind"),
        ('[{"name":"w","shape":[2],"kind":"conv","depth":-1,"data":[1,2]}]',
         r"\$\[0\].depth"),
        ('[{"name":"w","shape":[2],"kind":"conv","depth":0,"data":[1,"x"]}]',
         r"\$\[0\].data\[1\]"),
        ('[{"name":"w","shape":2,"kind":"conv","depth":0,"data":[1,2]}]',
         r"\$\[0\].shape"),
        ('[{"name":"w","shape":[2],"kind":"conv","depth":0,"data":[1,2],"x":1}]',
         r"\$\[0\]"),
        ('[{"name":"a","shape":[1],"kind":"conv","depth":1,"data":[1]},'
         '{"name":"b","shape":[1],"kind":"conv","depth":0,"data":[1]}]',
         r"\$\[1\].depth"),
        ("not json", r"\$"),
    ],
)
def test_import_json_schema_errors(text, pattern):
    with pytest.raises(SchemaError, match=pattern):
        import_json(text)


def test_import_then_write_then_read_round_trip():
    text = json.dumps(
        [
            {"name": "a.conv", "shape": [2, 3], "kind": "conv", "depth": 0,
             "data": [0.5, -1.25, 3.0, 4.5, -6.0, 7.125]},
            {"name": "a.bias", "shape": [2], "kind": "bias", "depth": 0,
             "data": [0.0, 1e-30]},
        ]
    )
    c = import_json(text)
    assert read_checkpoint(write_checkpoint(c)) == c


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
