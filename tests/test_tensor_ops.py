import mmap

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghnpost.errors import NonFiniteTensor, UnsupportedRank
from ghnpost.tensor_ops import check_finite, dematricize, layer_buffer, matricize, release_tail


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_blames_the_source_or_the_output(bad):
    source = np.arange(6.0)
    out = source * 2.0
    check_finite(out, source)
    check_finite(out)
    out[3] = bad
    with pytest.raises(NonFiniteTensor, match="^output would hold NaN or Inf values$"):
        check_finite(out, source)
    with pytest.raises(NonFiniteTensor, match="^output would hold NaN or Inf values$"):
        check_finite(out)
    source[5] = bad
    with pytest.raises(NonFiniteTensor, match="^tensor holds NaN or Inf values$"):
        check_finite(out, source)
    check_finite(np.zeros(6), source)  # source is read only when out fails


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTNEED"), reason="needs MADV_DONTNEED")
def test_release_tail_gives_back_the_pages_past_the_layer(monkeypatch):
    # The pages past the one the layer ends in go back to the OS, and read
    # as zeros; the layer's own pages, and that last page, keep their
    # values.  Without MADV_DONTNEED nothing happens.
    per_page = mmap.PAGESIZE // 8
    buf = layer_buffer(4 * per_page)
    buf[:] = 1.0
    release_tail(buf, per_page + 1)
    assert (buf[: 2 * per_page] == 1.0).all() and (buf[2 * per_page :] == 0.0).all()
    release_tail(buf, 4 * per_page)
    buf[:] = 1.0
    monkeypatch.delattr(mmap, "MADV_DONTNEED")
    release_tail(buf, 0)
    assert (buf == 1.0).all()


def test_wide_conv_is_transposed():
    w = np.random.default_rng(0).normal(size=(64, 3, 7, 7)).astype(np.float32)
    m = matricize(w)
    assert (m.rows, m.cols) == (147, 64)
    assert m.transposed
    assert m.rows >= m.cols


def test_tall_conv_is_not_transposed():
    w = np.random.default_rng(1).normal(size=(512, 256, 1, 1)).astype(np.float32)
    m = matricize(w)
    assert (m.rows, m.cols) == (512, 256)
    assert not m.transposed


def test_square_matrix_layout():
    w = np.array([[1, 2], [3, 4]], dtype=np.float32)
    m = matricize(w)
    np.testing.assert_array_equal(m.data, w)
    assert not m.transposed  # the transposition rule is strict K < CHW


@pytest.mark.parametrize("shape", [(4,), (4, 3, 2)])
def test_unsupported_ranks(shape):
    with pytest.raises(UnsupportedRank):
        matricize(np.zeros(shape, dtype=np.float32))


@pytest.mark.parametrize("shape", [(8, 4, 3, 3), (4, 9), (16, 2, 2, 2), (3, 3)])
def test_round_trip_bit_exact(shape):
    w = np.random.default_rng(42).normal(size=shape).astype(np.float32)
    back = dematricize(matricize(w))
    assert back.dtype == w.dtype
    assert back.tobytes() == w.tobytes()


def test_transposed_index_arithmetic():
    # element (k, c, h, w) of a [64,3,7,7] tensor must sit at matrix
    # position (c*49 + h*7 + w, k) of its 147x64 transposed form
    w = np.arange(64 * 147, dtype=np.float32).reshape(64, 3, 7, 7)
    m = matricize(w)
    assert m.transposed and (m.rows, m.cols) == (147, 64)
    for k in range(64):
        for c in range(3):
            for h in range(7):
                for x in range(7):
                    assert m.data[c * 49 + h * 7 + x, k] == w[k, c, h, x]
    back = dematricize(m)
    assert back.tobytes() == w.tobytes()


_dims = st.integers(min_value=1, max_value=8)


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.tuples(_dims, _dims), st.tuples(_dims, _dims, _dims, _dims)),
       st.integers(0, 2**31))
def test_matricize_properties(shape, seed):
    w = np.random.default_rng(seed).normal(size=shape).astype(np.float32)
    m = matricize(w)
    assert m.rows >= m.cols
    assert m.rows * m.cols == w.size
    # value multiset is preserved
    np.testing.assert_array_equal(np.sort(m.data, axis=None), np.sort(w, axis=None))
    assert dematricize(m).tobytes() == w.tobytes()
