import mmap

import numpy as np
import pytest

from ghnpost.errors import NumericalError
from ghnpost.tensor_ops import check_finite, geometry, layer_buffer, release_tail


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_check_finite_blames_the_source_or_the_output(bad):
    source = np.arange(6.0)
    out = source * 2.0
    check_finite(out, source)
    check_finite(out, None)
    out[3] = bad
    with pytest.raises(NumericalError, match="^output would hold NaN or Inf values$"):
        check_finite(out, source)
    with pytest.raises(NumericalError, match="^output would hold NaN or Inf values$"):
        check_finite(out, None)
    source[5] = bad
    with pytest.raises(NumericalError, match="^tensor holds NaN or Inf values$"):
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
    # K = 64 < CHW = 147: the QR factors the 147 x 64 transpose
    assert geometry((64, 3, 7, 7)) == (64, 147, True)


def test_tall_conv_is_not_transposed():
    assert geometry((512, 256, 1, 1)) == (512, 256, False)


def test_square_matrix_layout():
    assert geometry((2, 2)) == (2, 2, False)  # the transposition rule is strict K < CHW


@pytest.mark.parametrize("shape", [(4,), (4, 3, 2)])
def test_unsupported_ranks(shape):
    with pytest.raises(NumericalError,
                       match=f"^expected rank 2 or 4 tensor, got rank {len(shape)}$"):
        geometry(shape)
