"""Working sets of the per-tensor paths the command line runs.

Peaks are Python-heap peaks from ``tracemalloc`` (numpy reports its array
buffers to it), counted from the start of each call.  A K x K float64
Gram of the 4096-channel tensor below alone would be 128 MiB.
"""

import tracemalloc

import numpy as np
import pytest

from ghnpost.checkpoint_io import Checkpoint, TensorMeta
from ghnpost.postprocess import PostprocessConfig, ghn_orth_tensor
from ghnpost.report import analyze_checkpoint, compare_checkpoints
from ghnpost.stats import _PANEL_ROWS, correlation_stats


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_K, _CHW = 4096, 3
_W = np.random.default_rng(0).normal(size=(_K, _CHW)).astype(np.float32)
_META = TensorMeta("w", (_K, _CHW), "linear", 0)
_CKPT = Checkpoint(tensors=[(_META, _W)])

_CALLS = {
    "correlation_stats": lambda: correlation_stats(_W, bins=50),
    "analyze": lambda: analyze_checkpoint(_CKPT, bins=50),
    "compare": lambda: compare_checkpoints(_CKPT, _CKPT),
    "postprocess": lambda: ghn_orth_tensor(_META, _W, PostprocessConfig(start_layer=0)),
}


@pytest.mark.parametrize("call", sorted(_CALLS))
def test_many_short_channels_stay_near_the_panel_buffers(call):
    # The fold holds two panel buffers plus np.histogram's block
    # temporaries (measured 2.1-2.6 panels, 4 MiB each); nothing of size
    # K x K or K(K-1)/2 fits under the bound.
    panel = _PANEL_ROWS * _K * 8
    assert _peak_bytes(_CALLS[call]) <= 4 * panel


def test_noise_only_layer_stays_within_its_float64_copy():
    # ViT-B/16's MLP fc1 shape; independent channels give sigma_r ~0.04,
    # so the noise changes the float32 weights.
    k, chw = 3072, 768
    w = np.random.default_rng(1).standard_normal((k, chw), dtype=np.float32)
    meta = TensorMeta("fc1", (k, chw), "linear", 0)
    cfg = PostprocessConfig(start_layer=0, skip_orth=True)
    out = []
    peak = _peak_bytes(lambda: out.append(ghn_orth_tensor(meta, w, cfg)))
    assert not np.array_equal(out[0], w)
    assert peak <= 2.5 * w.size * 8
