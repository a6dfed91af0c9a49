"""Working sets of the per-tensor paths the command line runs.

Peaks are Python-heap peaks from ``tracemalloc`` (numpy reports its array
buffers to it), counted from the start of each call, except for the QR
layers, whose float64 buffer is an anonymous mapping and whose LAPACK
workspace numpy does not see: those are measured as peak-RSS growth in a
fresh interpreter.  A K x K float64 Gram of the
4096-channel tensor below alone would be 128 MiB.
"""

import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ghnpost
from ghnpost.checkpoint_io import Checkpoint, TensorMeta
from ghnpost.postprocess import PostprocessConfig, ghn_orth_tensor
from ghnpost.report import analyze_checkpoint, compare_checkpoints
from ghnpost.stats import _PANEL_ROWS, correlation_stats, sigma_r

from conftest import reader_of


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
_FILE = reader_of(Checkpoint(tensors=[(_META, _W)]))

_CALLS = {
    "correlation_stats": lambda: correlation_stats(_W, bins=50),
    "sigma_r": lambda: sigma_r(_W),
    "analyze": lambda: analyze_checkpoint(_FILE, bins=50),
    "compare": lambda: compare_checkpoints(_FILE, _FILE),
    "postprocess": lambda: ghn_orth_tensor(_META, _W, PostprocessConfig(start_layer=0)),
}


@pytest.mark.parametrize("call", sorted(_CALLS))
def test_many_short_channels_stay_near_the_panel_buffers(call):
    # The fold (analyze, correlation_stats) holds two panel buffers plus
    # the bin counter's buffers of one 64K block (measured 2.55 panels,
    # 4 MiB each); sigma_r, compare and postprocess take the tall route
    # (0.08-0.15 panels).  Nothing of size K x K or K(K-1)/2 fits under
    # the bound.
    panel = _PANEL_ROWS * _K * 8
    assert _peak_bytes(_CALLS[call]) <= 4 * panel


def _readers(files: int):
    """Readers over ``files`` files of three 256 x 4096 layers each."""
    k, chw = 256, 4096
    rng = np.random.default_rng(2)
    metas = [TensorMeta(f"w{i}", (k, chw), "linear", i) for i in range(3)]
    readers = []
    for _ in range(files):
        arrays = [rng.standard_normal((k, chw), np.float32) for _ in metas]
        readers.append(reader_of(Checkpoint(tensors=list(zip(metas, arrays)))))
    # One float64 copy of a layer, the fold's two 128 x K panels, and five
    # 64K-value float64 blocks: the bin counter's four buffers, or the
    # channel squares, the float32 row buffers and the difference scratch.
    bound = k * chw * 8 + 2 * _PANEL_ROWS * k * 8 + 5 * (1 << 16) * 8
    return readers, bound


def test_compare_holds_one_layer_at_a_time():
    # Each layer's sigma_r is read from the file a row block at a time into
    # its float64 channels, and max |a - b| from row blocks of both files
    # (measured 9.1 MiB of an 11 MiB bound).  A whole float32 layer of
    # either file (4 MiB; both, as before, measured 16.6 MiB), the previous
    # layer, or a whole-layer float64 difference would fail the bound.
    readers, bound = _readers(2)
    rows = []
    peak = _peak_bytes(lambda: rows.extend(compare_checkpoints(*readers)))
    assert len(rows) == 3
    assert peak <= bound


def test_analyze_holds_one_layer_at_a_time():
    # The fold's channels come from the file a row block at a time
    # (measured 10.4 MiB); a whole float32 layer on top, as before,
    # measured 14.2 MiB.
    (reader,), bound = _readers(1)
    report = []
    peak = _peak_bytes(lambda: report.append(analyze_checkpoint(reader, bins=50)))
    assert report[0].eligible_layer_count == 3
    assert peak <= bound


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


@pytest.mark.parametrize("shape", [(3072, 768), (768, 3072)], ids=["fc1", "fc2"])
def test_noise_only_output_is_allocated_after_sigma_r(shape):
    # ViT-B/16's MLP shapes.  sigma_r's float64 channels (one copy) are
    # freed before the float32 output (half a copy) is allocated (measured
    # 1.05 and 1.17 copies); allocated first, the output overlaps them
    # (1.55 and 1.67).
    w = np.random.default_rng(1).standard_normal(shape, dtype=np.float32)
    meta = TensorMeta("fc", shape, "linear", 0)
    cfg = PostprocessConfig(start_layer=0, skip_orth=True)
    assert _peak_bytes(lambda: ghn_orth_tensor(meta, w, cfg)) <= 1.3 * w.size * 8


_RSS_GROWTH = """
import resource, sys
import numpy as np
from ghnpost.checkpoint_io import TensorMeta
from ghnpost.postprocess import PostprocessConfig, ghn_orth_tensor

def peak_kb():
    # This process's own peak.  ru_maxrss can start at the spawning
    # process's peak, which Linux carries across vfork + exec.
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def layer(shape):
    # near-duplicate channels, built in float32 so no float64 temporary
    # raises the peak before the measured call
    w = np.random.default_rng(0).standard_normal(shape, dtype=np.float32)
    w *= 1e-3
    w += w[:1]
    return w

cfg = PostprocessConfig(start_layer=0)
ghn_orth_tensor(TensorMeta("warm", (64, 96), "linear", 0), layer((64, 96)), cfg)
shape = tuple(int(d) for d in sys.argv[1:])
w = layer(shape)
before = peak_kb()
ghn_orth_tensor(TensorMeta("w", shape, "linear", 0), w, cfg)
after = peak_kb()
print((after - before) * 1024 / (w.size * 8))
"""


def _rss_growth(shape):
    """Peak-RSS growth of one repaired layer in a fresh interpreter, in
    units of the layer's float64 size."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ghnpost.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_GROWTH, *map(str, shape)],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


@pytest.mark.parametrize("shape", [(512, 512, 3, 3), (1000, 2048)])
def test_repaired_layer_stays_within_three_float64_copies(shape):
    # A QR that copies the layer again around LAPACK measures 5.6x here.
    assert _rss_growth(shape) <= 3.0


@pytest.mark.parametrize("shape", [(512, 512, 3, 3), (1000, 2048), (2048, 1024)])
def test_repaired_layer_lives_in_one_float64_buffer(shape):
    # Correlation, noise and QR share one float64 buffer, and the float32
    # result is half its size (measured 1.11-1.18x).  A second float64
    # copy of the layer, or R in full for the last two shapes (n = 1000
    # and 1024), would pass 1.5x; with both the repair measured 1.74-2.24x.
    assert _rss_growth(shape) <= 1.5
