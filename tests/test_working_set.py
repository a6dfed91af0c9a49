"""Working sets of the per-tensor paths the command line runs.

Peaks are Python-heap peaks from ``tracemalloc`` (numpy reports its array
buffers to it), counted from the start of each call, except for the
layers whose float64 buffer is an anonymous mapping, which tracemalloc
does not see, as LAPACK's workspace: those are measured as peak-RSS
growth of whole command-line runs in a fresh interpreter.  A K x K
float64 Gram of the 4096-channel tensor below alone would be 128 MiB.
"""

import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import ghnpost
from ghnpost import linalg, postprocess
from ghnpost.cli import run
from ghnpost.postprocess import ghn_orth_tensors
from ghnpost.report import analyze_checkpoint, compare_checkpoints
from ghnpost.stats import _PANEL_ROWS, correlation_stats, sigma_r
from ghnpost.tensor_ops import geometry

from conftest import decode_ckpt, ghn_like_tensor, make_checkpoint, reader_of, repair


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


_K, _CHW = 4096, 3
_W = np.random.default_rng(0).normal(size=(_K, _CHW)).astype(np.float32)
_FILE = reader_of(make_checkpoint([("w", (_K, _CHW), "linear", 0, _W)]))


def _discard(i, block, r0):
    pass


_CALLS = {
    "correlation_stats": lambda: correlation_stats(_W, 50, np.empty(_W.size)),
    "sigma_r": lambda: sigma_r(_W, np.empty(_W.size)),
    "analyze": lambda: list(analyze_checkpoint(_FILE, bins=50)),
    "compare": lambda: list(compare_checkpoints(_FILE, _FILE)),
    "postprocess": lambda: ghn_orth_tensors(_FILE, _discard, **repair(0)),
}


@pytest.mark.parametrize("call", sorted(_CALLS))
def test_many_short_channels_stay_near_the_panel_buffers(call):
    # The fold (analyze, correlation_stats) holds two panel buffers plus
    # the bin counter's temporaries of one 16K-value step (measured 2.15
    # panels, 4 MiB each; about 2.4 with steps of 64K values); sigma_r, compare
    # and postprocess take the tall route (0.08-0.15 panels).  Nothing of
    # size K x K or K(K-1)/2 fits under the bound.
    panel = _PANEL_ROWS * _K * 8
    assert _peak_bytes(_CALLS[call]) <= 3 * panel


def _readers(files: int):
    """Readers over ``files`` files of three 256 x 4096 layers each."""
    k, chw = 256, 4096
    rng = np.random.default_rng(2)
    return [reader_of(make_checkpoint([(f"w{i}", (k, chw), "linear", i,
                                        rng.standard_normal((k, chw), np.float32))
                                       for i in range(3)]))
            for _ in range(files)]


def test_compare_holds_one_layer_at_a_time():
    # Each layer's sigma_r is read from the file a row block at a time into
    # the run's float64 channel buffer, and max |a - b| from row blocks of
    # both files (measured 1.1 MiB of a 3 MiB bound).  A whole float32
    # layer of either file (4 MiB), a float64 copy of a layer on the heap
    # (8 MiB, as before), or a whole-layer float64 difference would fail
    # the bound: the fold's two 128 x K panels and five 64K-value float64
    # blocks (the channel squares, the float32 row buffers and the
    # difference scratch).  The float64 channels live in one anonymous
    # mapping, which tracemalloc does not see.
    readers = _readers(2)
    bound = 2 * _PANEL_ROWS * 256 * 8 + 5 * (1 << 16) * 8
    rows = []
    peak = _peak_bytes(lambda: rows.extend(compare_checkpoints(*readers)))
    assert len(rows) == 3
    assert peak <= bound


def test_analyze_holds_one_layer_at_a_time():
    # The fold's channels come from the file a row block at a time into
    # the run's float64 channel buffer, and its bins are counted 16K
    # values at a time (measured 1.07 MiB of a 1.8 MiB bound: the two
    # panels, the counter's 0.27 MiB and two 64K-value float64 blocks).  A
    # whole float32 layer (4 MiB), a float64 copy of a layer on the heap
    # (8 MiB, as before) or a counter of 64K-value steps (1.1 MiB; 2.0 MiB
    # in all) would fail it.
    (reader,) = _readers(1)
    bound = 2 * _PANEL_ROWS * 256 * 8 + (1 << 14) * 17 + 2 * (1 << 16) * 8
    records = []
    peak = _peak_bytes(lambda: records.extend(analyze_checkpoint(reader, bins=50)))
    assert len(records) == 3
    assert peak <= bound


def test_noise_only_layer_stays_within_its_float64_copy():
    # ViT-B/16's MLP fc1 shape; independent channels give sigma_r ~0.04,
    # so the noise changes the float32 weights.  sigma_r's float64
    # channels are a mapping and the output leaves a row block at a time,
    # so the heap holds row blocks and sigma_r's panel.
    k, chw = 3072, 768
    w = np.random.default_rng(1).standard_normal((k, chw), dtype=np.float32)
    reader = reader_of(make_checkpoint([("fc1", (k, chw), "linear", 0, w)]))
    cfg = repair(0, orth=False)
    out = np.empty_like(w)

    def put(i, block, r0):
        out[r0 : r0 + len(block)] = block

    peak = _peak_bytes(lambda: ghn_orth_tensors(reader, put, **cfg))
    assert not np.array_equal(out, w)
    assert peak <= 2.5 * w.size * 8


_RSS_GROWTH = """
import json, math, resource, sys
from ghnpost.cli import run

def peak_kb():
    # This process's own peak.  ru_maxrss can start at the spawning
    # process's peak, which Linux carries across vfork + exec.
    try:
        with open("/proc/self/status") as status:
            return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))
    except OSError:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

def run_cli(argv):
    assert run(argv) == 0
    # blake2b comes from CPython's _blake2: no command maps OpenSSL.
    assert "_hashlib" not in sys.modules, argv[0]

shape, argvs = json.loads(sys.argv[1])
for argv in argvs[:-1]:
    run_cli(argv)
before = peak_kb()
run_cli(argvs[-1])
print((peak_kb() - before) * 1024 / (math.prod(shape) * 8))
"""


def _rss_growth(shape, argvs):
    """Peak-RSS growth in a fresh interpreter, in units of the float64 size
    of a layer of ``shape``, of running the last of the CLI command lines
    ``argvs`` after the others, which warm the interpreter up.  The CLI's
    inputs are written beforehand, by this process.  No command may load
    OpenSSL's ``_hashlib`` module."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ghnpost.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", _RSS_GROWTH, json.dumps([shape, list(argvs)])],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return float(proc.stdout)


def _postprocess_argvs(tmp_path, shape, skip=()):
    """``postprocess`` of a one-layer file of ``shape``, after that of a
    small one to warm the interpreter up."""
    argvs = []
    for name, dims in (("warm", (64, 96)), ("in", shape)):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(make_checkpoint([("w", dims, "linear", 0, ghn_like_tensor(dims))]))
        argvs.append(["postprocess", str(path), "--start-layer", "0",
                      "--out", str(tmp_path / f"{name}.out.ckpt"), *skip])
    return argvs


@pytest.mark.parametrize("shape", [(512, 512, 3, 3), (1000, 2048)])
def test_repaired_layer_stays_within_three_float64_copies(shape, tmp_path):
    # A QR that copies the layer again around LAPACK measures 5.6x here.
    assert _rss_growth(shape, _postprocess_argvs(tmp_path, shape)) <= 3.0


@pytest.mark.parametrize("shape", [(512, 512, 3, 3), (1000, 2048), (2048, 1024)])
def test_repaired_layer_lives_in_one_float64_buffer(shape, tmp_path):
    # Correlation, noise and QR share one float64 buffer, and the float32
    # result leaves it a row block at a time (measured 1.14-1.19x).  A
    # second float64 copy of the layer, or R in full for the last two
    # shapes (n = 1000 and 1024), would pass 1.5x.
    assert _rss_growth(shape, _postprocess_argvs(tmp_path, shape)) <= 1.5


@pytest.mark.parametrize("skip", [[], ["--skip-orth"]], ids=["repair", "skip_orth"])
@pytest.mark.parametrize("shape", [(1000, 2048), (2048, 1024), (512, 4608)])
def test_cli_postprocess_holds_one_float64_copy_of_the_layer(shape, skip, tmp_path):
    # The layer goes from the file, a row block at a time, into one float64
    # buffer (the repair's layer buffer, or sigma_r's channels), and its
    # result back out of one reused float32 block, so no float32 copy of
    # it is held (measured 1.14-1.25x).  Loaded whole as float32 first, it
    # measured 1.65-1.78x.
    assert _rss_growth(shape, _postprocess_argvs(tmp_path, shape, skip)) <= 1.4


@pytest.mark.parametrize("method, bound", [("rand", 0.3), ("orth", 1.4)])
@pytest.mark.parametrize("shape", [(1000, 2048), (2048, 1024), (512, 4608)])
def test_cli_init_holds_no_float32_copy_of_the_layer(shape, method, bound, tmp_path):
    # Each layer goes out a row block at a time from one reused float32
    # block: drawn straight into it (rand, measured 0.08-0.10x), or cast
    # into it from the one float64 layer buffer Q is made in (orth,
    # 1.06-1.09x).  Made whole as float32 first, they measured 0.62x and
    # 1.56-1.58x.
    argvs = []
    for name, dims in (("warm", (64, 96)), ("arch", shape)):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps([{"name": "w", "shape": list(dims), "kind": "linear",
                                     "depth": 0}]))
        argvs.append(["init", str(path), "--method", method,
                      "--out", str(tmp_path / f"{name}.ckpt")])
    assert _rss_growth(shape, argvs) <= bound


# ViT-B/16's linear shapes in rising size, each but the last twice: the
# float64 copies of the smaller ones sum to twice the largest's.
_ANALYSIS_LAYERS = [(768, 768), (768, 768), (768, 2304), (768, 2304), (768, 3072)]


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_cli_analysis_peak_follows_the_largest_layer(command, tmp_path):
    # Every layer's float64 channels go into one mapping the size of the
    # largest, made before the first layer is read, which holds the pages
    # of the layer in flight; here the largest comes last (measured 1.26x
    # the largest for analyze, 1.22x for compare).  With a new array per
    # layer, glibc raises its mmap threshold to each freed layer's size,
    # so the second layer of a size comes from its heap, which keeps the
    # pages while the next size gets a mapping (2.02x and 1.96x).
    def ckpt(name, shapes, seed=0):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(make_checkpoint([(f"w{i}", dims, "linear", i,
                                           ghn_like_tensor(dims, seed=seed))
                                          for i, dims in enumerate(shapes)]))
        return str(path)

    emb = tmp_path / "emb.csv"
    rows = np.random.default_rng(0).standard_normal((20, 8))
    emb.write_text("id," + ",".join(f"v{j}" for j in range(8)) + "\n" + "".join(
        f"a{i}," + ",".join(map(str, row)) + "\n" for i, row in enumerate(rows)))
    warm, big = ckpt("warm", [(64, 96)]), ckpt("big", _ANALYSIS_LAYERS)
    files = {"analyze": ([warm], [big]),
             "compare": ([warm, warm], [big, ckpt("big_b", _ANALYSIS_LAYERS, seed=1)])}
    argvs = [["pca", str(emb), "--out", str(tmp_path / "p.csv")]]
    argvs += [[command, *paths, "--out", str(tmp_path / "out.csv")] for paths in files[command]]
    assert _rss_growth(_ANALYSIS_LAYERS[-1], argvs) <= 1.6


def test_analyze_holds_one_svg_text_at_a_time(tmp_path):
    # Independent channels of 8 values spread a layer's correlations over
    # most of 2**18 bins, so each SVG is about 19 MiB, against 2 MiB of
    # counts.  analyze keeps one layer's counts, and makes each SVG's text
    # as it is written, dropping it before the next: growth measured
    # 77.5 MiB for six layers, where making one SVG (its bars' strings, the
    # text and its UTF-8 bytes) takes about 3.6 times its size.  Keeping
    # every layer's counts measured 88 MiB, holding the last text while
    # the next was made 123 MiB, making every text before the first was
    # written 204 MiB, and that with a bar for every empty bin too
    # 284 MiB.  The warm-up run draws 50 bins.
    bins, layers = 2**18, 6
    rng = np.random.default_rng(0)
    argvs = []
    for name, n, dims, flags in (("warm", 2, (64, 8), []),
                                 ("in", layers, (1024, 8), ["--bins", str(bins)])):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(make_checkpoint([(f"w{i}", dims, "linear", i,
                                           rng.standard_normal(dims, np.float32))
                                          for i in range(n)]))
        argvs.append(["analyze", str(path), "--out", str(tmp_path / f"{name}.csv"),
                      "--svg-dir", str(tmp_path / f"{name}.svg"), *flags])
    growth = _rss_growth(_MIB, argvs) * (1 << 20)
    largest = max(p.stat().st_size for p in (tmp_path / "in.svg").iterdir())
    assert largest > 15 << 20
    assert growth <= 3 * 8 * bins + 5 * largest, growth / 2**20


# --- the memory model of README "Memory" --------------------------------------

_MIB = (128, 1024)  # a layer of this shape is 1 MiB in float64: _rss_growth's unit
# The bin counter's temporaries of one 16K-value step: each value's
# place among the bins and its bin, 8 bytes each, and the mask of the
# values to recheck, 1.
_COUNTER = (1 << 14) * (8 + 8 + 1)
# Per layer in flight: the row-block buffers (the file's float32 rows, the
# float64 squares, noise or draw, the stream's words, the float32 output
# block, max |a - b|'s scratch) and LAPACK's workspace, measured at up to
# 1.8 MiB; and once per run, the heap's and interpreter's own growth.
_BLOCKS, _SLACK = 2 << 20, 3 << 19


def _panels(k, chw, fold=False):
    """Bytes of sigma_r's panel buffers for a K x CHW layer: the fold's two
    128 x K panels, or the tall route's one 128 x CHW panel (K > CHW)."""
    if fold or k <= chw:
        return 2 * 8 * min(_PANEL_ROWS, k) * k
    return 8 * min(_PANEL_ROWS, chw) * chw


def _in_flight():
    """Equal layers the repair and init hold at once: one per thread of the
    pool, within its budget, which for equal layers is two of them
    (:func:`~ghnpost.postprocess._pool_budget`)."""
    return min(2, postprocess._cpu_count() if linalg.gil_free_qr() else 1)


def _model(command, shapes):
    """Peak-RSS growth README "Memory" gives ``command`` on a file of the
    layers ``shapes``, in bytes: the largest working set of any one layer,
    times the layers in flight, and the row-block buffers of each."""
    layers = [(8 * math.prod(dims), *geometry(dims)[:2]) for dims in shapes]
    if command == "analyze":
        return max(n + _panels(k, chw, fold=True) for n, k, chw in layers) + _COUNTER + _BLOCKS
    if command == "compare":
        return max(n + _panels(k, chw) for n, k, chw in layers) + _BLOCKS
    if command == "skip_orth":  # the channel mapping keeps the largest layer's pages
        return max(n for n, _, _ in layers) + max(_panels(k, chw) for _, k, chw in layers) + _BLOCKS
    per_layer = {"repair": max(n + _panels(k, chw) for n, k, chw in layers),
                 "init_orth": max(n for n, _, _ in layers), "init_rand": 0}[command]
    return _in_flight() * (per_layer + _BLOCKS)


# Each command's file: for analyze, the largest layer first and a later,
# smaller one with the most channels, whose fold panels come on top of
# the largest layer's pages if the channel mapping keeps them (measured
# 29.7 MiB against a model of 22.9 MiB).
_MODEL_CASES = {
    "analyze": [(512, 4608), (4096, 256)],
    "compare": [(512, 4608), (4096, 256), (768, 3072)],
    "skip_orth": [(1000, 2048), (2048, 1024)],
    "repair": [(1000, 2048), (1000, 2048)],
    "init_rand": [(1000, 2048), (2048, 1024)],
    "init_orth": [(1000, 2048), (1000, 2048)],
}


@pytest.mark.parametrize("command", sorted(_MODEL_CASES))
def test_cli_peak_follows_the_memory_model(command, tmp_path):
    # Measured 0.5-1.5 MiB under the model plus _SLACK; one more float32
    # copy of a file's largest layer is 7.8-9 MiB.
    shapes = _MODEL_CASES[command]

    def job(name, layers):
        out = ["--out", str(tmp_path / f"{name}.out")]
        if command.startswith("init"):
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps([{"name": f"w{i}", "shape": list(dims),
                                         "kind": "linear", "depth": i}
                                        for i, dims in enumerate(layers)]))
            return ["init", str(spec), "--method", command[5:], *out]
        paths = []
        for seed in (0, 1)[: 2 if command == "compare" else 1]:
            path = tmp_path / f"{name}{seed}.ckpt"
            path.write_bytes(make_checkpoint([(f"w{i}", dims, "linear", i,
                                               ghn_like_tensor(dims, seed=seed))
                                              for i, dims in enumerate(layers)]))
            paths.append(str(path))
        if command in ("analyze", "compare"):
            return [command, *paths, *out]
        skip = ["--skip-orth"] if command == "skip_orth" else []
        return ["postprocess", *paths, "--start-layer", "0", *skip, *out]

    # The warm-up file has a layer for each thread of the pool.
    argvs = [job("warm", [(64, 96)] * 2), job("in", shapes)]
    growth = _rss_growth(_MIB, argvs) * (1 << 20)
    assert growth <= _model(command, shapes) + _SLACK, growth / 2**20


# What analyze --svg-dir holds for one layer's bins, 8 bytes a bin each:
# its counts, which np.add.at adds to in place, and the bin edges that
# emit_histogram_svg takes from np.linspace while it draws the layer.
_BINS = 2**20
_BIN_BYTES = 2 * 8 * _BINS


@pytest.mark.parametrize("svg", [False, True], ids=["csv", "svg"])
def test_analyze_at_the_most_bins_holds_one_layer_of_counts(svg, tmp_path):
    # Six layers of 32 independent channels: with --svg-dir each counts its
    # 496 correlations into 2**20 bins, and its SVG draws at most 496 bars.
    # Each layer's counts are dropped, once its SVG is written, before the
    # next layer is read: growth measured 15.9-16.0 MiB of a 19.8 MiB
    # bound (12.0-16.1 MiB when each step made an np.bincount of the bins
    # it spanned), above the 11.8 MiB of a bound on the counts alone, as
    # the SVG's edges are held too.  Keeping the last layer's counts while
    # the next is counted measured 23.8-24.0 MiB, and building each
    # layer's 2**20 + 1 bin edges in the counter too 20.0-22.1 MiB.
    # Without --svg-dir no bin is counted: growth measured 0.02-0.04 MiB
    # of a 3.8 MiB bound, which one layer's 2**20 counts (8 MiB) would
    # fail.
    shapes = [(32, 96)] * 6
    rng = np.random.default_rng(0)
    argvs = []
    for name, n, bins in (("warm", 2, 50), ("in", len(shapes), _BINS)):
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(make_checkpoint([(f"w{i}", dims, "linear", i,
                                           rng.standard_normal(dims, np.float32))
                                          for i, dims in enumerate(shapes[:n])]))
        svgs = ["--svg-dir", str(tmp_path / f"{name}.svg"), "--bins", str(bins)] if svg else []
        argvs.append(["analyze", str(path), "--out", str(tmp_path / f"{name}.csv"), *svgs])
    growth = _rss_growth(_MIB, argvs) * (1 << 20)
    bins = _BIN_BYTES if svg else 0
    assert growth <= _model("analyze", shapes) + bins + _SLACK, growth / 2**20


@pytest.mark.parametrize("skip", [[], ["--skip-orth"]], ids=["repair", "skip_orth"])
def test_cli_pass_through_tensors_stream(skip, tmp_path):
    # A 32 MiB rank-3 `other` tensor and an 8 MB bias pass through a row
    # block at a time, beside one small layer, so the peak is the layer's:
    # growth measured 0.04-1.4 MiB.  Loaded whole, the `other` tensor
    # measured 38-40 MiB.  Their bytes come out as they went in.
    layer = (256, 256)
    argvs = []
    for name, other, bias in (("warm", (64, 8, 12), (96,)), ("in", (4096, 32, 64), (2 << 20,))):
        inputs = {"other": ghn_like_tensor(other),
                  "b": np.random.default_rng(2).standard_normal(bias, np.float32)}
        tensors = [("other", other, "other", 0, inputs["other"]),
                   ("w", layer, "linear", 0, ghn_like_tensor(layer, seed=1)),
                   ("b", bias, "bias", 0, inputs["b"])]
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(make_checkpoint(tensors))
        argvs.append(["postprocess", str(path), "--start-layer", "0",
                      "--out", str(tmp_path / f"{name}.out.ckpt"), *skip])
    growth = _rss_growth(_MIB, argvs) * (1 << 20)
    command = "skip_orth" if skip else "repair"
    assert growth <= _model(command, [layer]) + _SLACK, growth / 2**20
    _, (other, _, b) = decode_ckpt((tmp_path / "in.out.ckpt").read_bytes())
    assert other.tobytes() == inputs["other"].tobytes()
    assert b.tobytes() == inputs["b"].tobytes()


def test_cli_init_writes_ones_and_zeros_of_any_rank(tmp_path):
    # norm tensors are ones, bias and other tensors zeros, whatever their
    # rank, over several row blocks, the last one partial.
    shapes = {"n": ((100, 40, 30), "norm"), "o": ((7, 300, 400), "other"),
              "b": ((100_000,), "bias"), "w": ((16, 8), "linear")}
    spec = tmp_path / "arch.json"
    spec.write_text(json.dumps([{"name": name, "shape": list(shape), "kind": kind, "depth": 0}
                                for name, (shape, kind) in shapes.items()]))
    out = tmp_path / "init.ckpt"
    assert run(["init", str(spec), "--method", "rand", "--out", str(out)]) == 0
    for (shape, kind), arr in zip(shapes.values(), decode_ckpt(out.read_bytes())[1]):
        if kind != "linear":
            fill = np.ones if kind == "norm" else np.zeros
            assert arr.tobytes() == fill(shape, np.float32).tobytes()
