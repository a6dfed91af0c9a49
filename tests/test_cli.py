import argparse
import contextlib
import csv
import errno
import io
import json
import math
import mmap
import os
import re
import shlex
import signal
import struct
import subprocess
import sys
import tempfile
import threading
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import ghnpost
from ghnpost import checkpoint_io, cli, linalg, postprocess, stats
from ghnpost.checkpoint_io import TensorMeta
from ghnpost.cli import run
from ghnpost.linalg import qr_decompose
from ghnpost.postprocess import DEFAULT_BETA
from ghnpost.rng import RngStream

from conftest import (
    analyze_table,
    correlated_tensor,
    decode_ckpt,
    encode_ckpt,
    ghn_like_tensor,
    make_checkpoint,
    reader_of,
    repair,
    through_file,
)
from reference import matricize, reference_offdiagonal


@pytest.fixture
def ckpt_path(tmp_path):
    c = make_checkpoint(
        [
            ("l0.conv", (8, 3, 3, 3), "conv", 0, ghn_like_tensor((8, 3, 3, 3), seed=1)),
            ("l0.norm", (8,), "norm", 0, np.ones(8, np.float32)),
            ("l1.conv", (16, 8, 3, 3), "conv", 1, ghn_like_tensor((16, 8, 3, 3), seed=2)),
            ("l2.fc", (10, 16), "linear", 2,
             np.random.default_rng(3).normal(size=(10, 16)).astype(np.float32)),
        ]
    )
    path = tmp_path / "in.ckpt"
    path.write_bytes(c)
    return path


def test_analyze_writes_csv_and_svgs(ckpt_path, tmp_path):
    out = tmp_path / "report.csv"
    svg_dir = tmp_path / "svgs"
    code = run(["analyze", str(ckpt_path), "--out", str(out),
                "--svg-dir", str(svg_dir), "--bins", "8"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0][0] == "name"
    assert [r[0] for r in rows[1:]] == ["l0.conv", "l1.conv", "l2.fc"]
    svgs = sorted(svg_dir.iterdir())
    assert [p.name for p in svgs] == [
        "000_l0.conv.svg", "001_l1.conv.svg", "002_l2.fc.svg"
    ]
    for p in svgs:
        ET.fromstring(p.read_text())


def test_analyze_svg_names_fit_the_file_system_limit(tmp_path):
    # A 321-character name would make a 339-byte SVG name; a 200-character
    # one keeps its name.  Every name, with _write_atomic's 14 extra bytes
    # of temporary name, fits in 255.
    long, kept = "blk." * 80 + "w", "b" * 200
    w = ghn_like_tensor((8, 6), seed=4)
    path = tmp_path / "long.ckpt"
    path.write_bytes(make_checkpoint(
        [(long, (8, 6), "linear", 0, w), (kept, (8, 6), "linear", 1, w)]
    ))
    svg_dir = tmp_path / "svgs"
    assert run(["analyze", str(path), "--out", str(tmp_path / "r.csv"),
                "--svg-dir", str(svg_dir)]) == 0
    names = sorted(p.name for p in svg_dir.iterdir())
    assert names == [f"000_{long}"[:237] + ".svg", f"001_{kept}.svg"]
    for name in names:
        assert len(name.encode()) + 14 <= 255
        ET.fromstring((svg_dir / name).read_text())


def test_postprocess_end_to_end(ckpt_path, tmp_path):
    out = tmp_path / "out.ckpt"
    argv = ["postprocess", str(ckpt_path), "--beta", "3e-5", "--start-layer", "1",
            "--seed", "1", "--out", str(out)]
    assert run(argv) == 0
    _, result = decode_ckpt(out.read_bytes())
    _, original = decode_ckpt(ckpt_path.read_bytes())
    # depth 0 (l0.conv) untouched, depth >= 1 conv/linear (l1.conv, l2.fc)
    # orthogonalized
    assert result[0].tobytes() == original[0].tobytes()
    for w in (result[2], result[3]):
        m = matricize(w).astype(np.float64)
        assert np.abs(m.T @ m - np.eye(m.shape[1])).max() <= 1e-4


def test_postprocess_byte_identical_across_runs(ckpt_path, tmp_path):
    outs = []
    for name in ("a.ckpt", "b.ckpt"):
        out = tmp_path / name
        assert run(["postprocess", str(ckpt_path), "--start-layer", "0",
                    "--seed", "9", "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_postprocess_skip_flags(ckpt_path, tmp_path):
    out_noise = tmp_path / "noise.ckpt"
    assert run(["postprocess", str(ckpt_path), "--start-layer", "0", "--seed", "1",
                "--skip-orth", "--out", str(out_noise)]) == 0
    _, arrays = decode_ckpt(out_noise.read_bytes())
    # noise alone keeps channels correlated (l1.conv)
    _, r = reference_offdiagonal(arrays[2])
    assert np.abs(r).mean() > 0.9

    both = run(["postprocess", str(ckpt_path), "--start-layer", "0",
                "--skip-orth", "--skip-noise", "--out", str(tmp_path / "x.ckpt")])
    assert both == 1


def _blocks_checkpoint(path):
    """Layers whose row blocks (about 64K values each) end in every way."""
    mixed = ghn_like_tensor((64, 2048), seed=5)
    mixed[:32] *= 1e-30  # its first 32-row block lies wholly within the noise's reach
    path.write_bytes(make_checkpoint([
        # 327-row blocks, K not a multiple; K > CHW, not transposed
        ("tail", (700, 200), "linear", 1, ghn_like_tensor((700, 200), seed=1)),
        # 65-row blocks, K < CHW: transposed
        ("wide", (150, 10, 10, 10), "conv", 1, correlated_tensor((150, 10, 10, 10), seed=2)),
        ("long", (3, 70000), "linear", 1, ghn_like_tensor((3, 70000), seed=3)),  # a row a block
        ("one", (1, 64), "linear", 2, ghn_like_tensor((1, 64), seed=4)),  # K = 1
        ("bn", (64,), "norm", 2, np.full(64, 1.5, np.float32)),
        ("mixed", (64, 2048), "linear", 2, mixed),
    ]))
    return path


@pytest.mark.parametrize("beta", ["0.01", "1e-22"])
@pytest.mark.parametrize("skip", [[], ["--skip-noise"], ["--skip-orth"]])
def test_postprocess_matches_library(skip, beta, ckpt_path, tmp_path, monkeypatch):
    # --skip-noise is --beta 0, and takes no --beta of its own.
    flags = skip if "--skip-noise" in skip else ["--beta", beta, *skip]
    cfg = repair(1, beta=0.0 if "--skip-noise" in skip else float(beta), seed=5,
                 orth="--skip-orth" not in skip)
    drawn = {"normal": set(), "normal_at": set()}
    for method in drawn:
        def recording(self, *args, _draw=getattr(RngStream, method), _seen=drawn[method],
                      **kwargs):
            _seen.add(self.label)
            return _draw(self, *args, **kwargs)
        monkeypatch.setattr(RngStream, method, recording)
    for inp in (ckpt_path, _blocks_checkpoint(tmp_path / "blocks.ckpt")):
        monkeypatch.setattr(postprocess, "_cpu_count", lambda: 1)
        expected = through_file(inp.read_bytes(), cfg)
        for width in (1, 8):  # sequential, and a pool wider than the layer count
            monkeypatch.setattr(postprocess, "_cpu_count", lambda: width)
            out = tmp_path / f"out{width}.ckpt"
            assert run(["postprocess", str(inp), "--start-layer", "1", "--seed", "5",
                        "--out", str(out)] + flags) == 0
            assert out.read_bytes() == expected
    # At the tiny beta the noise can move only a few weights of mixed's
    # second block, which are gathered; its first block, every weight
    # within reach, is drawn whole.
    both = "--skip-noise" not in skip and beta == "1e-22"
    assert ("mixed" in drawn["normal"] and "mixed" in drawn["normal_at"]) == both


@pytest.mark.parametrize("method", ["rand", "orth"])
def test_init_matches_library(method, tmp_path, monkeypatch):
    # The command line writes each layer a row block at a time at its offset
    # in the file; the bytes are those of init_tensors on one thread.
    blocks = _blocks_checkpoint(tmp_path / "blocks.ckpt").read_bytes()
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps([{"name": m.name, "shape": list(m.shape), "kind": m.kind,
                                 "depth": m.depth} for m in reader_of(blocks).metas]))
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 1)
    expected = through_file(blocks, init=(method, 1.5, 3))
    for width in (1, 8):  # sequential, and a pool wider than the layer count
        monkeypatch.setattr(postprocess, "_cpu_count", lambda: width)
        out = tmp_path / f"init{width}.ckpt"
        gain = ["--gain", "1.5"] if method == "orth" else []  # moot for rand
        assert run(["init", str(arch), "--method", method, *gain, "--seed", "3",
                    "--out", str(out)]) == 0
        assert out.read_bytes() == expected


def test_beta_0_computes_no_sigma_r(tmp_path):
    # One-element channels have no correlation (sigma_r raises
    # ChannelTooShort), but --beta 0 adds no noise and so needs none: the
    # run ends as --skip-noise does.
    inp = tmp_path / "in.ckpt"
    inp.write_bytes(make_checkpoint([
        ("l0.conv", (8, 1, 1, 1), "conv", 0, ghn_like_tensor((8, 1, 1, 1), seed=1)),
        ("l1.fc", (16, 1), "linear", 1, ghn_like_tensor((16, 1), seed=2)),
    ]))
    outs = {}
    for case, flags in {"beta_0": ["--beta", "0"], "skip_noise": ["--skip-noise"]}.items():
        outs[case] = tmp_path / f"{case}.ckpt"
        assert run(["postprocess", str(inp), "--start-layer", "0", "--out", str(outs[case]),
                    *flags]) == 0
    assert outs["beta_0"].read_bytes() == outs["skip_noise"].read_bytes()


@pytest.mark.parametrize("skip", [[], ["--skip-orth"]], ids=["repair", "skip_orth"])
def test_file_shrinking_between_the_two_reads_of_a_layer_is_data_error(
    skip, tmp_path, monkeypatch, capsys
):
    # sigma_r reads all of l1.fc; the file then loses its last 8 bytes, so
    # the noise step's second read of l1.fc comes up short in its second
    # 128-row block.
    c = make_checkpoint([
        ("l0.conv", (64, 8, 3, 3), "conv", 0, ghn_like_tensor((64, 8, 3, 3), seed=1)),
        ("l0.norm", (64,), "norm", 0, np.ones(64, np.float32)),
        ("l1.fc", (256, 512), "linear", 1, ghn_like_tensor((256, 512), seed=2)),
    ])
    inp = tmp_path / "in.ckpt"
    inp.write_bytes(c)
    _, outputs = decode_ckpt(through_file(c, repair(0, orth=not skip)))
    want = outputs[2]  # l1.fc
    real_sigma_r = postprocess.sigma_r

    def sigma_r_then_cut(w, work=None):
        sigma = real_sigma_r(w, work)
        if w.shape == (256, 512):
            os.truncate(inp, inp.stat().st_size - 8)
        return sigma

    puts = []
    real_writer = cli.positional_writer

    def recording_writer(fd, metas):
        put = real_writer(fd, metas)

        def recording(i, arr, row=None):
            puts.append((metas[i].name, row, arr.copy()))
            put(i, arr, row)

        return recording

    monkeypatch.setattr(postprocess, "sigma_r", sigma_r_then_cut)
    monkeypatch.setattr(cli, "positional_writer", recording_writer)
    assert run(["postprocess", str(inp), "--start-layer", "0",
                "--out", str(tmp_path / "out.ckpt")] + skip) == 2
    assert capsys.readouterr().err == (
        "ghnpost: data error: tensor 'l1.fc': read 262136 of 262144 bytes; "
        "the file shrank while it was read\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt"]
    # What was written of l1.fc is its result, and nothing of the rows
    # that could not be read: no zeros stand in for them.
    written = [(row, arr) for name, row, arr in puts if name == "l1.fc"]
    for row, arr in written:
        assert arr.tobytes() == want[row : row + len(arr)].tobytes()
    assert sum(len(arr) for _, arr in written) == (128 if skip else 0)


def test_postprocess_in_place(ckpt_path, tmp_path):
    separate = tmp_path / "separate.ckpt"
    argv = ["postprocess", "--start-layer", "0", "--seed", "3"]
    assert run(argv + [str(ckpt_path), "--out", str(separate)]) == 0
    assert run(argv + [str(ckpt_path), "--out", str(ckpt_path)]) == 0
    assert ckpt_path.read_bytes() == separate.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt", "separate.ckpt"]


def test_nan_in_last_eligible_tensor_keeps_existing_output(ckpt_path, tmp_path, capsys):
    specs, arrays = decode_ckpt(ckpt_path.read_bytes())
    arrays = [a.copy() for a in arrays]
    arrays[3][-1, -1] = np.nan  # l2.fc
    ckpt_path.write_bytes(encode_ckpt(specs, arrays))
    out = tmp_path / "out.ckpt"
    out.write_bytes(b"earlier output")
    assert run(["postprocess", str(ckpt_path), "--start-layer", "0",
                "--out", str(out)]) == 3
    assert "tensor 'l2.fc'" in capsys.readouterr().err
    assert out.read_bytes() == b"earlier output"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt", "out.ckpt"]


def test_file_shrinking_during_postprocess_is_data_error(ckpt_path, tmp_path, monkeypatch):
    size = ckpt_path.stat().st_size
    cli_reader = cli.CheckpointReader

    def reader_then_truncate(handle):
        reader = cli_reader(handle)
        os.truncate(ckpt_path, size - 4)
        return reader

    monkeypatch.setattr(cli, "CheckpointReader", reader_then_truncate)
    out = tmp_path / "out.ckpt"
    assert run(["postprocess", str(ckpt_path), "--start-layer", "0",
                "--out", str(out)]) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt"]


@pytest.mark.parametrize("poison", ["beta", "norm"])
def test_non_finite_output_is_numerical_error(poison, ckpt_path, tmp_path, capsys):
    # A huge --beta overflows float32; a NaN in a pass-through tensor would
    # be copied as is.  Either way no non-finite file is written.
    argv = ["postprocess", str(ckpt_path), "--start-layer", "0", "--skip-orth"]
    if poison == "beta":
        argv += ["--beta", "1e300"]
        name = "l0.conv"
    else:
        specs, arrays = decode_ckpt(ckpt_path.read_bytes())
        arrays = [a.copy() for a in arrays]
        arrays[1][0] = np.inf  # l0.norm
        ckpt_path.write_bytes(encode_ckpt(specs, arrays))
        name = "l0.norm"
    out = tmp_path / "out.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exit-3 message is the only report
        assert run(argv + ["--out", str(out)]) == 3
    assert f"tensor {name!r}" in capsys.readouterr().err
    assert not out.exists()


def _child_env(**extra):
    """Environment for a child that imports the ghnpost under test, however
    this process found it."""
    env = dict(os.environ, **extra)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(Path(ghnpost.__file__).parents[1])]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def test_overflowing_beta_prints_one_line(ckpt_path, tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "ghnpost.cli", "postprocess", str(ckpt_path),
         "--start-layer", "0", "--skip-orth", "--beta", "1e300",
         "--out", str(tmp_path / "out.ckpt")],
        capture_output=True, text=True, env=_child_env(), timeout=120,
    )
    assert proc.returncode == 3
    assert proc.stderr == (
        "ghnpost: numerical error: tensor 'l0.conv': output would hold NaN or Inf values\n"
    )


_CORE_NAME = """
import ctypes, sys
from ghnpost.cli import run
from ghnpost.linalg import _openblas
for argv in sys.argv[1:]:
    assert run(argv.split("|")) == 0
name = _openblas().scipy_openblas_get_corename64_
name.restype = ctypes.c_char_p
print(name().decode())
"""


def test_outputs_under_another_blas_kernel_set_differ_by_under_an_ulp(tmp_path):
    # OpenBLAS built DYNAMIC_ARCH picks its kernels by CPU, so moving to
    # another machine can change the QR's last bits.  Nehalem's kernels
    # (SSE4.2) run on any x86-64 CPU numpy supports; on this checkpoint
    # they change a few dozen repaired weights (measured up to 0.5 of the
    # float32 ulp of the layer's largest weight) and no init weight.
    if linalg._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    specs = [("stem", (64, 3, 7, 7), "conv", 0), ("conv", (256, 64, 3, 3), "conv", 1),
             ("tall", (700, 200), "linear", 2), ("fc", (512, 512), "linear", 3)]
    inp, arch = tmp_path / "in.ckpt", tmp_path / "arch.json"
    inp.write_bytes(make_checkpoint(
        [(*spec, ghn_like_tensor(spec[1], seed=i)) for i, spec in enumerate(specs)]))
    arch.write_text(json.dumps([dict(zip(("name", "shape", "kind", "depth"), spec))
                                for spec in specs]))
    outs, cores = {}, {}
    for kernels in ("default", "Nehalem"):
        env = _child_env()
        env.pop("OPENBLAS_CORETYPE", None)
        if kernels != "default":
            env["OPENBLAS_CORETYPE"] = kernels
        outs[kernels] = [tmp_path / f"{kernels}.{job}.ckpt" for job in ("repair", "init")]
        argvs = [f"postprocess|{inp}|--start-layer|0|--seed|3|--out|{outs[kernels][0]}",
                 f"init|{arch}|--method|orth|--seed|3|--out|{outs[kernels][1]}"]
        proc = subprocess.run([sys.executable, "-c", _CORE_NAME, *argvs], capture_output=True,
                              text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        cores[kernels] = proc.stdout.strip()
    if cores["default"] == cores["Nehalem"]:
        pytest.skip(f"this OpenBLAS runs {cores['default']} kernels either way")
    for path_a, path_b in zip(outs["default"], outs["Nehalem"]):
        specs, arrays_a = decode_ckpt(path_a.read_bytes())
        for spec, a, b in zip(specs, arrays_a, decode_ckpt(path_b.read_bytes())[1]):
            for w in (a, b):  # C1
                m = matricize(w).astype(np.float64)
                assert np.abs(m.T @ m - np.eye(m.shape[1])).max() <= 1e-4, spec.name
            gap = np.abs(a.astype(np.float64) - b).max()
            assert gap <= np.spacing(np.abs(a).max()), (path_a.name, spec.name, gap)


# case: (command, flags, tensor made NaN or None, tensor named, message).
# A NaN or Inf the input holds is the tensor's; one a finite input's noise
# or gain makes is the output's.
_BLAME = {
    "skip_noise": ("postprocess", ["--start-layer", "0", "--skip-noise"], "l0.conv",
                   "'l0.conv'", "tensor holds"),
    "one_channel": ("postprocess", ["--start-layer", "0"], "l1.fc", "'l1.fc'", "tensor holds"),
    "beta_0": ("postprocess", ["--start-layer", "0", "--beta", "0"], "l0.conv", "'l0.conv'",
               "tensor holds"),
    "pass_through": ("postprocess", ["--start-layer", "0"], "l0.norm", "'l0.norm'",
                     "tensor holds"),
    "repair_overflow": ("postprocess", ["--start-layer", "0", "--beta", "1e308"], None,
                        "'l0.conv'", "output would hold"),
    "skip_orth_overflow": ("postprocess", ["--start-layer", "0", "--skip-orth", "--beta",
                                           "1e308"], None, "'l0.conv'", "output would hold"),
    "init_gain": ("init", ["--method", "orth", "--gain", "1e300"], None, "'l0.conv'",
                  "output would hold"),
    "analyze": ("analyze", [], "l0.conv", "'l0.conv'", "tensor holds"),
    "compare": ("compare", [], "l0.conv", "'l0.conv' (second checkpoint)", "tensor holds"),
}


def _blame_checkpoint(path, poison):
    """l0.conv with channels of alternating sign (r = +-1, so sigma_r ~ 1
    and beta = 1e308 overflows float64), a norm, and a one-channel layer
    (which analyze and compare would reject, but l0.conv fails first)."""
    conv = ghn_like_tensor((8, 3, 3, 3), seed=1)
    conv[1::2] *= -1
    specs = [("l0.conv", (8, 3, 3, 3), "conv", 0, conv),
             ("l0.norm", (8,), "norm", 0, np.ones(8, np.float32)),
             ("l1.fc", (1, 6), "linear", 1, np.arange(6, dtype=np.float32).reshape(1, 6))]
    for name, _, _, _, arr in specs:
        if name == poison:
            arr.reshape(-1)[-1] = np.nan
    path.write_bytes(make_checkpoint(specs))
    return path, [{"name": n, "shape": list(s), "kind": k, "depth": d}
                  for n, s, k, d, _ in specs]


@pytest.mark.parametrize("case", sorted(_BLAME))
def test_non_finite_tensor_is_blamed_on_the_input_or_the_output(case, tmp_path, monkeypatch,
                                                                capsys):
    command, flags, poison, name, message = _BLAME[case]
    work = tmp_path / "work"
    work.mkdir()
    path, spec = _blame_checkpoint(tmp_path / "in.ckpt", poison)
    inputs = {
        "analyze": [path],
        "compare": [_blame_checkpoint(tmp_path / "finite.ckpt", None)[0], path],
        "init": [tmp_path / "arch.json"],
        "postprocess": [path],
    }[command]
    (tmp_path / "arch.json").write_text(json.dumps(spec))

    def finite_qr(a):
        assert np.isfinite(a).all(), "a non-finite layer reached the QR"
        return qr_decompose(a)

    monkeypatch.setattr(postprocess, "qr_decompose", finite_qr)
    out = work / "out"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exit-3 line is the only report
        code = run([command, *map(str, inputs), *flags, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        f"ghnpost: numerical error: tensor {name}: {message} NaN or Inf values\n"
    )
    assert list(work.iterdir()) == []


def test_nan_in_third_eligible_tensor_with_layers_in_flight(tmp_path, monkeypatch, capsys):
    names = [f"l{i}.conv" for i in range(7)]
    tensors = [(name, (24, 4, 3, 3), "conv", 0, ghn_like_tensor((24, 4, 3, 3), seed=i))
               for i, name in enumerate(names)]
    tensors[2][4][0, 0, 0, 0] = np.nan  # l2.conv
    tensors[3][4][0, 0, 0, 0] = np.inf  # l3.conv fails too, later in header order
    inp = tmp_path / "in.ckpt"
    inp.write_bytes(make_checkpoint(tensors))
    pulled = []
    l3_pulled = threading.Event()

    class RecordingReader(cli.CheckpointReader):
        def read_rows(self, i, r0, r1, out):
            name = self.metas[i].name
            if name == "l2.conv":
                l3_pulled.wait(timeout=30)  # l2.conv stays in flight until l3.conv is
            rows = super().read_rows(i, r0, r1, out)
            pulled.append(name)
            if name == "l3.conv":
                l3_pulled.set()
            return rows

    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "CheckpointReader", RecordingReader)
    code = run(["postprocess", str(inp), "--start-layer", "0", "--out",
                str(tmp_path / "out.ckpt")])
    assert code == 3
    assert "tensor 'l2.conv'" in capsys.readouterr().err
    assert "l3.conv" in pulled  # was in flight when l2.conv failed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt"]


def _recording_reader(monkeypatch, pulled, delay=None):
    """Patch the CLI's reader to append each tensor's name to ``pulled`` at
    its first read (whole, or its first row block), after sleeping
    ``delay(i)`` seconds if given."""

    class RecordingReader(cli.CheckpointReader):
        def read_rows(self, i, r0, r1, out):
            name = self.metas[i].name
            if name not in pulled:
                if delay is not None:
                    time.sleep(delay(i))
                pulled.append(name)
            return super().read_rows(i, r0, r1, out)

    monkeypatch.setattr(cli, "CheckpointReader", RecordingReader)


def test_larger_later_tensor_failing_first_reports_the_earlier_one(
    tmp_path, monkeypatch, capsys
):
    small, big = ghn_like_tensor((8, 4, 3, 3), seed=0), ghn_like_tensor((64, 4, 3, 3), seed=1)
    small[0, 0, 0, 0] = np.nan
    big[0, 0, 0, 0] = np.inf
    inp = tmp_path / "in.ckpt"
    inp.write_bytes(make_checkpoint([("small", small.shape, "conv", 0, small),
                                     ("big", big.shape, "conv", 0, big)]))
    pulled = []
    # "small" is admitted only once "big" is in flight, and starts late.
    _recording_reader(monkeypatch, pulled, lambda i: 0.2 if i == 0 else 0.0)
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 4)
    assert run(["postprocess", str(inp), "--start-layer", "0", "--out",
                str(tmp_path / "out.ckpt")]) == 3
    assert pulled == ["big", "small"]  # "big" failed first in time
    err = capsys.readouterr().err
    assert "tensor 'small'" in err and "'big'" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt"]


def _mixed_checkpoint(path):
    """Layers of several sizes, a wide one, pass-through tensors between them."""
    tensors = []
    for i, shape in enumerate([(16, 8, 3, 3), (64, 8, 3, 3), (16, 8, 3, 3), (10, 200),
                               (96, 16, 1, 1), (32, 48, 1, 1)]):
        tensors.append((f"l{i}.conv", shape, "conv" if len(shape) == 4 else "linear", i,
                        ghn_like_tensor(shape, seed=i)))
        tensors.append((f"l{i}.norm", (shape[0],), "norm", i,
                        np.full(shape[0], 1.5, np.float32)))
    path.write_bytes(make_checkpoint(tensors))
    return path


def test_layers_are_admitted_largest_first(tmp_path, monkeypatch):
    inp = _mixed_checkpoint(tmp_path / "in.ckpt")
    pulled = []
    _recording_reader(monkeypatch, pulled)
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 1)
    assert run(["postprocess", str(inp), "--start-layer", "1", "--out",
                str(tmp_path / "out.ckpt")]) == 0
    # Sizes l1 4608, l3 2000, l4 and l5 1536 (a tie, kept in header order),
    # l2 1152; the tensors that pass through (l0.conv, below --start-layer,
    # and the norms) follow, in the same order.
    assert pulled == ["l1.conv", "l3.conv", "l4.conv", "l5.conv", "l2.conv",
                      "l0.conv", "l4.norm", "l1.norm", "l5.norm", "l0.norm",
                      "l2.norm", "l3.norm"]


@pytest.mark.parametrize("skip", [[], ["--skip-noise"]])
@pytest.mark.parametrize("width", [1, 4])
def test_repair_bytes_do_not_depend_on_completion_order(skip, width, tmp_path, monkeypatch):
    inp = _mixed_checkpoint(tmp_path / "in.ckpt")
    cfg = repair(0, seed=6, beta=0.0 if skip else DEFAULT_BETA)
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 1)
    expected = through_file(inp.read_bytes(), cfg)
    # The first layers in the header start late, and the rest overtake them.
    _recording_reader(monkeypatch, [], lambda i: 0.05 if i < 4 else 0.0)
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: width)
    out = tmp_path / "out.ckpt"
    assert run(["postprocess", str(inp), "--start-layer", "0", "--seed", "6",
                "--out", str(out)] + skip) == 0
    assert out.read_bytes() == expected


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and a second CPU",
)
def test_repair_bytes_do_not_depend_on_the_core_count(tmp_path):
    # A near-duplicate 1000 x 2048 linear layer whose repair, with BLAS on
    # its default thread count, differs in one float32 value between one
    # and two OpenBLAS threads.
    c = make_checkpoint(
        [("fc", (1000, 2048), "linear", 0, ghn_like_tensor((1000, 2048), seed=0))]
    )
    inp = tmp_path / "in.ckpt"
    inp.write_bytes(c)
    one_cpu = {min(os.sched_getaffinity(0))}
    outs = []
    for threads, cpus in (("1", one_cpu), ("2", None)):
        out = tmp_path / f"out{threads}.ckpt"
        proc = subprocess.run(
            [sys.executable, "-m", "ghnpost.cli", "postprocess", str(inp),
             "--start-layer", "0", "--seed", "0", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=_child_env(OPENBLAS_NUM_THREADS=threads),
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


@pytest.mark.skipif(
    not hasattr(os, "sched_setaffinity") or len(os.sched_getaffinity(0)) < 2,
    reason="needs sched_setaffinity and a second CPU",
)
def test_init_orth_bytes_do_not_depend_on_the_core_count(tmp_path):
    # ResNet-50's fc layer, whose orthogonal init with seed 7 differs in
    # one float32 value between one and two OpenBLAS threads when BLAS
    # runs on its default thread count.
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps(
        [{"name": "fc.weight", "shape": [1000, 2048], "kind": "linear", "depth": 0}]))
    one_cpu = {min(os.sched_getaffinity(0))}
    outs = []
    for threads, cpus in (("1", one_cpu), ("2", None)):
        out = tmp_path / f"out{threads}.ckpt"
        proc = subprocess.run(
            [sys.executable, "-m", "ghnpost.cli", "init", str(arch), "--method", "orth",
             "--seed", "7", "--out", str(out)],
            capture_output=True, text=True, timeout=300,
            env=_child_env(OPENBLAS_NUM_THREADS=threads),
            preexec_fn=(lambda: os.sched_setaffinity(0, cpus)) if cpus else None,
        )
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]


def test_readme_cli_lines_parse():
    # Every ``ghnpost ...`` line of the README's CLI block.
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [line for line in block.splitlines() if line.startswith("ghnpost ")]
    assert {shlex.split(line)[1] for line in lines} == {
        "analyze", "postprocess", "init", "pca", "compare"
    }
    for line in lines:
        args = cli.build_parser().parse_args(shlex.split(line)[1:])
        assert callable(args.func), line


def test_usage_errors(capsys, tmp_path):
    assert run(["postprocess"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert run([]) == 1
    assert run(["analyze", "x.ckpt", "--out", "y.csv", "--no-such-flag"]) == 1
    assert run(["postprocess", "in.ckpt", "--start-layer", "-3",
                "--out", str(tmp_path / "o.ckpt")]) == 1
    assert run(["nonsense"]) == 1


@pytest.mark.parametrize("bins", [0, 2**20 + 1, 2**38, 2**40, 2**62, 10**23])
def test_bins_out_of_range_is_a_usage_error(bins, ckpt_path, tmp_path, capsys):
    # The bin counter is tested up to 2**20 bins, and analyze holds 8
    # bytes a bin of every layer: the parser refuses the rest before
    # anything is read.
    argv = ["analyze", str(ckpt_path), "--out", str(tmp_path / "report.csv"),
            "--svg-dir", str(tmp_path / "svg"), "--bins", str(bins)]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if ": error: " in line] == [
        "ghnpost analyze: error: argument --bins: must be between 1 and 1048576"]
    assert err[0].startswith("usage: ghnpost analyze ")
    assert os.listdir(tmp_path) == ["in.ckpt"]


def test_the_most_bins_are_accepted(ckpt_path, tmp_path, capsys):
    out = tmp_path / "report.csv"
    assert run(["analyze", str(ckpt_path), "--out", str(out),
                "--svg-dir", str(tmp_path / "svg"), "--bins", str(2**20)]) == 0
    assert capsys.readouterr().err == ""
    assert [row[0] for row in csv.reader(io.StringIO(out.read_text()))] == [
        "name", "l0.conv", "l1.conv", "l2.fc"]


def test_analyze_counts_bins_only_for_svgs(tmp_path, monkeypatch):
    # The CSV needs no histogram: without --svg-dir the bin counter never
    # runs, and the rows are those of a run with SVGs, to the 9 digits
    # they are printed with.
    path = tmp_path / "in.ckpt"
    path.write_bytes(analyze_table())
    with_svgs, without = tmp_path / "svgs.csv", tmp_path / "csv.csv"
    assert run(["analyze", str(path), "--out", str(with_svgs),
                "--svg-dir", str(tmp_path / "svg")]) == 0

    def count(r, counts):
        raise AssertionError("counted bins without --svg-dir")

    monkeypatch.setattr(stats, "_count", count)
    assert run(["analyze", str(path), "--out", str(without)]) == 0
    want, got = (list(csv.reader(io.StringIO(p.read_text()))) for p in (with_svgs, without))
    assert [row[:5] for row in got] == [row[:5] for row in want]
    for a, b in zip(got[1:], want[1:]):
        assert [float(x) for x in a[5:]] == pytest.approx([float(x) for x in b[5:]], rel=1e-8)


def test_an_svg_at_the_most_bins_draws_only_the_bins_with_a_count(tmp_path):
    # A collapsed layer's correlations all fall in the top bin: its SVG
    # draws that one bar, not 2**20 of them (about 113 MB).
    path = tmp_path / "in.ckpt"
    path.write_bytes(make_checkpoint([
        ("l0.conv", (32, 8, 3, 3), "conv", 0, ghn_like_tensor((32, 8, 3, 3), 1e-5, seed=1))]))
    svg_dir = tmp_path / "svg"
    assert run(["analyze", str(path), "--out", str(tmp_path / "report.csv"),
                "--svg-dir", str(svg_dir), "--bins", str(2**20)]) == 0
    svg = svg_dir / "000_l0.conv.svg"
    bars = [el for el in ET.fromstring(svg.read_text()).iter() if el.tag.endswith("rect")][1:]
    assert len(bars) == 1
    assert float(bars[0].get("x")) + float(bars[0].get("width")) == pytest.approx(620, abs=0.01)
    assert svg.stat().st_size < 4096


@pytest.mark.parametrize("value", ["nan", "inf"])
@pytest.mark.parametrize("flag", ["--beta", "--gain"])
def test_non_finite_float_flags_are_usage_errors(flag, value, ckpt_path, tmp_path, capsys):
    if flag == "--beta":
        argv = ["postprocess", str(ckpt_path), "--start-layer", "0", "--skip-orth"]
    else:
        argv = ["init", str(_archspec(tmp_path)), "--method", "orth"]
    out = tmp_path / "out.ckpt"
    assert run(argv + [flag, value, "--out", str(out)]) == 1
    assert f"argument {flag}: must be finite" in capsys.readouterr().err
    assert not out.exists()


# case: (command and flags before --out, the error line).  The parser is
# each rule's one check: the engines take the values it lets through.
_OUT_OF_RANGE = {
    "negative_beta": (["postprocess", "{ckpt}", "--start-layer", "0", "--beta=-1e-5"],
                      "argument --beta: must be finite and non-negative"),
    "negative_start_layer": (["postprocess", "{ckpt}", "--start-layer", "-3"],
                             "argument --start-layer: must be non-negative"),
    "zero_gain": (["init", "{arch}", "--method", "orth", "--gain", "0"],
                  "argument --gain: must be finite and positive"),
    "negative_gain": (["init", "{arch}", "--method", "orth", "--gain", "-1"],
                      "argument --gain: must be finite and positive"),
    "unknown_method": (["init", "{arch}", "--method", "zeros"],
                       "argument --method: invalid choice: 'zeros' (choose from 'rand', 'orth')"),
}


@pytest.mark.parametrize("case", sorted(_OUT_OF_RANGE))
def test_settings_out_of_range_are_usage_errors(case, ckpt_path, tmp_path, capsys):
    argv, message = _OUT_OF_RANGE[case]
    arch = _archspec(tmp_path)
    out = tmp_path / "out.ckpt"
    argv = [a.format(ckpt=ckpt_path, arch=arch) for a in argv] + ["--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if ": error: " in line] == [
        f"ghnpost {argv[0]}: error: {message}"]
    assert sorted(os.listdir(tmp_path)) == ["arch.json", "in.ckpt"]


# case: (command and flags before --out, the flag left without effect).
_MOOT = {
    "beta_after_skip_noise": (["postprocess", "{ckpt}", "--start-layer", "0", "--skip-noise",
                               "--beta", "0.5"], "--beta"),
    "default_beta_before_skip_noise": (["postprocess", "{ckpt}", "--start-layer", "0",
                                        "--beta", "3e-5", "--skip-noise"], "--beta"),
    "beta_0_with_skip_orth": (["postprocess", "{ckpt}", "--start-layer", "0", "--beta", "0",
                               "--skip-orth"], "--skip-orth"),
    "skip_orth_before_beta_0.0": (["postprocess", "{ckpt}", "--start-layer", "0",
                                   "--skip-orth", "--beta", "0.0"], "--skip-orth"),
    "bins_without_svg_dir": (["analyze", "{ckpt}", "--bins", "7"], "--bins"),
    "default_bins_without_svg_dir": (["analyze", "{ckpt}", "--bins", "50"], "--bins"),
    "gain_with_rand": (["init", "{arch}", "--method", "rand", "--gain", "7"], "--gain"),
    "default_gain_with_rand": (["init", "{arch}", "--gain", "1", "--method", "rand"], "--gain"),
}


@pytest.mark.parametrize("case", sorted(_MOOT))
def test_a_flag_without_effect_is_a_usage_error(case, ckpt_path, tmp_path, capsys):
    # --skip-noise is --beta 0, --skip-orth at --beta 0 would copy its input,
    # and --gain scales --method orth only: a value that the rest of the
    # command line would ignore is refused, even the default, before any
    # output exists.
    argv, flag = _MOOT[case]
    paths = {"ckpt": ckpt_path, "arch": _archspec(tmp_path)}
    out = tmp_path / "new" / "out.ckpt"
    assert run([a.format(**paths) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith(f"usage: ghnpost {argv[0]} ")
    assert err[-1].startswith(f"ghnpost {argv[0]}: error: argument {flag}: ")
    assert not out.parent.exists()


def test_bins_without_svg_dir_names_both_flags(ckpt_path, tmp_path, capsys):
    # Only the SVGs draw a histogram: without them --bins would change no
    # byte of the CSV.
    argv = ["analyze", str(ckpt_path), "--out", str(tmp_path / "report.csv"), "--bins", "7"]
    assert run(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if "error:" in line] == [
        "ghnpost analyze: error: argument --bins: applies to --svg-dir only"]
    assert os.listdir(tmp_path) == ["in.ckpt"]
    assert run(argv + ["--svg-dir", str(tmp_path / "svg")]) == 0


def test_noise_only_at_beta_0_names_both_flags(ckpt_path, tmp_path, capsys):
    # --skip-orth at --beta 0 would write a byte copy of its input (see
    # _MOOT); any positive beta, however small, runs.
    argv = ["postprocess", str(ckpt_path), "--start-layer", "0", "--skip-orth",
            "--out", str(tmp_path / "out.ckpt")]
    assert run(argv + ["--beta", "0"]) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        "ghnpost postprocess: error: argument --skip-orth: not allowed with --beta 0, "
        "which adds no noise")
    assert run(argv + ["--beta", "1e-300"]) == 0


def test_data_errors(tmp_path, ckpt_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + b"\x00" * 64)
    assert run(["analyze", str(bad), "--out", str(tmp_path / "r.csv")]) == 2

    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(ckpt_path.read_bytes()[:-40])
    assert run(["analyze", str(truncated), "--out", str(tmp_path / "r.csv")]) == 2

    missing = tmp_path / "nope.ckpt"
    assert run(["analyze", str(missing), "--out", str(tmp_path / "r.csv")]) == 2
    # failed runs must not leave output files behind
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("skip", [[], ["--skip-noise"], ["--skip-orth"]])
@pytest.mark.parametrize("case", ["past_the_deepest_layer", "no_layer"])
def test_start_layer_selecting_no_layer_is_one_line_data_error(case, skip, ckpt_path, tmp_path,
                                                               capsys):
    # Such a run would write its input back, byte for byte.
    if case == "no_layer":
        c = make_checkpoint([("bn", (4,), "norm", 0, np.ones(4, np.float32)),
                             ("b", (3,), "bias", 5, np.zeros(3, np.float32))])
        ckpt_path.write_bytes(c)
        start, why = 0, "the file holds no conv/linear tensor"
    else:
        start, why = 3, "the deepest conv/linear tensor is at depth 2"
    out = tmp_path / "sub" / "out.ckpt"
    argv = ["postprocess", str(ckpt_path), "--start-layer", str(start), *skip, "--out", str(out)]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err == f"ghnpost: data error: --start-layer {start} selects no layer: {why}\n"
    assert sorted(os.listdir(tmp_path)) == ["in.ckpt"]
    if case != "no_layer":
        argv[3] = "2"  # the deepest layer alone
        assert run(argv) == 0 and out.read_bytes() != ckpt_path.read_bytes()


def test_numerical_error_exit_code(tmp_path):
    c = make_checkpoint([("w", (1, 8), "conv", 0, np.ones((1, 8), np.float32))])
    path = tmp_path / "one_channel.ckpt"
    path.write_bytes(c)
    assert run(["analyze", str(path), "--out", str(tmp_path / "r.csv")]) == 3


def _nan_checkpoint(tmp_path):
    w = np.arange(24, dtype=np.float32).reshape(4, 6)
    w[2, 3] = np.nan
    path = tmp_path / "nan.ckpt"
    path.write_bytes(make_checkpoint([("w", (4, 6), "linear", 0, w)]))
    return path


@pytest.mark.parametrize("command", ["postprocess", "init"])
def test_failing_run_removes_the_directories_made_for_its_output(command, tmp_path, capsys):
    # Both open --out before the first layer: a NaN input, or a gain whose
    # weights overflow float32, ends the run with exit 3 after that.
    path = _nan_checkpoint(tmp_path)
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps([{"name": "w", "shape": [4, 6], "kind": "linear", "depth": 0}]))
    argv = {"postprocess": ["postprocess", str(path), "--start-layer", "0"],
            "init": ["init", str(arch), "--method", "orth", "--gain", "1e300"]}[command]
    assert run(argv + ["--out", str(tmp_path / "new" / "deeper" / "out.ckpt")]) == 3
    assert capsys.readouterr().err.startswith("ghnpost: numerical error: tensor 'w': ")
    assert sorted(os.listdir(tmp_path)) == ["arch.json", "nan.ckpt"]


def test_analyze_non_finite_tensor_is_numerical_error(tmp_path, capsys):
    out = tmp_path / "r.csv"
    assert run(["analyze", str(_nan_checkpoint(tmp_path)), "--out", str(out)]) == 3
    assert "tensor 'w'" in capsys.readouterr().err
    assert not out.exists()


def test_compare_non_finite_tensor_is_numerical_error(tmp_path, capsys):
    finite = make_checkpoint(
        [("w", (4, 6), "linear", 0, np.arange(24, dtype=np.float32).reshape(4, 6))]
    )
    finite_path = tmp_path / "finite.ckpt"
    finite_path.write_bytes(finite)
    out = tmp_path / "d.csv"
    assert run(["compare", str(finite_path), str(_nan_checkpoint(tmp_path)),
                "--out", str(out)]) == 3
    assert "tensor 'w' (second checkpoint)" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("shape, poison, message", [
    ((4, 6), True, "(second checkpoint): tensor holds NaN or Inf values"),
    ((9, 3), True, "(second checkpoint): tensor holds NaN or Inf values"),  # K > CHW
    ((1, 6), False, "(first checkpoint): need k >= 2 channels, got 1"),
    ((5, 1), False, "(first checkpoint): channels have 1 elements, need at least 2"),
], ids=["nan", "nan_tall", "k1", "chw1"])
def test_compare_numerical_error_messages(shape, poison, message, tmp_path, capsys):
    a = (np.arange(math.prod(shape), dtype=np.float32) % 5).reshape(shape)
    b = a.copy()
    if poison:
        b.flat[-1] = np.nan
    paths = [tmp_path / "a.ckpt", tmp_path / "b.ckpt"]
    for path, arr in zip(paths, (a, b)):
        path.write_bytes(make_checkpoint([("w", shape, "linear", 0, arr)]))
    out = tmp_path / "d.csv"
    assert run(["compare", *map(str, paths), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"ghnpost: numerical error: tensor 'w' {message}\n"
    assert not out.exists()


def _archspec(tmp_path):
    spec = [
        {"name": "c1", "shape": [16, 3, 3, 3], "kind": "conv", "depth": 0},
        {"name": "n1", "shape": [16], "kind": "norm", "depth": 0},
        {"name": "b1", "shape": [16], "kind": "bias", "depth": 0},
        {"name": "fc", "shape": [10, 16], "kind": "linear", "depth": 1},
    ]
    path = tmp_path / "arch.json"
    path.write_text(json.dumps(spec))
    return path


def test_init_rand(tmp_path):
    arch = _archspec(tmp_path)
    out = tmp_path / "init.ckpt"
    assert run(["init", str(arch), "--method", "rand", "--seed", "4",
                "--out", str(out)]) == 0
    specs, (conv, norm, bias, _) = decode_ckpt(out.read_bytes())
    assert [s.name for s in specs] == ["c1", "n1", "b1", "fc"]
    np.testing.assert_array_equal(norm, np.ones(16, np.float32))
    np.testing.assert_array_equal(bias, np.zeros(16, np.float32))
    assert abs(conv.std() - np.sqrt(2 / 27)) <= 0.1 * np.sqrt(2 / 27)


def test_init_orth_deterministic(tmp_path):
    arch = _archspec(tmp_path)
    blobs = []
    for name in ("i1.ckpt", "i2.ckpt"):
        out = tmp_path / name
        assert run(["init", str(arch), "--method", "orth", "--gain", "1.0",
                    "--seed", "4", "--out", str(out)]) == 0
        blobs.append(out.read_bytes())
    assert blobs[0] == blobs[1]
    m = matricize(decode_ckpt(blobs[0])[1][0]).astype(np.float64)  # c1
    assert np.abs(m.T @ m - np.eye(m.shape[1])).max() <= 1e-4


def test_init_bad_schema(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text('[{"name": "w"}]')
    assert run(["init", str(path), "--method", "rand", "--out",
                str(tmp_path / "o.ckpt")]) == 2


@pytest.mark.parametrize("shape", [[3, 0], [0, 3]])
@pytest.mark.parametrize("method", ["rand", "orth"])
def test_init_zero_dimension_is_a_data_error(method, shape, tmp_path, capsys):
    # The archspec reader refuses the shape before any output exists, so
    # no layer of zero size reaches the initializers.
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps([{"name": "w", "shape": shape, "kind": "linear", "depth": 0}]))
    assert run(["init", str(arch), "--method", method, "--out", str(tmp_path / "o.ckpt")]) == 2
    assert capsys.readouterr().err == (
        f"ghnpost: data error: $[0].shape: expected 1-4 positive integers, got {shape}\n")
    assert os.listdir(tmp_path) == ["arch.json"]


@pytest.mark.parametrize("method", ["rand", "orth"])
@pytest.mark.parametrize("first", [0, 1], ids=["alone", "after_a_layer"])
def test_init_past_the_largest_file_offset_is_a_data_error(first, method, tmp_path, capsys):
    # 2**80 values need a file of 2**82 bytes and more, past the 2**63 - 1
    # a file offset holds (os.ftruncate raised OverflowError): the
    # archspec reader names the first tensor past it, before any output.
    huge = {"name": "w", "shape": [2**40, 2**40], "kind": "linear", "depth": 0}
    small = {"name": "v", "shape": [4, 4], "kind": "linear", "depth": 0}
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps([small] * first + [huge, dict(huge, name="u")]))
    assert run(["init", str(arch), "--method", method, "--out", str(tmp_path / "o.ckpt")]) == 2
    err = capsys.readouterr().err
    assert re.fullmatch(rf"ghnpost: data error: \$\[{first}\]\.shape: \[{2**40}, {2**40}\] "
                        r"would make the file (\d+) bytes long, past the largest file offset, "
                        r"2\*\*63 - 1\n", err), err
    assert os.listdir(tmp_path) == ["arch.json"]


def test_init_rank3_conv_is_numerical_error(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text('[{"name": "w", "shape": [4, 4, 4], "kind": "conv", "depth": 0}]')
    assert run(["init", str(path), "--method", "rand", "--out",
                str(tmp_path / "o.ckpt")]) == 3


def test_init_huge_gain_is_numerical_error(tmp_path, capsys):
    # --gain is finite, but the scaled orthogonal weights overflow float32.
    path = tmp_path / "arch.json"
    path.write_text('[{"name": "w", "shape": [4, 4], "kind": "linear", "depth": 0}]')
    out = tmp_path / "o.ckpt"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exit-3 message is the only report
        code = run(["init", str(path), "--method", "orth", "--gain", "1e39",
                    "--out", str(out)])
    assert code == 3
    assert "tensor 'w'" in capsys.readouterr().err
    assert not out.exists()
    assert list(tmp_path.iterdir()) == [path]


@pytest.mark.parametrize("kind", ["norm", "bias"])
def test_unallocatable_pass_through_tensor_is_one_line_numerical_error(
    kind, tmp_path, monkeypatch, capsys
):
    # np.ones / np.zeros refuse, as for a tensor too large for memory;
    # nothing of that size is allocated.
    class Refusing:
        def __getattr__(self, name):
            return getattr(np, name)

        def ones(self, *args, **kwargs):
            raise MemoryError("cannot allocate")

        zeros = ones

    monkeypatch.setattr(postprocess, "np", Refusing())
    path = tmp_path / "arch.json"
    path.write_text(json.dumps([{"name": "w", "shape": [4, 4], "kind": "linear", "depth": 0},
                                {"name": "p", "shape": [1 << 20], "kind": kind, "depth": 0}]))
    out = tmp_path / "o.ckpt"
    assert run(["init", str(path), "--method", "rand", "--out", str(out)]) == 3
    assert capsys.readouterr().err == "ghnpost: numerical error: tensor 'p': cannot allocate\n"
    assert list(tmp_path.iterdir()) == [path]


_REFUSALS = {
    "enomem": OSError(errno.ENOMEM, os.strerror(errno.ENOMEM)),
    "too_long": OverflowError("mmap length is too large"),
    "memory_error": MemoryError(),
}


@pytest.mark.parametrize("refusal", sorted(_REFUSALS))
@pytest.mark.parametrize("command", ["postprocess", "skip_noise", "skip_orth", "init_orth"])
def test_unallocatable_layer_buffer_is_one_line_numerical_error(
    command, refusal, ckpt_path, tmp_path, monkeypatch, capsys
):
    # The OS refuses every anonymous mapping, as it would a layer too large
    # for memory; nothing of that size is allocated.
    real_mmap = mmap.mmap

    def refuse(fileno, length, *args, **kwargs):
        if fileno == -1:
            raise _REFUSALS[refusal]
        return real_mmap(fileno, length, *args, **kwargs)

    monkeypatch.setattr(mmap, "mmap", refuse)
    out = tmp_path / "out.ckpt"
    if command == "init_orth":
        argv, name = ["init", str(_archspec(tmp_path)), "--method", "orth"], "c1"
    elif command == "skip_orth":
        # sigma_r's one buffer is sized to the largest layer, and mapped first.
        argv, name = ["postprocess", str(ckpt_path), "--start-layer", "0", "--skip-orth"], "l1.conv"
    else:
        argv, name = ["postprocess", str(ckpt_path), "--start-layer", "0"], "l0.conv"
        if command == "skip_noise":
            argv.append("--skip-noise")
    assert run(argv + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"ghnpost: numerical error: tensor {name!r}: ")
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not out.exists()


class _NumpyRefusing:
    """numpy, except that np.empty refuses the shapes ``refused`` accepts."""

    def __init__(self, refused):
        self.refused = refused

    def __getattr__(self, name):
        return getattr(np, name)

    def empty(self, shape, *args, **kwargs):
        if self.refused(shape):
            raise MemoryError("cannot allocate")
        return np.empty(shape, *args, **kwargs)


_ARGV = {
    "analyze": lambda ckpt: ["analyze", ckpt],
    "compare": lambda ckpt: ["compare", ckpt, ckpt],
    "postprocess": lambda ckpt: ["postprocess", ckpt, "--start-layer", "0"],
    "skip_orth": lambda ckpt: ["postprocess", ckpt, "--start-layer", "0", "--skip-orth"],
}


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_unallocatable_channel_buffer_is_one_line_numerical_error(
    command, ckpt_path, tmp_path, monkeypatch, capsys
):
    # stats cannot allocate any 2-D array (the channels' squares, a block
    # of rows), as for a layer too large for memory.
    two_d = _NumpyRefusing(lambda shape: isinstance(shape, tuple) and len(shape) == 2)
    monkeypatch.setattr(stats, "np", two_d)
    out = tmp_path / "out.csv"
    assert run(_ARGV[command](str(ckpt_path)) + ["--out", str(out)]) == 3
    note = " (first checkpoint)" if command == "compare" else ""
    err = capsys.readouterr().err
    assert err == f"ghnpost: numerical error: tensor 'l0.conv'{note}: cannot allocate\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_ARGV))
def test_unloadable_tensor_is_one_line_numerical_error(
    command, ckpt_path, tmp_path, monkeypatch, capsys
):
    # No float32 buffer can be allocated as the file is read: postprocess,
    # analyze and compare read each conv/linear layer through TensorRows'
    # row-block buffer (postprocess loads the other tensors whole).
    monkeypatch.setattr(checkpoint_io, "np", _NumpyRefusing(lambda shape: True))
    out = tmp_path / "out"
    assert run(_ARGV[command](str(ckpt_path)) + ["--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert err == "ghnpost: numerical error: tensor 'l0.conv': cannot allocate\n"
    assert not out.exists()


@pytest.mark.parametrize("command", sorted(_ARGV))
def test_unsupported_rank_is_one_line_numerical_error(command, tmp_path, capsys):
    # The rank is checked before a layer is read, so every command names
    # the tensor alone: compare names no checkpoint.
    path = tmp_path / "odd.ckpt"
    path.write_bytes(make_checkpoint(
        [("odd.conv", (8, 4, 3), "conv", 0, ghn_like_tensor((8, 4, 3)))]))
    out = tmp_path / "out"
    assert run(_ARGV[command](str(path)) + ["--out", str(out)]) == 3
    assert capsys.readouterr().err == ("ghnpost: numerical error: tensor 'odd.conv': "
                                       "expected rank 2 or 4 tensor, got rank 3\n")
    assert not out.exists()


_ADDRESS_LIMIT = """
import contextlib, io, json, resource, sys, threading
from ghnpost import postprocess
from ghnpost.cli import run

warm, argv, headroom = json.loads(sys.argv[1])
assert run(warm) == 0  # numpy and OpenBLAS map their own buffers here
# Each pool worker maps a thread stack, which glibc keeps for later threads
# once the worker ends.  The warm-up's tiny layers often run one after the
# other, on one stack, so as many threads as the pool is wide run here at
# once: the run under the limit finds all their stacks already mapped.
together = threading.Barrier(postprocess._cpu_count())
workers = [threading.Thread(target=together.wait) for _ in range(together.parties)]
for worker in workers:
    worker.start()
for worker in workers:
    worker.join()
with open("/proc/self/status") as status:
    size = next(int(line.split()[1]) for line in status if line.startswith("VmSize:"))
limit = size * 1024 + headroom
resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
err = io.StringIO()
with contextlib.redirect_stderr(err):
    code = run(argv)
print(json.dumps([code, err.getvalue()]))
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
@pytest.mark.parametrize("command", ["analyze", "compare", "skip_orth"])
def test_layer_beyond_the_address_limit_is_one_line_numerical_error(command, tmp_path):
    # A child whose address space has room for less than the largest
    # layer's float64 channels: the one buffer of that size, mapped before
    # any layer is read, is refused, and the run leaves nothing behind.
    shapes = {"w0": (512, 768), "w1": (1024, 768), "w2": (512, 768)}
    ckpt = tmp_path / "in.ckpt"
    ckpt.write_bytes(make_checkpoint(
        [(name, dims, "linear", 0, ghn_like_tensor(dims)) for name, dims in shapes.items()]))
    warm = tmp_path / "warm.ckpt"
    warm.write_bytes(make_checkpoint(
        [("w", (64, 96), "linear", 0, ghn_like_tensor((64, 96)))]))
    argv = {
        "analyze": lambda path, out: ["analyze", path, "--svg-dir", f"{out}.svgs"],
        "compare": lambda path, out: ["compare", path, path],
        "skip_orth": lambda path, out: ["postprocess", path, "--start-layer", "0", "--skip-orth"],
    }[command]
    out = tmp_path / "out" / "o"
    largest = 8 * math.prod(shapes["w1"])
    job = [argv(str(warm), tmp_path / "warm") + ["--out", str(tmp_path / "warm.out")],
           argv(str(ckpt), out) + ["--out", str(out)], largest // 2]
    proc = subprocess.run([sys.executable, "-c", _ADDRESS_LIMIT, json.dumps(job)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    code, err = json.loads(proc.stdout)
    assert code == 3
    assert err == (f"ghnpost: numerical error: tensor 'w1': cannot map {largest} bytes"
                   " for the float64 layer buffer\n")
    assert not out.parent.exists()


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="needs /proc and RLIMIT_AS")
@pytest.mark.skipif(postprocess._cpu_count() < 2 or not linalg.gil_free_qr(),
                    reason="needs a layer pool at least two wide")
@pytest.mark.parametrize("command", ["postprocess", "init_orth"])
def test_pool_runs_a_layer_again_alone_where_one_fits(command, tmp_path):
    # A child whose address space has room for a bit more than one of the
    # two largest layers' float64 buffers: the second is refused while the
    # first runs, runs again alone once it is done, and the run writes
    # the bytes of an unlimited one.  The warm-up file has as many layers
    # as the pool has threads, so their heaps are mapped first, and the
    # child maps as many thread stacks, all at once, before its limit.
    shapes = {"w0": (1024, 1024), "w1": (1024, 1024), "w2": (256, 512)}
    warm_shapes = {f"v{i}": (64, 96) for i in range(postprocess._cpu_count())}

    def job(name, layers):
        if command == "init_orth":
            spec = tmp_path / f"{name}.json"
            spec.write_text(json.dumps([{"name": n, "shape": list(dims), "kind": "linear",
                                         "depth": 0} for n, dims in layers.items()]))
            return ["init", str(spec), "--method", "orth", "--seed", "3"]
        path = tmp_path / f"{name}.ckpt"
        path.write_bytes(make_checkpoint([
            (n, dims, "linear", 0, ghn_like_tensor(dims, seed=i))
            for i, (n, dims) in enumerate(layers.items())]))
        return ["postprocess", str(path), "--start-layer", "0", "--seed", "3"]

    warm, argv = job("warm", warm_shapes), job("in", shapes)
    want, out = tmp_path / "want.ckpt", tmp_path / "out.ckpt"
    assert run(argv + ["--out", str(want)]) == 0
    largest = 8 * math.prod(shapes["w0"])
    spec = [warm + ["--out", str(tmp_path / "warm.out")], argv + ["--out", str(out)],
            largest * 3 // 2]
    proc = subprocess.run([sys.executable, "-c", _ADDRESS_LIMIT, json.dumps(spec)],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [0, ""]
    assert out.read_bytes() == want.read_bytes()


def _three_layer_argv(tmp_path, command):
    """``postprocess`` of three linear layers, w0 the largest, or the
    ``init --method orth`` of their shapes; without ``--out``."""
    shapes = {"w0": (96, 64), "w1": (64, 48), "w2": (48, 32)}
    if command == "init_orth":
        spec = tmp_path / "arch.json"
        spec.write_text(json.dumps([{"name": n, "shape": list(dims), "kind": "linear",
                                     "depth": 0} for n, dims in shapes.items()]))
        return ["init", str(spec), "--method", "orth", "--seed", "3"]
    path = tmp_path / "in.ckpt"
    path.write_bytes(make_checkpoint([(n, dims, "linear", 0, ghn_like_tensor(dims, seed=i))
                                      for i, (n, dims) in enumerate(shapes.items())]))
    return ["postprocess", str(path), "--start-layer", "0", "--seed", "3"]


def _failing_start(monkeypatch, fails):
    """Patch Thread.start to raise as CPython's does where no stack can be
    mapped for the thread, on each call whose number (from 1) ``fails``
    holds; returns the started threads, in call order."""
    real_start, calls = threading.Thread.start, []

    def start(thread):
        calls.append(thread)
        if fails(len(calls)):
            raise RuntimeError("can't start new thread")
        real_start(thread)

    monkeypatch.setattr(threading.Thread, "start", start)
    return calls


@pytest.mark.parametrize("command", ["postprocess", "init_orth"])
def test_pool_thread_that_cannot_start_runs_its_layer_again_alone(command, tmp_path,
                                                                   monkeypatch, capsys):
    # The second thread cannot start (beside the first, on a pool two
    # wide): its layer goes back to the head of the queue and runs again
    # alone, and the run writes the bytes of one where every thread starts.
    argv = _three_layer_argv(tmp_path, command)
    want, out = tmp_path / "want.ckpt", tmp_path / "out.ckpt"
    assert run(argv + ["--out", str(want)]) == 0
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 2)
    calls = _failing_start(monkeypatch, lambda n: n == 2)
    assert run(argv + ["--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_bytes() == want.read_bytes()
    assert len(calls) == 4  # three layers, one of them started twice


@pytest.mark.parametrize("command", ["postprocess", "init_orth"])
def test_pool_thread_that_cannot_start_alone_is_one_line_numerical_error(command, tmp_path,
                                                                        monkeypatch, capsys):
    # No thread starts: the first layer, w0, fails beside nothing, then
    # alone, and the run ends with exit 3, one line and no output.
    argv = _three_layer_argv(tmp_path, command)
    inputs = sorted(os.listdir(tmp_path))
    calls = _failing_start(monkeypatch, lambda n: True)
    assert run(argv + ["--out", str(tmp_path / "new" / "out.ckpt")]) == 3
    assert capsys.readouterr().err == (
        "ghnpost: numerical error: tensor 'w0': cannot start a thread: can't start new thread\n")
    assert len(calls) == 2
    assert sorted(os.listdir(tmp_path)) == inputs


@pytest.mark.skipif(not hasattr(signal, "SIGTERM") or sys.platform == "win32",
                    reason="needs POSIX signals")
@pytest.mark.parametrize("signum", [signal.SIGINT, signal.SIGTERM], ids=["SIGINT", "SIGTERM"])
@pytest.mark.parametrize("command", ["postprocess", "skip_orth", "init"])
def test_signal_ends_the_run_with_one_line_and_no_output(command, signum, tmp_path):
    # Signalled once its temporary output exists, a run stops admitting
    # layers, lets those in flight finish, removes the temporary file and
    # the directory made for it, and prints one line: exit 128 + signal.
    shapes = [(768, 1024)] * 8
    if command == "init":
        spec = tmp_path / "arch.json"
        spec.write_text(json.dumps([{"name": f"w{i}", "shape": list(dims), "kind": "linear",
                                     "depth": 0} for i, dims in enumerate(shapes)]))
        argv = ["init", str(spec), "--method", "orth"]
    else:
        path = tmp_path / "in.ckpt"
        path.write_bytes(make_checkpoint([
            (f"w{i}", dims, "linear", 0, ghn_like_tensor(dims, seed=i))
            for i, dims in enumerate(shapes)]))
        argv = _ARGV[command](str(path))
    out_dir = tmp_path / "out"
    # SIGINT as a terminal leaves it, even where this process ignores it
    # (a background job): the child's Python then raises KeyboardInterrupt.
    proc = subprocess.Popen(
        [sys.executable, "-m", "ghnpost.cli", *argv, "--out", str(out_dir / "o")],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=_child_env(),
        preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_DFL))
    try:
        deadline = time.monotonic() + 60
        while not (out_dir.is_dir() and any(out_dir.glob(".o.*.tmp"))):
            assert proc.poll() is None and time.monotonic() < deadline, proc.poll()
            time.sleep(0.002)
        proc.send_signal(signum)
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
    assert (proc.returncode, err) == (128 + signum, "ghnpost: interrupted\n")
    assert not out_dir.exists()


_OUTPUTS = {
    "init": lambda paths, out: ["init", paths["arch"], "--method", "orth", "--out", out / "o"],
    "postprocess": lambda paths, out: ["postprocess", paths["ckpt"], "--start-layer", "0",
                                       "--out", out / "o"],
    "analyze": lambda paths, out: ["analyze", paths["ckpt"], "--svg-dir", out / "svgs",
                                   "--out", out / "o"],
    "compare": lambda paths, out: ["compare", paths["ckpt"], paths["ckpt"], "--out", out / "o"],
    "pca": lambda paths, out: ["pca", paths["emb"], "--out", out / "o"],
}


@pytest.mark.parametrize("command", sorted(_OUTPUTS))
def test_outputs_get_the_mode_of_a_new_file_under_the_umask(command, ckpt_path, tmp_path):
    emb = tmp_path / "emb.csv"
    emb.write_text("id,v0,v1,v2\n" + "".join(f"a{i},{i},{i * i % 7},{i % 3}\n" for i in range(8)))
    paths = {"ckpt": ckpt_path, "arch": _archspec(tmp_path), "emb": emb}
    out = tmp_path / "out"
    previous = os.umask(0o027)
    try:
        assert run([str(a) for a in _OUTPUTS[command](paths, out)]) == 0
    finally:
        os.umask(previous)
    files = [p for p in out.rglob("*") if p.is_file()]
    assert len(files) == (1 + 3 * (command == "analyze"))
    assert {oct(p.stat().st_mode & 0o777) for p in files} == {oct(0o666 & ~0o027)}


@pytest.mark.parametrize("command", sorted(_OUTPUTS))
def test_out_naming_a_directory_fails_before_any_input_is_read(command, ckpt_path, tmp_path,
                                                               capsys):
    # The message names --out, not the temporary file beside it, and comes
    # before any input is read: the same once the inputs are gone.
    emb = tmp_path / "emb.csv"
    emb.write_text("id,v0,v1\na,1,2\nb,3,5\nc,4,4\n")
    paths = {"ckpt": ckpt_path, "arch": _archspec(tmp_path), "emb": emb}
    out = tmp_path / "out"
    (out / "o").mkdir(parents=True)
    argv = [str(a) for a in _OUTPUTS[command](paths, out)]
    for _ in range(2):
        assert run(argv) == 2
        assert capsys.readouterr().err == (
            f"ghnpost: i/o error: [Errno 21] Is a directory: '{out / 'o'}'\n")
        assert [p.name for p in out.rglob("*")] == ["o"]
        for path in paths.values():
            path.unlink(missing_ok=True)


def test_interrupt_as_the_temporary_file_is_made_leaves_nothing(tmp_path, monkeypatch, capsys):
    # The interrupt lands once the temporary file exists, before the call
    # that makes it returns: the file and the directories made for it go.
    arch = _archspec(tmp_path)
    real_open, opened = os.open, []

    def interrupted(path, *args, **kwargs):
        opened.append(real_open(path, *args, **kwargs))
        raise KeyboardInterrupt

    monkeypatch.setattr(os, "open", interrupted)
    try:
        code = run(["init", str(arch), "--method", "rand",
                    "--out", str(tmp_path / "out" / "sub" / "o.ckpt")])
    finally:
        monkeypatch.undo()
        for fd in opened:
            os.close(fd)
    assert (code, capsys.readouterr().err) == (130, "ghnpost: interrupted\n")
    assert len(opened) == 1
    assert sorted(os.listdir(tmp_path)) == ["arch.json"]


def test_a_temporary_name_in_use_is_left_alone(tmp_path, monkeypatch, capsys):
    # Another run's temporary file under the drawn name is neither opened
    # nor removed: this run fails with one line and leaves it as it was.
    arch = _archspec(tmp_path)
    other = tmp_path / ".o.ckpt.00000000.tmp"
    other.write_bytes(b"another run's")
    monkeypatch.setattr(os, "urandom", bytes)
    assert run(["init", str(arch), "--method", "rand", "--out", str(tmp_path / "o.ckpt")]) == 2
    assert capsys.readouterr().err.startswith("ghnpost: i/o error: [Errno 17] File exists")
    assert sorted(os.listdir(tmp_path)) == [other.name, "arch.json"]
    assert other.read_bytes() == b"another run's"


def test_cli_import_loads_no_xml_or_network_modules():
    # numpy imports pathlib, which on some Python versions imports
    # urllib.parse; nothing beyond what numpy loads may come in.
    def heavy(statement):
        proc = subprocess.run(
            [sys.executable, "-c", f"import sys; {statement}; print(*sys.modules)"],
            capture_output=True, text=True, env=_child_env(), timeout=120, check=True,
        )
        roots = ("xml", "urllib", "http", "email", "ssl")
        return {m for m in proc.stdout.split() if m.split(".")[0] in roots}

    assert heavy("import ghnpost.cli") <= heavy("import numpy")


def test_pca_command(tmp_path):
    rng = np.random.default_rng(0)
    lines = ["id,label," + ",".join(f"v{i}" for i in range(32))]
    for i in range(20):
        vec = ",".join(f"{x:.5f}" for x in rng.normal(size=32))
        lines.append(f"a{i},{i}.0,{vec}")
    src = tmp_path / "emb.csv"
    src.write_text("\n".join(lines) + "\n")
    out = tmp_path / "proj.csv"
    assert run(["pca", str(src), "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["id", "pc1", "pc2", "label"]
    assert len(rows) == 21


def test_pca_degenerate_is_numerical_error(tmp_path):
    src = tmp_path / "emb.csv"
    src.write_text("id,v0,v1\na,1,2\nb,3,4\n")
    assert run(["pca", str(src), "--out", str(tmp_path / "o.csv")]) == 3


def test_pca_malformed_is_data_error(tmp_path):
    src = tmp_path / "emb.csv"
    src.write_text("wrong,header\n1,2\n")
    assert run(["pca", str(src), "--out", str(tmp_path / "o.csv")]) == 2


def _pca_run(tmp_path, body: bytes, capsys):
    """Exit code and stderr of ``pca`` on a 4 x 2 embedding CSV whose data
    rows are ``body``, under warnings-as-errors; no output may be left."""
    src = tmp_path / "emb.csv"
    src.write_bytes(b"id,label,v0,v1\n" + body)
    out = tmp_path / "o.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the exit message is the only report
        code = run(["pca", str(src), "--out", str(out)])
    assert sorted(tmp_path.iterdir()) == [src]
    return code, capsys.readouterr().err


_PCA_ROWS = b"a,0,1,2\nb,1,3,1\nc,0,2,5\nd,1,4,4\n"
_BAD_ROWS = {
    "not_utf8": b"\xff\xfe,1,3,1",
    "long_field": b"b,1," + b"9" * 131073 + b",1",  # over csv's field limit
    "nan": b"b,1,nan,1",
    "inf": b"b,1,3,inf",
    "overflowing_label": b"b,1e400,3,1",
    "negative_inf_label": b"b,-inf,3,1",
}


@pytest.mark.parametrize("row3", _BAD_ROWS.values(), ids=_BAD_ROWS.keys())
def test_pca_bad_row_is_one_line_data_error(row3, tmp_path, capsys):
    body = _PCA_ROWS.replace(b"b,1,3,1", row3)
    code, err = _pca_run(tmp_path, body, capsys)
    assert code == 2
    assert re.fullmatch(r"ghnpost: data error: row 3: [^\n]*\n", err)


def test_pca_overflowing_covariance_is_one_line_numerical_error(tmp_path, capsys):
    body = b"a,0,1.7e308,2\nb,1,-1.7e308,1\nc,0,1e308,5\nd,1,-1e308,4\n"
    code, err = _pca_run(tmp_path, body, capsys)
    assert code == 3
    assert err == "ghnpost: numerical error: the sample covariance is not finite\n"


_LONG_NAMES = {
    "ascii": "o" * 251 + ".csv",  # 255 bytes
    "two_byte": "\u00e9" * 125 + ".csv",  # 254 bytes
    "three_byte": "\u20ac" * 83 + ".csv",  # 253 bytes
    "four_byte": "\U0001f600" * 62 + ".csv",  # 252 bytes
}


@pytest.mark.parametrize("name", _LONG_NAMES.values(), ids=_LONG_NAMES.keys())
def test_out_names_up_to_255_bytes_are_written(name, tmp_path, monkeypatch):
    # The temporary name adds 14 bytes to the output's, so it holds the
    # output name cut to 241 bytes or less, at a character's start: every
    # name the file system takes is written, and no temporary file is left.
    src = tmp_path / "emb.csv"
    src.write_bytes(b"id,label,v0,v1\n" + _PCA_ROWS)
    assert run(["pca", str(src), "--out", str(tmp_path / "o.csv")]) == 0
    real_open, opened = os.open, []
    monkeypatch.setattr(os, "open", lambda path, *a: opened.append(path) or real_open(path, *a))
    assert run(["pca", str(src), "--out", str(tmp_path / name)]) == 0
    monkeypatch.undo()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(["emb.csv", "o.csv", name])
    assert (tmp_path / name).read_bytes() == (tmp_path / "o.csv").read_bytes()
    [tmp] = [Path(path).name for path in opened]
    prefix = re.fullmatch(r"\.(.*)\.[0-9a-f]{8}\.tmp", tmp).group(1)
    assert name.startswith(prefix)
    assert 255 - 14 - 3 <= len(prefix.encode("utf-8")) <= 255 - 14


def test_an_out_name_over_255_bytes_fails_before_any_output(tmp_path, capsys):
    # Such a name is kept whole in the temporary name, which the file
    # system refuses as it would the output's.
    src = tmp_path / "emb.csv"
    src.write_bytes(b"id,label,v0,v1\n" + _PCA_ROWS)
    assert run(["pca", str(src), "--out", str(tmp_path / ("o" * 252 + ".csv"))]) == 2
    assert "File name too long" in capsys.readouterr().err
    assert sorted(tmp_path.iterdir()) == [src]


def test_compare_command(ckpt_path, tmp_path):
    post = tmp_path / "post.ckpt"
    assert run(["postprocess", str(ckpt_path), "--start-layer", "0", "--seed", "2",
                "--out", str(post)]) == 0
    out = tmp_path / "diff.csv"
    assert run(["compare", str(ckpt_path), str(post), "--out", str(out)]) == 0
    rows = list(csv.reader(io.StringIO(out.read_text())))
    assert rows[0] == ["name", "max_abs_diff", "sigma_r_a", "sigma_r_b"]
    by_name = {r[0]: r for r in rows[1:]}
    assert float(by_name["l1.conv"][1]) > 0.0


def test_compare_mismatch_is_data_error(ckpt_path, tmp_path):
    other = make_checkpoint([("w", (2, 2), "conv", 0, np.zeros((2, 2), np.float32))])
    other_path = tmp_path / "other.ckpt"
    other_path.write_bytes(other)
    assert run(["compare", str(ckpt_path), str(other_path),
                "--out", str(tmp_path / "d.csv")]) == 2


def test_console_entry_point(ckpt_path, tmp_path):
    env = _child_env()
    out = tmp_path / "r.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "ghnpost.cli", "analyze", str(ckpt_path),
         "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert out.exists()

    proc = subprocess.run(
        [sys.executable, "-m", "ghnpost.cli", "postprocess"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 1
    assert "usage" in proc.stderr


@st.composite
def _cli_cases(draw):
    """``postprocess`` on a small checkpoint (possibly non-finite, odd-shaped
    or truncated), or ``init`` on the same tensor specs with an extreme
    ``--gain``: (command, input bytes, flags, metas of a good output)."""
    n = draw(st.integers(min_value=1, max_value=4))
    depths = sorted(draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    tensors = []
    for i, depth in enumerate(depths):
        shape = tuple(draw(st.lists(st.integers(1, 4), min_size=1, max_size=4)))
        arr = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=shape)
        arr = arr.astype(np.float32)
        if draw(st.booleans()):
            arr[:] = arr[:1]  # identical channels
        poison = draw(st.sampled_from([None, None, None, np.nan, np.inf]))
        if poison is not None:
            arr.flat[draw(st.integers(0, arr.size - 1))] = poison
        kind = draw(st.sampled_from(["conv", "linear", "linear", "norm", "bias"]))
        tensors.append((TensorMeta(f"t{i}", shape, kind, depth), arr))
    metas = [meta for meta, _ in tensors]
    if draw(st.booleans()):
        spec = [{"name": m.name, "shape": list(m.shape), "kind": m.kind, "depth": m.depth}
                for m in metas]
        gains = ["1", "1e-45", "3e38", "1e39", "1e300", "0", "-1", "inf"]
        method = draw(st.sampled_from(["rand", "orth"]))
        flags = ["--method", method, "--seed", str(draw(st.integers(0, 3)))]
        if method == "orth" or draw(st.booleans()):  # --gain is moot for rand
            flags += ["--gain", draw(st.sampled_from(gains))]
        return "init", json.dumps(spec).encode(), flags, metas
    blob = make_checkpoint([(m.name, m.shape, m.kind, m.depth, arr) for m, arr in tensors])
    blob = blob[: len(blob) - draw(st.sampled_from([0, 0, 0, 1, 4]))]
    betas = ["0", "3e-5", "1", "1e38", "1e300", "-1", "nan"]
    flags = ["--start-layer", str(draw(st.integers(0, 4))),
             "--seed", str(draw(st.integers(0, 3)))]
    flags += draw(st.sampled_from([[], ["--skip-noise"], ["--skip-orth"]]))
    if "--skip-noise" not in flags or draw(st.booleans()):  # --beta is moot there
        flags += ["--beta", draw(st.sampled_from(betas))]
    return "postprocess", blob, flags, metas


@settings(max_examples=120, deadline=None)
@given(_cli_cases())
def test_postprocess_property(case):
    """run() never raises or warns; exit 0 writes a finite checkpoint, 1/2/3
    write nothing, and a numerical error names the tensor on one line."""
    command, blob, flags, metas = case
    with tempfile.TemporaryDirectory() as tmp:
        inp, out = Path(tmp, "in"), Path(tmp, "out.ckpt")
        inp.write_bytes(blob)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run([command, str(inp), "--out", str(out)] + flags)
        assert code in (0, 1, 2, 3)
        if code == 0:
            assert reader_of(out.read_bytes()).metas == metas
            assert all(np.isfinite(arr).all() for arr in decode_ckpt(out.read_bytes())[1])
            assert sorted(os.listdir(tmp)) == ["in", "out.ckpt"]
        else:
            assert os.listdir(tmp) == ["in"]
        if code == 3:
            assert re.fullmatch(r"ghnpost: numerical error: tensor 't\d': .*\n", err.getvalue())


def test_cli_surface_is_pinned():
    # Every subcommand's arguments with their defaults, choices and types.
    # A change to the command line has to change this table.
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    surface = {
        name: [
            (tuple(a.option_strings) or a.dest, a.default, a.choices, a.required,
             getattr(a.type, "__name__", None))
            for a in p._actions if not isinstance(a, argparse._HelpAction)
        ]
        for name, p in sub.choices.items()
    }
    assert surface == {
        "analyze": [
            ("checkpoint", None, None, True, "Path"),
            (("--out",), None, None, True, "Path"),
            (("--svg-dir",), None, None, False, "Path"),
            (("--bins",), None, None, False, "_bins"),
        ],
        "postprocess": [
            ("checkpoint", None, None, True, "Path"),
            (("--beta",), None, None, False, "_nonneg_float"),
            (("--start-layer",), None, None, True, "_nonneg_int"),
            (("--seed",), 0, None, False, "_seed"),
            (("--out",), None, None, True, "Path"),
            (("--skip-noise",), False, None, False, None),
            (("--skip-orth",), False, None, False, None),
        ],
        "init": [
            ("archspec", None, None, True, "Path"),
            (("--method",), None, ("rand", "orth"), True, None),
            (("--gain",), None, None, False, "_pos_float"),
            (("--seed",), 0, None, False, "_seed"),
            (("--out",), None, None, True, "Path"),
        ],
        "pca": [
            ("embeddings", None, None, True, "Path"),
            (("--out",), None, None, True, "Path"),
        ],
        "compare": [
            ("checkpoint_a", None, None, True, "Path"),
            ("checkpoint_b", None, None, True, "Path"),
            (("--out",), None, None, True, "Path"),
        ],
    }


# --- headers and spec files: every command, every input --------------------

def _blob_with_raw_header(header: bytes, data: bytes) -> bytes:
    head = b"GHNP" + struct.pack("<IQ", 1, len(header)) + header
    return head + bytes(-len(head) % 8) + data


def _small_parts():
    """(header document, data section) of a small valid checkpoint."""
    blob = make_checkpoint([
        ("l0.conv", (4, 2, 2, 2), "conv", 0, ghn_like_tensor((4, 2, 2, 2), seed=1)),
        ("l0.norm", (4,), "norm", 0, np.ones(4, np.float32)),
        ("l1.fc", (3, 6), "linear", 1,
         np.random.default_rng(2).normal(size=(3, 6)).astype(np.float32)),
    ])
    (length,) = struct.unpack_from("<Q", blob, 8)
    end = 16 + length
    return json.loads(blob[16:end]), blob[end + -end % 8 :]


_HEADER, _DATA = _small_parts()
_ARCHSPEC = [{k: e[k] for k in ("name", "shape", "kind", "depth")} for e in _HEADER["tensors"]]


def _cases(tmp: Path, command: str, raw: bytes, whole: bool = False,
           svg_dir: str | None = None, good: bytes | None = None) -> tuple[list[str], Path]:
    """argv of ``command`` on the header or archspec ``raw`` (files in tmp),
    or with ``whole`` on the checkpoint file ``raw``, and its output path;
    ``svg_dir`` names analyze's --svg-dir in tmp, and ``good`` the first
    checkpoint of compare (default: the small valid one)."""
    out = tmp / ("out.ckpt" if command in ("postprocess", "init") else "out.csv")
    inp = tmp / "in"
    if command == "init":
        inp.write_bytes(raw)
        return ["init", str(inp), "--method", "orth", "--out", str(out)], out
    inp.write_bytes(raw if whole else _blob_with_raw_header(raw, _DATA))
    if command == "compare":
        first = tmp / "good.ckpt"
        first.write_bytes(_blob_with_raw_header(json.dumps(_HEADER).encode(), _DATA)
                          if good is None else good)
        return ["compare", str(first), str(inp), "--out", str(out)], out
    if command == "postprocess":
        return ["postprocess", str(inp), "--start-layer", "0", "--out", str(out)], out
    svgs = [] if svg_dir is None else ["--svg-dir", str(tmp / svg_dir)]
    return ["analyze", str(inp), "--out", str(out), *svgs], out


def _ends_cleanly(command: str, raw: bytes, whole: bool = False,
                  svg_dir: str | None = None, good: bytes | None = None) -> tuple[int, str]:
    """Run ``command`` on ``raw`` (as for :func:`_cases`) and check how it
    ended: run() neither
    raises nor warns; exit 0 leaves finite output, any other exit no output
    and no temp file, and each message is one line naming what is at
    fault.  Returns (exit code, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        argv, out = _cases(Path(tmp), command, raw, whole, svg_dir, good)
        inputs = sorted(os.listdir(tmp))
        err = io.StringIO()
        with contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("error")
            code = run(argv)
        message = err.getvalue()
        assert code in (0, 2, 3), message
        if code == 0:
            assert sorted(os.listdir(tmp)) == sorted(inputs + [out.name])
            if out.suffix == ".ckpt":
                assert all(np.isfinite(a).all() for a in decode_ckpt(out.read_bytes())[1])
            else:
                rows = list(csv.reader(io.StringIO(out.read_text())))[1:]
                first = 5 if command == "analyze" else 1
                assert all(math.isfinite(float(x)) for row in rows for x in row[first:])
        else:
            assert sorted(os.listdir(tmp)) == inputs
            assert re.fullmatch(r"ghnpost: (data|i/o|numerical) error: [^\n]*\n", message)
        if code == 3:
            assert message.startswith("ghnpost: numerical error: tensor ")
    return code, message


def _cut_input_after_the_header_check(monkeypatch, size):
    """Patch the CLI's reader to cut the file ``in`` to ``size`` bytes once
    its header is checked, before any tensor is read."""
    real_reader = cli.CheckpointReader

    def reader_then_truncate(handle):
        reader = real_reader(handle)
        if Path(handle.name).name == "in":
            os.truncate(handle.name, size)
        return reader

    monkeypatch.setattr(cli, "CheckpointReader", reader_then_truncate)


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_file_shrinking_inside_a_layer_during_the_row_reads_is_data_error(command, monkeypatch):
    # The header checks pass; the input then loses the last 8 bytes of
    # l1.fc, its last eligible tensor, before any rows are read.  Its two
    # 128-row blocks are read past any file buffer, so the second is short.
    blob = make_checkpoint([
        ("l0.conv", (64, 8, 3, 3), "conv", 0, ghn_like_tensor((64, 8, 3, 3), seed=1)),
        ("l0.norm", (64,), "norm", 0, np.ones(64, np.float32)),
        ("l1.fc", (256, 512), "linear", 1, ghn_like_tensor((256, 512), seed=2)),
    ])
    _cut_input_after_the_header_check(monkeypatch, len(blob) - 8)
    code, err = _ends_cleanly(command, blob, whole=True, good=blob)
    assert code == 2
    note = " (second checkpoint)" if command == "compare" else ""
    assert err == (f"ghnpost: data error: tensor 'l1.fc'{note}: read 262136 of 262144 bytes; "
                   "the file shrank while it was read\n")


@pytest.mark.parametrize("command", ["analyze", "compare"])
def test_small_file_shrinking_after_the_header_check_is_data_error(command, monkeypatch):
    # The whole 216-byte file fits in the buffer that a buffered handle
    # fills while the header is read; the input is read unbuffered, so the
    # cut to l1.fc's last 8 bytes is seen, not served from that buffer.
    blob = _blob_with_raw_header(json.dumps(_HEADER).encode(), _DATA)
    _cut_input_after_the_header_check(monkeypatch, len(blob) - 8)
    code, err = _ends_cleanly(command, blob, whole=True, good=blob)
    assert code == 2
    note = " (second checkpoint)" if command == "compare" else ""
    assert err == (f"ghnpost: data error: tensor 'l1.fc'{note}: read 64 of 72 bytes; "
                   "the file shrank while it was read\n")


@pytest.mark.parametrize("svg_dir", ["in", "out.csv"], ids=["svg_write", "csv_write"])
def test_analyze_failing_write_leaves_no_output(svg_dir):
    # --svg-dir names the input, a regular file, so the first SVG write
    # fails; or it names the CSV's path, so the SVGs are written into it
    # and the CSV write, onto that directory, fails.
    code, err = _ends_cleanly("analyze", json.dumps(_HEADER).encode(), svg_dir=svg_dir)
    assert code == 2
    assert err.startswith("ghnpost: i/o error: [Errno ")


def test_analyze_reports_the_first_fault_it_reaches(tmp_path, capsys):
    # Each layer's SVG is written as soon as the layer is done: a NaN in the
    # second layer removes the first layer's SVG with the rest, and of two
    # faults, an unwritable --svg-dir and that NaN, the first SVG's write
    # comes first.
    bad = ghn_like_tensor((16, 8), seed=2)
    bad[3, 2] = np.nan
    path = tmp_path / "in.ckpt"
    path.write_bytes(make_checkpoint([("a", (16, 8), "linear", 0, ghn_like_tensor((16, 8))),
                                      ("b", (16, 8), "linear", 1, bad)]))
    (tmp_path / "file").write_text("x")
    inputs = sorted(os.listdir(tmp_path))
    argv = ["analyze", str(path), "--out", str(tmp_path / "out" / "r.csv"), "--svg-dir"]
    assert run(argv + [str(tmp_path / "svgs")]) == 3
    assert capsys.readouterr().err == ("ghnpost: numerical error: tensor 'b': "
                                       "tensor holds NaN or Inf values\n")
    assert sorted(os.listdir(tmp_path)) == inputs
    assert run(argv + [str(tmp_path / "file" / "svgs")]) == 2
    assert capsys.readouterr().err.startswith("ghnpost: i/o error: [Errno 20] Not a directory")
    assert sorted(os.listdir(tmp_path)) == inputs


def test_analyze_failing_write_leaves_existing_svgs_as_they_were(ckpt_path, tmp_path, capsys):
    svg_dir = tmp_path / "plots"
    assert run(["analyze", str(ckpt_path), "--svg-dir", str(svg_dir),
                "--out", str(tmp_path / "r.csv")]) == 0
    (svg_dir / "000_l0.conv.svg").write_text("OLD")
    outdir = tmp_path / "outdir"
    outdir.mkdir()
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
    # The CSV cannot replace a directory, after every SVG is written.
    assert run(["analyze", str(ckpt_path), "--svg-dir", str(svg_dir),
                "--out", str(outdir)]) == 2
    assert capsys.readouterr().err.startswith("ghnpost: i/o error: ")
    assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


_UNPARSABLE = {
    "deep": b"[" * 100_000 + b"]" * 100_000,
    "long_integer": b"1" * 5000,  # over Python's 4300-digit int parsing limit
}


@pytest.mark.parametrize("case", sorted(_UNPARSABLE))
@pytest.mark.parametrize("command", ["analyze", "compare", "postprocess", "init"])
def test_unparsable_json_is_one_line_data_error(command, case):
    code, err = _ends_cleanly(command, _UNPARSABLE[case])
    assert code == 2
    at = "$" if command == "init" else "header"
    assert err.startswith(f"ghnpost: data error: {at}: ")


@pytest.mark.parametrize("command", ["analyze", "compare", "postprocess", "init"])
def test_unencodable_tensor_name_is_one_line_data_error(command):
    doc = _ARCHSPEC if command == "init" else _HEADER
    raw = json.dumps(doc).replace('"l1.fc"', '"\\ud800"').encode()
    code, err = _ends_cleanly(command, raw)
    assert code == 2
    at = "$[2]" if command == "init" else "tensors[2]"
    assert err.startswith(f"ghnpost: data error: {at}.name: expected a non-empty UTF-8 string")


def test_non_utf8_archspec_is_one_line_data_error():
    raw = json.dumps(_ARCHSPEC).replace("l1.fc", "l1.\xe9").encode("latin-1")
    code, err = _ends_cleanly("init", raw)
    assert code == 2
    assert err.startswith("ghnpost: data error: $: not valid JSON ('utf-8' codec can't decode")


# The field each byte of the fixed 16-byte prefix belongs to; a changed
# header length misplaces the JSON ("header") or overruns the file
# ("header_length").
_PREFIX_FIELDS = ["magic"] * 4 + ["version"] * 4 + ["header"] * 8


@pytest.mark.parametrize("command", ["analyze", "compare", "postprocess"])
def test_mutated_fixed_prefix_is_one_line_data_error(command):
    # Each prefix byte set to 0x00, to 0xff and with bit 0 flipped, where
    # that changes it.
    blob = _blob_with_raw_header(json.dumps(_HEADER).encode(), _DATA)
    for i, field in enumerate(_PREFIX_FIELDS):
        for byte in sorted({0x00, 0xFF, blob[i] ^ 1} - {blob[i]}):
            mutated = blob[:i] + bytes([byte]) + blob[i + 1 :]
            code, err = _ends_cleanly(command, mutated, whole=True)
            assert code == 2 and err.startswith(f"ghnpost: data error: {field}"), (i, byte, err)


def _padding_cut_blob() -> bytes:
    """A checkpoint cut two bytes into the padding after its header."""
    header = json.dumps(_HEADER).encode()
    header += b" " * ((4 - 16 - len(header)) % 8)  # the header ends 4 bytes short of 8
    return _blob_with_raw_header(header, b"")[: 16 + len(header) + 2]


def _layout_blob(*changes) -> bytes:
    """The small valid checkpoint with tensors[i][key] set to value for
    each (i, key, value) of ``changes``."""
    doc = json.loads(json.dumps(_HEADER))
    for i, key, value in changes:
        doc["tensors"][i][key] = value
    return _blob_with_raw_header(json.dumps(doc).encode(), _DATA)


# l0.conv (tensors[0]) holds bytes [0, 128), l0.norm [128, 144) and l1.fc
# [144, 216): each tensor's offset and length are those, and no other.
_LAYOUTS = {
    "prefix_cut": (_blob_with_raw_header(b"{}", b"")[:12],
                   "header_length: file shorter than the fixed header"),
    "tensors_object": (_blob_with_raw_header(b'{"tensors": {}}', _DATA),
                       "tensors: expected a list"),
    "padding_cut": (_padding_cut_blob(), "data: file ends inside the alignment padding"),
    "negative_offset": (_layout_blob((1, "offset", -4)),
                        "tensors[1].offset: expected 128, got -4"),
    "overlapping_offsets": (_layout_blob((1, "offset", 64)),
                            "tensors[1].offset: expected 128, got 64"),
    "gap": (_layout_blob((1, "offset", 132)), "tensors[1].offset: expected 128, got 132"),
    "swapped_offsets": (_layout_blob((0, "offset", 16), (1, "offset", 0)),
                        "tensors[0].offset: expected 0, got 16"),
    "float_length": (_layout_blob((2, "length", 18.0)),
                     "tensors[2].length: expected 18, got 18.0"),
}


@pytest.mark.parametrize("case", sorted(_LAYOUTS))
@pytest.mark.parametrize("command", ["analyze", "compare", "postprocess"])
def test_bad_layout_is_one_line_data_error(command, case):
    blob, message = _LAYOUTS[case]
    code, err = _ends_cleanly(command, blob, whole=True)
    assert code == 2
    assert err == f"ghnpost: data error: {message}\n"


# Replacement JSON tokens for a number, and for a string, of the document.
_NUMBER_SWAPS = ["-1", "0", "2.5", "1e400", "true", "null", "[]", '"x"']
_STRING_SWAPS = ['""', "1", "null", '"\\ud800"']


def _leaves(doc, path=()):
    """(path, value) of each number and string in a JSON document."""
    if isinstance(doc, (dict, list)):
        for key, value in (doc.items() if isinstance(doc, dict) else enumerate(doc)):
            yield from _leaves(value, path + (key,))
    else:
        yield path, doc


@st.composite
def _mutated(draw, doc):
    """The JSON bytes of ``doc`` after one byte flip, splice or value swap."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    how = draw(st.sampled_from(["flip", "splice", "swap"]))
    if how == "flip":
        i = draw(st.integers(0, len(text) - 1))
        return text[:i] + bytes([text[i] ^ draw(st.integers(1, 255))]) + text[i + 1 :]
    if how == "splice":  # text[i:j] replaces text[c:d]
        i, j, c, d = (draw(st.integers(0, len(text))) for _ in range(4))
        i, j, c, d = min(i, j), max(i, j), min(c, d), max(c, d)
        return text[:c] + text[i:j] + text[d:]
    path, value = draw(st.sampled_from(list(_leaves(doc))))
    token = draw(st.sampled_from(_STRING_SWAPS if isinstance(value, str) else _NUMBER_SWAPS))
    swapped = json.loads(json.dumps(doc))
    target = swapped
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = "@@swap@@"
    text = json.dumps(swapped, sort_keys=True, separators=(",", ":"))
    return text.replace('"@@swap@@"', token).encode()


def _declared_elements(raw: bytes) -> int:
    """Elements an archspec declares (0 if it does not parse)."""
    try:
        doc = json.loads(raw)
    except (ValueError, RecursionError):
        return 0
    shapes = [e.get("shape") for e in doc if isinstance(e, dict)] if isinstance(doc, list) else []
    return sum(math.prod(abs(d) for d in s) for s in shapes
               if isinstance(s, list) and all(isinstance(d, int) for d in s))


@pytest.mark.parametrize("command", ["analyze", "postprocess"])
def test_every_header_byte_set_to_a_few_values_ends_cleanly(command):
    """A guard: each byte of the small file's fixed prefix and JSON header
    set to each of a few values ends in exit 0, with no message, or in
    exit 2, with one line and no output (as _ends_cleanly checks)."""
    blob = _blob_with_raw_header(json.dumps(_HEADER).encode(), _DATA)
    header_end = 16 + struct.unpack_from("<Q", blob, 8)[0]
    for i in range(header_end):
        for byte in sorted(set(b'\x00\xff9"[') - {blob[i]}):
            mutated = blob[:i] + bytes([byte]) + blob[i + 1 :]
            code, err = _ends_cleanly(command, mutated, whole=True)
            assert (code, err.count("\n")) in ((0, 0), (2, 1)), (i, byte, err)


@pytest.mark.parametrize("command", ["analyze", "compare", "postprocess", "init"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_headers_and_archspecs_end_cleanly(command, data):
    """Every command on a checkpoint header (or, for init, an archspec)
    after one byte flip, splice or value swap ends as _ends_cleanly
    requires.  Archspecs that declare a real-sized layer are skipped, so
    nothing of real size is allocated."""
    raw = data.draw(_mutated(_ARCHSPEC if command == "init" else _HEADER))
    if command == "init":
        assume(_declared_elements(raw) <= 100_000)
    _ends_cleanly(command, raw)
