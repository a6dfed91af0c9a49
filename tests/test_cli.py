import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ghnpost
from ghnpost import cli, postprocess
from ghnpost.checkpoint_io import Checkpoint, TensorMeta, read_checkpoint, write_checkpoint
from ghnpost.cli import run
from ghnpost.postprocess import PostprocessConfig, ghn_orth
from ghnpost.stats import channel_correlation, offdiagonal_values
from ghnpost.tensor_ops import matricize

from conftest import ghn_like_tensor, make_checkpoint


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
    path.write_bytes(write_checkpoint(c))
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


def test_postprocess_end_to_end(ckpt_path, tmp_path):
    out = tmp_path / "out.ckpt"
    argv = ["postprocess", str(ckpt_path), "--beta", "3e-5", "--start-layer", "1",
            "--seed", "1", "--out", str(out)]
    assert run(argv) == 0
    result = read_checkpoint(out.read_bytes())
    original = read_checkpoint(ckpt_path.read_bytes())
    # depth 0 untouched, depth >= 1 conv/linear orthogonalized
    assert result.get("l0.conv")[1].tobytes() == original.get("l0.conv")[1].tobytes()
    for name in ("l1.conv", "l2.fc"):
        m = matricize(result.get(name)[1]).data.astype(np.float64)
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
    c = read_checkpoint(out_noise.read_bytes())
    # noise alone keeps channels correlated
    r = offdiagonal_values(channel_correlation(c.get("l1.conv")[1]))
    assert np.abs(r).mean() > 0.9

    both = run(["postprocess", str(ckpt_path), "--start-layer", "0",
                "--skip-orth", "--skip-noise", "--out", str(tmp_path / "x.ckpt")])
    assert both == 1


@pytest.mark.parametrize("skip", [[], ["--skip-noise"], ["--skip-orth"]])
def test_postprocess_matches_library(skip, ckpt_path, tmp_path, monkeypatch):
    cfg = PostprocessConfig(start_layer=1, beta=0.01, seed=5,
                            skip_noise="--skip-noise" in skip,
                            skip_orth="--skip-orth" in skip)
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 1)
    expected = write_checkpoint(ghn_orth(read_checkpoint(ckpt_path.read_bytes()), cfg))
    for width in (1, 8):  # sequential, and a pool wider than the layer count
        monkeypatch.setattr(postprocess, "_cpu_count", lambda: width)
        out = tmp_path / f"out{width}.ckpt"
        assert run(["postprocess", str(ckpt_path), "--start-layer", "1", "--seed", "5",
                    "--beta", "0.01", "--out", str(out)] + skip) == 0
        assert out.read_bytes() == expected


def test_postprocess_in_place(ckpt_path, tmp_path):
    separate = tmp_path / "separate.ckpt"
    argv = ["postprocess", "--start-layer", "0", "--seed", "3"]
    assert run(argv + [str(ckpt_path), "--out", str(separate)]) == 0
    assert run(argv + [str(ckpt_path), "--out", str(ckpt_path)]) == 0
    assert ckpt_path.read_bytes() == separate.read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt", "separate.ckpt"]


def test_nan_in_last_eligible_tensor_keeps_existing_output(ckpt_path, tmp_path, capsys):
    c = read_checkpoint(ckpt_path.read_bytes())
    c.get("l2.fc")[1][-1, -1] = np.nan
    ckpt_path.write_bytes(write_checkpoint(c))
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
        c = read_checkpoint(ckpt_path.read_bytes())
        c.get("l0.norm")[1][0] = np.inf
        ckpt_path.write_bytes(write_checkpoint(c))
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


def test_nan_in_third_eligible_tensor_with_layers_in_flight(tmp_path, monkeypatch, capsys):
    names = [f"l{i}.conv" for i in range(7)]
    c = make_checkpoint(
        [(name, (24, 4, 3, 3), "conv", 0, ghn_like_tensor((24, 4, 3, 3), seed=i))
         for i, name in enumerate(names)]
    )
    c.get("l2.conv")[1][0, 0, 0, 0] = np.nan
    c.get("l3.conv")[1][0, 0, 0, 0] = np.inf  # fails too, later in header order
    inp = tmp_path / "in.ckpt"
    inp.write_bytes(write_checkpoint(c))
    pulled = []

    class RecordingReader(cli.CheckpointReader):
        def __iter__(self):
            for meta, arr in super().__iter__():
                pulled.append(meta.name)
                yield meta, arr

    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 4)
    monkeypatch.setattr(cli, "CheckpointReader", RecordingReader)
    code = run(["postprocess", str(inp), "--start-layer", "0", "--out",
                str(tmp_path / "out.ckpt")])
    assert code == 3
    assert "tensor 'l2.conv'" in capsys.readouterr().err
    assert "l3.conv" in pulled  # was in flight when l2.conv failed
    assert sorted(p.name for p in tmp_path.iterdir()) == ["in.ckpt"]


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
    inp.write_bytes(write_checkpoint(c))
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


def test_usage_errors(capsys, tmp_path):
    assert run(["postprocess"]) == 1
    err = capsys.readouterr().err
    assert "usage" in err
    assert run([]) == 1
    assert run(["analyze", "x.ckpt", "--out", "y.csv", "--no-such-flag"]) == 1
    assert run(["postprocess", "in.ckpt", "--start-layer", "-3",
                "--out", str(tmp_path / "o.ckpt")]) == 1
    assert run(["nonsense"]) == 1


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


def test_numerical_error_exit_code(tmp_path):
    c = make_checkpoint([("w", (1, 8), "conv", 0, np.ones((1, 8), np.float32))])
    path = tmp_path / "one_channel.ckpt"
    path.write_bytes(write_checkpoint(c))
    assert run(["analyze", str(path), "--out", str(tmp_path / "r.csv")]) == 3


def _nan_checkpoint(tmp_path):
    w = np.arange(24, dtype=np.float32).reshape(4, 6)
    w[2, 3] = np.nan
    path = tmp_path / "nan.ckpt"
    path.write_bytes(write_checkpoint(make_checkpoint([("w", (4, 6), "linear", 0, w)])))
    return path


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
    finite_path.write_bytes(write_checkpoint(finite))
    out = tmp_path / "d.csv"
    assert run(["compare", str(finite_path), str(_nan_checkpoint(tmp_path)),
                "--out", str(out)]) == 3
    assert "tensor 'w' (second checkpoint)" in capsys.readouterr().err
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
    c = read_checkpoint(out.read_bytes())
    assert c.names() == ["c1", "n1", "b1", "fc"]
    np.testing.assert_array_equal(c.get("n1")[1], np.ones(16, np.float32))
    np.testing.assert_array_equal(c.get("b1")[1], np.zeros(16, np.float32))
    conv = c.get("c1")[1]
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
    c = read_checkpoint(blobs[0])
    m = matricize(c.get("c1")[1]).data.astype(np.float64)
    assert np.abs(m.T @ m - np.eye(m.shape[1])).max() <= 1e-4


def test_init_bad_schema(tmp_path):
    path = tmp_path / "arch.json"
    path.write_text('[{"name": "w"}]')
    assert run(["init", str(path), "--method", "rand", "--out",
                str(tmp_path / "o.ckpt")]) == 2


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
    other_path.write_bytes(write_checkpoint(other))
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
        flags = ["--method", draw(st.sampled_from(["rand", "orth"])),
                 "--gain", draw(st.sampled_from(gains)),
                 "--seed", str(draw(st.integers(0, 3)))]
        return "init", json.dumps(spec).encode(), flags, metas
    blob = bytes(write_checkpoint(Checkpoint(tensors=tensors)))
    blob = blob[: len(blob) - draw(st.sampled_from([0, 0, 0, 1, 4]))]
    betas = ["0", "3e-5", "1", "1e38", "1e300", "-1", "nan"]
    flags = ["--start-layer", str(draw(st.integers(0, 4))),
             "--seed", str(draw(st.integers(0, 3))),
             "--beta", draw(st.sampled_from(betas))]
    flags += draw(st.sampled_from([[], ["--skip-noise"], ["--skip-orth"]]))
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
            result = read_checkpoint(out.read_bytes())
            assert result.metas == metas
            assert all(np.isfinite(arr).all() for _, arr in result)
            assert sorted(os.listdir(tmp)) == ["in", "out.ckpt"]
        else:
            assert os.listdir(tmp) == ["in"]
        if code == 3:
            assert re.fullmatch(r"ghnpost: numerical error: tensor 't\d': .*\n", err.getvalue())
