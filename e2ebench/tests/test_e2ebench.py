"""Self-test of the end-to-end benchmark on toy shape tables.

Runs every workload through ``run.py --size toy`` (seconds, not minutes),
checks the result line against BENCHMARK.json's metric lists, and shows
that each output check rejects a corrupted output.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
from run import BUILDERS  # noqa: E402
from workloads import decode_ckpt, encode_ckpt  # noqa: E402

SPEC = json.loads((REPO / "BENCHMARK.json").read_text())


def _run(root: Path, workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "3",
         "--seconds", "0", "--trace", str(trace), "--size", "toy"],
        cwd=root, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def toy_runs(tmp_path_factory):
    """Each workload run untraced then traced in its own checkout-like dir."""
    runs = {}
    for workload in BUILDERS:
        root = tmp_path_factory.mktemp(workload)
        (root / "src").symlink_to(REPO / "src")
        runs[workload] = (root / ".e2ebench_work", _run(root, workload, 0), _run(root, workload, 1))
    return runs


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_toy_run_passes_and_emits_every_metric(toy_runs, workload):
    _, plain, traced = toy_runs[workload]
    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
        for m in SPEC[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0
    qr_calls = traced["metrics"]["linalg.qr_decompose.calls"]["value"]
    assert qr_calls == (6 if workload == "resnet50-repair" else 0)


def _edit(data: bytes, name: str, fn) -> bytes:
    specs, arrays = decode_ckpt(data)
    arrays = [fn(a.copy()) if s.name == name else a for s, a in zip(specs, arrays)]
    return encode_ckpt(specs, arrays)


def _bump(a):
    a.flat[0] += 0.5
    return a


def _nan(a):
    a.flat[0] = np.nan
    return a


def _first(data: bytes, kind: str) -> str:
    return next(s.name for s in decode_ckpt(data)[0] if s.kind == kind)


def test_repair_check_rejects_corruption(toy_runs):
    work = toy_runs["resnet50-repair"][0]
    inp, out = (work / "resnet50.ckpt").read_bytes(), (work / "repaired.ckpt").read_bytes()
    assert checks.check_repair(inp, out)[0] == []
    assert checks.check_repair(inp, _edit(out, _first(out, "conv"), _bump))[0]
    assert checks.check_repair(inp, _edit(out, _first(out, "norm"), _nan))[0]
    assert checks.check_repair(inp, inp)[0]  # not repaired at all


def test_noise_check_rejects_corruption(toy_runs):
    work = toy_runs["vitb-noise"][0]
    inp, out = (work / "vitb16.ckpt").read_bytes(), (work / "noised.ckpt").read_bytes()
    beta = 3e-5
    assert checks.check_noise(inp, out, beta)[0] == []
    assert checks.check_noise(inp, _edit(out, _first(out, "linear"), _bump), beta)[0]
    assert checks.check_noise(inp, _edit(out, _first(out, "bias"), _bump), beta)[0]
    assert checks.check_noise(inp, inp, beta)[0]  # broad-spread layers unchanged


def test_analysis_checks_reject_corruption(toy_runs):
    work = toy_runs["analysis-suite"][0]
    ghn, he = (work / "resnet50.ckpt").read_bytes(), (work / "he.ckpt").read_bytes()
    specs = decode_ckpt(ghn)[0]
    assert checks.check_init(specs, he)[0] == []
    doubled = _edit(he, _first(he, "conv"), lambda a: a * 2)
    assert checks.check_init(specs, doubled)[0]

    report = (work / "report.csv").read_text()
    svgs = sorted(p.name for p in (work / "svg").glob("*.svg"))
    assert checks.check_analyze(specs, report, svgs)[0] == []
    assert checks.check_analyze(specs, report.rsplit("\n", 2)[0] + "\n", svgs)[0]
    assert checks.check_analyze(specs, report, svgs[1:])[0]

    diff = (work / "diff.csv").read_text()
    assert checks.check_compare(ghn, he, diff)[0] == []
    header, first, *rest = diff.splitlines()
    name, value, *sigmas = first.split(",")
    bad = "\n".join([header, ",".join([name, str(float(value) * 1.001), *sigmas]), *rest])
    assert checks.check_compare(ghn, he, bad)[0]

    emb = (work / "embeddings.csv").read_text().splitlines()[1:]
    x = np.array([[float(v) for v in line.split(",")[2:]] for line in emb])
    proj = (work / "projection.csv").read_text()
    assert checks.check_pca(x, proj)[0] == []
    lines = proj.splitlines()
    fields = lines[1].split(",")
    fields[1] = str(float(fields[1]) + 1.0)
    assert checks.check_pca(x, "\n".join([lines[0], ",".join(fields), *lines[2:]]))[0]

