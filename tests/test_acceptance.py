"""End-to-end acceptance suite.

One test per release criterion, each asserting its stated tolerance and
printing a PASS line (run with ``pytest tests/test_acceptance.py -v -s``).
"""

import json
import math
import time

import numpy as np
import pytest

from ghnpost.checkpoint_io import TensorMeta
from ghnpost.cli import run
from ghnpost.errors import DataFormatError
from ghnpost.linalg import one_blas_thread, pca_project, qr_decompose
from ghnpost.postprocess import PostprocessConfig
from ghnpost.rng import RngStream
from ghnpost.stats import sigma_r
from ghnpost.tensor_ops import geometry

from conftest import (
    correlated_tensor,
    decode_ckpt,
    encode_ckpt,
    ghn_like_tensor,
    make_checkpoint,
    reader_of,
    through_file,
)
from reference import matricize, reference_offdiagonal


def _report(number, text):
    print(f"PASS C{number}: {text}")


def _orth_error(w):
    m = matricize(w).astype(np.float64)
    return np.abs(m.T @ m - np.eye(m.shape[1])).max()


def _noised64(w, beta, seed, name):
    """The repair's first step in float64: w plus beta * sigma_r(w) times
    the tensor's stream."""
    z = RngStream(seed, name).normal(w.size).reshape(w.shape)
    return w.astype(np.float64) + beta * sigma_r(w) * z


def _orth64(w):
    """The repair's second step in float64, from numpy's QR: the Q of w's
    matrix, each column times the sign of R's diagonal (0 as +1), laid
    out in w's shape."""
    with one_blas_thread():
        q, r = np.linalg.qr(matricize(w))
    q = q * np.where(np.diag(r) < 0.0, -1.0, 1.0)
    return (q.T if len(w) < w.size // len(w) else q).reshape(w.shape)


def test_c1_orthogonality_contract():
    rng = np.random.default_rng(100)
    shapes = [(64, 3, 7, 7), (256, 256, 3, 3), (512, 2048)]
    while len(shapes) < 100:
        if rng.random() < 0.5:
            shapes.append(
                (int(rng.integers(2, 48)), int(rng.integers(2, 24)),
                 int(rng.choice([1, 3, 5])), int(rng.choice([1, 3, 5])))
            )
        else:
            shapes.append((int(rng.integers(2, 192)), int(rng.integers(2, 96))))

    start = time.perf_counter()
    specs = []
    for i, shape in enumerate(shapes):
        arr = (rng.normal(size=shape) * 0.05).astype(np.float32)
        kind = "conv" if len(shape) == 4 else "linear"
        specs.append((f"t{i}", shape, kind, i, arr))
    cfg = PostprocessConfig(start_layer=0, seed=11)
    _, out = decode_ckpt(through_file(make_checkpoint(specs), cfg))

    worst_f32 = 0.0
    worst_f64 = 0.0
    for (name, _, _, _, arr), arr32 in zip(specs, out):
        worst_f32 = max(worst_f32, _orth_error(arr32))
        # replicate the pipeline in float64 to measure before the f32 cast
        o64 = _orth64(_noised64(arr, cfg.beta, cfg.seed, name))
        worst_f64 = max(worst_f64, _orth_error(o64))
        assert arr32.tobytes() == o64.astype(np.float32).tobytes()
    elapsed = time.perf_counter() - start

    assert worst_f32 <= 1e-4, f"f32 orthonormality error {worst_f32}"
    assert worst_f64 <= 1e-9, f"f64 orthonormality error {worst_f64}"
    assert elapsed < 30.0, f"took {elapsed:.1f}s"
    _report(1, f"100 tensors orthonormal (f32 {worst_f32:.2e}, f64 {worst_f64:.2e}, "
               f"{elapsed:.1f}s)")


def test_c2_correlation_reduction():
    start = time.perf_counter()
    shapes = {16: (16, 8, 3, 3), 64: (64, 32, 3, 3), 256: (256, 64, 3, 3)}
    lines = []
    for k, shape in shapes.items():
        w = ghn_like_tensor(shape, rel_noise=1e-3, seed=k)
        before = np.abs(reference_offdiagonal(w)[1]).mean()
        out = through_file(w, PostprocessConfig(start_layer=0, beta=3e-5, seed=1))
        after = np.abs(reference_offdiagonal(out)[1]).mean()
        assert before > 0.9, f"K={k}: before {before}"
        assert after < 0.1, f"K={k}: after {after}"
        lines.append(f"K={k}: {before:.4f}->{after:.4f}")
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    _report(2, "mean |off-diag corr| " + ", ".join(lines) + f" ({elapsed:.1f}s)")


def _welch_rms(k, chw):
    """The least RMS correlation K unit vectors in R^CHW can have: mean r^2
    over pairs i != j >= (K - CHW) / (CHW (K - 1)) (Welch 1974), 0 for
    K <= CHW."""
    return math.sqrt(max(0, k - chw) / (chw * (k - 1)))


def _rms_offdiagonal_r(w):
    """RMS of the off-diagonal channel correlations of w.  For the unit
    centered channels X, the sum of r_ij^2 over all i, j is the squared
    Frobenius norm of X X^T, or of the smaller X^T X."""
    k, chw, _ = geometry(w.shape)
    x = w.reshape(k, chw).astype(np.float64)
    x -= x.mean(axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    gram = x.T @ x if k > chw else x @ x.T
    return math.sqrt((np.sum(gram * gram) - k) / (k * (k - 1)))


# Decorrelation bound: RMS r <= (1 + eps) * max(Welch bound, c / CHW).  The
# channel centering leaves square and wide layers near 1 / CHW.
_WELCH_EPS, _WELCH_C = 0.05, 1.1


def test_c2_decorrelation_reaches_the_welch_bound():
    # GHN-like tall, square, wide and conv layers, and ConvNeXt's depthwise
    # convs and stem, whose Welch bound is above C2's 0.1.
    shapes = [(2304, 768), (768, 768), (768, 3072), (256, 64, 3, 3),
              (1024, 1, 7, 7), (256, 1, 7, 7), (128, 3, 4, 4)]
    cfg = PostprocessConfig(start_layer=0, seed=2)
    lines = []
    for shape in shapes:
        k, chw, _ = geometry(shape)
        w = ghn_like_tensor(shape, seed=2)
        rms = _rms_offdiagonal_r(through_file(w, cfg))
        bound = max(_welch_rms(k, chw), _WELCH_C / chw)
        assert rms <= (1 + _WELCH_EPS) * bound, f"{shape}: RMS r {rms} vs bound {bound}"
        lines.append(f"{shape}: {rms / bound:.3f}")
    _report(2, "RMS r / max(Welch, c/CHW) " + ", ".join(lines))


def test_c3_qr_oracle_equivalence():
    rng = np.random.default_rng(3)
    worst_recon = 0.0
    worst_orth = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 101))
        m = int(rng.integers(n, 201))
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        a = rng.normal(size=(m, n)) * scale
        q, d = qr_decompose(np.array(a, order="F"))
        # a = q r with r = q^T a upper-triangular, of diagonal d
        r = q.T @ a
        recon = max(np.abs(q @ r - a).max(), np.abs(np.tril(r, -1)).max(initial=0.0),
                    np.abs(np.diag(r) - d).max()) / max(1.0, np.abs(a).max())
        orth = np.abs(q.T @ q - np.eye(n)).max()
        worst_recon = max(worst_recon, recon)
        worst_orth = max(worst_orth, orth)
    assert worst_recon <= 1e-10
    assert worst_orth <= 1e-10
    _report(3, f"1000 QRs: recon {worst_recon:.2e}, orthogonality {worst_orth:.2e}")


def test_c4_sign_adjusted_qr_is_idempotent():
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(1, 64))
        m = int(rng.integers(n, 256))
        base, _ = np.linalg.qr(rng.normal(size=(m, n)))  # independent generator
        q, d = qr_decompose(np.array(base, order="F"))
        worst = max(worst, np.abs(q * np.where(d < 0.0, -1.0, 1.0) - base).max())
    assert worst <= 1e-9
    _report(4, f"100 orthonormal matrices reproduced within {worst:.2e}")


def test_c5_noise_calibration():
    w = correlated_tensor((256, 256, 3, 3), seed=5)
    beta = 3e-5
    sigma = np.std(reference_offdiagonal(w)[1])
    assert sigma > 0.01  # fixture sanity: spread well above f32 quantization
    noise = PostprocessConfig(start_layer=0, beta=beta, seed=55, skip_orth=True)
    out = through_file(w, noise, name="layer")
    diff = out.astype(np.float64) - w.astype(np.float64)
    target = beta * sigma
    err = abs(diff.std() - target) / target
    assert err <= 0.05, f"noise std off by {err:.2%}"

    frozen = through_file(w, PostprocessConfig(start_layer=0, beta=0.0, seed=55,
                                               skip_orth=True), name="layer")
    assert frozen.tobytes() == w.tobytes()
    _report(5, f"noise std within {err:.2%} of beta*sigma(r); beta=0 bit-identical")


def test_c6_exclusion_policy_and_ablations():
    rng = np.random.default_rng(6)
    specs = [
        ("shallow.conv", (8, 4, 3, 3), "conv", 0, correlated_tensor((8, 4, 3, 3), seed=1)),
        ("deep.norm", (8,), "norm", 2, rng.normal(size=8).astype(np.float32)),
        ("deep.bias", (8,), "bias", 2, rng.normal(size=8).astype(np.float32)),
        ("deep.conv", (16, 8, 3, 3), "conv", 2, correlated_tensor((16, 8, 3, 3), seed=2)),
        ("deep.fc", (12, 24), "linear", 3, correlated_tensor((12, 24), seed=3)),
    ]
    c = make_checkpoint(specs)
    cfg = PostprocessConfig(start_layer=2, seed=6)
    _, out = decode_ckpt(through_file(c, cfg))
    for i, (name, _, kind, depth, arr) in enumerate(specs):
        changed = kind in ("conv", "linear") and depth >= 2  # deep.conv, deep.fc
        assert (out[i].tobytes() != arr.tobytes()) == changed, name

    _, only_orth = decode_ckpt(through_file(c, PostprocessConfig(start_layer=2, beta=0.0,
                                                                 seed=6)))
    _, only_noise = decode_ckpt(through_file(c, PostprocessConfig(start_layer=2, seed=6,
                                                                  skip_orth=True)))
    for i in (3, 4):  # deep.conv, deep.fc
        name, *_, w = specs[i]
        direct_orth = _orth64(w.astype(np.float64)).astype(np.float32)
        assert only_orth[i].tobytes() == direct_orth.tobytes()
        direct_noise = _noised64(w, cfg.beta, 6, name).astype(np.float32)
        assert only_noise[i].tobytes() == direct_noise.tobytes()
    _report(6, "norm/bias/shallow bit-identical; ablations match single steps")


def test_c7_baseline_statistics():
    cases = [((128, 128), 128), ((64, 32, 3, 3), 288), ((96, 4, 7, 7), 196)]
    for shape, fan_in in cases:
        w = through_file(np.zeros(shape, np.float32), init=("rand", 1.0, 7), name=str(shape))
        assert w.size >= 10_000
        target = math.sqrt(2.0 / fan_in)
        assert abs(float(w.std()) - target) <= 0.05 * target
        assert abs(float(w.mean())) <= 3.0 * target / math.sqrt(w.size)
    worst = 0.0
    for shape in [(64, 64), (32, 16, 3, 3), (200, 50), (24, 96)]:
        w = through_file(np.zeros(shape, np.float32), init=("orth", 1.0, 8), name=str(shape))
        worst = max(worst, _orth_error(w))
    assert worst <= 1e-4
    _report(7, f"He std/mean in bounds; Saxe orthonormality {worst:.2e}")


def test_c8_pca_correctness():
    rng = np.random.default_rng(8)
    basis = np.linalg.qr(rng.normal(size=(32, 2)))[0].T
    coeffs = rng.normal(size=(300, 2)) * [4.0, 2.0]
    x = coeffs @ basis + rng.normal(size=32)
    res = pca_project(x, 2)
    total = np.var(x - x.mean(axis=0), axis=0, ddof=1).sum()
    residual = total - res.explained_variance.sum()
    assert residual <= 1e-9 * total

    stds = np.zeros(32)
    stds[:3] = [3.0, 2.0, 1.0]
    sample = np.random.default_rng(3).normal(size=(500, 32)) * stds
    res2 = pca_project(sample, 2)
    assert abs(res2.explained_variance[0] - 9.0) <= 0.9
    assert abs(res2.explained_variance[1] - 4.0) <= 0.4
    # cross-check against the sample-covariance oracle
    sc = sample - sample.mean(axis=0)
    oracle = np.sort(np.linalg.eigvalsh(sc.T @ sc / 499))[::-1][:2]
    np.testing.assert_allclose(res2.explained_variance, oracle, atol=1e-9)
    _report(8, f"2-plane residual {residual:.2e}; "
               f"diag-cov variances {res2.explained_variance.round(3).tolist()}")


def test_c9_determinism_and_format(tmp_path):
    rng = np.random.default_rng(9)
    tensors = [
        ("a.conv", (8, 4, 3, 3), "conv", 0, rng.normal(size=(8, 4, 3, 3)).astype(np.float32)),
        ("a.norm", (8,), "norm", 0, np.ones(8, np.float32)),
        ("b.fc", (6, 12), "linear", 1, rng.normal(size=(6, 12)).astype(np.float32)),
    ]
    # Bytes of the container codec written from the documented layout
    # (independent of ghnpost) read back bit-exactly.
    blob = make_checkpoint(tensors)
    metas = [TensorMeta(*t[:4]) for t in tensors]
    reader = reader_of(blob)
    assert reader.metas == metas
    for i, (*_, arr) in enumerate(tensors):
        assert reader.read_rows(i, 0, arr.shape[0]).tobytes() == arr.tobytes()

    src = tmp_path / "in.ckpt"
    src.write_bytes(blob)
    outputs = []
    for name in ("o1.ckpt", "o2.ckpt"):
        out = tmp_path / name
        argv = ["postprocess", str(src), "--beta", "3e-5", "--start-layer", "0",
                "--seed", "1", "--out", str(out)]
        assert run(argv) == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    arch = tmp_path / "arch.json"
    arch.write_text(json.dumps([dict(zip(("name", "shape", "kind", "depth"), t[:4]))
                                for t in tensors]))
    assert run(["init", str(arch), "--method", "orth", "--seed", "1",
                "--out", str(tmp_path / "init.ckpt")]) == 0
    # What the commands write decodes through the same codec and encodes
    # back byte for byte.
    for written in (outputs[0], (tmp_path / "init.ckpt").read_bytes()):
        specs, arrays = decode_ckpt(written)
        assert [TensorMeta(s.name, s.shape, s.kind, s.depth) for s in specs] == metas
        assert encode_ckpt(specs, arrays) == written

    reports = []
    for name in ("r1.csv", "r2.csv"):
        out = tmp_path / name
        assert run(["analyze", str(src), "--out", str(out)]) == 0
        reports.append(out.read_bytes())
    assert reports[0] == reports[1]

    with pytest.raises(DataFormatError, match="^magic: expected b'GHNP', got b'XXXX'$"):
        reader_of(b"XXXX" + blob[4:])
    with pytest.raises(DataFormatError, match="data section holds"):
        reader_of(blob[:-8])
    version_bumped = blob[:4] + (7).to_bytes(4, "little") + blob[8:]
    with pytest.raises(DataFormatError, match="^version: got 7, supported 1$"):
        reader_of(version_bumped)

    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"XXXX" + blob[4:])
    assert run(["analyze", str(bad), "--out", str(tmp_path / "x.csv")]) == 2
    truncated = tmp_path / "trunc.ckpt"
    truncated.write_bytes(blob[:-8])
    assert run(["analyze", str(truncated), "--out", str(tmp_path / "x.csv")]) == 2
    assert run(["postprocess"]) == 1
    one_channel = tmp_path / "one.ckpt"
    one_channel.write_bytes(
        make_checkpoint([("w", (1, 8), "conv", 0, np.ones((1, 8), np.float32))])
    )
    assert run(["analyze", str(one_channel), "--out", str(tmp_path / "x.csv")]) == 3
    _report(9, "round-trips bit-exact; CLI byte-deterministic; error classes and "
               "exit codes as specified")
