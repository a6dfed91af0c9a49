import math
import random
import signal
import threading
import time
import warnings

import numpy as np
import pytest

from ghnpost import linalg, postprocess

from ghnpost.errors import NumericalError, OutOfMemory
from ghnpost.postprocess import (
    DEFAULT_BETA,
    PostprocessConfig,
    _run_pool,
    init_tensors,
)
from ghnpost.checkpoint_io import TensorMeta
from ghnpost.linalg import one_blas_thread
from ghnpost.rng import RngStream
from ghnpost.stats import sigma_r

from conftest import (
    correlated_tensor,
    decode_ckpt,
    ghn_like_tensor,
    make_checkpoint,
    through_file,
)
from reference import matricize, reference_offdiagonal


def _orth_error(w):
    m = matricize(w).astype(np.float64)
    return np.abs(m.T @ m - np.eye(m.shape[1])).max()


def _noise_only(beta, seed):
    """The noise step alone, as ``postprocess --skip-orth`` runs it."""
    return PostprocessConfig(start_layer=0, beta=beta, seed=seed, skip_orth=True)


def _tensors(blob):
    """The tensors of the checkpoint bytes ``blob``, by name."""
    specs, arrays = decode_ckpt(blob)
    return {spec.name: arr for spec, arr in zip(specs, arrays)}


# --- conditional noise -----------------------------------------------------

def test_zero_beta_is_identity():
    w = correlated_tensor((16, 4, 3, 3), seed=0)
    out = through_file(w, _noise_only(0.0, 1))
    assert out.tobytes() == w.tobytes()


def test_identical_channels_give_zero_noise():
    w = np.tile(np.linspace(-1, 1, 18, dtype=np.float32), (8, 1)).reshape(8, 2, 3, 3)
    out = through_file(w, _noise_only(3e-5, 1))
    assert out.tobytes() == w.tobytes()


def test_identical_tall_channels_pass_postprocess_bit_identical():
    # K > CHW: sigma_r comes from the CHW x CHW Gram, and is exactly 0
    w = np.tile(np.linspace(-1, 1, 6, dtype=np.float32), (64, 1))
    out = through_file(w, _noise_only(3e-5, 1))
    assert out.tobytes() == w.tobytes()


def test_single_channel_gives_zero_noise():
    w = np.random.default_rng(0).normal(size=(1, 32)).astype(np.float32)
    out = through_file(w, _noise_only(3e-5, 1))
    assert out.tobytes() == w.tobytes()


def test_noise_std_calibration():
    w = correlated_tensor((256, 32, 3, 3), seed=3)
    beta = 3e-5
    sigma = np.std(reference_offdiagonal(w)[1])
    assert sigma > 0.01
    out = through_file(w, _noise_only(beta, 9), name="layer")
    diff = out.astype(np.float64) - w.astype(np.float64)
    target = beta * sigma
    assert abs(diff.std() - target) <= 0.05 * target
    assert abs(diff.mean()) <= 5 * target / math.sqrt(diff.size)


def test_noise_max_bounded_at_six_sigma():
    w = correlated_tensor((64, 16, 3, 3), seed=4)
    beta = 3e-5
    sigma = np.std(reference_offdiagonal(w)[1])
    out = through_file(w, _noise_only(beta, 2), name="layer")
    diff = np.abs(out.astype(np.float64) - w.astype(np.float64))
    assert diff.max() <= 6.0 * beta * sigma


def _noise_oracle(w, beta, stream):
    """The whole stream drawn, added to w in float64 and rounded once to
    float32."""
    scale = beta * sigma_r(w)
    ref = stream.normal(w.size).reshape(w.shape)
    ref *= scale
    ref += w
    return ref.astype(np.float32)


def test_chunked_noise_matches_whole_layer_noise_bytes():
    from ghnpost.tensor_ops import _ROW_VALUES

    # more than one noise chunk, odd size
    w = correlated_tensor((257, 289), seed=6)
    assert w.size > _ROW_VALUES and w.size % 2
    got = through_file(w, _noise_only(1e-2, 3), name="layer")
    assert got.tobytes() == _noise_oracle(w, 1e-2, RngStream(3, "layer")).tobytes()


def test_sparse_noise_equals_dense_oracle_bytes(monkeypatch):
    from ghnpost.postprocess import _ZMAX
    from ghnpost.tensor_ops import _ROW_VALUES

    # Near-duplicate rows of magnitude ~1 (their chunks are gathered) over
    # broad rows far below the threshold (their chunks are drawn dense).
    k, chw = 256, 1024
    half = k // 2 * chw
    assert 2 * half == 4 * _ROW_VALUES
    w = np.concatenate([
        ghn_like_tensor((k // 2, chw), seed=1),
        correlated_tensor((k // 2, chw), seed=2, scale=1e-5),
    ]).reshape(-1)
    stream = RngStream(5, "mixed")
    z = stream.normal(w.size)
    # The largest weight noise can move: just below 2**-8, whose half gap
    # 2**-33 the noise at the largest |z| of the gathered chunks exceeds
    # by 2**-10 once beta is set below.  Then the threshold is t.
    top = np.argmax(np.abs(z[:half]))
    step = 2.0**-33 * (1 + 2.0**-10)
    t = np.float32(2.0**27 * _ZMAX * step / abs(z[top]))
    w[top] = np.nextafter(np.float32(2.0**-8), 0)
    f32 = np.finfo(np.float32)
    special = [t, np.nextafter(t, 0), np.nextafter(t, 1), 2 * t, t / 2, 0.0, -0.0,
               f32.smallest_subnormal, -3 * f32.smallest_subnormal, f32.smallest_normal]
    special += [s * 2.0**e for e in range(-30, 3) for s in (1, -1)]
    rng = np.random.default_rng(3)
    # a swath of weights up to the threshold, where noise can move some
    swath = t * np.exp2(rng.uniform(-12, 2, 6000)) * rng.choice([-1, 1], 6000)
    vals = np.array(special + list(swath), dtype=np.float32)
    spots = rng.choice(np.delete(np.arange(half), top), size=vals.size, replace=False)
    w[spots] = vals
    w = w.reshape(k, chw)
    beta = step / (abs(z[top]) * sigma_r(w))

    gathered = []
    normal_at = RngStream.normal_at

    def counted(self, positions, out=None):
        gathered.append(len(positions))
        return normal_at(self, positions, out)

    monkeypatch.setattr(RngStream, "normal_at", counted)
    got = through_file(w, _noise_only(beta, 5), name="mixed")
    ref = _noise_oracle(w, beta, stream)
    assert got.tobytes() == ref.tobytes()
    assert len(gathered) == 2 and 0 < sum(gathered) < _ROW_VALUES // 2
    assert got.flat[top] != w.flat[top]


def test_noise_errors():
    with pytest.raises(NumericalError,
                       match="^tensor 'x': expected rank 2 or 4 tensor, got rank 3$"):
        through_file(np.zeros((2, 2, 2), np.float32), _noise_only(1e-5, 0), name="x")
    with pytest.raises(NumericalError, match="^tensor 'x': channels have 1 elements"):
        through_file(np.zeros((4, 1), np.float32), _noise_only(1e-5, 0), name="x")
    bad = np.full((4, 4), np.nan, dtype=np.float32)
    with pytest.raises(NumericalError, match="^tensor 'x': tensor holds NaN or Inf values$"):
        through_file(bad, _noise_only(1e-5, 0), name="x")


def test_overflowing_noise_is_the_outputs_fault():
    # Channels of alternating sign: sigma_r ~ 1, so noise of std 1e308
    # overflows; the input is finite.
    w = ghn_like_tensor((16, 8, 3, 3), seed=7)
    w[1::2] *= -1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error is the only report
        with pytest.raises(NumericalError,
                           match="^tensor 'l': output would hold NaN or Inf values$"):
            through_file(w, _noise_only(1e308, 0), name="l")


@pytest.mark.parametrize("shape, beta", [((1, 6), 1e-3), ((4, 6), 0.0)])
def test_non_finite_input_is_the_tensors_fault(shape, beta):
    # One channel has no sigma_r, and beta = 0 adds no noise: the copy is
    # checked against the input.
    w = np.ones(shape, np.float32)
    w[0, 2] = np.inf
    with pytest.raises(NumericalError, match="^tensor 'l': tensor holds NaN or Inf values$"):
        through_file(w, _noise_only(beta, 0), name="l")


# --- orthogonal re-initialization -------------------------------------------

# The repair with no noise: the reinit alone.
_REINIT = PostprocessConfig(start_layer=0, beta=0.0)


def test_reinit_random_conv():
    w = np.random.default_rng(0).normal(size=(64, 3, 3, 3)).astype(np.float32)
    out = through_file(w, _REINIT)
    assert out.shape == w.shape and out.dtype == np.float32
    # K=64 >= CHW=27: matricized output is 64x27 with orthonormal columns
    assert matricize(out).shape == (64, 27)
    assert _orth_error(out) <= 1e-4


def test_reinit_fixed_point_on_orthonormal_input():
    w = np.random.default_rng(1).normal(size=(32, 2, 4, 4)).astype(np.float32)
    once = through_file(w, _REINIT)
    twice = through_file(once, _REINIT)
    np.testing.assert_allclose(twice, once, atol=1e-6)


def test_reinit_rank_deficient_input():
    base = np.random.default_rng(2).normal(size=27).astype(np.float32)
    w = np.tile(base, (8, 1)).reshape(8, 3, 3, 3)  # identical channels, no noise
    out = through_file(w, _REINIT)
    assert _orth_error(out) <= 1e-4


def test_reinit_transposed_route():
    w = np.random.default_rng(3).normal(size=(16, 8, 3, 3)).astype(np.float32)
    out = through_file(w, _REINIT)  # K=16 < CHW=72: transposed internally
    assert _orth_error(out) <= 1e-4


def test_reinit_errors():
    with pytest.raises(NumericalError,
                       match="^tensor 'w': expected rank 2 or 4 tensor, got rank 1$"):
        through_file(np.zeros(4, np.float32), _REINIT)
    with pytest.raises(NumericalError, match="^tensor 'w': tensor holds NaN or Inf values$"):
        through_file(np.full((4, 4), np.inf, dtype=np.float32), _REINIT)


# --- the one-buffer repair against numpy ------------------------------------

def _numpy_qr(a):
    """``np.linalg.qr`` on one BLAS thread: the reference of the repair's QR."""
    with one_blas_thread():
        return np.linalg.qr(a)


def _signed_q(w, gain=1.0):
    """The Q of numpy's QR of the matrix of the float64 tensor ``w``, times
    gain and the sign of R's diagonal (0 as +1), cast once to float32 and
    laid out in w's shape."""
    q, r = _numpy_qr(matricize(w))
    q = (q * np.where(np.diag(r) < 0.0, -gain, gain)).astype(np.float32)
    return (q.T if len(w) < w.size // len(w) else q).reshape(w.shape)


def _repair_oracle(w, cfg, name):
    """Noise into a float64 copy, numpy's QR, the column signs, one cast."""
    noised = w.astype(np.float64)
    if cfg.beta and len(w) > 1 and (sigma := sigma_r(w)):
        noised += cfg.beta * sigma * RngStream(cfg.seed, name).normal(w.size).reshape(w.shape)
    return _signed_q(noised)


def _repair_cases():
    base = np.random.default_rng(30).normal(size=27).astype(np.float32)
    return {
        "tall": ghn_like_tensor((64, 3, 3, 3), seed=31),
        "wide": ghn_like_tensor((16, 8, 3, 3), seed=32),
        "square": ghn_like_tensor((40, 40), seed=33),
        "rank_deficient": np.tile(base, (8, 1)).reshape(8, 3, 3, 3),
        "tall_identical": np.tile(base[:5], (40, 1)),
        "all_zero": np.zeros((12, 5), np.float32),
        # several row blocks of _ROW_VALUES values, in both memory orders
        "tall_blocks": ghn_like_tensor((700, 200), seed=34),
        "wide_blocks": correlated_tensor((150, 1000), seed=35),
        # a row longer than a block
        "long_rows": ghn_like_tensor((3, 70000), seed=36),
    }


@pytest.mark.parametrize("case", sorted(_repair_cases()))
@pytest.mark.parametrize(
    "settings",
    # At beta = 1e-22 the float64 noise moves only weights near 0, which
    # are gathered where the layer buffer is C-ordered (wide layers).
    [{}, {"beta": 1e-2}, {"beta": 1e-22}, {"beta": 0.0}],
    ids=["default_beta", "beta_1e-2", "beta_1e-22", "beta_0"],
)
def test_repair_equals_numpy_qr_on_a_noised_float64_copy(binding, case, settings):
    w = _repair_cases()[case]
    cfg = PostprocessConfig(start_layer=0, seed=5, **settings)
    out = through_file(w, cfg, name=case)
    assert out.dtype == np.float32
    assert out.tobytes() == _repair_oracle(w, cfg, case).tobytes()


@pytest.mark.parametrize("beta", [1e-22, 3e-5])
@pytest.mark.parametrize("shape", [(64, 512), (512, 64), (96, 8, 3, 3)],
                         ids=["wide", "tall", "conv"])
def test_repair_with_gathered_float64_noise_equals_the_oracle(shape, beta, monkeypatch):
    # About 2000 weights near 1e-25: at beta = 1e-22 the float64 limit
    # 2**56 * beta * sigma_r * _ZMAX (~3e-6) falls below max |w|, so noise
    # is drawn only for the weights it can move where the layer buffer is
    # C-ordered (the wide layer), and whole elsewhere.
    rng = np.random.default_rng(40)
    w = rng.standard_normal(shape, dtype=np.float32)
    tiny = rng.uniform(0.5, 2.0, 2000) * rng.choice([-1.0, 1.0], 2000) * 1e-25
    w.reshape(-1)[rng.choice(w.size, 2000, replace=False)] = tiny
    gathered = []
    normal_at = RngStream.normal_at

    def counted(self, positions, out=None):
        gathered.append(len(positions))
        return normal_at(self, positions, out)

    monkeypatch.setattr(RngStream, "normal_at", counted)
    cfg = PostprocessConfig(start_layer=0, beta=beta, seed=8)
    out = through_file(w, cfg)
    assert bool(gathered) == (beta == 1e-22 and shape == (64, 512))
    assert out.tobytes() == _repair_oracle(w, cfg, "w").tobytes()


def test_overflowing_noise_is_reported_before_the_qr(monkeypatch):
    def no_qr(*args, **kwargs):
        raise AssertionError("a non-finite layer reached the QR")

    monkeypatch.setattr(postprocess, "qr_decompose", no_qr)
    # Channels of alternating sign: r = +-1, so sigma_r ~ 1 and float64
    # noise of std near float64's max overflows.
    w = ghn_like_tensor((16, 8, 3, 3), seed=7)
    w[1::2] *= -1
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the error is the only report
        with pytest.raises(NumericalError, match="^tensor 'l': output would hold NaN or Inf"):
            through_file(w, PostprocessConfig(start_layer=0, beta=1e308), name="l")


@pytest.mark.parametrize("case", ["beta_0", "one_channel", "tall_beta_0"])
def test_non_finite_layer_without_sigma_r_is_reported_before_the_qr(case, monkeypatch):
    # No sigma_r runs on these layers, so the check on each block of the
    # layer buffer is the one that sees the NaN.
    def no_qr(*args, **kwargs):
        raise AssertionError("a non-finite layer reached the QR")

    monkeypatch.setattr(postprocess, "qr_decompose", no_qr)
    shape = {"beta_0": (8, 6), "one_channel": (1, 6), "tall_beta_0": (70000, 2)}[case]
    w = np.ones(shape, np.float32)
    w[-1, -1] = np.nan
    cfg = PostprocessConfig(start_layer=0, beta=0.0 if case != "one_channel" else DEFAULT_BETA)
    with pytest.raises(NumericalError, match="^tensor 'l': tensor holds NaN or Inf"):
        through_file(w, cfg, name="l")


@pytest.mark.parametrize("shape", [(64, 3, 3, 3), (16, 8, 3, 3), (40, 40), (700, 200),
                                   (150, 1000)])
def test_saxe_init_equals_numpy_qr_of_the_draw(binding, shape):
    gain = 1.5
    draw = RngStream(6, "w").normal(math.prod(shape)).reshape(shape)
    out = through_file(np.zeros(shape, np.float32), init=("orth", gain, 6))
    assert out.tobytes() == _signed_q(draw, gain).tobytes()


# --- full pipeline ----------------------------------------------------------

def _pipeline_checkpoint():
    rng = np.random.default_rng(10)
    return make_checkpoint(
        [
            ("l0.conv", (8, 3, 3, 3), "conv", 0, ghn_like_tensor((8, 3, 3, 3), seed=1)),
            ("l0.norm", (8,), "norm", 0, rng.normal(size=8).astype(np.float32)),
            ("l1.conv", (16, 8, 3, 3), "conv", 1, ghn_like_tensor((16, 8, 3, 3), seed=2)),
            ("l1.bias", (16,), "bias", 1, rng.normal(size=16).astype(np.float32)),
            ("l2.fc", (10, 16), "linear", 2, correlated_tensor((10, 16), seed=3)),
            ("l2.other", (4, 4), "other", 2, rng.normal(size=(4, 4)).astype(np.float32)),
        ]
    )


def test_start_layer_above_all_depths_is_identity():
    c = _pipeline_checkpoint()
    assert through_file(c, PostprocessConfig(start_layer=99, seed=1)) == c


def test_exclusion_rules():
    c = _pipeline_checkpoint()
    before, out = _tensors(c), _tensors(through_file(c, PostprocessConfig(start_layer=1, seed=1)))
    # ineligible kinds and shallow layers are bit-identical
    for name in ("l0.conv", "l0.norm", "l1.bias", "l2.other"):
        assert out[name].tobytes() == before[name].tobytes()
    # eligible tensors changed and are orthonormal in matricized form
    for name in ("l1.conv", "l2.fc"):
        assert out[name].tobytes() != before[name].tobytes()
        assert _orth_error(out[name]) <= 1e-4


def test_metadata_and_order_preserved():
    c = _pipeline_checkpoint()
    out = through_file(c, PostprocessConfig(start_layer=0, seed=1))
    assert decode_ckpt(out)[0] == decode_ckpt(c)[0]


def test_determinism_bit_identical():
    c = _pipeline_checkpoint()
    cfg = PostprocessConfig(start_layer=0, seed=77)
    assert through_file(c, cfg) == through_file(c, cfg)


def test_beta_0_equals_reinit_alone():
    c = _pipeline_checkpoint()
    cfg = PostprocessConfig(start_layer=0, beta=0.0, seed=5)
    before, out = _tensors(c), _tensors(through_file(c, cfg))
    for name in ("l0.conv", "l1.conv", "l2.fc"):
        assert out[name].tobytes() == _signed_q(before[name].astype(np.float64)).tobytes()


def test_skip_orth_equals_noise_alone():
    c = _pipeline_checkpoint()
    cfg = PostprocessConfig(start_layer=0, seed=5, skip_orth=True)
    before, out = _tensors(c), _tensors(through_file(c, cfg))
    for name in ("l0.conv", "l1.conv", "l2.fc"):
        direct = _noise_oracle(before[name], cfg.beta, RngStream(5, name))
        assert out[name].tobytes() == direct.tobytes()


def test_correlation_reduced_on_ghn_like_fixture():
    w = ghn_like_tensor((64, 32, 3, 3), seed=9)
    before = np.abs(reference_offdiagonal(w)[1]).mean()
    out = through_file(w, PostprocessConfig(start_layer=0, seed=1))
    after = np.abs(reference_offdiagonal(out)[1]).mean()
    assert before > 0.9
    assert after < 0.1


def test_error_annotated_with_tensor_name():
    c = make_checkpoint(
        [("odd.conv", (2, 2, 2), "conv", 0,
          np.zeros((2, 2, 2), dtype=np.float32))]
    )
    with pytest.raises(NumericalError,
                       match="^tensor 'odd.conv': expected rank 2 or 4 tensor, got rank 3$"):
        through_file(c, PostprocessConfig(start_layer=0))


# --- the layer pool ----------------------------------------------------------

def test_run_pool_runs_every_item_within_its_byte_budget():
    # Fake jobs of random sizes and durations on 8 threads.  An item is in
    # flight from its admission until its job returns.
    rng = random.Random(0)
    sizes = [rng.choice([1, 2, 3, 5, 8]) for _ in range(60)]
    budget = 10
    in_flight, peak, lock = [0], [0], threading.Lock()
    ran = []

    def job(i):
        with lock:
            assert in_flight[0] == 0 or in_flight[0] + sizes[i] <= budget
            in_flight[0] += sizes[i]
            peak[0] = max(peak[0], in_flight[0])
            ran.append(i)
        time.sleep(rng.random() * 2e-3)
        with lock:
            in_flight[0] -= sizes[i]

    order = sorted(range(len(sizes)), key=lambda i: (-sizes[i], i))
    _run_pool(job, order, sizes, budget, width=8, name=str)
    assert sorted(ran) == list(range(len(sizes)))
    assert 8 < peak[0] <= budget  # items did overlap


def test_run_pool_raises_first_failure_in_item_order():
    started = []

    def job(i):
        started.append(i)
        if i in (2, 5):
            time.sleep(0.25 if i == 2 else 0.0)  # 5 fails first in time
            raise ValueError(f"item {i}")
        time.sleep(0.0 if i < 2 else 0.25)

    # 0 and 1 return at once, so 4 and 5 are admitted; 5 fails while 2, 3
    # and 4 run, so 6 and 7 are never started.
    with pytest.raises(ValueError, match="item 2"):
        _run_pool(job, range(8), [1] * 8, 4, width=4, name=str)
    assert sorted(started) == [0, 1, 2, 3, 4, 5]

    # Admitted last first, one at a time: after 5 fails, the items before
    # it still run, and after 2 fails, so do 1 and 0.
    started.clear()
    with pytest.raises(ValueError, match="item 2"):
        _run_pool(job, range(7, -1, -1), [1] * 8, 1, width=4, name=str)
    assert started == [7, 6, 5, 4, 3, 2, 1, 0]

    def failing_read(i):
        started.append(i)
        if i == 4:
            raise OSError("read failed")
        job(i)

    # A later read failure does not hide an earlier item's own failure.
    started.clear()
    with pytest.raises(ValueError, match="item 2"):
        _run_pool(failing_read, range(8), [1] * 8, 4, width=4, name=str)


@pytest.mark.parametrize("error", [MemoryError, OutOfMemory])
def test_run_pool_runs_an_item_out_of_memory_beside_another_again_alone(error):
    # Item 1 cannot get its memory while item 0 runs: it goes back to the
    # head of the queue, and runs again once 0 is done, with nothing
    # beside it; item 2 waits until then.  An item that fails alone fails
    # the run.
    lock, running, calls = threading.Lock(), set(), []
    started, failed = threading.Event(), threading.Event()

    def job(i, fails_alone=False):
        if i == 1 and not failed.is_set():
            assert started.wait(5.0)
        with lock:
            calls.append((i, frozenset(running)))
            beside = set(running)
            running.add(i)
        try:
            if i == 0:
                started.set()
                assert failed.wait(5.0)
            elif i == 1 and (beside or fails_alone):
                failed.set()
                raise error("cannot map")
            time.sleep(0.01)
        finally:
            with lock:
                running.discard(i)

    _run_pool(job, range(3), [1] * 3, 4, width=2, name=str)
    assert calls == [(0, frozenset()), (1, {0}), (1, frozenset()), (2, frozenset())]

    calls.clear()
    started.clear()
    failed.clear()
    with pytest.raises(error, match="cannot map"):
        _run_pool(lambda i: job(i, fails_alone=True), range(3), [1] * 3, 4, width=2, name=str)
    assert calls == [(0, frozenset()), (1, {0}), (1, frozenset())]


def _admissions(costs, budget, width, job=None):
    """Run fake items of ``costs`` (largest first, as the pool's callers
    order them) on :func:`_run_pool`, and return each admission as
    (index, the indices running beside it)."""
    lock, running, calls = threading.Lock(), set(), []

    def run(i):
        with lock:
            calls.append((i, frozenset(running)))
            running.add(i)
        try:
            if job is not None:
                job(i)
        finally:
            with lock:
                running.discard(i)

    _run_pool(run, range(len(costs)), costs, budget, width, str)
    return calls


def test_run_pool_backfills_the_largest_queued_item_that_fits():
    # Beside item 0 (8 of 10), the head, item 1 (7), does not fit, nor does
    # item 2 (3); items 3 (2) and 4 (1) do, and the larger is admitted.
    # Item 0 runs until item 3 has started: admitting the head alone, as
    # the pool did before backfill, would time out here.
    backfilled = threading.Event()

    def job(i):
        if i == 0:
            assert backfilled.wait(5.0)
        elif i == 3:
            backfilled.set()

    calls = _admissions([8, 7, 3, 2, 1], 10, 2, job)
    assert calls[:2] == [(0, frozenset()), (3, {0})]
    assert sorted(i for i, _ in calls) == list(range(5))


def test_run_pool_backfills_nothing_beside_an_item_to_run_alone():
    # Item 1 cannot get its memory beside item 0 and goes back to the head
    # to run alone.  Items 2 and 3 do not fit beside both, but they would
    # fit beside item 0 on the third thread once item 1 has failed; still
    # nothing is admitted past item 1 until item 0 is done, nor beside
    # item 1 when it runs again.
    failed = threading.Event()

    def job(i):
        if i == 0:
            assert failed.wait(5.0)
            time.sleep(0.05)  # room for a wrong admission beside it
        elif i == 1 and not failed.is_set():
            failed.set()
            raise MemoryError("cannot map")
        elif i == 1:
            time.sleep(0.05)

    calls = _admissions([5, 4, 1, 1], 9, 3, job)
    assert calls[:3] == [(0, frozenset()), (1, {0}), (1, frozenset())]
    assert {i for i, _ in calls[3:]} == {2, 3} and all(1 not in beside for _, beside in calls)


def test_run_pool_keeps_the_failure_rule_with_backfill():
    # Item 3 (2) is backfilled beside item 0 (8) and fails: item 1, earlier
    # in the order, still runs, and item 4, later, never starts.
    started = []

    def job(i):
        started.append(i)
        if i == 3:
            raise ValueError("item 3")
        if i == 0:
            time.sleep(0.1)

    with pytest.raises(ValueError, match="item 3"):
        _admissions([8, 7, 3, 2, 1], 10, 2, job)
    assert sorted(started) == [0, 1, 2, 3]
    assert started[:2] == [0, 3]

    # Item 0 fails while the backfilled item 3 runs: nothing after item 0
    # is admitted, and item 0's failure propagates, not item 3's.
    started.clear()

    def first_fails(i):
        started.append(i)
        if i == 0:
            time.sleep(0.05)
            raise ValueError("item 0")
        time.sleep(0.2)
        raise ValueError(f"item {i}")

    with pytest.raises(ValueError, match="item 0"):
        _admissions([8, 7, 3, 2, 1], 10, 2, first_fails)
    assert started == [0, 3]


@pytest.mark.skipif(not hasattr(signal, "pthread_kill"), reason="needs signal.pthread_kill")
def test_run_pool_admits_nothing_after_an_interrupt():
    # The backfilled item 3 interrupts the calling thread while item 0
    # runs: both finish, and nothing else is admitted.  The signal waits
    # until the pool has started item 3's thread and waits on the items,
    # and item 0 runs until the signal is sent, however late item 3 starts.
    finished = []
    main = threading.main_thread().ident
    sent = threading.Event()

    def job(i):
        if i == 3:
            time.sleep(0.05)
            signal.pthread_kill(main, signal.SIGINT)
            sent.set()
        else:
            sent.wait(timeout=60)
        time.sleep(0.1)
        finished.append(i)

    previous = signal.signal(signal.SIGINT, signal.default_int_handler)
    try:
        with pytest.raises(KeyboardInterrupt):
            _admissions([8, 7, 3, 2, 1], 10, 2, job)
    finally:
        signal.signal(signal.SIGINT, previous)
    assert sorted(finished) == [0, 3]


def test_run_pool_joins_a_worker_whose_start_was_interrupted(monkeypatch):
    # The interrupt comes as the second worker's thread starts, after the
    # thread is running: the pool must still wait for that worker's item.
    real_start, started = threading.Thread.start, []
    lock, running = threading.Lock(), set()

    def start(thread):
        real_start(thread)
        started.append(thread)
        if len(started) == 2:
            raise KeyboardInterrupt

    def job(i):
        with lock:
            running.add(i)
        time.sleep(0.3)
        with lock:
            running.discard(i)

    monkeypatch.setattr(threading.Thread, "start", start)
    with pytest.raises(KeyboardInterrupt):
        _run_pool(job, range(3), [1] * 3, 3, width=2, name=str)
    assert running == set()
    assert not any(thread.is_alive() for thread in started)


def _resnet_sizes(blocks):
    """Element counts of a bottleneck ResNet's conv/linear layers (He et
    al., 2016: width 64, 1000 classes) with ``blocks`` per stage."""
    sizes, channels = [64 * 3 * 7 * 7], 64
    for stage, count in enumerate(blocks):
        planes = 64 << stage
        for block in range(count):
            sizes += [planes * channels, planes * planes * 9, 4 * planes * planes]
            if block == 0:
                sizes.append(4 * planes * channels)  # the downsampling shortcut
            channels = 4 * planes
    return sizes + [1000 * channels]


def _vit_sizes(dim, layers):
    """Element counts of a ViT's conv/linear layers (Dosovitskiy et al.,
    2021: 16 x 16 patches, 1000 classes)."""
    return [dim * 3 * 16 * 16] + [dim * dim * n for n in (3, 1, 4, 4)] * layers + [1000 * dim]


@pytest.mark.parametrize("sizes, extra", [
    (_resnet_sizes((3, 4, 6, 3)), 2048 * 512),     # ResNet-50: 1.444x the largest
    (_resnet_sizes((3, 4, 23, 3)), 256 * 256 * 9),  # ResNet-101: 1.25x
    (_resnet_sizes((3, 8, 36, 3)), 256 * 256 * 9),  # ResNet-152: 1.25x
    (_vit_sizes(768, 12), 4 * 768 * 768),          # ViT-B/16: 2x
    (_vit_sizes(1024, 24), 4 * 1024 * 1024),       # ViT-L/16: 2x
], ids=["resnet50", "resnet101", "resnet152", "vit_b16", "vit_l16"])
def test_pool_budget_from_the_header(sizes, extra):
    assert len(sizes) in (50, 54, 98, 105, 156)
    largest = max(sizes)
    assert postprocess._pool_budget(sizes, 2) == largest + extra
    # One thread needs no room beside a layer, and more threads keep at
    # most two of the largest.
    assert postprocess._pool_budget(sizes, 1) == largest
    assert all(postprocess._pool_budget(sizes, w) <= 2 * largest for w in (3, 4, 8, 64))


def test_pool_budget_edge_cases():
    assert postprocess._pool_budget([], 2) == 0
    assert postprocess._pool_budget([7], 2) == 14  # the layer is all the work
    assert postprocess._pool_budget([5, 5, 5, 5], 2) == 10  # equal layers pair
    assert postprocess._pool_budget([9, 4, 4, 4, 3], 2) == 13  # 9 <= 24 / 2 < 9 + 4


def _layers_checkpoint(n=6):
    return make_checkpoint(
        [(f"l{i}.conv", (24, 4, 3, 3), "conv", i, ghn_like_tensor((24, 4, 3, 3), seed=i))
         for i in range(n)]
        + [("head.bias", (10,), "bias", n, np.ones(10, np.float32))]
    )


def _from_file(c, cfg):
    """The tensors ``postprocess`` writes for the file ``c``, in header
    order."""
    return decode_ckpt(through_file(c, cfg))[1]


def _one_at_a_time(c, cfg):
    """The oracle's repair of each tensor of the file ``c`` on its own, in
    header order; tensors it does not select pass through."""
    specs, arrays = decode_ckpt(c)
    return [_repair_oracle(arr, cfg, spec.name)
            if spec.kind in ("conv", "linear") and spec.depth >= cfg.start_layer else arr
            for spec, arr in zip(specs, arrays)]


@pytest.mark.parametrize("skip", [{}, {"beta": 0.0}])
def test_pool_matches_sequential_in_header_order(skip, monkeypatch):
    c = _layers_checkpoint()
    cfg = PostprocessConfig(start_layer=1, seed=4, **skip)
    expected = _one_at_a_time(c, cfg)
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 8)
    got = _from_file(c, cfg)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]


def _sizes_checkpoint():
    """Three largest layers, whose pairs the header's budget keeps apart at
    width 2, smaller layers that backfill beside them, a layer below
    start_layer 1, and norms."""
    tensors = []
    for i, shape in enumerate([(16, 8, 3, 3), (96, 48), (48, 96), (96, 48), (48, 48),
                               (24, 96), (96, 24), (32, 72), (72, 32), (64, 36), (36, 64)]):
        tensors.append((f"l{i}.w", shape, "conv" if len(shape) == 4 else "linear", i,
                        ghn_like_tensor(shape, seed=i)))
        tensors.append((f"l{i}.norm", (shape[0],), "norm", i,
                        np.linspace(0.5, 1.5, shape[0], dtype=np.float32)))
    return make_checkpoint(tensors)


@pytest.mark.parametrize("width", [1, 2, 8])
def test_repair_and_orth_init_bytes_do_not_depend_on_the_pool_width(width, monkeypatch):
    c = _sizes_checkpoint()
    cfg = PostprocessConfig(start_layer=1, seed=2)
    expected = _one_at_a_time(c, cfg)
    init_expected = [
        _signed_q(RngStream(3, spec.name).normal(spec.size).reshape(spec.shape), 1.5)
        if spec.kind in ("conv", "linear") else np.ones(spec.shape, np.float32)
        for spec in decode_ckpt(c)[0]]
    budgets = []

    def recording(fn, order, costs, budget, threads, name):
        budgets.append(budget)
        return run_pool(fn, order, costs, budget, threads, name)

    run_pool = postprocess._run_pool
    monkeypatch.setattr(postprocess, "_run_pool", recording)
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: width)
    got = _from_file(c, cfg)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in expected]

    stored = decode_ckpt(through_file(c, init=("orth", 1.5, 3)))[1]
    assert [a.tobytes() for a in stored] == [a.tobytes() for a in init_expected]
    # The three largest layers hold under half the elements, the next is
    # half the largest: on two threads both runs get 1.5x the largest.
    if width == 2 and linalg.gil_free_qr():
        assert budgets == [8 * 96 * 48 * 3 // 2] * 2


def test_pool_pins_blas_to_one_thread_and_restores_it(monkeypatch):
    lib = linalg._openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    seen = []

    write_layer = postprocess._write_layer

    def recording(*args, **kwargs):
        seen.append(lib.scipy_openblas_get_num_threads64_())
        return write_layer(*args, **kwargs)

    monkeypatch.setattr(postprocess, "_write_layer", recording)
    before = lib.scipy_openblas_get_num_threads64_()
    monkeypatch.setattr(postprocess, "_cpu_count", lambda: 8)
    _from_file(_layers_checkpoint(3), PostprocessConfig(start_layer=0))
    assert seen and set(seen) == {1}
    assert lib.scipy_openblas_get_num_threads64_() == before


def test_repair_bytes_do_not_depend_on_the_blas_thread_count():
    # The caller's BLAS thread count does not reach the layers: the pool
    # runs them on one thread, and the QR pins itself to one too.
    lib = linalg._openblas()
    if lib is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    w = ghn_like_tensor((1000, 768), seed=1)
    cfg = PostprocessConfig(start_layer=0, seed=1)
    before = lib.scipy_openblas_get_num_threads64_()
    outs = []
    try:
        for threads in (1, 2):
            lib.scipy_openblas_set_num_threads64_(threads)
            outs.append((through_file(w, cfg).tobytes(), through_file(w, _REINIT).tobytes()))
    finally:
        lib.scipy_openblas_set_num_threads64_(before)
    assert outs[0] == outs[1]


def test_config_validation():
    with pytest.raises(ValueError):
        PostprocessConfig(start_layer=0, beta=-1e-5)
    with pytest.raises(ValueError):
        PostprocessConfig(start_layer=-1)


def test_non_finite_beta_and_gain_rejected():
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match="finite"):
            PostprocessConfig(start_layer=0, beta=value)
        with pytest.raises(ValueError, match="finite"):
            through_file(np.zeros((8, 6), np.float32), init=("orth", value, 0))


# --- baseline initializers ---------------------------------------------------
# init_tensors through a file: an array stands for its shape, and
# init=(method, gain, seed) draws from RngStream(seed, name).

def test_he_init_statistics():
    shape = (64, 3, 7, 7)  # fan_in 147
    w = through_file(np.zeros(shape, np.float32), init=("rand", 1.0, 1), name="conv1")
    assert w.shape == shape and w.dtype == np.float32
    target = math.sqrt(2.0 / 147.0)
    assert target == pytest.approx(0.11664, abs=5e-6)
    assert abs(w.std() - target) <= 0.05 * target
    assert abs(float(w.mean())) <= 3.0 * target / math.sqrt(w.size)


@pytest.mark.parametrize("shape", [(3, 70001), (131073, 2), (2, 3, 5, 7)])
def test_he_init_bytes_equal_one_whole_layer_draw(shape):
    from ghnpost.tensor_ops import _ROW_VALUES

    n = math.prod(shape)
    assert n % _ROW_VALUES
    ref = RngStream(4, "w").normal(n)
    ref *= math.sqrt(2.0 / math.prod(shape[1:]))
    out = through_file(np.zeros(shape, np.float32), init=("rand", 1.0, 4))
    assert out.tobytes() == ref.reshape(shape).astype(np.float32).tobytes()


@pytest.mark.parametrize("shape", [(3, 0), (0, 3)])
@pytest.mark.parametrize("method", ["rand", "orth"], ids=["he", "saxe"])
def test_init_rejects_a_zero_dimension(method, shape):
    # No file holds such a tensor: its metadata goes to init_tensors as is.
    metas = [TensorMeta("w", shape, "linear", 0)]
    with pytest.raises(ValueError) as info:
        init_tensors(metas, lambda i, block, r0: None, method, 1.0, 0)
    assert str(info.value) == f"shape dimensions must be positive, got {shape}"


def test_he_init_rank2_fan_in():
    w = through_file(np.zeros((256, 128), np.float32), init=("rand", 1.0, 2), name="fc")
    target = math.sqrt(2.0 / 128.0)
    assert abs(w.std() - target) <= 0.05 * target


def test_he_init_deterministic():
    a = through_file(np.zeros((16, 8), np.float32), init=("rand", 1.0, 3))
    b = through_file(np.zeros((16, 8), np.float32), init=("rand", 1.0, 3))
    assert a.tobytes() == b.tobytes()


def test_he_init_rejects_rank3():
    with pytest.raises(NumericalError,
                       match="^tensor 'x': expected rank 2 or 4 tensor, got rank 3$"):
        through_file(np.zeros((4, 4, 4), np.float32), init=("rand", 1.0, 0), name="x")


def test_saxe_orthonormal():
    w = through_file(np.zeros((32, 32), np.float32), init=("orth", 1.0, 4))
    assert w.dtype == np.float32
    assert _orth_error(w) <= 1e-4


def test_saxe_gain_scales_gram_matrix():
    w = through_file(np.zeros((24, 4, 2, 2), np.float32), init=("orth", 2.0, 5))
    m = matricize(w).astype(np.float64)
    np.testing.assert_allclose(m.T @ m, 4.0 * np.eye(m.shape[1]), atol=1e-4)


def test_saxe_square_preserves_norms():
    w = through_file(np.zeros((20, 20), np.float32), init=("orth", 1.0, 6)).astype(np.float64)
    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.normal(size=20)
        assert np.linalg.norm(w @ x) == pytest.approx(np.linalg.norm(x), abs=1e-4)


def test_saxe_deterministic_and_validated():
    a = through_file(np.zeros((8, 6), np.float32), init=("orth", 1.0, 7))
    b = through_file(np.zeros((8, 6), np.float32), init=("orth", 1.0, 7))
    assert a.tobytes() == b.tobytes()
    with pytest.raises(ValueError):
        through_file(np.zeros((8, 6), np.float32), init=("orth", 0.0, 7))
    with pytest.raises(NumericalError,
                       match="^tensor 'w': expected rank 2 or 4 tensor, got rank 1$"):
        through_file(np.zeros(8, np.float32), init=("orth", 1.0, 7))


def test_init_tensors_rejects_an_unknown_method_before_any_store():
    metas = [TensorMeta("a", (8, 4), "linear", 0), TensorMeta("b", (8,), "bias", 1)]
    stored = []
    with pytest.raises(ValueError, match="unknown init method 'zeros'"):
        init_tensors(metas, lambda i, w: stored.append(i), "zeros", 1.0, 0)
    assert stored == []
