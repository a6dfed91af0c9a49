import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghnpost.checkpoint_io import TensorRows
from ghnpost.errors import (
    ChannelTooShort,
    NonFiniteTensor,
    TooFewChannels,
    UnsupportedRank,
)
from ghnpost.stats import (
    _fold_values,
    channel_correlation,
    correlation_histogram,
    correlation_stats,
    correlation_std,
    offdiagonal_values,
    sigma_r,
)

from conftest import correlated_tensor, ghn_like_tensor, make_checkpoint, reader_of


def _corr2(a, b):
    w = np.array([a, b], dtype=np.float32)
    return channel_correlation(w).values[0, 1]


def test_perfect_positive_correlation():
    assert _corr2([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


def test_perfect_anti_correlation():
    assert _corr2([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_half_correlation_by_hand():
    # deviations (-1,0,1) and (-1,1,0): dot 1, norms sqrt(2) each -> 0.5
    assert _corr2([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)


def test_zero_variance_channel():
    w = np.array([[1, 1, 1], [1, 2, 3]], dtype=np.float32)
    r = channel_correlation(w).values
    assert r[0, 0] == 1.0 and r[1, 1] == 1.0
    assert r[0, 1] == 0.0 and r[1, 0] == 0.0


def test_matrix_invariants():
    w = np.random.default_rng(3).normal(size=(12, 4, 3, 3)).astype(np.float32)
    r = channel_correlation(w).values
    np.testing.assert_array_equal(r, r.T)
    np.testing.assert_array_equal(np.diag(r), np.ones(12))
    assert np.all(np.abs(r) <= 1.0 + 1e-12)


def test_rank4_channels_flattened():
    # rank-4 and its explicit K x CHW reshape give the same matrix
    w = np.random.default_rng(4).normal(size=(6, 2, 2, 2)).astype(np.float32)
    r4 = channel_correlation(w).values
    r2 = channel_correlation(w.reshape(6, 8)).values
    np.testing.assert_allclose(r4, r2, atol=1e-15)


def test_errors():
    with pytest.raises(UnsupportedRank):
        channel_correlation(np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ChannelTooShort):
        channel_correlation(np.zeros((4, 1), dtype=np.float32))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(-50.0, 50.0), st.integers(0, 2**31))
def test_affine_invariance(scale, shift, seed):
    w = np.random.default_rng(seed).normal(size=(5, 16)).astype(np.float32)
    r_base = channel_correlation(w).values
    w2 = w.astype(np.float64)
    w2[2] = scale * w2[2] + shift
    r_mapped = channel_correlation(w2).values
    np.testing.assert_allclose(r_mapped, r_base, atol=1e-6)


def test_std_of_identical_channels_is_zero():
    w = np.tile(np.array([1.0, 2.0, 5.0], dtype=np.float32), (4, 1))
    assert correlation_std(channel_correlation(w)) == 0.0
    # across several panels too
    wide = np.tile(np.array([1.0, 2.0, 5.0], dtype=np.float32), (100, 1))
    assert correlation_stats(wide).sigma_r == 0.0


def test_std_hand_computed():
    # k=3 with off-diagonal {0, 0, 1}: mean 1/3, population variance
    # ((1/3)^2 + (1/3)^2 + (2/3)^2)/3 = 2/9, so std = sqrt(2)/3
    from ghnpost.stats import CorrelationMatrix

    values = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]])
    sigma = correlation_std(CorrelationMatrix(values=values))
    assert sigma == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)


def test_std_single_pair_is_zero():
    w = np.array([[1, 2, 3], [1, 3, 2]], dtype=np.float32)
    assert correlation_std(channel_correlation(w)) == 0.0
    assert correlation_stats(w).sigma_r == 0.0


def test_std_too_few_channels():
    w = np.array([[1.0, 2.0]], dtype=np.float32)
    with pytest.raises(TooFewChannels):
        correlation_std(channel_correlation(w))
    with pytest.raises(TooFewChannels):
        correlation_stats(w)


def test_std_bounded():
    for seed in range(5):
        w = np.random.default_rng(seed).normal(size=(10, 30)).astype(np.float32)
        assert 0.0 <= correlation_std(channel_correlation(w)) <= 1.0


def test_histogram_all_ones():
    w = np.tile(np.array([1.0, 2.0, 5.0], dtype=np.float32), (5, 1))
    h = correlation_histogram(channel_correlation(w), bins=4)
    np.testing.assert_array_equal(h.counts, [0, 0, 0, 10])
    assert h.counts.sum() == 5 * 4 // 2


def test_histogram_extremes():
    # -1 lands in the first bin; exactly 1.0 lands in the last bin
    from ghnpost.stats import CorrelationMatrix

    values = np.array([[1.0, -1.0], [-1.0, 1.0]])
    h = correlation_histogram(CorrelationMatrix(values=values), bins=2)
    np.testing.assert_array_equal(h.counts, [1, 0])
    values = np.array([[1.0, 1.0], [1.0, 1.0]])
    h = correlation_histogram(CorrelationMatrix(values=values), bins=2)
    np.testing.assert_array_equal(h.counts, [0, 1])


def test_histogram_rejects_a_nan_entry():
    from ghnpost.stats import CorrelationMatrix

    values = np.eye(3)
    values[0, 1] = values[1, 0] = np.nan
    with np.errstate(invalid="ignore"), pytest.raises(ValueError):
        correlation_histogram(CorrelationMatrix(values=values), bins=4)


def test_histogram_vs_brute_force():
    from ghnpost.stats import CorrelationMatrix

    rng = np.random.default_rng(11)
    k = 40
    vals = rng.uniform(-1.0, 1.0, size=k * (k - 1) // 2)
    m = np.eye(k)
    m[np.triu_indices(k, 1)] = vals
    m = m + np.triu(m, 1).T
    for bins in (1, 3, 8, 16):
        h = correlation_histogram(CorrelationMatrix(values=m), bins=bins)
        width = 2.0 / bins
        expected = np.zeros(bins, dtype=int)
        for v in vals:
            idx = min(int((v + 1.0) / width), bins - 1)
            expected[idx] += 1
        np.testing.assert_array_equal(h.counts, expected)
        assert h.counts.sum() == len(vals)


def test_ghn_like_channels_strongly_correlated():
    w = ghn_like_tensor((32, 8, 3, 3), rel_noise=1e-3, seed=0)
    r = channel_correlation(w)
    assert np.mean(offdiagonal_values(r)) > 0.99


# --------------------------------------------------------------------------
# Oracles for the full matrix (bytes) and the panel fold (bytes, bounds)
# --------------------------------------------------------------------------

def _reference_offdiagonal(w):
    """The full K x K formula ``channel_correlation`` reproduces bit for
    bit, gathered with ``triu_indices``."""
    k = w.shape[0]
    x = w.reshape(k, -1).astype(np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(xc * xc, axis=1))
    safe = np.where(norms == 0.0, 1.0, norms)
    r = (xc @ xc.T) / np.outer(safe, safe)
    dead = norms == 0.0
    r[dead, :] = 0.0
    r[:, dead] = 0.0
    r = 0.5 * (r + r.T)
    snap = 64.0 * np.finfo(np.float64).eps
    r[np.abs(r - 1.0) <= snap] = 1.0
    r[np.abs(r + 1.0) <= snap] = -1.0
    np.clip(r, -1.0, 1.0, out=r)
    np.fill_diagonal(r, 1.0)
    return r, r[np.triu_indices(k, k=1)]


def _oracle_cases():
    rng = np.random.default_rng(21)
    # a full 128-row panel and a 7-row one
    k_wide = 135

    dead = rng.normal(size=(9, 12)).astype(np.float32)
    dead[4] = 2.5
    duplicate = rng.normal(size=(10, 24)).astype(np.float32)
    duplicate[7] = duplicate[2]
    negated = rng.normal(size=(10, 24)).astype(np.float32)
    negated[5] = -negated[1]
    wide = ghn_like_tensor((k_wide, 8, 2, 2), rel_noise=1e-4, seed=5)
    wide[3] = wide[0]
    wide[k_wide - 4] = -wide[1]
    wide[k_wide - 9] = 0.5
    return {
        "dead_channel": dead,
        "duplicate_row": duplicate,
        "negated_duplicate": negated,
        "k2": rng.normal(size=(2, 5)).astype(np.float32),
        "multi_panel": wide,
        "rank4": rng.normal(size=(12, 3, 3, 3)).astype(np.float32),
        "k_below_chw": rng.normal(size=(6, 40)).astype(np.float32),
        "near_duplicate": _near_duplicate(),
    }


def _near_duplicate():
    """float64 channels 1e-6 apart: sigma_r ~2e-13, small enough that the
    rounding of a plain mean (as in ``np.std``) shows in sigma.  At this
    spread one ulp of r is ~1e-3 of sigma, so the fold meets the 1e-10
    bound only because its panel GEMMs round like the syrk Gram of the
    reference (they do bit for bit here with OpenBLAS 0.3.31)."""
    rng = np.random.default_rng(1)
    base = rng.normal(size=64)
    return base + 1e-6 * rng.normal(size=(256, 64))


def _fsum_moments(v):
    """sigma and mean |r| from correctly rounded sums: a two-pass variance
    with the correction term sum(d)^2 / n, which removes the error of the
    rounded mean (it matters once sigma nears eps * |mean|)."""
    v = v.tolist()
    n = len(v)
    mean = math.fsum(v) / n
    d = [x - mean for x in v]
    var = (math.fsum(x * x for x in d) - math.fsum(d) ** 2 / n) / n
    return math.sqrt(var), math.fsum(abs(x) for x in v) / n


def _assert_rel(got, want, rel=1e-10):
    # exact when want is 0: identical channels and K=2 give sigma == 0.0
    assert abs(got - want) <= rel * want, (got, want)


@pytest.mark.parametrize("case", sorted(_oracle_cases()))
def test_packed_kernel_matches_full_matrix_oracle(case):
    w = _oracle_cases()[case]
    full, ref = _reference_offdiagonal(w)
    r = channel_correlation(w)
    assert offdiagonal_values(r).tobytes() == ref.tobytes()
    sigma, mean_abs = _fsum_moments(ref)
    _assert_rel(correlation_std(r), sigma)
    for bins in (1, 7, 50):
        counts, edges = np.histogram(np.clip(ref, -1.0, 1.0), bins=bins, range=(-1.0, 1.0))
        folded = correlation_stats(w, bins)
        _assert_rel(folded.sigma_r, sigma)
        _assert_rel(folded.mean_abs, mean_abs)
        for h in (correlation_histogram(r, bins), folded.histogram):
            np.testing.assert_array_equal(h.counts, counts)
            assert h.bin_edges.tobytes() == edges.tobytes()
    assert r.values.tobytes() == full.tobytes()


def test_near_duplicate_case_is_beyond_np_std():
    # The oracle test's 1e-10 bound on sigma is tighter than a plain
    # mean-then-deviations std reaches on this case.
    _, ref = _reference_offdiagonal(_near_duplicate())
    sigma, _ = _fsum_moments(ref)
    assert abs(np.std(ref) - sigma) > 1e-10 * sigma


def _edge_values(bins):
    """Every edge of np.histogram's bins over [-1, 1], both float
    neighbours of each that lie in [-1, 1], and +-1."""
    edges = np.linspace(-1.0, 1.0, bins + 1)
    values = np.concatenate([edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0),
                             [-1.0, 1.0]])
    return values[(values >= -1.0) & (values <= 1.0)]


@pytest.mark.parametrize("bins", [1, 2, 3, 7, 50, 2**20])
def test_bin_counter_is_np_histogram(bins):
    # More than one 64K block, the last one partial, so the counter's
    # buffers are reused and cut.
    rng = np.random.default_rng(bins)
    random = np.concatenate([rng.uniform(-1.0, 1.0, 150_001),
                             np.clip(rng.normal(0.9, 0.2, 20_000), -1.0, 1.0)])
    for values in (_edge_values(bins), random, rng.permutation(_edge_values(bins))):
        got = _fold_values(2, values, bins).histogram
        counts, edges = np.histogram(values, bins=bins, range=(-1.0, 1.0))
        np.testing.assert_array_equal(got.counts, counts)
        assert got.counts.dtype == counts.dtype
        assert got.bin_edges.tobytes() == edges.tobytes()


def test_fold_without_bins_has_no_histogram():
    w = np.random.default_rng(2).normal(size=(40, 7))
    assert correlation_stats(w).histogram is None
    with pytest.raises(ValueError):
        correlation_stats(w, bins=0)


def test_oracle_cases_hit_the_snaps():
    cases = _oracle_cases()
    for case, target in (("duplicate_row", 1.0), ("negated_duplicate", -1.0),
                         ("multi_panel", 1.0), ("multi_panel", -1.0)):
        assert target in offdiagonal_values(channel_correlation(cases[case]))
    assert 0.0 in offdiagonal_values(channel_correlation(cases["dead_channel"]))


def test_packed_values_are_read_only():
    r = channel_correlation(np.random.default_rng(0).normal(size=(5, 9)))
    with pytest.raises(ValueError):
        offdiagonal_values(r)[0] = 0.5


def test_non_finite_tensor_rejected():
    w = np.random.default_rng(0).normal(size=(4, 6)).astype(np.float32)
    for bad in (np.nan, np.inf, -np.inf):
        w2 = w.copy()
        w2[2, 3] = bad
        with pytest.raises(NonFiniteTensor):
            channel_correlation(w2)


# --------------------------------------------------------------------------
# sigma_r: the fold for K <= CHW, the CHW x CHW Gram for tall layers
# --------------------------------------------------------------------------

_EXTENDED = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps


def _extended_sigma(w):
    """sigma_r from its definition, in extended precision: unit channels,
    their K x K dot products, and the two-pass population std of the
    strict upper triangle.  No snapping: the exact values."""
    k = w.shape[0]
    x = w.reshape(k, -1).astype(np.longdouble)
    xc = x - x.mean(axis=1, keepdims=True)
    norms = np.sqrt(np.sum(xc * xc, axis=1))
    live = norms > 0
    y = np.zeros_like(xc)
    y[live] = xc[live] / norms[live, None]
    r = (y @ y.T)[np.triu_indices(k, k=1)]
    return float(np.sqrt(np.mean((r - np.mean(r)) ** 2)))


def _tall_cases():
    rng = np.random.default_rng(41)
    dead_dup = ghn_like_tensor((200, 30), seed=42)
    dead_dup[5] = 1.5
    dead_dup[7] = dead_dup[3]
    dead_dup[9] = -dead_dup[2]
    return {
        # ConvNeXt's depthwise 7 x 7 conv: K x 49
        "convnext_dwconv": ghn_like_tensor((1024, 1, 7, 7), seed=43),
        # two Gram panels (CHW > 128)
        "near_duplicate_panels": ghn_like_tensor((300, 150), seed=44),
        "broad": correlated_tensor((300, 40), seed=45),
        "broad_panels": correlated_tensor((260, 140), seed=46),
        "independent": rng.normal(size=(400, 100)).astype(np.float32),
        "dead_and_duplicated": dead_dup,
        # every centered channel is +-(1, -1): r = +-1
        "k_by_2": rng.normal(size=(50, 2)).astype(np.float32),
        "k5": rng.normal(size=(5, 3)).astype(np.float32),
    }


@pytest.mark.skipif(not _EXTENDED, reason="long double is no wider than float64 here")
@pytest.mark.parametrize("case", sorted(_tall_cases()))
def test_sigma_r_of_tall_layers_matches_extended_precision_oracle(case):
    w = _tall_cases()[case]
    assert w.dtype == np.float32 and w.shape[0] > math.prod(w.shape[1:])
    want = _extended_sigma(w)
    assert want > 0.0
    _assert_rel(sigma_r(w), want)
    # the fold printed by analyze and compare agrees as closely
    _assert_rel(correlation_stats(w).sigma_r, want)


@pytest.mark.parametrize("shape", [(2, 5), (6, 40), (12, 3, 3, 3), (135, 135), (130, 2, 8, 9)])
def test_sigma_r_is_the_fold_bit_for_bit_up_to_k_equal_chw(shape):
    for w in (correlated_tensor(shape, seed=47), ghn_like_tensor(shape, seed=48)):
        want = correlation_stats(w).sigma_r
        assert sigma_r(w) == want
        assert sigma_r(w, np.empty(w.size)) == want


@pytest.mark.parametrize("case", ["convnext_dwconv", "broad_panels", "dead_and_duplicated"])
def test_sigma_r_into_a_work_buffer_gives_the_same_bits(case):
    w = _tall_cases()[case]
    work = np.full(w.size, np.nan)
    assert sigma_r(w, work) == sigma_r(w)


def test_sigma_r_errors():
    with pytest.raises(UnsupportedRank):
        sigma_r(np.zeros((2, 2, 2), dtype=np.float32))
    with pytest.raises(ChannelTooShort):
        sigma_r(np.zeros((4, 1), dtype=np.float32))
    with pytest.raises(TooFewChannels):
        sigma_r(np.array([[1.0, 2.0]], dtype=np.float32))
    for shape in ((4, 6), (40, 3)):  # the fold and the tall path
        w = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        for bad in (np.nan, np.inf, -np.inf):
            w2 = w.copy()
            w2[2, 1] = bad
            with pytest.raises(NonFiniteTensor):
                sigma_r(w2)


def test_sigma_r_of_identical_tall_channels_is_zero():
    base = np.array([1.0, 2.0, 5.0], dtype=np.float32)
    for k in (4, 40, 300):
        assert sigma_r(np.tile(base, (k, 1))) == 0.0
    # identical channels beside dead ones: every r is 1 or 0, and the
    # spread of that mix is the fold's
    w = np.tile(base, (40, 1))
    w[::4] = 0.25
    assert sigma_r(w) == pytest.approx(correlation_stats(w).sigma_r, rel=1e-12)


def test_sigma_r_of_positive_multiples_is_zero_as_the_fold_snaps_it():
    rng = np.random.default_rng(49)
    base = rng.normal(size=12).astype(np.float32)
    # exact float32 multiples, and float64 ones whose r computes as 1
    # give or take an ulp
    scaled32 = np.stack([base * np.float32(2.0**e) for e in range(-5, 20)])
    scaled64 = np.outer(rng.uniform(0.1, 10.0, 40), base.astype(np.float64))
    for w in (scaled32, scaled64):
        assert w.shape[0] > w.shape[1]
        assert correlation_stats(w).sigma_r == 0.0
        assert sigma_r(w) == 0.0


@pytest.mark.parametrize("shape", [(5000, 3, 3, 3), (3500, 20), (20, 5000), (2, 70000)])
def test_sigma_r_of_a_row_source_is_sigma_r_of_the_array(shape):
    # Tall layers (the CHW x CHW route) and wide ones (the fold), read from
    # a file in several row blocks, or one row at a time.
    w = correlated_tensor(shape, seed=73)
    reader = reader_of(make_checkpoint([("w", shape, "conv", 0, w)]))
    assert sigma_r(TensorRows(reader, 0)) == sigma_r(w)
