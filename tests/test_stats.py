import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghnpost import stats
from ghnpost.checkpoint_io import TensorRows
from ghnpost.errors import NumericalError
from ghnpost.stats import _COUNT_VALUES, _PANEL_ROWS, correlation_stats, sigma_r

from conftest import (
    correlated_tensor,
    fold_sigma_r,
    ghn_like_tensor,
    make_checkpoint,
    reader_of,
)
from reference import reference_offdiagonal


def _corr2(a, b):
    """The one correlation of channels a and b: its magnitude is the mean
    |r|, its sign the bin of two that holds it."""
    stats_ = correlation_stats(np.array([a, b], dtype=np.float32), 2, np.empty(2 * len(a)))
    return stats_.mean_abs if stats_.histogram[1] else -stats_.mean_abs


def test_perfect_positive_correlation():
    assert _corr2([1, 2, 3], [2, 4, 6]) == pytest.approx(1.0, abs=1e-12)


def test_perfect_anti_correlation():
    assert _corr2([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0, abs=1e-12)


def test_half_correlation_by_hand():
    # deviations (-1,0,1) and (-1,1,0): dot 1, norms sqrt(2) each -> 0.5
    assert _corr2([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)


def test_zero_variance_channel():
    assert _corr2([1, 1, 1], [1, 2, 3]) == 0.0


def test_rank4_channels_flattened():
    # rank-4 and its explicit K x CHW reshape give the same statistics
    w = np.random.default_rng(4).normal(size=(6, 2, 2, 2)).astype(np.float32)
    r4 = correlation_stats(w, 50, np.empty(w.size))
    r2 = correlation_stats(w.reshape(6, 8), 50, np.empty(w.size))
    assert (r4.sigma_r, r4.mean_abs) == (r2.sigma_r, r2.mean_abs)
    np.testing.assert_array_equal(r4.histogram, r2.histogram)


def test_errors():
    with pytest.raises(NumericalError, match="^expected rank 2 or 4 tensor, got rank 3$"):
        correlation_stats(np.zeros((2, 2, 2), dtype=np.float32), 1, np.empty(8))
    with pytest.raises(NumericalError, match="^channels have 1 elements, need at least 2$"):
        correlation_stats(np.zeros((4, 1), dtype=np.float32), 1, np.empty(4))


@settings(max_examples=40, deadline=None)
@given(st.floats(0.01, 100.0), st.floats(-50.0, 50.0), st.integers(0, 2**31))
def test_affine_invariance(scale, shift, seed):
    w = np.random.default_rng(seed).normal(size=(5, 16)).astype(np.float32)
    base = correlation_stats(w, 1, np.empty(w.size))
    w2 = w.astype(np.float64)
    w2[2] = scale * w2[2] + shift
    mapped = correlation_stats(w2, 1, np.empty(w2.size))
    np.testing.assert_allclose([mapped.sigma_r, mapped.mean_abs],
                               [base.sigma_r, base.mean_abs], atol=1e-6)


def test_std_of_identical_channels_is_zero():
    w = np.tile(np.array([1.0, 2.0, 5.0], dtype=np.float32), (4, 1))
    assert correlation_stats(w, 1, np.empty(w.size)).sigma_r == 0.0
    # across several panels too
    wide = np.tile(np.array([1.0, 2.0, 5.0], dtype=np.float32), (100, 1))
    assert correlation_stats(wide, 1, np.empty(wide.size)).sigma_r == 0.0


def test_std_hand_computed():
    # k=3 with off-diagonal {0, 0, 1} (channels a, b, b with a . b = 0):
    # mean 1/3, population variance ((1/3)^2 + (1/3)^2 + (2/3)^2)/3 = 2/9,
    # so std = sqrt(2)/3
    w = np.array([[1, -1, 0, 0], [0, 0, 1, -1], [0, 0, 1, -1]], dtype=np.float32)
    sigma = correlation_stats(w, 1, np.empty(w.size)).sigma_r
    assert sigma == pytest.approx(math.sqrt(2.0) / 3.0, abs=1e-12)


def test_std_single_pair_is_zero():
    w = np.array([[1, 2, 3], [1, 3, 2]], dtype=np.float32)
    assert correlation_stats(w, 1, np.empty(w.size)).sigma_r == 0.0


def test_std_too_few_channels():
    w = np.array([[1.0, 2.0]], dtype=np.float32)
    with pytest.raises(NumericalError, match="^need k >= 2 channels, got 1$"):
        correlation_stats(w, 1, np.empty(w.size))


def test_std_bounded():
    for seed in range(5):
        w = np.random.default_rng(seed).normal(size=(10, 30)).astype(np.float32)
        assert 0.0 <= correlation_stats(w, 1, np.empty(w.size)).sigma_r <= 1.0


def test_histogram_all_ones():
    w = np.tile(np.array([1.0, 2.0, 5.0], dtype=np.float32), (5, 1))
    h = correlation_stats(w, 4, np.empty(w.size)).histogram
    np.testing.assert_array_equal(h, [0, 0, 0, 10])
    assert h.sum() == 5 * 4 // 2


def test_histogram_extremes():
    # -1 lands in the first bin; exactly 1.0 lands in the last bin
    h = correlation_stats(np.array([[1, 2, 3], [3, 2, 1]], np.float32), 2, np.empty(6)).histogram
    np.testing.assert_array_equal(h, [1, 0])
    h = correlation_stats(np.array([[1, 2, 3], [1, 2, 3]], np.float32), 2, np.empty(6)).histogram
    np.testing.assert_array_equal(h, [0, 1])


def test_histogram_vs_brute_force():
    rng = np.random.default_rng(11)
    k = 40
    vals = rng.uniform(-1.0, 1.0, size=k * (k - 1) // 2)
    for bins in (1, 3, 8, 16):
        h = np.zeros(bins, dtype=np.intp)
        stats._count(vals, h)
        width = 2.0 / bins
        expected = np.zeros(bins, dtype=int)
        for v in vals:
            idx = min(int((v + 1.0) / width), bins - 1)
            expected[idx] += 1
        np.testing.assert_array_equal(h, expected)
        assert h.sum() == len(vals)


def test_ghn_like_channels_strongly_correlated():
    w = ghn_like_tensor((32, 8, 3, 3), rel_noise=1e-3, seed=0)
    assert correlation_stats(w, 1, np.empty(w.size)).mean_abs > 0.99


# --------------------------------------------------------------------------
# The panel fold against the full-matrix oracle (bounds, counts)
# --------------------------------------------------------------------------


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
    _, ref = reference_offdiagonal(w)
    sigma, mean_abs = _fsum_moments(ref)
    for bins in (1, 7, 50):
        counts, _ = np.histogram(ref, bins=bins, range=(-1.0, 1.0))
        folded = correlation_stats(w, bins, np.empty(w.size))
        _assert_rel(folded.sigma_r, sigma)
        _assert_rel(folded.mean_abs, mean_abs)
        np.testing.assert_array_equal(folded.histogram, counts)


def test_near_duplicate_case_is_beyond_np_std():
    # The oracle test's 1e-10 bound on sigma is tighter than a plain
    # mean-then-deviations std reaches on this case.
    _, ref = reference_offdiagonal(_near_duplicate())
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
    # More than one step of the counter, the last one partial, each adding
    # the bins from the lowest it touches.
    rng = np.random.default_rng(bins)
    random = np.concatenate([rng.uniform(-1.0, 1.0, 150_001),
                             np.clip(rng.normal(0.9, 0.2, 20_000), -1.0, 1.0)])
    for values in (_edge_values(bins), random, rng.permutation(_edge_values(bins))):
        got = np.zeros(bins, dtype=np.intp)
        stats._count(values, got)
        counts, edges = np.histogram(values, bins=bins, range=(-1.0, 1.0))
        np.testing.assert_array_equal(got, counts)
        assert got.dtype == counts.dtype
        # The edges that emit_histogram_svg derives are np.histogram's.
        assert np.linspace(-1.0, 1.0, bins + 1).tobytes() == edges.tobytes()


def _integer_channels(k=200, chw=12):
    """k zero-mean channels of small integers, so every Gram entry, and
    with it every correlation, has the same bits by any summation order.
    Rows a, b, c give r(a, a) = 1, r(a, -a) = -1, r(a, +-b) = +-0.5
    (|a|^2 = |b|^2 = 4, a.b = 2) and r(a, c) = 0, each an edge of 2**20
    bins, and 0 of 50; a dead row correlates 0 with every other."""
    rng = np.random.default_rng(5)
    w = rng.integers(-3, 4, size=(k, chw)).astype(np.float32)
    w[:, -1] = -w[:, :-1].sum(axis=1)
    a = [1, 1, -1, -1] + [0] * (chw - 4)
    b = [1, 0, -1, 0, 1, -1] + [0] * (chw - 6)
    c = [0] * 6 + [1, -1] + [0] * (chw - 8)
    special = [a, a, [-x for x in a], b, [-x for x in b], c, [0] * chw]
    w[rng.choice(k, len(special), replace=False)] = special
    return w


@pytest.mark.parametrize("bins", [1, 50, 2**20])
def test_bin_counter_step_does_not_change_a_count(bins):
    # The first 128-row panel packs sum(k - 1 - i for i < 128) = 17344
    # correlations, which the counter takes in steps of _COUNT_VALUES: not
    # a whole number of them.
    w = _integer_channels()
    k = len(w)
    assert sum(k - 1 - i for i in range(_PANEL_ROWS)) % _COUNT_VALUES != 0
    _, values = reference_offdiagonal(w)
    assert {-1.0, -0.5, 0.0, 0.5, 1.0} <= set(values.tolist())
    counts, _ = np.histogram(values, bins, range=(-1.0, 1.0))
    np.testing.assert_array_equal(correlation_stats(w, bins, np.empty(w.size)).histogram, counts)


def test_oracle_cases_hit_the_snaps():
    cases = _oracle_cases()
    for case, target in (("duplicate_row", 1.0), ("negated_duplicate", -1.0),
                         ("multi_panel", 1.0), ("multi_panel", -1.0)):
        assert target in reference_offdiagonal(cases[case])[1]
    assert 0.0 in reference_offdiagonal(cases["dead_channel"])[1]


def test_non_finite_tensor_rejected():
    w = np.random.default_rng(0).normal(size=(4, 6)).astype(np.float32)
    for bad in (np.nan, np.inf, -np.inf):
        w2 = w.copy()
        w2[2, 3] = bad
        with pytest.raises(NumericalError, match="^tensor holds NaN or Inf values$"):
            correlation_stats(w2, 1, np.empty(w2.size))


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
    _assert_rel(sigma_r(w, np.empty(w.size)), want)
    # the fold agrees as closely, and so does what analyze prints: the
    # fold's value, or the tall route's where the layer is certified
    _assert_rel(fold_sigma_r(w), want)
    _assert_rel(correlation_stats(w, 50, np.empty(w.size)).sigma_r, want)


@pytest.mark.parametrize("seed", [5, 6])
@pytest.mark.parametrize("shape", [(200, 30), (500, 64), (1000, 48), (2000, 100), (768, 3, 3, 3)])
@pytest.mark.parametrize("rel_noise", [1e-4, 3e-5])
def test_tall_route_is_within_its_stated_bound_of_the_fold(rel_noise, shape, seed):
    # GHN-like tall layers, sigma_r ~1e-10 to 3e-9: the routes' relative
    # gap reaches 1e-8, within 2^-53 / (sigma_r sqrt(K)) (a third of it
    # at most).
    w = ghn_like_tensor(shape, rel_noise=rel_noise, seed=seed)
    fold = fold_sigma_r(w)
    assert abs(sigma_r(w, np.empty(w.size)) - fold) / fold <= 2.0**-53 / (fold * math.sqrt(shape[0]))


@pytest.mark.parametrize("shape", [(2, 5), (6, 40), (12, 3, 3, 3), (135, 135), (130, 2, 8, 9)])
def test_sigma_r_is_the_fold_bit_for_bit_up_to_k_equal_chw(shape):
    for w in (correlated_tensor(shape, seed=47), ghn_like_tensor(shape, seed=48)):
        want = correlation_stats(w, 1, np.empty(w.size)).sigma_r
        assert sigma_r(w, np.empty(w.size)) == want


@pytest.mark.parametrize("case", ["convnext_dwconv", "broad_panels", "dead_and_duplicated"])
def test_sigma_r_into_a_work_buffer_gives_the_same_bits(case):
    w = _tall_cases()[case]
    want = correlation_stats(w, 50, np.empty(w.size))
    # A buffer of the layer's size, or larger, as one run's buffer sized
    # to its largest layer is for the others.
    for size in (w.size, w.size + 7):
        assert sigma_r(w, np.full(size, np.nan)) == sigma_r(w, np.empty(w.size))
        got = correlation_stats(w, 50, np.full(size, np.nan))
        assert (got.sigma_r, got.mean_abs) == (want.sigma_r, want.mean_abs)
        assert np.array_equal(got.histogram, want.histogram)


def test_sigma_r_errors():
    with pytest.raises(NumericalError, match="^expected rank 2 or 4 tensor, got rank 3$"):
        sigma_r(np.zeros((2, 2, 2), dtype=np.float32), np.empty(8))
    with pytest.raises(NumericalError, match="^channels have 1 elements, need at least 2$"):
        sigma_r(np.zeros((4, 1), dtype=np.float32), np.empty(4))
    with pytest.raises(NumericalError, match="^need k >= 2 channels, got 1$"):
        sigma_r(np.array([[1.0, 2.0]], dtype=np.float32), np.empty(2))
    for shape in ((4, 6), (40, 3)):  # the fold and the tall path
        w = np.random.default_rng(0).normal(size=shape).astype(np.float32)
        for bad in (np.nan, np.inf, -np.inf):
            w2 = w.copy()
            w2[2, 1] = bad
            with pytest.raises(NumericalError, match="^tensor holds NaN or Inf values$"):
                sigma_r(w2, np.empty(w2.size))


def test_sigma_r_of_identical_tall_channels_is_zero():
    base = np.array([1.0, 2.0, 5.0], dtype=np.float32)
    for k in (4, 40, 300):
        assert sigma_r(np.tile(base, (k, 1)), np.empty(3 * k)) == 0.0
    # identical channels beside dead ones: every r is 1 or 0, and the
    # spread of that mix is the fold's
    w = np.tile(base, (40, 1))
    w[::4] = 0.25
    assert sigma_r(w, np.empty(w.size)) == pytest.approx(correlation_stats(w, 1, np.empty(w.size)).sigma_r, rel=1e-12)


def test_sigma_r_of_positive_multiples_is_zero_as_the_fold_snaps_it():
    rng = np.random.default_rng(49)
    base = rng.normal(size=12).astype(np.float32)
    # exact float32 multiples, and float64 ones whose r computes as 1
    # give or take an ulp
    scaled32 = np.stack([base * np.float32(2.0**e) for e in range(-5, 20)])
    scaled64 = np.outer(rng.uniform(0.1, 10.0, 40), base.astype(np.float64))
    for w in (scaled32, scaled64):
        assert w.shape[0] > w.shape[1]
        assert correlation_stats(w, 1, np.empty(w.size)).sigma_r == 0.0
        assert sigma_r(w, np.empty(w.size)) == 0.0


@pytest.mark.parametrize("shape", [(5000, 3, 3, 3), (3500, 20), (20, 5000), (2, 70000)])
def test_sigma_r_of_a_row_source_is_sigma_r_of_the_array(shape):
    # Tall layers (the CHW x CHW route) and wide ones (the fold), read from
    # a file in several row blocks, or one row at a time.
    w = correlated_tensor(shape, seed=73)
    reader = reader_of(make_checkpoint([("w", shape, "conv", 0, w)]))
    assert sigma_r(TensorRows(reader, 0), np.empty(w.size)) == sigma_r(w, np.empty(w.size))


# --------------------------------------------------------------------------
# The spread certificate: layers whose every r lies in the top bin
# --------------------------------------------------------------------------

_SHAPES = {"tall": (160, 24), "wide": (24, 160)}


def _bound(w):
    """The certificate's bound on every r, in numpy: 1 - 2 max_i |y_i - m|^2
    for the unit channels y_i and their mean m (no channel dead)."""
    x = w.reshape(len(w), -1).astype(np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    y = xc / np.sqrt(np.sum(xc * xc, axis=1, keepdims=True))
    d = y - y.mean(axis=0)
    return 1.0 - 2.0 * np.max(np.sum(d * d, axis=1))


def _near_edge(shape, bins):
    """float64 channels base + t noise, with t bisected until the bound lies
    just below the top bin's lower edge (or 0, if that is higher): from
    1 at t = 0 (identical channels) down past it at t = 10."""
    target = max(np.linspace(-1.0, 1.0, bins + 1)[-2], 0.0)
    rng = np.random.default_rng(bins)
    base, noise = rng.normal(size=shape[1]), rng.normal(size=shape)
    above, below = 0.0, 10.0
    for _ in range(60):
        t = 0.5 * (above + below)
        above, below = (t, below) if _bound(base + t * noise) > target else (above, t)
    w = base + below * noise
    assert target - 1e-9 < _bound(w) <= target
    return w


def _certificate_case(case, orientation, bins):
    shape = _SHAPES[orientation]
    if case == "near_edge":
        return _near_edge(shape, bins)
    if case == "spread":
        return correlated_tensor(shape, seed=81)
    if case == "mixed_signs":  # r of both signs (the tall one: a bound above -1)
        rng = np.random.default_rng(85)
        return (rng.normal(size=shape[1]) + rng.normal(size=shape)).astype(np.float32)
    if case == "identical":
        return np.tile(np.random.default_rng(82).normal(size=shape[1]), (shape[0], 1))
    if case == "constant":  # every channel constant: all dead, every r 0
        return np.full(shape, 0.25, dtype=np.float32)
    w = ghn_like_tensor(shape, rel_noise=3e-3, seed=83)
    if case == "one_dead":
        w[5] = 0.5
    return w


@pytest.mark.parametrize("bins", [1, 2, 50, 2**20])
@pytest.mark.parametrize("orientation", sorted(_SHAPES))
@pytest.mark.parametrize("case", ["collapsed", "spread", "mixed_signs", "one_dead", "identical",
                                  "constant", "near_edge"])
def test_certificate_matches_full_matrix_oracle(case, orientation, bins):
    w = _certificate_case(case, orientation, bins)
    _, ref = reference_offdiagonal(w)
    counts, _ = np.histogram(ref, bins=bins, range=(-1.0, 1.0))
    sigma, mean_abs = _fsum_moments(ref)
    got = correlation_stats(w, bins, np.empty(w.size))
    np.testing.assert_array_equal(got.histogram, counts)
    assert got.histogram.dtype == counts.dtype
    _assert_rel(got.sigma_r, sigma)
    _assert_rel(got.mean_abs, mean_abs)


def _folds(monkeypatch):
    """The bins of each fold that correlation_stats runs, as it runs them."""
    real, calls = stats._fold_panels, []

    def fold_panels(xc, safe, dead, bins):
        calls.append(bins)
        return real(xc, safe, dead, bins)

    monkeypatch.setattr(stats, "_fold_panels", fold_panels)
    return calls


def test_certified_tall_layer_folds_no_panel(monkeypatch):
    calls = _folds(monkeypatch)
    w = _certificate_case("collapsed", "tall", 50)
    got = correlation_stats(w, 50, np.empty(w.size))
    assert calls == []
    assert got.histogram[-1] == 160 * 159 // 2
    assert got.sigma_r == sigma_r(w, np.empty(w.size))  # compare's value, bit for bit


def test_certified_wide_layer_folds_once_with_its_bins_and_matches_the_oracle(monkeypatch):
    # The certificate runs on tall layers only: a wide layer it would pass
    # folds and counts as any other, and its bins are all K(K-1)/2 in the
    # top one, as the certificate guarantees.
    w = _certificate_case("collapsed", "wide", 50)
    xc, safe, _ = stats._centered(w, np.empty(w.size))
    assert stats._certified_mean(xc, safe, stats._lower_edge(49, 50)) is not None
    _, ref = reference_offdiagonal(w)
    sigma, mean_abs = _fsum_moments(ref)
    calls = _folds(monkeypatch)
    got = correlation_stats(w, 50, np.empty(w.size))
    assert calls == [50]
    np.testing.assert_array_equal(got.histogram, [0] * 49 + [24 * 23 // 2])
    _assert_rel(got.sigma_r, sigma)
    _assert_rel(got.mean_abs, mean_abs)


@pytest.mark.parametrize("orientation", sorted(_SHAPES))
def test_near_edge_layer_falls_back_to_the_fold(monkeypatch, orientation):
    calls = _folds(monkeypatch)
    w = _near_edge(_SHAPES[orientation], 50)
    correlation_stats(w, 50, np.empty(w.size))
    assert calls == [50]


def test_tall_layer_at_float64_resolution_folds_again(monkeypatch):
    # Certified, but its spread (sigma_r ~2e-9) is too near float64's
    # resolution for the tall route to give the fold's value to 1e-10:
    # its channels are read again, from the file, and folded.
    w = ghn_like_tensor((300, 40), rel_noise=1e-4, seed=5)
    want = fold_sigma_r(w)
    calls = _folds(monkeypatch)
    reader = reader_of(make_checkpoint([("w", w.shape, "linear", 0, w)]))
    got = correlation_stats(TensorRows(reader, 0), 50, np.empty(w.size))
    assert calls == [50]
    assert got.sigma_r == want
    assert got.histogram[-1] == 300 * 299 // 2


def test_bin_counter_adds_to_the_counts_it_is_given():
    # Two steps: the first touches bins 900-999 only, the second the top
    # bin only; every other count is left as it was.
    rng = np.random.default_rng(3)
    values = np.concatenate([rng.uniform(0.8, 1.0, _COUNT_VALUES), np.ones(5)])
    before = rng.integers(0, 100, 1000)
    got = before.copy()
    stats._count(values, got)
    counts, _ = np.histogram(values, bins=1000, range=(-1.0, 1.0))
    np.testing.assert_array_equal(got, before + counts)


def _no_counter(monkeypatch):
    def count(r, counts):
        raise AssertionError("counted bins without a histogram")

    monkeypatch.setattr(stats, "_count", count)


@pytest.mark.parametrize("case", sorted(_oracle_cases()) + sorted(_tall_cases()))
def test_without_bins_nothing_is_counted_and_the_statistics_hold(case, monkeypatch):
    # Wide and square layers fold as with bins, bit for bit.  A tall layer
    # is certified against 0 only, not the top bin, so it may take the
    # tall route where with bins it folds: within _ROUTES_AGREE.
    w = {**_oracle_cases(), **_tall_cases()}[case]
    want = correlation_stats(w, 50, np.empty(w.size))
    _no_counter(monkeypatch)
    got = correlation_stats(w, None, np.empty(w.size))
    assert got.histogram is None
    if w.shape[0] <= math.prod(w.shape[1:]):
        assert (got.sigma_r, got.mean_abs) == (want.sigma_r, want.mean_abs)
    _assert_rel(got.sigma_r, want.sigma_r)
    assert abs(got.mean_abs - want.mean_abs) <= 1e-12 * want.mean_abs


def test_tall_layer_certified_above_0_takes_the_tall_route_without_bins(monkeypatch):
    # Every r lies above 0 but not all in the top one of 50 bins: the
    # histogram needs the fold, sigma_r and mean |r| alone do not.
    w = ghn_like_tensor((160, 24), rel_noise=0.3, seed=83)
    xc, safe, _ = stats._centered(w, np.empty(w.size))
    assert stats._certified_mean(xc, safe, 0.0) is not None
    assert stats._certified_mean(xc, safe, stats._lower_edge(49, 50)) is None
    calls = _folds(monkeypatch)
    with_bins = correlation_stats(w, 50, np.empty(w.size))
    assert calls == [50]
    got = correlation_stats(w, None, np.empty(w.size))
    assert calls == [50]
    assert got.sigma_r == sigma_r(w, np.empty(w.size))
    _assert_rel(got.sigma_r, with_bins.sigma_r)
