import numpy as np
import pytest

from ghnpost.errors import NumericalError
from ghnpost.linalg import one_blas_thread, pca_project, qr_decompose

from conftest import repair, through_file
from reference import matricize, reference_pca


def _qr(a):
    """qr_decompose of a Fortran-ordered float64 copy of ``a``: (q, R's diagonal)."""
    return qr_decompose(np.array(a, dtype=np.float64, order="F"))


def _assert_thin_qr(a, q, d, atol):
    """q has orthonormal columns, and r = q^T a is upper-triangular with
    diagonal d and q r = a, each within ``atol`` times max(1, max |a|)."""
    scale = atol * max(1.0, np.abs(a).max())
    r = q.T @ a
    assert np.abs(q.T @ q - np.eye(q.shape[1])).max() <= atol
    assert np.abs(np.tril(r, -1)).max(initial=0.0) <= scale
    assert np.abs(np.diag(r) - d).max() <= scale
    assert np.abs(q @ r - a).max() <= scale


def test_two_by_two_hand_example():
    # classical Gram-Schmidt by hand: a = [[3,0],[4,5]] factors into
    # q = [[0.6,-0.8],[0.8,0.6]], r = [[5,4],[0,3]] up to column signs
    a = np.array([[3.0, 0.0], [4.0, 5.0]])
    q, d = _qr(a)
    _assert_thin_qr(a, q, d, 1e-14)
    np.testing.assert_allclose(np.abs(q.T @ a), [[5.0, 4.0], [0.0, 3.0]], atol=1e-14)
    # with the positive-diagonal convention the factorization is unique
    np.testing.assert_allclose(
        q * np.where(d < 0.0, -1.0, 1.0), [[0.6, -0.8], [0.8, 0.6]], atol=1e-14
    )


def test_identity_input():
    q, d = _qr(np.eye(5))
    _assert_thin_qr(np.eye(5), q, d, 1e-15)
    np.testing.assert_allclose(np.abs(d), np.ones(5), atol=1e-15)


def test_random_rectangular_reconstruction():
    rng = np.random.default_rng(0)
    a = rng.normal(size=(50, 20))
    q, d = _qr(a)
    assert q.shape == (50, 20) and d.shape == (20,)
    _assert_thin_qr(a, q, d, 1e-10)


def test_large_scaled_input():
    rng = np.random.default_rng(1)
    a = rng.uniform(-1e3, 1e3, size=(600, 120))
    _assert_thin_qr(a, *_qr(a), 1e-10)


def test_max_supported_size():
    # upper end of the contract: 4096x512 with entries up to 1e3
    rng = np.random.default_rng(12)
    a = rng.uniform(-1e3, 1e3, size=(4096, 512))
    _assert_thin_qr(a, *_qr(a), 1e-10)


def test_rows_must_cover_cols():
    with pytest.raises(NumericalError, match="^thin QR needs rows >= cols, got 3 x 5$"):
        qr_decompose(np.zeros((3, 5), order="F"))


@pytest.mark.parametrize("a", [np.zeros(3), np.zeros((0, 3)), np.zeros((2, 2, 2))])
def test_qr_needs_a_non_empty_matrix(a):
    with pytest.raises(NumericalError, match="^expected a non-empty 2D matrix"):
        qr_decompose(a)


def test_qr_rejects_what_lapack_cannot_factor_in_place():
    a = np.ones((6, 3))
    for bad in (a, np.asfortranarray(a, dtype=np.float32), np.asfortranarray(a)[::2]):
        with pytest.raises(ValueError, match="Fortran-ordered float64"):
            qr_decompose(bad)
    frozen = np.asfortranarray(a)
    frozen.flags.writeable = False
    with pytest.raises(ValueError, match="writeable"):
        qr_decompose(frozen)


def test_rank_deficient_keeps_orthonormal_columns():
    rng = np.random.default_rng(2)
    col = rng.normal(size=12)
    a = np.stack([col, 2.0 * col, rng.normal(size=12), -col], axis=1)
    q, d = _qr(a)
    _assert_thin_qr(a, q, d, 1e-12)
    adjusted = q * np.where(d < 0.0, -1.0, 1.0)  # zero diagonal entries count as +1
    np.testing.assert_allclose(adjusted.T @ adjusted, np.eye(4), atol=1e-12)


def test_zero_matrix():
    q, d = _qr(np.zeros((6, 3)))
    np.testing.assert_allclose(q.T @ q, np.eye(3), atol=1e-15)
    np.testing.assert_array_equal(d, np.zeros(3))


def test_orthonormal_input_reproduced():
    # for orthonormal-column a, r is diagonal +-1, so the sign-corrected Q
    # of a is a
    rng = np.random.default_rng(4)
    for shape in [(8, 8), (30, 7), (64, 64)]:
        base, _ = np.linalg.qr(rng.normal(size=shape))
        q, d = _qr(base)
        np.testing.assert_allclose(q * np.where(d < 0.0, -1.0, 1.0), base, atol=1e-10)


def _variances(projected):
    """The sample variance of each projected column: the eigenvalue of the
    sample covariance along its direction."""
    return np.var(projected, axis=0, ddof=1)


def test_pca_against_eigvalsh_and_svd_oracles():
    rng = np.random.default_rng(5)
    for d in (2, 5, 16, 40):
        x = rng.normal(size=(3 * d, d)) * np.linspace(2.0, 0.5, d)
        projected = pca_project(x)
        xc = x - x.mean(axis=0)
        ref = np.sort(np.linalg.eigvalsh(xc.T @ xc / (3 * d - 1)))[::-1]
        np.testing.assert_allclose(_variances(projected), ref[:2], atol=1e-10 * ref[0])
        # the same orthonormal directions, with the same signs
        np.testing.assert_allclose(projected, reference_pca(x), atol=1e-9)


def test_pca_exact_plane():
    rng = np.random.default_rng(6)
    basis = np.linalg.qr(rng.normal(size=(32, 2)))[0].T  # 2 x 32
    coeffs = rng.normal(size=(200, 2)) * [3.0, 1.5]
    x = coeffs @ basis + rng.normal(size=32)  # affine 2-plane
    projected = pca_project(x)
    total = np.var(x - x.mean(axis=0), axis=0, ddof=1).sum()
    captured = _variances(projected).sum()
    assert total - captured <= 1e-9 * total
    np.testing.assert_allclose(projected, reference_pca(x), atol=1e-9)


def test_pca_identical_points():
    x = np.tile(np.arange(8.0), (5, 1))
    projected = pca_project(x)
    np.testing.assert_allclose(_variances(projected), 0.0, atol=1e-12)
    np.testing.assert_allclose(projected, 0.0, atol=1e-9)


def test_pca_known_diagonal_covariance():
    rng = np.random.default_rng(7)
    stds = np.zeros(32)
    stds[:3] = [3.0, 2.0, 1.0]
    x = rng.normal(size=(500, 32)) * stds
    variances = _variances(pca_project(x))
    # population variances 9 and 4, recovered within 10% at n=500
    assert abs(variances[0] - 9.0) <= 0.9
    assert abs(variances[1] - 4.0) <= 0.4
    # and exactly the sample-covariance eigenvalues from an independent oracle
    xc = x - x.mean(axis=0)
    ref = np.sort(np.linalg.eigvalsh(xc.T @ xc / 499))[::-1]
    np.testing.assert_allclose(variances, ref[:2], atol=1e-9)


def test_pca_sign_convention_and_determinism():
    rng = np.random.default_rng(8)
    x = rng.normal(size=(40, 6)) * [5.0, 2.0, 1.0, 0.5, 0.1, 0.1]
    projected = pca_project(x)
    assert projected.shape == (40, 2)
    np.testing.assert_array_equal(projected, pca_project(x.copy()))
    # each direction's largest-magnitude entry is positive, as the oracle's
    np.testing.assert_allclose(projected, reference_pca(x), atol=1e-9)
    assert np.all(np.diff(_variances(projected)) <= 1e-12)


@pytest.mark.parametrize("shape", [(1, 4), (2, 8), (5, 1), (0, 3)])
def test_pca_degenerate_inputs(shape):
    n, d = shape
    with pytest.raises(NumericalError,
                       match=f"^need at least 3 vectors of dimension >= 2, got {n} x {d}$"):
        pca_project(np.zeros(shape))


# --- the in-place LAPACK kernel against np.linalg.qr -------------------------

def _numpy_qr(a):
    """``np.linalg.qr`` of ``a`` in float64 on one BLAS thread: the
    kernel's reference."""
    with one_blas_thread():
        return np.linalg.qr(np.asarray(a, dtype=np.float64))


def _oracle_reinit(w):
    """matricize -> np.linalg.qr -> column signs of R's diagonal (0 as +1)
    -> cast to float32 -> back to w's shape."""
    q, r = _numpy_qr(matricize(w))
    q = (q * np.where(np.diag(r) < 0.0, -1.0, 1.0)).astype(np.float32)
    return (q.T if len(w) < w.size // len(w) else q).reshape(w.shape)


def _layer_cases():
    rng = np.random.default_rng(20)
    base = rng.normal(size=72)
    return {
        "k_lt_chw": rng.normal(size=(16, 8, 3, 3)).astype(np.float32),
        "k_gt_chw": rng.normal(size=(64, 3, 3, 3)).astype(np.float32),
        "square": rng.normal(size=(40, 40)),
        "blocked": rng.normal(size=(260, 150)).astype(np.float32),  # > 128 columns
        "near_duplicate": (base + 1e-7 * rng.normal(size=(100, 72))).astype(np.float32),
        "rank_deficient": np.tile(base[:27], (8, 1)).reshape(8, 3, 3, 3),
        "all_zero": np.zeros((12, 5), np.float32),
        "one_by_n": rng.normal(size=(1, 9)).astype(np.float32),
        "n_by_one": rng.normal(size=(9, 1)),
    }


@pytest.mark.parametrize("case", sorted(_layer_cases()))
def test_kernel_matches_numpy_qr_bytes(binding, case):
    w = _layer_cases()[case]
    mat = matricize(w)
    a = np.array(mat, dtype=np.float64, order="F")
    q, diag = qr_decompose(a)
    assert q is a  # factored in place
    q_ref, r_ref = _numpy_qr(mat)
    assert np.ascontiguousarray(q).tobytes() == np.ascontiguousarray(q_ref).tobytes()
    assert diag.tobytes() == np.diag(r_ref).tobytes()
    # the repair with no noise: the reinit alone, of w's float32 values
    w32 = w.astype(np.float32)
    out = through_file(w32, repair(0, beta=0.0))
    assert out.shape == w.shape and out.dtype == np.float32
    assert out.tobytes() == _oracle_reinit(w32).tobytes()


@pytest.mark.parametrize("shape", [(4608, 512), (1000, 999), (300, 7)])
def test_kernel_matches_numpy_qr_bytes_at_layer_sizes(binding, shape):
    # Blocked sizes at which OpenBLAS's threaded routines round Q
    # differently (4608 x 512 and 1000 x 999 on two threads): the kernel,
    # through either binding, and its reference both run on one.
    mat = np.random.default_rng(21).normal(size=shape)
    q, diag = qr_decompose(np.asfortranarray(mat))
    q_ref, r_ref = _numpy_qr(mat)
    assert np.ascontiguousarray(q).tobytes() == np.ascontiguousarray(q_ref).tobytes()
    assert diag.tobytes() == np.diag(r_ref).tobytes()
