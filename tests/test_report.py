import csv
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ghnpost.errors import DataFormatError, NumericalError
from ghnpost.linalg import pca_project
from ghnpost.report import (
    CompareRow,
    EmbeddingSet,
    analyze_checkpoint,
    compare_checkpoints,
    emit_compare_csv,
    emit_histogram_svg,
    emit_projection_csv,
    emit_report_csv,
    parse_embeddings_csv,
)
from ghnpost.stats import correlation_stats, sigma_r
from ghnpost.tensor_ops import geometry

from conftest import (
    correlated_tensor,
    fold_sigma_r,
    ghn_like_tensor,
    make_checkpoint,
    reader_of,
    repair,
    through_file,
)


def test_analyze_identical_channels():
    w = np.tile(np.arange(12, dtype=np.float32), (6, 1))
    c = make_checkpoint([("w", (6, 12), "conv", 0, w)])
    reader = reader_of(c)
    records = analyze_checkpoint(reader, bins=10)
    assert len(reader.metas) == 1 and len(records) == 1
    rec = records[0]
    assert rec.stats.sigma_r == 0.0
    assert rec.stats.mean_abs == 1.0
    assert geometry(rec.meta.shape)[:2] == (6, 12)
    assert emit_report_csv(records).splitlines()[1] == "w,conv,0,6,12,0,1"


def test_analyze_skips_norm_and_bias():
    c = make_checkpoint(
        [
            ("bn", (8,), "norm", 0, np.ones(8, np.float32)),
            ("b", (8,), "bias", 0, np.zeros(8, np.float32)),
        ]
    )
    reader = reader_of(c)
    records = analyze_checkpoint(reader, bins=4)
    assert records == []
    assert len(reader.metas) == 2


def test_analyze_saxe_checkpoint_has_low_correlation():
    specs = []
    for i, shape in enumerate([(32, 16, 2, 2), (96, 64), (48, 8, 3, 3)]):
        kind = "conv" if len(shape) == 4 else "linear"
        specs.append((f"w{i}", shape, kind, i, np.zeros(shape, np.float32)))
    saxe = through_file(make_checkpoint(specs), init=("orth", 1.0, 1))
    records = analyze_checkpoint(reader_of(saxe), bins=10)
    for rec in records:
        if geometry(rec.meta.shape)[1] >= 64:
            assert rec.stats.mean_abs < 0.15


def test_analyze_error_names_tensor():
    c = make_checkpoint([("tiny", (1, 8), "conv", 0, np.ones((1, 8), np.float32))])
    with pytest.raises(NumericalError, match="^tensor 'tiny': need k >= 2 channels, got 1$"):
        analyze_checkpoint(reader_of(c), bins=4)


def test_report_csv_shape(small_checkpoint):
    records = analyze_checkpoint(reader_of(small_checkpoint), bins=8)
    text = emit_report_csv(records)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["name", "kind", "depth", "K", "CHW", "sigma_r", "mean_abs_offdiag"]
    assert len(rows) == 1 + len(records)
    assert emit_report_csv(records) == text  # deterministic
    # numeric fields parse back
    for row in rows[1:]:
        float(row[5]), float(row[6])
        assert 0.0 <= float(row[5]) <= 1.0


def test_report_csv_empty():
    c = make_checkpoint([])
    text = emit_report_csv(analyze_checkpoint(reader_of(c), bins=4))
    assert text == "name,kind,depth,K,CHW,sigma_r,mean_abs_offdiag\n"


def test_svg_well_formed():
    doc = emit_histogram_svg(np.array([3, 0, 1, 7]), "layer <0> & co")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == 1 + 3  # background + one per bin with a count
    # Each bar spans its bin between np.histogram's edges over [-1, 1],
    # mapped onto the 570-pixel plot that starts at x = 50.
    _, edges = np.histogram([], bins=4, range=(-1.0, 1.0))
    x = [50 + (e + 1.0) / 2.0 * 570 for e in edges]
    assert [(b.get("x"), b.get("width")) for b in rects[1:]] == [
        (f"{x[i]:.2f}", f"{x[i + 1] - x[i]:.2f}") for i in (0, 2, 3)]
    heights = [float(b.get("height")) for b in rects[1:]]
    assert heights == [pytest.approx(280 * c / 7, abs=0.005) for c in (3, 1, 7)]


def test_svg_zero_counts():
    doc = emit_histogram_svg(np.zeros(3, dtype=int), "empty")
    root = ET.fromstring(doc)
    assert [el for el in root.iter() if el.tag.endswith("rect")][1:] == []
    assert [el.text for el in root.iter() if el.tag.endswith("text")][-1] == "0"


def test_svg_equal_counts_equal_heights():
    h = np.array([1, 1])
    doc = emit_histogram_svg(h, "flat")
    bars = [el for el in ET.fromstring(doc).iter() if el.tag.endswith("rect")][1:]
    heights = {b.get("height") for b in bars}
    assert len(heights) == 1
    assert emit_histogram_svg(h, "flat") == doc


def _embedding_csv(n, d, labels=True, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["id," + ("label," if labels else "") + ",".join(f"v{i}" for i in range(d))]
    for i in range(n):
        vec = ",".join(f"{x:.6f}" for x in rng.normal(size=d))
        lines.append(f"arch{i}," + (f"{i / 10:.2f}," if labels else "") + vec)
    return "\n".join(lines) + "\n"


def test_parse_embeddings_with_labels():
    e = parse_embeddings_csv(_embedding_csv(5, 4))
    assert e.ids == [f"arch{i}" for i in range(5)]
    assert e.vectors.shape == (5, 4)
    assert e.labels == pytest.approx([0.0, 0.1, 0.2, 0.3, 0.4])


def test_parse_embeddings_without_labels():
    e = parse_embeddings_csv(_embedding_csv(4, 3, labels=False))
    assert e.labels is None
    assert e.vectors.shape == (4, 3)


# Each input and the words of the one rule it breaks.
_SCHEMA_ERRORS = {
    "": "^row 1: missing header$",
    "name,v0\nx,1\n": "^row 1: first column must be 'id'$",
    "id,v1,v0\nx,1,2\n": r"^row 1: vector columns must be v0\.\.v1 in order$",
    "id,label,v0\nx,not_a_number,1\n": "^row 2: could not convert string to float",
    "id,v0,v1\nx,1\n": "^row 2: 2 fields, header has 3$",
}


@pytest.mark.parametrize("text", list(_SCHEMA_ERRORS))
def test_parse_embeddings_schema_errors(text):
    with pytest.raises(DataFormatError, match=_SCHEMA_ERRORS[text]):
        parse_embeddings_csv(text)


@pytest.mark.parametrize("text", ["id,label\nx,1\n", "id\nx\n"])
def test_parse_embeddings_needs_a_vector_column(text):
    with pytest.raises(DataFormatError, match="^row 1: no vector columns v0..$"):
        parse_embeddings_csv(text)


def test_project_exact_plane():
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.normal(size=(32, 2)))[0].T
    coeffs = rng.normal(size=(50, 2)) * [4.0, 2.0]
    vectors = coeffs @ basis
    e = EmbeddingSet(ids=[str(i) for i in range(50)], vectors=vectors, labels=None)
    projected = pca_project(e.vectors)
    recon_var = np.var(projected[:, 0]) + np.var(projected[:, 1])
    total_var = np.var(vectors - vectors.mean(axis=0), axis=0).sum()
    assert total_var - recon_var <= 1e-9 * total_var


def test_project_too_few_vectors():
    e = EmbeddingSet(ids=["a", "b"], vectors=np.zeros((2, 8)), labels=None)
    with pytest.raises(NumericalError,
                       match="^need at least 3 vectors of dimension >= 2, got 2 x 8$"):
        pca_project(e.vectors)


def test_project_500_by_32():
    e = parse_embeddings_csv(_embedding_csv(500, 32, seed=2))
    projected = pca_project(e.vectors)
    assert projected.shape == (500, 2)
    text = emit_projection_csv(e, projected)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["id", "pc1", "pc2", "label"]
    assert len(parsed) == 501


def test_projection_csv_blank_label_when_absent():
    e = parse_embeddings_csv(_embedding_csv(4, 3, labels=False))
    text = emit_projection_csv(e, pca_project(e.vectors))
    row = next(csv.DictReader(io.StringIO(text)))
    assert row["label"] == ""


def test_compare_equal_checkpoints(small_checkpoint):
    rows = compare_checkpoints(reader_of(small_checkpoint), reader_of(small_checkpoint))
    assert len(rows) == 3  # conv, conv, linear
    assert all(r.max_abs_diff == 0.0 for r in rows)
    assert all(r.sigma_r_a == r.sigma_r_b for r in rows)


def test_compare_after_postprocess_reduces_sigma():
    # needs a fixture whose correlations have real spread: duplicated-channel
    # tensors correlate uniformly ~1 with near-zero sigma to begin with
    c = make_checkpoint(
        [("w", (32, 16, 3, 3), "conv", 0, correlated_tensor((32, 16, 3, 3), seed=5))]
    )
    out = through_file(c, repair(0, seed=3))
    rows = compare_checkpoints(reader_of(c), reader_of(out))
    assert rows[0].sigma_r_a > 0.05
    assert rows[0].sigma_r_b < rows[0].sigma_r_a
    assert rows[0].max_abs_diff > 0.0


def test_compare_structure_mismatch():
    a = make_checkpoint([("w", (4, 4), "conv", 0, np.zeros((4, 4), np.float32))])
    b = make_checkpoint([("w", (4, 2, 2), "conv", 0, np.zeros((4, 2, 2), np.float32))])
    with pytest.raises(DataFormatError, match=r"^'w' shapes differ: \[4, 4\] vs \[4, 2, 2\]$"):
        compare_checkpoints(reader_of(a), reader_of(b))
    c = make_checkpoint([("v", (4, 4), "conv", 0, np.zeros((4, 4), np.float32))])
    with pytest.raises(DataFormatError,
                       match="^'w' only in first checkpoint; 'v' only in second checkpoint$"):
        compare_checkpoints(reader_of(a), reader_of(c))


def test_compare_csv_round_trip(small_checkpoint):
    rows = compare_checkpoints(reader_of(small_checkpoint), reader_of(small_checkpoint))
    text = emit_compare_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["name", "max_abs_diff", "sigma_r_a", "sigma_r_b"]
    assert len(parsed) == 1 + len(rows)
    assert emit_compare_csv(rows) == text


def _compare_one_layer(shape, seed):
    a, b = correlated_tensor(shape, seed=seed), ghn_like_tensor(shape, seed=seed)
    files = [reader_of(make_checkpoint([("w", shape, "linear", 0, w)])) for w in (a, b)]
    (row,) = compare_checkpoints(*files)
    return row, a, b


@pytest.mark.parametrize("shape", [(2, 5), (16, 8, 3, 3), (64, 64), (130, 2, 8, 9)])
def test_compare_sigma_r_is_the_fold_bit_for_bit_up_to_k_equal_chw(shape):
    row, a, b = _compare_one_layer(shape, seed=61)
    assert row.sigma_r_a == correlation_stats(a, 1, np.empty(a.size)).sigma_r
    assert row.sigma_r_b == correlation_stats(b, 1, np.empty(b.size)).sigma_r


@pytest.mark.parametrize("shape", [(129, 128), (300, 3, 3, 3), (1024, 1, 7, 7), (2048, 512)])
def test_compare_sigma_r_of_tall_layers_is_near_the_fold(shape):
    # compare takes a tall layer's sigma_r from the CHW x CHW Gram.  The
    # GHN-like 129 x 128 (seed 1) differs most, 4.4e-11, and there the
    # Gram's value is the one nearer an extended-precision oracle.
    for seed in (1, 2):
        row, a, b = _compare_one_layer(shape, seed)
        for got, w in ((row.sigma_r_a, a), (row.sigma_r_b, b)):
            want = fold_sigma_r(w)
            assert abs(got - want) <= 1e-10 * want, (got, want)


def test_analyze_prints_compare_sigma_r_on_a_collapsed_tall_layer():
    # Every r of this layer is certified to lie in the top bin, so analyze
    # takes its sigma_r from compare's CHW x CHW route, and no fold.
    w = ghn_like_tensor((300, 3, 3, 3), seed=2)
    reader = reader_of(make_checkpoint([("w", w.shape, "conv", 0, w)]))
    records = analyze_checkpoint(reader, bins=50)
    rows = compare_checkpoints(reader, reader)
    assert records[0].stats.histogram[-1] == 300 * 299 // 2
    assert records[0].stats.sigma_r == rows[0].sigma_r_a
    (analyzed,) = csv.DictReader(io.StringIO(emit_report_csv(records)))
    (compared,) = csv.DictReader(io.StringIO(emit_compare_csv(rows)))
    assert analyzed["sigma_r"] == compared["sigma_r_a"]


# Read in row blocks of about 64K values (tensor_ops.row_step), the tall,
# wide, square, conv and dead-channel layers span several blocks with a
# short last one; the long rows take one row per block.
_SOURCE_LAYERS = {
    "tall": (3500, 20),
    "wide": (20, 5000),
    "square": (300, 300),
    "conv": (1000, 8, 3, 3),
    "dead_channel": (40, 2000),
    "k2": (2, 50),
    "long_rows": (2, 70000),
}


@pytest.mark.parametrize("layer", sorted(_SOURCE_LAYERS))
def test_file_source_gives_the_bits_of_the_array(layer):
    # A CheckpointReader streams the layer's rows from the file; it must
    # give the bits of the functions on the array itself.
    shape = _SOURCE_LAYERS[layer]
    a, b = correlated_tensor(shape, seed=71), ghn_like_tensor(shape, seed=71)
    if layer == "dead_channel":
        a[3] = 0.5
        b[37] = 0.0
    norm = np.ones(4, np.float32)  # read past, so the layer sits at an offset
    files = [reader_of(make_checkpoint([("bn", (4,), "norm", 0, norm),
                                        ("w", shape, "linear", 0, w)])) for w in (a, b)]

    want = correlation_stats(a, 50, np.empty(a.size))
    (rec,) = analyze_checkpoint(files[0], bins=50)
    assert (rec.stats.sigma_r, rec.stats.mean_abs) == (want.sigma_r, want.mean_abs)
    np.testing.assert_array_equal(rec.stats.histogram, want.histogram)
    diff = float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
    assert compare_checkpoints(*files) == [CompareRow("w", diff, sigma_r(a, np.empty(a.size)),
                                                     sigma_r(b, np.empty(b.size)))]
