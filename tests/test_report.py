import csv
import io
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from ghnpost.checkpoint_io import Checkpoint, TensorMeta
from ghnpost.errors import DegenerateInput, SchemaError, StructureMismatch, TooFewChannels
from ghnpost.postprocess import PostprocessConfig, ghn_orth, saxe_orthogonal_init
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
    project_embeddings,
)
from ghnpost.rng import RngStream
from ghnpost.stats import Histogram, correlation_stats, sigma_r

from conftest import correlated_tensor, ghn_like_tensor, make_checkpoint, reader_of


def test_analyze_identical_channels():
    w = np.tile(np.arange(12, dtype=np.float32), (6, 1))
    c = make_checkpoint([("w", (6, 12), "conv", 0, w)])
    rep = analyze_checkpoint(reader_of(c), bins=10)
    assert rep.layer_count == 1 and rep.eligible_layer_count == 1
    rec = rep.records[0]
    assert rec.sigma_r == 0.0
    assert rec.mean_abs_offdiag == 1.0
    assert (rec.k, rec.chw) == (6, 12)


def test_analyze_skips_norm_and_bias():
    c = make_checkpoint(
        [
            ("bn", (8,), "norm", 0, np.ones(8, np.float32)),
            ("b", (8,), "bias", 0, np.zeros(8, np.float32)),
        ]
    )
    rep = analyze_checkpoint(reader_of(c), bins=4)
    assert rep.records == []
    assert rep.layer_count == 2
    assert rep.eligible_layer_count == 0


def test_analyze_saxe_checkpoint_has_low_correlation():
    specs = []
    for i, shape in enumerate([(32, 16, 2, 2), (96, 64), (48, 8, 3, 3)]):
        arr = saxe_orthogonal_init(shape, 1.0, RngStream(1, f"w{i}"))
        specs.append((f"w{i}", shape, "conv" if len(shape) == 4 else "linear", i, arr))
    rep = analyze_checkpoint(reader_of(make_checkpoint(specs)), bins=10)
    for rec in rep.records:
        if rec.chw >= 64:
            assert rec.mean_abs_offdiag < 0.15


def test_analyze_needs_a_bin(small_checkpoint):
    with pytest.raises(ValueError, match="bins must be >= 1"):
        analyze_checkpoint(reader_of(small_checkpoint), bins=0)


def test_analyze_error_names_tensor():
    c = make_checkpoint([("tiny", (1, 8), "conv", 0, np.ones((1, 8), np.float32))])
    with pytest.raises(TooFewChannels, match="tiny"):
        analyze_checkpoint(reader_of(c), bins=4)


def test_report_csv_shape(small_checkpoint):
    rep = analyze_checkpoint(reader_of(small_checkpoint), bins=8)
    text = emit_report_csv(rep)
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["name", "kind", "depth", "K", "CHW", "sigma_r", "mean_abs_offdiag"]
    assert len(rows) == 1 + rep.eligible_layer_count
    assert emit_report_csv(rep) == text  # deterministic
    # numeric fields parse back
    for row in rows[1:]:
        float(row[5]), float(row[6])
        assert 0.0 <= float(row[5]) <= 1.0


def test_report_csv_empty():
    c = make_checkpoint([])
    text = emit_report_csv(analyze_checkpoint(reader_of(c), bins=4))
    assert text == "name,kind,depth,K,CHW,sigma_r,mean_abs_offdiag\n"


def test_svg_well_formed():
    h = Histogram(bin_edges=np.linspace(-1, 1, 5), counts=np.array([3, 0, 1, 7]))
    doc = emit_histogram_svg(h, "layer <0> & co")
    root = ET.fromstring(doc)
    assert root.tag.endswith("svg")
    rects = [el for el in root.iter() if el.tag.endswith("rect")]
    assert len(rects) == 1 + 4  # background + one per bin


def test_svg_zero_counts():
    h = Histogram(bin_edges=np.linspace(-1, 1, 4), counts=np.zeros(3, dtype=int))
    doc = emit_histogram_svg(h, "empty")
    root = ET.fromstring(doc)
    bars = [el for el in root.iter() if el.tag.endswith("rect")][1:]
    assert all(float(b.get("height")) == 0.0 for b in bars)


def test_svg_equal_counts_equal_heights():
    h = Histogram(bin_edges=np.linspace(-1, 1, 3), counts=np.array([1, 1]))
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


@pytest.mark.parametrize(
    "text",
    [
        "",
        "name,v0\nx,1\n",
        "id,v1,v0\nx,1,2\n",
        "id,label,v0\nx,not_a_number,1\n",
        "id,v0,v1\nx,1\n",
    ],
)
def test_parse_embeddings_schema_errors(text):
    with pytest.raises(SchemaError):
        parse_embeddings_csv(text)


@pytest.mark.parametrize("text", ["id,label\nx,1\n", "id\nx\n"])
def test_parse_embeddings_needs_a_vector_column(text):
    with pytest.raises(SchemaError, match="^row 1: no vector columns v0..$"):
        parse_embeddings_csv(text)


def test_project_exact_plane():
    rng = np.random.default_rng(1)
    basis = np.linalg.qr(rng.normal(size=(32, 2)))[0].T
    coeffs = rng.normal(size=(50, 2)) * [4.0, 2.0]
    vectors = coeffs @ basis
    e = EmbeddingSet(ids=[str(i) for i in range(50)], vectors=vectors)
    rows = project_embeddings(e)
    recon_var = np.var([r.pc1 for r in rows]) + np.var([r.pc2 for r in rows])
    total_var = np.var(vectors - vectors.mean(axis=0), axis=0).sum()
    assert total_var - recon_var <= 1e-9 * total_var


def test_project_too_few_vectors():
    e = EmbeddingSet(ids=["a", "b"], vectors=np.zeros((2, 8)))
    with pytest.raises(DegenerateInput):
        project_embeddings(e)


def test_project_500_by_32():
    e = parse_embeddings_csv(_embedding_csv(500, 32, seed=2))
    rows = project_embeddings(e)
    assert len(rows) == 500
    text = emit_projection_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["id", "pc1", "pc2", "label"]
    assert len(parsed) == 501


def test_projection_csv_blank_label_when_absent():
    e = parse_embeddings_csv(_embedding_csv(4, 3, labels=False))
    text = emit_projection_csv(project_embeddings(e))
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
    out = ghn_orth(c, PostprocessConfig(start_layer=0, seed=3))
    rows = compare_checkpoints(reader_of(c), reader_of(out))
    assert rows[0].sigma_r_a > 0.05
    assert rows[0].sigma_r_b < rows[0].sigma_r_a
    assert rows[0].max_abs_diff > 0.0


def test_compare_structure_mismatch():
    a = make_checkpoint([("w", (4, 4), "conv", 0, np.zeros((4, 4), np.float32))])
    b = make_checkpoint([("w", (4, 2, 2), "conv", 0, np.zeros((4, 2, 2), np.float32))])
    with pytest.raises(StructureMismatch, match="shapes differ"):
        compare_checkpoints(reader_of(a), reader_of(b))
    c = make_checkpoint([("v", (4, 4), "conv", 0, np.zeros((4, 4), np.float32))])
    with pytest.raises(StructureMismatch, match="only in"):
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
    assert row.sigma_r_a == correlation_stats(a).sigma_r
    assert row.sigma_r_b == correlation_stats(b).sigma_r


@pytest.mark.parametrize("shape", [(129, 128), (300, 3, 3, 3), (1024, 1, 7, 7), (2048, 512)])
def test_compare_sigma_r_of_tall_layers_is_near_the_fold(shape):
    # compare takes a tall layer's sigma_r from the CHW x CHW Gram.  The
    # GHN-like 129 x 128 (seed 1) differs most, 4.4e-11, and there the
    # Gram's value is the one nearer an extended-precision oracle.
    for seed in (1, 2):
        row, a, b = _compare_one_layer(shape, seed)
        for got, w in ((row.sigma_r_a, a), (row.sigma_r_b, b)):
            want = correlation_stats(w).sigma_r
            assert abs(got - want) <= 1e-10 * want, (got, want)


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
    metas = [TensorMeta("bn", (4,), "norm", 0), TensorMeta("w", shape, "linear", 0)]
    files = [reader_of(Checkpoint(tensors=list(zip(metas, (norm, w))))) for w in (a, b)]

    want = correlation_stats(a, bins=50)
    (rec,) = analyze_checkpoint(files[0], bins=50).records
    assert (rec.sigma_r, rec.mean_abs_offdiag) == (want.sigma_r, want.mean_abs)
    np.testing.assert_array_equal(rec.histogram.counts, want.histogram.counts)
    diff = float(np.max(np.abs(a.astype(np.float64) - b.astype(np.float64))))
    assert compare_checkpoints(*files) == [CompareRow("w", diff, sigma_r(a), sigma_r(b))]
