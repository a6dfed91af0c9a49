"""What the analysis commands compute and print: per-layer correlation
reports (``analyze``), checkpoint diffs (``compare``), histogram SVGs and
2D PCA projection tables of embeddings (``pca``).

All emitters are pure text producers; floats are printed with 9
significant digits so identical inputs give identical files everywhere.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .checkpoint_io import ELIGIBLE_KINDS, CheckpointReader, TensorMeta, TensorRows
from .errors import DataFormatError, NumericalError, naming
from .linalg import pca_project
from .stats import CorrelationStats, correlation_stats, sigma_r
from .tensor_ops import geometry, largest_layer_buffer, release_tail, row_blocks, row_step


@dataclass
class LayerRecord:
    """One conv/linear tensor of ``analyze``: its header entry and the
    statistics of its channel correlations."""

    meta: TensorMeta
    stats: CorrelationStats


@dataclass
class EmbeddingSet:
    ids: list[str]
    vectors: np.ndarray  # n x d, float64
    labels: list[float] | None = None


@dataclass
class CompareRow:
    name: str
    max_abs_diff: float
    sigma_r_a: float
    sigma_r_b: float


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _csv(header: list[str], rows: Iterable[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def analyze_checkpoint(c: CheckpointReader, bins: int) -> list[LayerRecord]:
    """A :class:`LayerRecord` for every conv/linear tensor of the file
    ``c``, in file order, with its correlation statistics and a histogram
    of ``bins`` bins.

    Each one is read through :class:`~ghnpost.checkpoint_io.TensorRows`, a
    block of rows at a time, straight into the float64 channels of
    :func:`~ghnpost.stats.correlation_stats`, and other tensors are not
    read.  The channels of every layer go into one
    :func:`~ghnpost.tensor_ops.largest_layer_buffer`, mapped before the
    first layer is read, whose pages past the layer in flight are given
    back before each layer (:func:`~ghnpost.tensor_ops.release_tail`).
    So the run holds the float64 copy of the layer in flight, never a
    larger layer's pages beside that layer's fold panels, and no whole
    float32 array.  A collapsed layer, whose every correlation the spread
    certificate of :func:`~ghnpost.stats.correlation_stats` places in the
    top bin, has its histogram without counting; a tall one (K > CHW) is
    not folded at all (but for the rare exception given there), and gets
    ``compare``'s sigma_r, bit for bit, holding one ``128 x CHW`` panel in
    place of two ``128 x K`` ones.  A tensor holding NaN or Inf raises
    NumericalError naming it ("tensor holds NaN or Inf values"); one
    whose working memory cannot be allocated raises OutOfMemory naming
    it (the largest, for that buffer).
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    layers = [(i, meta) for i, meta in enumerate(c.metas) if meta.kind in ELIGIBLE_KINDS]
    work = largest_layer_buffer(meta for _, meta in layers)
    records = []
    for i, meta in layers:
        release_tail(work, math.prod(meta.shape))
        with naming(meta.name):
            records.append(LayerRecord(meta, correlation_stats(TensorRows(c, i), bins, work)))
    return records


def emit_report_csv(records: list[LayerRecord]) -> str:
    """The ``analyze`` CSV: a row per record, with K and CHW the sides of
    its tensor's K x CHW view."""
    return _csv(
        ["name", "kind", "depth", "K", "CHW", "sigma_r", "mean_abs_offdiag"],
        (
            [rec.meta.name, rec.meta.kind, rec.meta.depth, *geometry(rec.meta.shape)[:2],
             _fmt(rec.stats.sigma_r), _fmt(rec.stats.mean_abs)]
            for rec in records
        ),
    )


_SVG_WIDTH = 640
_SVG_HEIGHT = 360
_MARGIN_LEFT = 50
_MARGIN_RIGHT = 20
_MARGIN_TOP = 40
_MARGIN_BOTTOM = 40


def _escape(text: str) -> str:
    """``&``, ``<`` and ``>`` as XML entities, as ``xml.sax.saxutils.escape``
    gives them; that module pulls urllib, http, email and ssl into every
    command's start-up."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def emit_histogram_svg(counts: np.ndarray, title: str) -> str:
    """Standalone SVG bar chart of the ``counts`` of equal-width bins over
    [-1, 1], a correlation histogram."""
    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    baseline = _MARGIN_TOP + plot_h
    peak = max(1, int(max(counts, default=0)))

    def x_at(v: float) -> float:
        return _MARGIN_LEFT + (v + 1.0) / 2.0 * plot_w

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" '
        f'height="{_SVG_HEIGHT}" viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<text x="{_SVG_WIDTH / 2:.2f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">{_escape(title)}</text>',
    ]
    # x of each bin edge; the edges are np.histogram's for range=(-1, 1).
    xs = [x_at(float(edge)) for edge in np.linspace(-1.0, 1.0, len(counts) + 1)]
    for count, x0, x1 in zip(counts, xs, xs[1:]):
        bar_h = plot_h * (int(count) / peak)
        parts.append(
            f'<rect x="{x0:.2f}" y="{baseline - bar_h:.2f}" '
            f'width="{x1 - x0:.2f}" height="{bar_h:.2f}" '
            'fill="steelblue" stroke="white" stroke-width="0.5"/>'
        )
    parts.append(
        f'<line x1="{_MARGIN_LEFT}" y1="{baseline}" x2="{_SVG_WIDTH - _MARGIN_RIGHT}" '
        f'y2="{baseline}" stroke="black"/>'
    )
    for tick in (-1.0, 0.0, 1.0):
        x = x_at(tick)
        parts.append(
            f'<line x1="{x:.2f}" y1="{baseline}" x2="{x:.2f}" '
            f'y2="{baseline + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{baseline + 20}" text-anchor="middle" '
            f'font-family="sans-serif" font-size="12">{_fmt(tick)}</text>'
        )
    parts.append(
        f'<text x="{_MARGIN_LEFT - 8}" y="{_MARGIN_TOP + 4}" text-anchor="end" '
        f'font-family="sans-serif" font-size="12">{peak if max(counts, default=0) else 0}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# Embedding projection
# --------------------------------------------------------------------------

def parse_embeddings_csv(text: str) -> EmbeddingSet:
    """Parse the ``id,label,v0..v{d-1}`` embedding schema (label optional).

    Every field must be within csv's size limit, every id UTF-8 text (no
    lone surrogate) and every number finite; else DataFormatError names
    the row (``row n: ...``).
    """
    rows: list[list[str]] = []
    try:
        for row in csv.reader(io.StringIO(text)):
            rows.append(row)
    except csv.Error as exc:
        raise DataFormatError(f"row {len(rows) + 1}: {exc}") from exc
    if not rows:
        raise DataFormatError("row 1: missing header")
    header = rows[0]
    if not header or header[0] != "id":
        raise DataFormatError("row 1: first column must be 'id'")
    has_labels = len(header) > 1 and header[1] == "label"
    first_vec = 2 if has_labels else 1
    dim = len(header) - first_vec
    if dim < 1:
        raise DataFormatError("row 1: no vector columns v0..")
    expected = [f"v{i}" for i in range(dim)]
    if header[first_vec:] != expected:
        raise DataFormatError(
            f"row 1: vector columns must be {expected[0]}..{expected[-1]} in order"
        )
    ids: list[str] = []
    labels: list[float] = []
    vectors = np.zeros((len(rows) - 1, dim), dtype=np.float64)
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise DataFormatError(
                f"row {rownum}: {len(row)} fields, header has {len(header)}"
            )
        ids.append(row[0])
        try:
            row[0].encode("utf-8")  # the id is written back out
            values = [float(v) for v in row[1:]]
        except ValueError as exc:  # UnicodeEncodeError included
            raise DataFormatError(f"row {rownum}: {exc}") from exc
        if not all(map(math.isfinite, values)):
            raise DataFormatError(f"row {rownum}: values must be finite")
        if has_labels:
            labels.append(values[0])
        vectors[rownum - 2] = values[first_vec - 1 :]
    return EmbeddingSet(ids=ids, vectors=vectors, labels=labels if has_labels else None)


def project_embeddings(e: EmbeddingSet) -> np.ndarray:
    """PCA projection of embedding vectors onto the top two components:
    the n x 2 float64 array of each vector's pc1 and pc2, in ``e``'s
    order.  Fewer than 3 vectors, or of dimension under 2, raise
    NumericalError ("need at least 3 vectors")."""
    n, d = e.vectors.shape
    if n < 3 or d < 2:
        raise NumericalError(f"need at least 3 vectors of dimension >= 2, got {n} x {d}")
    return pca_project(e.vectors, k=2).projected


def emit_projection_csv(e: EmbeddingSet, projected: np.ndarray) -> str:
    """The ``pca`` CSV: a row per vector of ``e``, with its id, its
    ``projected`` pc1 and pc2 and its label (empty without labels)."""
    labels = [None] * len(e.ids) if e.labels is None else e.labels
    return _csv(
        ["id", "pc1", "pc2", "label"],
        (
            [vec_id, _fmt(pc1), _fmt(pc2), "" if label is None else _fmt(label)]
            for vec_id, (pc1, pc2), label in zip(e.ids, projected.tolist(), labels)
        ),
    )


# --------------------------------------------------------------------------
# Checkpoint comparison
# --------------------------------------------------------------------------

def compare_checkpoints(a: CheckpointReader, b: CheckpointReader) -> list[CompareRow]:
    """Per-layer diff of two structurally identical checkpoint files.

    The structure is checked from the metadata alone: a name in one file
    only, or a shape that differs, raises DataFormatError listing each
    (``only in``, ``shapes differ``).  Then each conv/linear tensor of
    ``a``, in file order, is matched with ``b``'s tensor of the same name
    and both are read through
    :class:`~ghnpost.checkpoint_io.TensorRows` (see :func:`_compare_layer`),
    and other tensors are not read.  Each sigma_r takes its float64
    channels in one :func:`~ghnpost.tensor_ops.largest_layer_buffer`,
    mapped once the structure is checked, whose pages past the layer in
    flight are given back before each layer, as in
    :func:`analyze_checkpoint`.  So the run holds the float64 copy of the
    layer in flight and a few row blocks.  An unmappable buffer raises
    OutOfMemory naming the largest layer.  sigma_r comes from
    :func:`~ghnpost.stats.sigma_r`: the
    value ``analyze`` prints where K <= CHW, bit for bit, and the CHW x CHW
    Gram's on tall layers (K > CHW), which ``analyze`` prints too where it
    certifies the layer collapsed, and is otherwise within
    2^-53 / (sigma_r sqrt(K)) relative of the value it prints.
    """
    a_shapes = {meta.name: meta.shape for meta in a.metas}
    b_shapes = {meta.name: meta.shape for meta in b.metas}
    problems = []
    for name in sorted(a_shapes.keys() - b_shapes.keys()):
        problems.append(f"{name!r} only in first checkpoint")
    for name in sorted(b_shapes.keys() - a_shapes.keys()):
        problems.append(f"{name!r} only in second checkpoint")
    for name in sorted(a_shapes.keys() & b_shapes.keys()):
        if a_shapes[name] != b_shapes[name]:
            problems.append(
                f"{name!r} shapes differ: {list(a_shapes[name])} vs {list(b_shapes[name])}"
            )
    if problems:
        raise DataFormatError("; ".join(problems))

    b_index = {meta.name: j for j, meta in enumerate(b.metas)}
    layers = [(i, meta) for i, meta in enumerate(a.metas) if meta.kind in ELIGIBLE_KINDS]
    work = largest_layer_buffer(meta for _, meta in layers)
    rows = []
    for i, meta in layers:
        release_tail(work, math.prod(meta.shape))
        with naming(meta.name):
            geometry(meta.shape)  # a rank it cannot take is the tensor's, not one file's
            pair = TensorRows(a, i), TensorRows(b, b_index[meta.name])
        rows.append(_compare_layer(meta.name, *pair, work))
    return rows


def _compare_layer(name: str, rows_a: TensorRows, rows_b: TensorRows,
                   work: np.ndarray | None) -> CompareRow:
    """The row of one conv/linear tensor: sigma_r of each file's tensor,
    one after the other, with its channels in ``work`` (as for
    :func:`~ghnpost.stats.sigma_r`), then max |a - b| from the same row
    blocks of both.  NaN or Inf in either raises NumericalError naming
    the tensor and the checkpoint ("tensor holds NaN or Inf values");
    memory that cannot be allocated, OutOfMemory naming the tensor."""
    sigmas = []
    for which, rows in (("first", rows_a), ("second", rows_b)):
        with naming(name, f" ({which} checkpoint)"):
            sigmas.append(sigma_r(rows, work))
    with naming(name):
        diff = _max_abs_diff(rows_a, rows_b)
    return CompareRow(name=name, max_abs_diff=diff, sigma_r_a=sigmas[0], sigma_r_b=sigmas[1])


def _max_abs_diff(a: TensorRows, b: TensorRows) -> float:
    """max |a - b| over two same-shaped row sources, a row block of each
    at a time through one float64 scratch.  float32 -> float64 is exact,
    so each difference is the same IEEE subtraction as on two float64
    copies, and the max of the block maxima is the max."""
    k, chw, _ = geometry(a.shape)
    scratch = np.empty((row_step(k, chw), chw))
    top = 0.0
    for (_, block_a), (_, block_b) in zip(row_blocks(a), row_blocks(b)):
        d = np.subtract(block_a, block_b, out=scratch[: len(block_a)], dtype=np.float64)
        top = max(top, float(np.max(np.abs(d, out=d))))
    return top


def emit_compare_csv(rows: list[CompareRow]) -> str:
    return _csv(
        ["name", "max_abs_diff", "sigma_r_a", "sigma_r_b"],
        ([row.name, _fmt(row.max_abs_diff), _fmt(row.sigma_r_a), _fmt(row.sigma_r_b)]
         for row in rows),
    )
