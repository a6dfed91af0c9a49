"""What the analysis commands compute and print: per-layer correlation
reports (``analyze``), checkpoint diffs (``compare``), histogram SVGs, and
the embedding tables that ``pca`` reads and writes (the projection itself
is :func:`~ghnpost.linalg.pca_project`).

Each layer's histogram has the ``--bins`` bins that the command line
has checked, and an embedding table's labels are None where it has no
label column.  All emitters are pure text producers; floats are printed
with 9 significant digits so identical inputs give identical files
everywhere.
"""

from __future__ import annotations

import csv
import io
import math
from collections.abc import Iterable, Iterator

import numpy as np

from .checkpoint_io import ELIGIBLE_KINDS, CheckpointReader, TensorMeta, TensorRows
from .errors import DataFormatError, naming
from .stats import correlation_stats, sigma_r
from .tensor_ops import geometry, largest_layer_buffer, release_tail, row_blocks, row_step


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def _csv(header: list[str], rows: Iterable[list]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _layers(c: CheckpointReader) -> Iterator[tuple[int, TensorMeta, np.ndarray]]:
    """``(i, meta, work)`` for each conv/linear tensor i of the file
    ``c``, in file order, with ``work`` the run's one
    :func:`~ghnpost.tensor_ops.largest_layer_buffer`, mapped before the
    first layer is read (OutOfMemory naming the largest where it cannot
    be), whose pages past tensor i are given back before it is handed
    out (:func:`~ghnpost.tensor_ops.release_tail`).  So a run holds the
    float64 copy of the layer in flight, never a larger layer's pages
    beside that layer's working set."""
    layers = [(i, meta) for i, meta in enumerate(c.metas) if meta.kind in ELIGIBLE_KINDS]
    work = largest_layer_buffer(meta for _, meta in layers)
    for i, meta in layers:
        release_tail(work, math.prod(meta.shape))
        yield i, meta, work


def analyze_checkpoint(c: CheckpointReader, bins: int | None
                       ) -> Iterator[tuple[TensorMeta, float, float, np.ndarray | None]]:
    """``(meta, sigma_r, mean_abs, counts)`` for each conv/linear tensor
    of the file ``c``, in file order, made as it is asked for: its header
    entry, then the :func:`~ghnpost.stats.correlation_stats` of its
    channels, sigma_r, mean |r| and the counts of a histogram of ``bins``
    bins (1 to 2**20, as the command line checks them), or None where
    ``bins`` is None.  A caller that drops each layer's counts before
    asking for the next holds one layer's counts.

    Each one is read through :class:`~ghnpost.checkpoint_io.TensorRows`, a
    block of rows at a time, straight into the float64 channels of
    :func:`~ghnpost.stats.correlation_stats`, held in the run's one
    buffer (see :func:`_layers`), and other tensors are not read.  So
    the run holds no whole float32 array.  A collapsed tall layer
    (K > CHW), whose every correlation the spread certificate of
    :func:`~ghnpost.stats.correlation_stats` places in the top bin, has
    its histogram without counting and is not folded at all (but for the
    rare exception given there): it gets ``compare``'s sigma_r, bit for
    bit, holding one ``128 x CHW`` panel in place of two ``128 x K``
    ones.  A tensor holding NaN or Inf raises NumericalError
    naming it ("tensor holds NaN or Inf values"); one whose working
    memory cannot be allocated raises OutOfMemory naming it.
    """
    for i, meta, work in _layers(c):
        # Yielded unbound, so that this frame keeps no layer's counts while
        # the next is made; the caller's own errors are not raised in here.
        with naming(meta.name):
            yield meta, *correlation_stats(TensorRows(c, i), bins, work)


def emit_report_csv(rows: Iterable[tuple[TensorMeta, float, float]]) -> str:
    """The ``analyze`` CSV: a row per ``(meta, sigma_r, mean_abs)``, with K
    and CHW the sides of its tensor's K x CHW view."""
    return _csv(
        ["name", "kind", "depth", "K", "CHW", "sigma_r", "mean_abs_offdiag"],
        ([meta.name, meta.kind, meta.depth, *geometry(meta.shape)[:2], _fmt(sigma), _fmt(mean)]
         for meta, sigma, mean in rows),
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
    [-1, 1], a correlation histogram: one bar per bin that holds a count,
    so its size follows the data, not the number of bins."""
    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    baseline = _MARGIN_TOP + plot_h
    top = int(counts.max())
    peak = max(1, top)

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
    # The bin edges are np.histogram's for range=(-1, 1).
    edges = np.linspace(-1.0, 1.0, len(counts) + 1)
    for b in np.flatnonzero(counts).tolist():
        x0, x1 = x_at(float(edges[b])), x_at(float(edges[b + 1]))
        bar_h = plot_h * (int(counts[b]) / peak)
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
        f'font-family="sans-serif" font-size="12">{top}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# Embedding tables
# --------------------------------------------------------------------------

def parse_embeddings_csv(text: str) -> tuple[list[str], np.ndarray, list[float] | None]:
    """``(ids, vectors, labels)`` of the ``id,label,v0..v{d-1}`` embedding
    schema: each row's id, the n x d float64 array of its vectors, and
    each row's label, or None where the table has no label column.

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
    return ids, vectors, labels if has_labels else None


def emit_projection_csv(ids: list[str], labels: list[float] | None,
                        projected: np.ndarray) -> str:
    """The ``pca`` CSV: a row per id, with its ``projected`` pc1 and pc2
    (the n x 2 array of :func:`~ghnpost.linalg.pca_project`) and its
    label (empty where ``labels`` is None)."""
    labels = [None] * len(ids) if labels is None else labels
    return _csv(
        ["id", "pc1", "pc2", "label"],
        (
            [vec_id, _fmt(pc1), _fmt(pc2), "" if label is None else _fmt(label)]
            for vec_id, (pc1, pc2), label in zip(ids, projected.tolist(), labels)
        ),
    )


# --------------------------------------------------------------------------
# Checkpoint comparison
# --------------------------------------------------------------------------

def compare_checkpoints(a: CheckpointReader, b: CheckpointReader
                        ) -> Iterator[tuple[str, float, float, float]]:
    """``(name, max_abs_diff, sigma_r_a, sigma_r_b)`` for each conv/linear
    tensor of two structurally identical checkpoint files, in file order,
    made as it is asked for.

    The structure is checked from the metadata alone, before the first
    layer: a name in one file only, or a shape that differs, raises
    DataFormatError listing each (``only in``, ``shapes differ``).  Then
    each conv/linear tensor of ``a`` is matched with ``b``'s tensor of
    the same name and both are read through
    :class:`~ghnpost.checkpoint_io.TensorRows` (see :func:`_compare_layer`),
    and other tensors are not read.  Each sigma_r takes its float64
    channels in the run's one buffer, as in :func:`analyze_checkpoint`
    (see :func:`_layers`).  So the run holds the float64 copy of the
    layer in flight and a few row blocks.  sigma_r comes from
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
    for i, meta, work in _layers(a):
        with naming(meta.name):
            geometry(meta.shape)  # a rank it cannot take is the tensor's, not one file's
            pair = TensorRows(a, i), TensorRows(b, b_index[meta.name])
        yield _compare_layer(meta.name, *pair, work)


def _compare_layer(name: str, rows_a: TensorRows, rows_b: TensorRows,
                   work: np.ndarray) -> tuple[str, float, float, float]:
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
    return name, diff, *sigmas


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


def emit_compare_csv(rows: Iterable[tuple[str, float, float, float]]) -> str:
    """The ``compare`` CSV: a row per ``(name, max_abs_diff, sigma_r_a,
    sigma_r_b)``."""
    return _csv(
        ["name", "max_abs_diff", "sigma_r_a", "sigma_r_b"],
        ([name, *map(_fmt, values)] for name, *values in rows),
    )
