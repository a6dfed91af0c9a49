"""Analysis outputs: per-layer correlation reports, checkpoint diffs,
histogram SVGs and 2D PCA projection tables.

All emitters are pure text producers; floats are printed with 9
significant digits so identical inputs give identical files everywhere.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Iterable
from dataclasses import dataclass

import numpy as np

from .checkpoint_io import ELIGIBLE_KINDS, Checkpoint, CheckpointReader, TensorMeta
from .errors import DegenerateInput, SchemaError, StructureMismatch, naming
from .linalg import pca_project
from .stats import Histogram, correlation_stats
from .tensor_ops import geometry


@dataclass
class LayerRecord:
    name: str
    kind: str
    depth: int
    k: int
    chw: int
    sigma_r: float
    mean_abs_offdiag: float
    histogram: Histogram


@dataclass
class AnalysisReport:
    records: list[LayerRecord]
    layer_count: int
    eligible_layer_count: int


@dataclass
class EmbeddingSet:
    ids: list[str]
    vectors: np.ndarray  # n x d, float64
    labels: list[float] | None = None


@dataclass
class ProjectionRow:
    id: str
    pc1: float
    pc2: float
    label: float | None


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


def analyze_checkpoint(
    c: Iterable[tuple[TensorMeta, np.ndarray]], bins: int
) -> AnalysisReport:
    """Correlation statistics for every conv/linear tensor, in file order.

    ``c`` is a Checkpoint or a CheckpointReader: any stream of (meta,
    array) pairs, visited once.  A tensor holding NaN or Inf raises
    NonFiniteTensor naming it; one whose working memory cannot be
    allocated raises OutOfMemory naming it.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    records = []
    layer_count = 0
    for meta, arr in c:
        layer_count += 1
        if meta.kind not in ELIGIBLE_KINDS:
            continue
        with naming(meta.name):
            k, chw, _ = geometry(arr.shape)
            stats = correlation_stats(arr, bins)
        records.append(LayerRecord(
            name=meta.name,
            kind=meta.kind,
            depth=meta.depth,
            k=k,
            chw=chw,
            sigma_r=stats.sigma_r,
            mean_abs_offdiag=stats.mean_abs,
            histogram=stats.histogram,
        ))
    return AnalysisReport(
        records=records,
        layer_count=layer_count,
        eligible_layer_count=len(records),
    )


def emit_report_csv(r: AnalysisReport) -> str:
    return _csv(
        ["name", "kind", "depth", "K", "CHW", "sigma_r", "mean_abs_offdiag"],
        (
            [rec.name, rec.kind, rec.depth, rec.k, rec.chw, _fmt(rec.sigma_r),
             _fmt(rec.mean_abs_offdiag)]
            for rec in r.records
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


def emit_histogram_svg(h: Histogram, title: str) -> str:
    """Standalone SVG bar chart of a correlation histogram over [-1, 1]."""
    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM
    baseline = _MARGIN_TOP + plot_h
    peak = max(1, int(max(h.counts, default=0)))

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
    for i, count in enumerate(h.counts):
        x0 = x_at(float(h.bin_edges[i]))
        x1 = x_at(float(h.bin_edges[i + 1]))
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
        f'font-family="sans-serif" font-size="12">{peak if max(h.counts, default=0) else 0}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# --------------------------------------------------------------------------
# Embedding projection
# --------------------------------------------------------------------------

def parse_embeddings_csv(text: str) -> EmbeddingSet:
    """Parse the ``id,label,v0..v{d-1}`` embedding schema (label optional)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows:
        raise SchemaError("row 1: missing header")
    header = rows[0]
    if not header or header[0] != "id":
        raise SchemaError("row 1: first column must be 'id'")
    has_labels = len(header) > 1 and header[1] == "label"
    first_vec = 2 if has_labels else 1
    dim = len(header) - first_vec
    if dim < 1:
        raise SchemaError("row 1: no vector columns v0..")
    expected = [f"v{i}" for i in range(dim)]
    if header[first_vec:] != expected:
        raise SchemaError(
            f"row 1: vector columns must be {expected[0]}..{expected[-1]} in order"
        )
    ids: list[str] = []
    labels: list[float] = []
    vectors = np.zeros((len(rows) - 1, dim), dtype=np.float64)
    for rownum, row in enumerate(rows[1:], start=2):
        if len(row) != len(header):
            raise SchemaError(
                f"row {rownum}: {len(row)} fields, header has {len(header)}"
            )
        ids.append(row[0])
        try:
            if has_labels:
                labels.append(float(row[1]))
            vectors[rownum - 2] = [float(v) for v in row[first_vec:]]
        except ValueError as exc:
            raise SchemaError(f"row {rownum}: {exc}") from exc
    return EmbeddingSet(ids=ids, vectors=vectors, labels=labels if has_labels else None)


def project_embeddings(e: EmbeddingSet) -> list[ProjectionRow]:
    """PCA projection of embedding vectors onto the top two components."""
    n, d = e.vectors.shape
    if n < 3 or d < 2:
        raise DegenerateInput(f"need at least 3 vectors of dimension >= 2, got {n} x {d}")
    result = pca_project(e.vectors, k=2)
    rows = []
    for i, vec_id in enumerate(e.ids):
        rows.append(
            ProjectionRow(
                id=vec_id,
                pc1=float(result.projected[i, 0]),
                pc2=float(result.projected[i, 1]),
                label=None if e.labels is None else e.labels[i],
            )
        )
    return rows


def emit_projection_csv(rows: list[ProjectionRow]) -> str:
    return _csv(
        ["id", "pc1", "pc2", "label"],
        (
            [row.id, _fmt(row.pc1), _fmt(row.pc2), "" if row.label is None else _fmt(row.label)]
            for row in rows
        ),
    )


# --------------------------------------------------------------------------
# Checkpoint comparison
# --------------------------------------------------------------------------

# Values per step of compare's max |a - b|: 512 KiB of float64.
_DIFF_CHUNK = 1 << 16


def compare_checkpoints(
    a: Checkpoint | CheckpointReader, b: Checkpoint | CheckpointReader
) -> list[CompareRow]:
    """Per-layer diff of two structurally identical checkpoints.

    The structure is checked from the metadata alone; then the tensors of
    ``a`` are visited in file order and each is matched with ``b``'s tensor
    of the same name, so a pair of readers holds two tensors at a time.
    A conv/linear tensor holding NaN or Inf in either checkpoint raises
    NonFiniteTensor naming it (see :func:`_compare_layer`).
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
        raise StructureMismatch("; ".join(problems))

    rows = []
    for meta, arr_a in a:
        if meta.kind in ELIGIBLE_KINDS:
            rows.append(_compare_layer(meta.name, arr_a, b.get(meta.name)[1]))
        # Released before the next tensor is read: one layer at a time.
        del arr_a
    return rows


def _compare_layer(name: str, arr_a: np.ndarray, arr_b: np.ndarray) -> CompareRow:
    """The row of one conv/linear tensor; NaN or Inf in either array
    raises NonFiniteTensor, and memory that cannot be allocated
    OutOfMemory, naming the tensor and the checkpoint."""
    sigmas = []
    for which, arr in (("first", arr_a), ("second", arr_b)):
        with naming(name, f" ({which} checkpoint)"):
            sigmas.append(correlation_stats(arr).sigma_r)
    return CompareRow(
        name=name,
        max_abs_diff=_max_abs_diff(arr_a, arr_b),
        sigma_r_a=sigmas[0],
        sigma_r_b=sigmas[1],
    )


def _max_abs_diff(a: np.ndarray, b: np.ndarray) -> float:
    """max |a - b| over two same-shaped arrays, _DIFF_CHUNK values at a
    time through one float64 scratch.  float32 -> float64 is exact, so
    each difference is the same IEEE subtraction as on two float64
    copies, and the max of the chunk maxima is the max."""
    a, b = a.reshape(-1), b.reshape(-1)
    scratch = np.empty(min(a.size, _DIFF_CHUNK))
    top = 0.0
    for start in range(0, a.size, _DIFF_CHUNK):
        stop = min(start + _DIFF_CHUNK, a.size)
        d = np.subtract(a[start:stop], b[start:stop], out=scratch[: stop - start],
                        dtype=np.float64)
        top = max(top, float(np.max(np.abs(d, out=d))))
    return top


def emit_compare_csv(rows: list[CompareRow]) -> str:
    return _csv(
        ["name", "max_abs_diff", "sigma_r_a", "sigma_r_b"],
        ([row.name, _fmt(row.max_abs_diff), _fmt(row.sigma_r_a), _fmt(row.sigma_r_b)]
         for row in rows),
    )
