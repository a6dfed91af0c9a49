"""Output checks: numpy oracles written here, independent of ``ghnpost``.

Each check returns a list of problems (empty when the output is right)
plus the figures it measured, so the runner can count a failing
invocation and report e.g. the worst orthogonality error.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from workloads import ELIGIBLE, Spec, decode_ckpt, is_broad

ORTH_TOL = 1e-4  # contract C1 on the stored float32 weights
NOISE_MULTIPLE = 8.0  # max |noise| over <= 2.4M draws of N(0, 1) stays far below 8


def matricize(w: np.ndarray) -> np.ndarray:
    """K x CHW float64 view, transposed when K < CHW (the paper's layout)."""
    m = w.reshape(w.shape[0], -1).astype(np.float64)
    return m.T if m.shape[0] < m.shape[1] else m


def orth_error(w: np.ndarray) -> float:
    m = matricize(w)
    return float(np.abs(m.T @ m - np.eye(m.shape[1])).max())


def _unit_rows(w: np.ndarray) -> np.ndarray:
    """Centred unit-norm channel rows; assumes no constant channel."""
    x = w.reshape(w.shape[0], -1).astype(np.float64)
    x -= x.mean(axis=1, keepdims=True)
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    return x


def corr_moments(w: np.ndarray) -> tuple[float, float]:
    """Mean and mean square of the off-diagonal channel correlations.

    Uses sum_kl r_kl = |sum_k u_k|^2 and sum_kl r_kl^2 = |U^T U|_F^2 for
    the unit rows U, so the Gram matrix is built on the smaller side of
    the K x CHW matrix.
    """
    x = _unit_rows(w)
    k = x.shape[0]
    gram = x @ x.T if k <= x.shape[1] else x.T @ x
    pairs = k * (k - 1)
    mean = (float(np.square(x.sum(axis=0)).sum()) - k) / pairs
    mean_sq = (float(np.square(gram).sum()) - k) / pairs
    return mean, mean_sq


def mean_abs_corr(w: np.ndarray) -> float:
    """Mean |off-diagonal correlation| from the full K x K matrix."""
    x = _unit_rows(w)
    k = x.shape[0]
    return (float(np.abs(x @ x.T).sum()) - k) / (k * (k - 1))


def correlation_std(w: np.ndarray) -> float:
    """Std of the off-diagonal channel correlations, without the K x K matrix.

    Split the unit rows as u_k = ubar + d_k, so sum_k d_k = 0.  With
    b_k = ubar . d_k and c = sum_k |d_k|^2 / n (n = K(K-1) pairs), each
    off-diagonal r_kl - mean equals b_k + b_l + (D D^T)_kl + c.  Summed
    over all pairs the cross terms vanish (they carry sum_k d_k), leaving
    sums of small squares only; subtracting near-equal O(1) sums instead
    loses every digit when the channels are near-duplicates.
    """
    u = _unit_rows(w)
    k = u.shape[0]
    pairs = k * (k - 1)
    ubar = u.mean(axis=0)
    d = u - ubar
    b = d @ ubar
    dd = np.einsum("ij,ij->i", d, d)
    c = dd.sum() / pairs
    gram = d @ d.T if k <= d.shape[1] else d.T @ d
    every = 2 * k * float(b @ b) + float(np.square(gram).sum()) + (k * c) ** 2
    diagonal = float(np.square(2 * b + dd + c).sum())
    return math.sqrt(max(every - diagonal, 0.0) / pairs)


def _same_layout(specs_in: list[Spec], specs_out: list[Spec]) -> list[str]:
    if specs_in != specs_out:
        return ["output tensor table differs from the input's"]
    return []


def _common(specs_in, arrs_in, specs_out, arrs_out, start_layer: int):
    """Layout, finiteness and bit-identity of non-eligible tensors."""
    problems = _same_layout(specs_in, specs_out)
    if problems:
        return problems
    for spec, a, b in zip(specs_in, arrs_in, arrs_out):
        if not np.isfinite(b).all():
            problems.append(f"{spec.name}: non-finite output")
        eligible = spec.kind in ELIGIBLE and spec.depth >= start_layer
        if not eligible and a.tobytes() != b.tobytes():
            problems.append(f"{spec.name}: non-eligible tensor changed")
    return problems


def check_repair(inp: bytes, out: bytes) -> tuple[list[str], dict]:
    """postprocess --start-layer 0: C1 orthogonality and C2 decorrelation."""
    specs_in, arrs_in = decode_ckpt(inp)
    specs_out, arrs_out = decode_ckpt(out)
    problems = _common(specs_in, arrs_in, specs_out, arrs_out, 0)
    if specs_in != specs_out:
        return problems, {}
    worst = 0.0
    eligible = [(s, a, b) for s, a, b in zip(specs_in, arrs_in, arrs_out) if s.kind in ELIGIBLE]
    for i, (spec, a, b) in enumerate(eligible):
        err = orth_error(b)
        worst = max(worst, err)
        if not err <= ORTH_TOL:
            problems.append(f"{spec.name}: max |Q^T Q - I| = {err:.3g} > {ORTH_TOL}")
        if is_broad(i):
            continue
        # C2 on mean |r|: mean r bounds it from below and rms r from
        # above, both cheap; the full K x K matrix only when rms is too loose.
        before = corr_moments(a)[0]
        after = math.sqrt(corr_moments(b)[1])
        if after >= 0.1:
            after = mean_abs_corr(b)
        if not (before > 0.9 and after < 0.1):
            problems.append(f"{spec.name}: mean |corr| {before:.3f} -> {after:.3f}, "
                            "want > 0.9 -> < 0.1")
    return problems, {"orth_err_max": worst}


def check_noise(inp: bytes, out: bytes, beta: float) -> tuple[list[str], dict]:
    """postprocess --skip-orth: |dw| <= 8 beta sigma_r + 1 ulp per element."""
    specs_in, arrs_in = decode_ckpt(inp)
    specs_out, arrs_out = decode_ckpt(out)
    problems = _common(specs_in, arrs_in, specs_out, arrs_out, 0)
    if specs_in != specs_out:
        return problems, {}
    changed_broad = 0
    eligible = [(s, a, b) for s, a, b in zip(specs_in, arrs_in, arrs_out) if s.kind in ELIGIBLE]
    for i, (spec, a, b) in enumerate(eligible):
        std = beta * correlation_std(a)
        delta = np.abs(b.astype(np.float64) - a)
        ulp = np.spacing(np.maximum(np.abs(a), np.abs(b))).astype(np.float64)
        excess = float((delta - (NOISE_MULTIPLE * std + ulp)).max())
        if excess > 0.0:
            problems.append(f"{spec.name}: |dw| exceeds {NOISE_MULTIPLE} x {std:.3g} + ulp")
        if is_broad(i):
            if float(delta.max()) >= std > 0.0:
                changed_broad += 1
            else:
                problems.append(f"{spec.name}: broad-spread layer barely changed "
                                f"(max |dw| {float(delta.max()):.3g}, noise std {std:.3g})")
    return problems, {"broad_layers_changed": changed_broad}


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _all_finite(rows: list[dict], keys) -> bool:
    return all(math.isfinite(float(row[k])) for row in rows for k in keys)


def check_init(specs: list[Spec], out: bytes) -> tuple[list[str], dict]:
    """init --method rand: He std per conv/linear, ones for norm, zeros else."""
    specs_out, arrs = decode_ckpt(out)
    problems = _same_layout(specs, specs_out)
    for spec, a in zip(specs_out, arrs):
        if not np.isfinite(a).all():
            problems.append(f"{spec.name}: non-finite output")
        elif spec.kind in ELIGIBLE:
            want = math.sqrt(2.0 / (spec.size // spec.shape[0]))
            got = float(a.astype(np.float64).std())
            if abs(got / want - 1.0) > 0.05:
                problems.append(f"{spec.name}: std {got:.4g}, He std {want:.4g}")
        elif spec.kind == "norm":
            if not (a == 1.0).all():
                problems.append(f"{spec.name}: norm weights are not ones")
        elif a.any():
            problems.append(f"{spec.name}: {spec.kind} tensor is not zeros")
    return problems, {}


def check_analyze(specs: list[Spec], csv_text: str, svg_names: list[str]) -> tuple[list[str], dict]:
    eligible = sum(s.kind in ELIGIBLE for s in specs)
    rows = _rows(csv_text)
    problems = []
    if len(rows) != eligible:
        problems.append(f"analyze: {len(rows)} CSV rows, want {eligible}")
    if len(svg_names) != eligible:
        problems.append(f"analyze: {len(svg_names)} SVG files, want {eligible}")
    if not _all_finite(rows, ("sigma_r", "mean_abs_offdiag")):
        problems.append("analyze: non-finite statistic")
    return problems, {}


def check_compare(a: bytes, b: bytes, csv_text: str) -> tuple[list[str], dict]:
    """Row count, finiteness, and max |a - b| against a direct diff."""
    specs, arrs_a = decode_ckpt(a)
    _, arrs_b = decode_ckpt(b)
    want = {s.name: float(np.abs(x.astype(np.float64) - y).max())
            for s, x, y in zip(specs, arrs_a, arrs_b) if s.kind in ELIGIBLE}
    rows = _rows(csv_text)
    problems = []
    if [r["name"] for r in rows] != list(want):
        problems.append("compare: rows do not list the conv/linear tensors in order")
    elif not _all_finite(rows, ("max_abs_diff", "sigma_r_a", "sigma_r_b")):
        problems.append("compare: non-finite value")
    else:
        for r in rows:
            if not math.isclose(float(r["max_abs_diff"]), want[r["name"]], rel_tol=1e-7):
                problems.append(f"compare: {r['name']} max_abs_diff {r['max_abs_diff']}, "
                                f"want {want[r['name']]:.9g}")
    return problems, {}


def check_pca(x: np.ndarray, csv_text: str) -> tuple[list[str], dict]:
    """Explained variances and projections against an eigvalsh/eigh oracle."""
    rows = _rows(csv_text)
    if len(rows) != len(x):
        return [f"pca: {len(rows)} rows, want {len(x)}"], {}
    proj = np.array([[float(r["pc1"]), float(r["pc2"])] for r in rows])
    xc = x - x.mean(axis=0)
    cov = xc.T @ xc / (len(x) - 1)
    want_var = np.linalg.eigvalsh(cov)[::-1][:2]
    got_var = proj.var(axis=0, ddof=1)
    problems = []
    if not np.allclose(got_var, want_var, rtol=1e-6, atol=0.0):
        problems.append(f"pca: explained variance {got_var}, oracle {want_var}")
    vecs = np.linalg.eigh(cov)[1][:, ::-1][:, :2]
    vecs *= np.sign(vecs[np.abs(vecs).argmax(axis=0), [0, 1]])
    scale = float(np.abs(xc @ vecs).max())
    if not np.allclose(proj, xc @ vecs, rtol=0.0, atol=1e-6 * scale):
        problems.append("pca: projections differ from the oracle's")
    return problems, {}
