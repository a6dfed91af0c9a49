"""Run the ghnpost CLI in this process with spans around its public functions.

    python3 e2ebench/tracer.py SPANS.json -- <ghnpost command line>

Each name in ``TARGETS`` is wrapped before the CLI starts.  Every module
of the package that holds the same function object under any name (a
``from .stats import channel_correlation`` alias, the package
re-exports) gets the wrapper too, so calls through an alias are seen.
A target that no longer exists is listed as absent instead of failing,
so the program can drop or rename internals without breaking the trace.

Spans are kept in memory and written to SPANS.json at exit: one record
per call with its parent span, start/end (perf_counter seconds), the rise
of ``ru_maxrss`` during the call, the work it was handed (see ``WORK``)
and, for per-tensor stages, the argument's shape.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import pkgutil
import resource
import sys
import time

# Public entry points of each module (plus the two CLI I/O helpers the
# read/write split needs).  Kernels behind them are deliberately not named,
# so they can be replaced without touching this list.
TARGETS = (
    "linalg.qr_decompose",
    "linalg.sign_adjust",
    "linalg.eigh_descending",
    "linalg.pca_project",
    "stats.channel_correlation",
    "stats.correlation_std",
    "stats.correlation_histogram",
    "rng.RngStream.normal",
    "checkpoint_io.read_checkpoint",
    "checkpoint_io.write_checkpoint",
    "checkpoint_io.validate_checkpoint",
    "cli._read_ckpt",
    "cli._write_atomic",
    "cli.run",
    "tensor_ops.matricize",
    "tensor_ops.dematricize",
    "postprocess.ghn_orth",
    "postprocess.add_conditional_noise",
    "postprocess.orthogonal_reinit",
    "postprocess.he_init",
    "report.analyze_checkpoint",
    "report.compare_checkpoints",
    "report.emit_histogram_svg",
    "report.parse_embeddings_csv",
)


def _qr_flop(args, result):
    m, n = args[0].shape
    # Householder R (2mn^2 - 2n^3/3) plus forming the thin Q (same again).
    return 4.0 * m * n * n - 4.0 * n**3 / 3.0


def _corr_flop(args, result):
    k = args[0].shape[0]
    return 2.0 * k * k * (math.prod(args[0].shape) // k)


def _buffer_bytes(args, result):
    return float(len(args[0]))


def _result_bytes(args, result):
    return float(len(result))


# Work each call was handed, computed from shapes and sizes, not measured.
WORK = {
    "linalg.qr_decompose": _qr_flop,
    "stats.channel_correlation": _corr_flop,
    "rng.RngStream.normal": lambda args, result: float(args[1]),
    "checkpoint_io.read_checkpoint": _buffer_bytes,
    "checkpoint_io.write_checkpoint": _result_bytes,
}
SHAPED = ("postprocess.add_conditional_noise", "postprocess.orthogonal_reinit")


class Recorder:
    def __init__(self):
        self.spans: list[dict] = []
        self.stack: list[int] = []

    def wrap(self, name: str, fn):
        work = WORK.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            span = {"name": name, "parent": self.stack[-1] if self.stack else -1}
            if name in SHAPED:
                span["shape"] = list(args[0].shape)
            self.spans.append(span)
            self.stack.append(index)
            rss0 = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                span["rss_growth_kb"] = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss - rss0)
                self.stack.pop()
            if work is not None:
                span["work"] = work(args, result)
            return result

        return traced


def _resolve(package, target: str):
    """(owner, attribute, object) for a dotted target, or None if absent."""
    *path, attr = target.split(".")
    try:
        owner = importlib.import_module(f"{package.__name__}.{path[0]}")
        for part in path[1:]:
            owner = getattr(owner, part)
        return owner, attr, getattr(owner, attr)
    except (ImportError, AttributeError):
        return None


def install(recorder: Recorder) -> list[str]:
    """Wrap every target and rebind its aliases; returns absent targets."""
    import ghnpost

    modules = [ghnpost] + [
        importlib.import_module(f"ghnpost.{info.name}")
        for info in pkgutil.iter_modules(ghnpost.__path__)
    ]
    absent = []
    for target in TARGETS:
        found = _resolve(ghnpost, target)
        if found is None:
            absent.append(target)
            continue
        owner, attr, original = found
        wrapper = recorder.wrap(target, original)
        setattr(owner, attr, wrapper)
        for module in modules:
            for alias, value in list(vars(module).items()):
                if value is original:
                    setattr(module, alias, wrapper)
    return absent


def main(argv: list[str]) -> int:
    spans_path, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: tracer.py SPANS.json -- <ghnpost args>")
    recorder = Recorder()
    absent = install(recorder)
    from ghnpost import cli

    try:
        return cli.main(cli_args)
    finally:
        with open(spans_path, "w", encoding="utf-8") as handle:
            json.dump({"absent": absent, "spans": recorder.spans}, handle)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
