"""Command-line front-end: the parser, one function per command, and the
exit codes and atomic output files described in README "CLI".  How each
command streams its checkpoints, and what it holds in memory, is in
README "Memory".

Input checkpoints are opened unbuffered, so a file cut after its header
was checked raises DataFormatError ("the file shrank while it was read",
exit 2) instead of yielding buffered old bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import re
import signal
import sys
import threading
from collections.abc import Callable, Iterable, Iterator
from pathlib import Path
from typing import BinaryIO

from .checkpoint_io import ELIGIBLE_KINDS, CheckpointReader, parse_tensor_specs, positional_writer
from .errors import DataFormatError, NumericalError
from .linalg import pca_project
from .postprocess import DEFAULT_BETA, ghn_orth_tensors, init_tensors
from .report import (
    analyze_checkpoint,
    compare_checkpoints,
    emit_compare_csv,
    emit_histogram_svg,
    emit_projection_csv,
    emit_report_csv,
    parse_embeddings_csv,
)

_DEFAULT_BINS = 50
_DEFAULT_GAIN = 1.0


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    data errors, so force usage failures to exit 1.  A flag that the rest
    of the command line leaves without effect is a usage error too:
    ``moot`` maps the parsed arguments to its message, or to None."""

    moot: Callable | None = None

    def parse_known_args(self, args=None, namespace=None):
        namespace, extras = super().parse_known_args(args, namespace)
        if self.moot and (message := self.moot(namespace)):
            self.error(message)
        return namespace, extras

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _number(name: str, cast: type, ok: Callable, message: str) -> Callable[[str], float]:
    """An argparse type: ``cast`` the text, and reject a value failing ``ok``
    with ``message``.  argparse names the type by ``name`` when ``cast``
    rejects the text."""

    def parse(text: str):
        value = cast(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(message)
        return value

    parse.__name__ = name
    return parse


_nonneg_int = _number("_nonneg_int", int, lambda v: v >= 0, "must be non-negative")
# 1 to 2**20 histogram bins: the most the bin counter is tested with (its
# rounding needs fewer than 2**38).  analyze --svg-dir keeps 8 bytes a bin
# of the layer in flight, and an SVG draws a bar of ~108 bytes for each
# bin with a count.
_bins = _number("_bins", int, lambda v: 1 <= v <= 2**20, "must be between 1 and 1048576")
_seed = _number("_seed", int, lambda v: 0 <= v < 2**64, "must fit in an unsigned 64-bit integer")
_nonneg_float = _number("_nonneg_float", float, lambda v: math.isfinite(v) and v >= 0,
                        "must be finite and non-negative")
_pos_float = _number("_pos_float", float, lambda v: math.isfinite(v) and v > 0,
                     "must be finite and positive")


def build_parser() -> _Parser:
    parser = _Parser(
        prog="ghnpost",
        description="Analyze and post-process neural-network parameter checkpoints.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("analyze", help="per-layer channel-correlation report")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("--out", type=Path, required=True, help="output CSV path")
    p.add_argument("--svg-dir", type=Path, help="write one histogram SVG per layer")
    p.add_argument("--bins", type=_bins,
                   help=f"histogram bins of each SVG (default {_DEFAULT_BINS})")
    p.moot = lambda a: ("argument --bins: applies to --svg-dir only"
                        if a.bins is not None and a.svg_dir is None else None)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("postprocess", help="noise + orthogonal re-initialization")
    p.add_argument("checkpoint", type=Path)
    p.add_argument("--beta", type=_nonneg_float,
                   help=f"noise scaling factor (default {DEFAULT_BETA})")
    p.add_argument("--start-layer", type=_nonneg_int, required=True,
                   help="depth from which post-processing applies")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=Path, required=True, help="output checkpoint path")
    ablation = p.add_mutually_exclusive_group()
    ablation.add_argument("--skip-noise", action="store_true",
                          help="ablation: orthogonal re-initialization only (--beta 0)")
    ablation.add_argument("--skip-orth", action="store_true",
                          help="ablation: noise addition only")
    p.moot = lambda a: ("argument --beta: not allowed with --skip-noise, which sets beta to 0"
                        if a.skip_noise and a.beta is not None else
                        "argument --skip-orth: not allowed with --beta 0, which adds no noise"
                        if a.skip_orth and a.beta == 0.0 else None)
    p.set_defaults(func=_cmd_postprocess)

    p = sub.add_parser("init", help="generate a baseline-initialized checkpoint")
    p.add_argument("archspec", type=Path,
                   help="JSON list of {name, shape, kind, depth}")
    p.add_argument("--method", choices=("rand", "orth"), required=True)
    p.add_argument("--gain", type=_pos_float,
                   help=f"scale for --method orth (default {_DEFAULT_GAIN})")
    p.add_argument("--seed", type=_seed, default=0)
    p.add_argument("--out", type=Path, required=True)
    p.moot = lambda a: ("argument --gain: applies to --method orth only"
                        if a.method != "orth" and a.gain is not None else None)
    p.set_defaults(func=_cmd_init)

    p = sub.add_parser("pca", help="2D PCA projection of embedding vectors")
    p.add_argument("embeddings", type=Path, help="CSV with columns id[,label],v0..")
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_pca)

    p = sub.add_parser("compare", help="per-layer diff of two checkpoints")
    p.add_argument("checkpoint_a", type=Path)
    p.add_argument("checkpoint_b", type=Path)
    p.add_argument("--out", type=Path, required=True)
    p.set_defaults(func=_cmd_compare)

    return parser


@contextlib.contextmanager
def _write_atomic(path: Path) -> Iterator[BinaryIO]:
    """Yield a binary handle on a temporary file beside ``path``.

    The file is renamed to ``path`` when the block completes; when it
    raises, the file and the directories made for it are removed, so a
    failing run leaves no output behind.
    """
    directory = path.parent if str(path.parent) else Path(".")
    # The directories to make, outermost first, then the temporary file.
    created = [d for d in (*reversed(directory.parents), directory) if not d.exists()]
    # The temporary name adds 14 bytes to the output's: an output name of
    # 242 to 255 bytes is cut to 241 or less, at the start of a UTF-8
    # character, so that it fits in a file name's 255.  A name too long
    # for any file is kept whole, so that making the temporary file fails
    # before the command writes anything.
    name = os.fsencode(path.name)
    cut = 255 - 14 if len(name) <= 255 else len(name)
    while cut < len(name) and name[cut] & 0xC0 == 0x80:
        cut -= 1
    try:
        directory.mkdir(parents=True, exist_ok=True)
        tmp = directory / f".{os.fsdecode(name[:cut])}.{os.urandom(4).hex()}.tmp"
        # Listed before it exists, so that an interrupt at any point removes
        # it; created with the mode a new file gets under the umask.
        created.append(tmp)
        try:
            fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        except FileExistsError:
            created.pop()  # another run's file, not this one's to remove
            raise
        with open(fd, "wb") as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        _remove(created)
        raise


def _remove(created: list[Path]) -> None:
    """Remove the files and directories a failing run created, last first;
    a directory only if it is empty."""
    for path in reversed(created):
        with contextlib.suppress(OSError):
            path.rmdir() if path.is_dir() else path.unlink()


def _write_texts(files: Iterable[tuple[Path, str]]) -> None:
    """Write each ``(path, text)`` of ``files`` as UTF-8 through
    :func:`_write_atomic`, taking the next only once the last is written
    and dropped, so a generator's texts are held one at a time.  The
    files are renamed into place only once every one is written, the last
    first, so a run that fails before then leaves no new file behind and
    replaces none."""
    with contextlib.ExitStack() as renames:
        for path, text in files:
            with renames.enter_context(_write_atomic(path)) as handle:
                handle.write(text.encode("utf-8"))
            del text


_UNSAFE = re.compile(r"[^A-Za-z0-9._-]")

# Longest SVG name before ".svg", whose characters are all ASCII: a file
# name holds 255 bytes, and this leaves 14 of them free, the length that
# _write_atomic's temporary name adds, so every SVG's temporary name keeps
# the whole SVG name.
_SVG_STEM_MAX = 255 - 14 - 4


def _cmd_analyze(args) -> int:
    def files(layers):
        # Made as _write_texts takes them: each layer's SVG is written, and
        # its counts dropped, before the next layer is read, so one layer's
        # counts and one SVG's text are held at a time.
        rows = []  # the CSV's (meta, sigma_r, mean |r|) of each layer
        for meta, stats in layers:
            rows.append((meta, stats.sigma_r, stats.mean_abs))
            if args.svg_dir is not None:
                # The index prefix keeps names unique when the rest is cut.
                stem = f"{len(rows) - 1:03d}_{_UNSAFE.sub('_', meta.name)}"[:_SVG_STEM_MAX]
                yield args.svg_dir / f"{stem}.svg", emit_histogram_svg(stats.histogram, meta.name)
            del stats
        yield args.out, emit_report_csv(rows)

    # Without SVGs nothing is drawn, so no bin is counted.
    bins = None if args.svg_dir is None else _DEFAULT_BINS if args.bins is None else args.bins
    with open(args.checkpoint, "rb", buffering=0) as handle:
        _write_texts(files(analyze_checkpoint(CheckpointReader(handle), bins)))
    return 0


def _cmd_postprocess(args) -> int:
    beta = 0.0 if args.skip_noise else DEFAULT_BETA if args.beta is None else args.beta
    with open(args.checkpoint, "rb", buffering=0) as src:
        reader = CheckpointReader(src)
        # A run that would select no layer would write its input back.
        depths = [meta.depth for meta in reader.metas if meta.kind in ELIGIBLE_KINDS]
        if max(depths, default=-1) < args.start_layer:
            raise DataFormatError(
                f"--start-layer {args.start_layer} selects no layer: "
                + (f"the deepest conv/linear tensor is at depth {max(depths)}" if depths
                   else "the file holds no conv/linear tensor"))
        # The output is renamed into place after the last tensor is read,
        # so --out may name the input file.
        with _write_atomic(args.out) as dst:
            put = positional_writer(dst.fileno(), reader.metas)
            ghn_orth_tensors(reader, put, start_layer=args.start_layer, beta=beta,
                             seed=args.seed, orth=not args.skip_orth)
    return 0


def _cmd_init(args) -> int:
    metas = parse_tensor_specs(args.archspec.read_bytes())
    with _write_atomic(args.out) as handle:
        store = positional_writer(handle.fileno(), metas)
        gain = _DEFAULT_GAIN if args.gain is None else args.gain
        init_tensors(metas, store, args.method == "orth", gain, args.seed)
    return 0


def _cmd_pca(args) -> int:
    # Bytes that are not UTF-8 read as lone surrogates, which the parser
    # rejects with the row they are in.
    text = args.embeddings.read_text(encoding="utf-8", errors="surrogateescape")
    embeddings = parse_embeddings_csv(text)
    projected = pca_project(embeddings.vectors)
    _write_texts([(args.out, emit_projection_csv(embeddings, projected))])
    return 0


def _cmd_compare(args) -> int:
    with (open(args.checkpoint_a, "rb", buffering=0) as a,
          open(args.checkpoint_b, "rb", buffering=0) as b):
        text = emit_compare_csv(compare_checkpoints(CheckpointReader(a), CheckpointReader(b)))
    _write_texts([(args.out, text)])
    return 0


def _terminate(signum, frame):
    raise KeyboardInterrupt(signum)


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # SIGTERM takes SIGINT's path, so that a terminated command removes its
    # temporary files too.  Only the main thread may set a handler.
    on_main = threading.current_thread() is threading.main_thread()
    previous = signal.signal(signal.SIGTERM, _terminate) if on_main else None
    try:
        # Every command has an --out: one that names a directory fails
        # before any input is read.
        if args.out.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(args.out))
        return args.func(args)
    except KeyboardInterrupt as exc:
        # The shell's code for a command ended by the signal: 128 + its number.
        print("ghnpost: interrupted", file=sys.stderr)
        return 128 + (signal.SIGTERM if exc.args == (signal.SIGTERM,) else signal.SIGINT)
    except DataFormatError as exc:
        print(f"ghnpost: data error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"ghnpost: i/o error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"ghnpost: numerical error: {exc}", file=sys.stderr)
        return 3
    finally:
        if on_main:  # previous is None for a handler set outside Python
            signal.signal(signal.SIGTERM, previous or signal.SIG_DFL)


def main(argv: list[str] | None = None) -> int:
    return run(sys.argv[1:] if argv is None else argv)


if __name__ == "__main__":
    sys.exit(main())
