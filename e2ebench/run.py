"""End-to-end benchmark of the ghnpost command line.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  It generates the workload's inputs from
--seed, then repeats the workload's CLI invocations until --seconds have
passed (at least once).  Every invocation is a fresh
``python3 -m ghnpost.cli`` child, one at a time (a closed loop with one
client), exactly as a user runs it.  Outputs of the first repetition are
checked against numpy oracles (checks.py), and every repetition's output
bytes must hash the same.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; ``failed / attempted``
is the fail ratio (an invocation fails on a non-zero exit, a failed check
or a hash that differs from an earlier run of the same code and seed).

--trace 0 reports the end-to-end metrics.  --trace 1 runs the children
under tracer.py and reports per-layer metrics instead.

Workloads, and why each is here:

resnet50-repair
    ``postprocess --start-layer 0`` on a ResNet-50 table (25.5M params, 54
    conv/linear layers): the paper's whole repair at the target size.  QR
    takes most of the time but every stage runs, so a QR gain that costs
    something elsewhere shows.
vitb-noise
    ``postprocess --start-layer 0 --skip-orth`` on a ViT-B/16 table (86.5M
    params): no QR calls at all, so a QR change must leave it unchanged;
    correlation, RNG and whole-file buffering dominate.
analysis-suite
    ``init``, ``analyze --svg-dir``, ``compare`` and ``pca`` on the
    ResNet-50 table and a 1000 x 128 embedding CSV: the paper's analysis
    artifacts; the only workload that runs the report module and the
    eigensolver.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import checks
from workloads import (
    ELIGIBLE,
    Spec,
    archspec_json,
    embeddings_csv,
    resnet50_table,
    synth_tensors,
    vit_table,
    write_ckpt,
)

HERE = Path(__file__).resolve().parent
WORK = Path(".e2ebench_work")  # inputs and outputs of the current run
RECORDS = Path(".e2ebench_out")  # hashes, walls and artifacts kept across runs
SETUP_SAMPLES = 4  # before and again after the timed repetitions
CALL_TIMEOUT_S = 170.0
DEFAULT_BETA = 3e-5  # the CLI default; the noise check needs the value

TABLES = {
    "full": {"resnet": {}, "vit": {}, "embeddings": (1000, 128)},
    "toy": {
        "resnet": {"width": 64, "blocks": (1,), "classes": 10},
        "vit": {"dim": 64, "layers": 1, "patch": 4, "tokens": 17, "classes": 10},
        "embeddings": (100, 16),
    },
}


@dataclass
class Call:
    command: str
    argv: list[str]
    params: int  # input parameters this call processes
    outputs: list[Path]  # files, or directories whose files are all hashed
    check: Callable[[], tuple[list[str], dict]]


@dataclass
class Workload:
    calls: list[Call]
    inputs: dict  # sizes for the input record
    tensors: list[Spec] = field(default_factory=list)  # eligible, in file order


def _ckpt(path: Path, specs: list[Spec], seed: int) -> int:
    with open(path, "wb") as handle:
        return write_ckpt(handle, specs, synth_tensors(specs, seed))


def _sizes(specs: list[Spec], nbytes: int) -> dict:
    return {"params": sum(s.size for s in specs),
            "eligible_layers": sum(s.kind in ELIGIBLE for s in specs),
            "file_bytes": nbytes}


def build_resnet_repair(seed: int, tables: dict) -> Workload:
    specs = resnet50_table(**tables["resnet"])
    inp, out = WORK / "resnet50.ckpt", WORK / "repaired.ckpt"
    nbytes = _ckpt(inp, specs, seed)
    call = Call("postprocess",
                ["postprocess", str(inp), "--start-layer", "0", "--seed", str(seed),
                 "--out", str(out)],
                sum(s.size for s in specs), [out],
                lambda: checks.check_repair(inp.read_bytes(), out.read_bytes()))
    return Workload([call], {"resnet50": _sizes(specs, nbytes)},
                    [s for s in specs if s.kind in ELIGIBLE])


def build_vitb_noise(seed: int, tables: dict) -> Workload:
    specs = vit_table(**tables["vit"])
    inp, out = WORK / "vitb16.ckpt", WORK / "noised.ckpt"
    nbytes = _ckpt(inp, specs, seed)
    call = Call("postprocess",
                ["postprocess", str(inp), "--start-layer", "0", "--skip-orth",
                 "--seed", str(seed), "--out", str(out)],
                sum(s.size for s in specs), [out],
                lambda: checks.check_noise(inp.read_bytes(), out.read_bytes(), DEFAULT_BETA))
    return Workload([call], {"vitb16": _sizes(specs, nbytes)},
                    [s for s in specs if s.kind in ELIGIBLE])


def build_analysis_suite(seed: int, tables: dict) -> Workload:
    specs = resnet50_table(**tables["resnet"])
    params = sum(s.size for s in specs)
    ghn, arch = WORK / "resnet50.ckpt", WORK / "arch.json"
    nbytes = _ckpt(ghn, specs, seed)
    arch.write_text(archspec_json(specs), encoding="utf-8")
    n, dim = tables["embeddings"]
    text, vectors = embeddings_csv(n, dim, seed)
    emb = WORK / "embeddings.csv"
    emb.write_text(text, encoding="utf-8")
    he, report, svgs = WORK / "he.ckpt", WORK / "report.csv", WORK / "svg"
    diff, proj = WORK / "diff.csv", WORK / "projection.csv"
    calls = [
        Call("init", ["init", str(arch), "--method", "rand", "--seed", str(seed),
                      "--out", str(he)],
             params, [he], lambda: checks.check_init(specs, he.read_bytes())),
        Call("analyze", ["analyze", str(ghn), "--out", str(report), "--svg-dir", str(svgs)],
             params, [report, svgs],
             lambda: checks.check_analyze(specs, report.read_text(),
                                          sorted(p.name for p in svgs.glob("*.svg")))),
        Call("compare", ["compare", str(ghn), str(he), "--out", str(diff)],
             2 * params, [diff],
             lambda: checks.check_compare(ghn.read_bytes(), he.read_bytes(), diff.read_text())),
        Call("pca", ["pca", str(emb), "--out", str(proj)],
             vectors.size, [proj], lambda: checks.check_pca(vectors, proj.read_text())),
    ]
    return Workload(calls, {"resnet50": _sizes(specs, nbytes),
                            "embeddings": {"rows": n, "dim": dim, "file_bytes": len(text)}})


BUILDERS = {
    "resnet50-repair": build_resnet_repair,
    "vitb-noise": build_vitb_noise,
    "analysis-suite": build_analysis_suite,
}

END_TO_END_UNITS = {"wall_s": "s", "mparams_per_s": "Mparams/s", "peak_rss_mb": "MB",
                    "setup_s": "s"}

# Per-layer metrics: traced name -> stats.  Work units come from tracer.WORK.
LAYER_STATS = {
    "linalg.qr_decompose": ("self_s", "calls", "gflop", "gflop_per_s", "max_call_s"),
    "linalg.sign_adjust": ("self_s",),
    "linalg.eigh_descending": ("self_s",),
    "linalg.pca_project": ("self_s",),
    "stats.channel_correlation": ("self_s", "calls", "gflop", "gflop_per_s"),
    "stats.correlation_std": ("self_s",),
    "stats.correlation_histogram": ("self_s",),
    "rng.RngStream.normal": ("self_s", "mvalues", "mvalues_per_s"),
    "checkpoint_io.read_checkpoint": ("self_s", "mb_per_s", "rss_growth_mb"),
    "checkpoint_io.write_checkpoint": ("self_s", "mb_per_s", "rss_growth_mb"),
    "checkpoint_io.validate_checkpoint": ("self_s",),
    "cli._read_ckpt": ("self_s",),
    "cli._write_atomic": ("self_s",),
    "cli.run": ("self_s",),
    "tensor_ops.matricize": ("self_s",),
    "tensor_ops.dematricize": ("self_s",),
    "postprocess.ghn_orth": ("self_s", "rss_growth_mb"),
    "postprocess.add_conditional_noise": ("self_s",),
    "postprocess.orthogonal_reinit": ("self_s",),
    "postprocess.he_init": ("self_s",),
    "report.analyze_checkpoint": ("self_s",),
    "report.compare_checkpoints": ("self_s",),
    "report.emit_histogram_svg": ("self_s",),
    "report.parse_embeddings_csv": ("self_s",),
}
STAT_UNITS = {"self_s": "s", "calls": "count", "gflop": "GFLOP", "gflop_per_s": "GFLOP/s",
              "max_call_s": "s", "mvalues": "Mvalues", "mvalues_per_s": "Mvalues/s",
              "mb_per_s": "MB/s", "rss_growth_mb": "MB"}
COMMANDS = ("postprocess", "init", "analyze", "compare", "pca")
EXTRA_LAYER_UNITS = {"postprocess.orth_err_max": "abs_err", "trace.overhead_ratio": "ratio",
                     "trace.untraced_s": "s",
                     **{f"cmd.{c}.wall_s": "s" for c in COMMANDS}}


def child_env() -> dict:
    env = dict(os.environ)
    src = str(Path("src").resolve())
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


class Spawner:
    """Client of spawner.py, which starts every timed child (see there why)."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")], env=env,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def run(self, argv: list[str], stderr_path: Path) -> tuple[int, float, float]:
        """Run one child to completion: (exit code, wall seconds, peak RSS MB)."""
        request = {"argv": argv, "stderr": str(stderr_path), "timeout": CALL_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("spawner.py exited")
        reply = json.loads(line)
        return reply["rc"], reply["wall"], reply["maxrss_kb"] / 1024.0

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.stdout.close()
        self.proc.wait(timeout=60)


def measure_setup(spawner: Spawner, samples: int) -> list[float]:
    """Times for a fresh interpreter to ``import ghnpost.cli``."""
    walls = []
    for _ in range(samples):
        rc, wall, _ = spawner.run([sys.executable, "-c", "import ghnpost.cli"],
                                  WORK / "setup.stderr")
        if rc != 0:
            raise SystemExit("cannot import ghnpost.cli: "
                             + (WORK / "setup.stderr").read_text(errors="replace"))
        walls.append(wall)
    return walls


_PROBE = """
import importlib, json, sys
import numpy
try:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas = f"{blas.get('name')} {blas.get('version')}"
except Exception as exc:
    blas = f"unknown ({type(exc).__name__})"
try:
    importlib.import_module("numba")
    numba = True
except ImportError:
    numba = False
try:
    kernels = importlib.import_module("ghnpost._kernels")
    path = "numba" if getattr(kernels, "USING_NUMBA", False) else "numpy"
except ImportError:
    path = "no ghnpost._kernels module"
print(json.dumps({"python": sys.version.split()[0], "numpy": numpy.__version__,
                  "blas": blas, "numba_importable": numba, "kernel_path": path}))
"""


def environment(env: dict) -> dict:
    """Versions, BLAS and kernel path as a child process sees them."""
    probe = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                           text=True, timeout=60, check=True)
    record = json.loads(probe.stdout)
    record.update({
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "note": "mb_per_s and gflop figures are computed from sizes, not measured "
                "bandwidth or counters",
    })
    return record


def digest_outputs(paths: list[Path]) -> dict[str, str]:
    out = {}
    for path in paths:
        files = sorted(path.rglob("*")) if path.is_dir() else [path]
        for f in files:
            if f.is_file():
                out[str(f.relative_to(WORK))] = hashlib.sha256(f.read_bytes()).hexdigest()
    return out


def source_digest() -> str:
    h = hashlib.sha256()
    for f in sorted(Path("src").rglob("*.py")):
        h.update(str(f).encode() + b"\0" + f.read_bytes())
    return h.hexdigest()[:16]


class Runner:
    """Runs repetitions of one workload and keeps the pass/fail tally."""

    def __init__(self, name: str, workload: Workload, spawner: Spawner, key: str):
        self.name, self.workload, self.spawner = name, workload, spawner
        self.attempted = self.failed = 0
        self.check_figures: dict = {}
        self.first: list[dict] | None = None  # output hashes of the first repetition
        # Hashes of an earlier run of the same code and seed in this checkout.
        self.record = RECORDS / f"hashes-{key}.json"
        self.earlier = json.loads(self.record.read_text()) if self.record.exists() else None

    def rep(self, traced: bool, rep_index: int) -> list[tuple[Call, float, float, Path | None]]:
        """One pass over the workload's calls: [(call, wall, rss_mb, spans)].

        The first pass runs the full output checks; every pass must hash
        the same as the first, and the first as an earlier run's record.
        """
        results, hashes, clean = [], [], True
        for i, call in enumerate(self.workload.calls):
            spans = WORK / f"spans-{rep_index}-{i}.json" if traced else None
            launcher = ([str(HERE / "tracer.py"), str(spans), "--"] if traced
                        else ["-m", "ghnpost.cli"])
            stderr = WORK / f"call-{i}.stderr"
            rc, wall, rss = self.spawner.run([sys.executable, *launcher, *call.argv], stderr)
            self.attempted += 1
            digest = digest_outputs(call.outputs) if rc == 0 else {}
            hashes.append(digest)
            problems = []
            if rc != 0:
                tail = stderr.read_text(errors="replace").strip().splitlines()[-3:]
                problems.append(f"exit code {rc}: {' | '.join(tail)}")
            elif self.first is None:
                problems, figures = call.check()
                self.check_figures.update(figures)
                if self.earlier is not None and digest != self.earlier[i]:
                    problems.append("output bytes differ from an earlier run of this "
                                    "code and seed")
            elif digest != self.first[i]:
                problems.append("output bytes differ between repetitions")
            if problems:
                self.failed += 1
                clean = False
                for p in problems[:10]:
                    print(f"FAIL {self.name} {call.command}: {p}")
            results.append((call, wall, rss, spans))
        if self.first is None:
            self.first = hashes
            if clean and self.earlier is None:
                self.record.write_text(json.dumps(hashes))
        return results

    def reps(self, seconds: float, traced: bool) -> list[list]:
        out = []
        start = time.perf_counter()
        while not out or time.perf_counter() - start < seconds:
            out.append(self.rep(traced, len(out)))
        return out


def print_hashes(name: str, hashes: list[dict] | None) -> None:
    """Per-file digests, then one digest over all of them for a quick diff."""
    total = hashlib.sha256()
    for call_hashes in hashes or []:
        for path, digest in call_hashes.items():
            print(f"sha256 {name} {path} {digest}")
            total.update(f"{path} {digest}\n".encode())
    print(f"sha256 {name} all-outputs {total.hexdigest()}")


def command_walls(reps: list[list]) -> dict[str, float]:
    walls: dict[str, list[float]] = {}
    for rep in reps:
        for call, wall, _, _ in rep:
            walls.setdefault(call.command, []).append(wall)
    return {c: statistics.median(w) for c, w in walls.items()}


def end_to_end(runner: Runner, reps: list[list], setup_s: float) -> dict:
    rep_walls = [sum(wall for _, wall, _, _ in rep) for rep in reps]
    wall = statistics.median(rep_walls)
    params = sum(c.params for c in runner.workload.calls)
    print(f"wall_s median of {len(rep_walls)} repetitions: {wall:.4f} s "
          f"(min {min(rep_walls):.4f}, max {max(rep_walls):.4f})")
    for command, w in command_walls(reps).items():
        print(f"command {command}: median {w:.4f} s")
    return {
        "wall_s": wall,
        "mparams_per_s": params / 1e6 / wall,
        "peak_rss_mb": max(rss for rep in reps for _, _, rss, _ in rep),
        "setup_s": setup_s,
    }


def _self_times(spans: list[dict]) -> list[float]:
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            child[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, child)]


def per_layer(runner: Runner, reps: list[list], untraced_wall: float) -> dict:
    """Aggregate spans of the traced repetitions into per-rep layer figures."""
    agg: dict[str, dict] = {}
    untraced = 0.0
    absent: set[str] = set()
    empty = {"calls": 0, "self": 0.0, "incl": 0.0, "max": 0.0, "work": 0.0, "rss_kb": 0}
    for rep in reps:
        for _, wall, _, spans_path in rep:
            doc = json.loads(spans_path.read_text())
            absent.update(doc["absent"])
            spans = doc["spans"]
            untraced += wall - sum(s["end"] - s["start"] for s in spans if s["parent"] < 0)
            for s, self_s in zip(spans, _self_times(spans)):
                a = agg.setdefault(s["name"], dict(empty))
                incl = s["end"] - s["start"]
                a["calls"] += 1
                a["self"] += self_s
                a["incl"] += incl
                a["max"] = max(a["max"], incl)
                a["work"] += s.get("work", 0.0)
                a["rss_kb"] += s["rss_growth_kb"]
    n = len(reps)
    if absent:
        print("absent trace targets (reported as 0): " + ", ".join(sorted(absent)))
    metrics = {}
    for name, stats in LAYER_STATS.items():
        a = agg.get(name, empty)
        per_self = a["work"] / a["self"] if a["self"] > 0 else 0.0
        values = {
            "self_s": a["self"] / n,
            "calls": a["calls"] / n,
            "gflop": a["work"] / 1e9 / n,
            "gflop_per_s": per_self / 1e9,
            "max_call_s": a["max"],
            "mvalues": a["work"] / 1e6 / n,
            "mvalues_per_s": per_self / 1e6,
            "mb_per_s": a["work"] / 1e6 / a["incl"] if a["incl"] > 0 else 0.0,
            "rss_growth_mb": a["rss_kb"] / 1024.0 / n,
        }
        for stat in stats:
            metrics[f"{name}.{stat}"] = values[stat]
    traced_wall = statistics.median(sum(w for _, w, _, _ in rep) for rep in reps)
    walls = command_walls(reps)
    metrics.update({
        "postprocess.orth_err_max": runner.check_figures.get("orth_err_max", 0.0),
        "trace.overhead_ratio": traced_wall / untraced_wall,
        "trace.untraced_s": untraced / n,
        **{f"cmd.{c}.wall_s": walls.get(c, 0.0) for c in COMMANDS},
    })
    print(f"traced wall {traced_wall:.4f} s vs untraced {untraced_wall:.4f} s")
    return metrics


def slowest_tensors(name: str, workload: Workload, rep: list) -> list[dict]:
    """Attribute per-tensor stage spans of a traced postprocess to tensors.

    ghn_orth visits the eligible tensors in file order and runs the same
    stages (noise, orthogonalization, or one of them) on each, so the
    spans split into equal groups, one per tensor; shapes must agree.
    """
    rows = []
    for call, _, _, spans_path in rep:
        if call.command != "postprocess":
            continue
        stages = [s for s in json.loads(spans_path.read_text())["spans"] if "shape" in s]
        per = len({s["name"] for s in stages}) or 1
        groups = [stages[i:i + per] for i in range(0, len(stages), per)]
        for tensor, group in zip(workload.tensors, groups):
            if any(s["shape"] != list(tensor.shape) for s in group):
                print(f"per-tensor attribution stopped at {tensor.name}: shapes differ")
                break
            rows.append({"tensor": tensor.name, "shape": list(tensor.shape),
                         "seconds": sum(s["end"] - s["start"] for s in group)})
    rows.sort(key=lambda r: -r["seconds"])
    (RECORDS / f"slowest-tensors-{name}.json").write_text(json.dumps(rows[:10], indent=1))
    return rows[:10]


def untraced_reference(path: Path, runner: Runner) -> float:
    """Median untraced repetition wall stored by --trace 0 runs of this code.

    Without one, a single untraced repetition is run here.
    """
    walls = json.loads(path.read_text()) if path.exists() else []
    if not walls:
        walls = [sum(w for _, w, _, _ in runner.rep(False, -1))]
    return statistics.median(walls)


def store_walls(path: Path, reps: list[list]) -> None:
    walls = json.loads(path.read_text()) if path.exists() else []
    walls += [sum(w for _, w, _, _ in rep) for rep in reps]
    path.write_text(json.dumps(walls[-50:]))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(BUILDERS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=sorted(TABLES), default="full",
                    help="shape tables; 'toy' is for the benchmark's self-test")
    args = ap.parse_args(argv)

    if not Path("src/ghnpost/cli.py").is_file():
        print("e2ebench: run from the repository root (src/ghnpost/cli.py not found)",
              file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    for f in WORK.rglob("*"):
        if f.is_file():
            f.unlink()
    RECORDS.mkdir(exist_ok=True)
    env = child_env()
    print("env " + json.dumps(environment(env)))
    spawner = Spawner(env)  # before inputs exist, while this process is small
    try:
        result = bench(args, spawner)
    finally:
        spawner.close()
    print(json.dumps(result))
    return 0


def bench(args, spawner: Spawner) -> dict:
    # Machine speed drifts over seconds, so set-up is sampled at both ends.
    setup = measure_setup(spawner, SETUP_SAMPLES)
    start = time.perf_counter()
    workload = BUILDERS[args.workload](args.seed, TABLES[args.size])
    print(f"input generation {time.perf_counter() - start:.3f} s; "
          + json.dumps(workload.inputs))

    code = f"{args.workload}-{args.size}-{source_digest()}"
    walls = RECORDS / f"walls-{code}.json"
    runner = Runner(args.workload, workload, spawner, f"{code}-{args.seed}")
    if args.trace:
        reference = untraced_reference(walls, runner)
        reps = runner.reps(args.seconds, traced=True)
        values = per_layer(runner, reps, reference)
        for row in slowest_tensors(args.workload, workload, reps[0]):
            print(f"slow tensor {row['tensor']} {row['shape']}: {row['seconds']:.4f} s")
        units = {**{f"{n}.{s}": STAT_UNITS[s] for n, ss in LAYER_STATS.items() for s in ss},
                 **EXTRA_LAYER_UNITS}
    else:
        reps = runner.reps(args.seconds, traced=False)
        setup += measure_setup(spawner, SETUP_SAMPLES)
        store_walls(walls, reps)
        values = end_to_end(runner, reps, statistics.median(setup))
        units = END_TO_END_UNITS
    print_hashes(args.workload, runner.first)
    for name, value in values.items():
        print(f"metric {name} = {value:.6g} {units[name]}")
    return {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {n: {"value": v, "unit": units[n]} for n, v in values.items()},
    }


if __name__ == "__main__":
    sys.exit(main())
