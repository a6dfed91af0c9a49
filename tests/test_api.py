"""The package's public names: each exported name resolves, the second
paths that the command line never ran are gone, every public function
is one that a command runs, and each takes the one mode the package's
calls give it."""

import ast
import importlib
import inspect
import pkgutil
import sys
import threading
from pathlib import Path

import ghnpost
from ghnpost import checkpoint_io, cli, errors, linalg, postprocess, report, rng, stats, tensor_ops
from ghnpost.checkpoint_io import CheckpointReader
from ghnpost.linalg import qr_decompose
from ghnpost.rng import RngStream

from conftest import make_checkpoint, reader_of
from workloads import archspec_json, embeddings_csv, resnet50_table, synth_tensors, vit_table
from workloads import write_ckpt

_MODULES = (checkpoint_io, linalg, postprocess, report, stats, tensor_ops)


def test_every_public_name_resolves():
    assert len(set(ghnpost.__all__)) == len(ghnpost.__all__)
    missing = [name for name in ghnpost.__all__ if not hasattr(ghnpost, name)]
    assert missing == []


# Error classes that nothing caught: a caller tells them apart only by
# their message, which names the field or tensor and the rule it broke.
_LEAF_ERRORS = (
    "ShapeMismatch", "BadMagic", "UnsupportedVersion", "CorruptHeader", "TruncatedData",
    "SchemaError", "StructureMismatch", "UnsupportedRank", "ChannelTooShort",
    "TooFewChannels", "ShapeError", "DegenerateInput", "NonFiniteTensor",
)


def test_removed_names_are_absent():
    for name in ("write_tensors", "init_checkpoint", "import_json"):
        assert name not in ghnpost.__all__
        assert not hasattr(ghnpost, name)
        assert not hasattr(checkpoint_io, name) and not hasattr(postprocess, name)
    assert not hasattr(RngStream, "substream")
    # The commands read and write a block of rows at a time.
    for name in ("get", "load", "_load", "__iter__"):
        assert not hasattr(CheckpointReader, name)
    # Result types that only copied what their callers already held.
    for name in ("AnalysisReport", "CorrelationMatrix", "ProjectionRow"):
        assert name not in ghnpost.__all__
        assert not hasattr(ghnpost, name)
        assert not hasattr(report, name) and not hasattr(stats, name)
    # Settings a caller could already work out: noise off is beta = 0, the
    # QR is in place only (np.linalg.qr copies), and the histogram's edges
    # follow from its bin count.
    assert "Histogram" not in ghnpost.__all__
    assert not hasattr(ghnpost, "Histogram") and not hasattr(stats, "Histogram")
    assert "skip_noise" not in inspect.signature(postprocess.ghn_orth_tensors).parameters
    assert "overwrite_a" not in inspect.signature(qr_decompose).parameters
    # One row walker streams every tensor, and a streamed tensor costs the
    # pool nothing.
    for name in ("_put_rows", "_block_values", "_STREAM_BYTES"):
        assert not hasattr(postprocess, name)
    # PCA is the n x 2 projection that pca prints, and the uniforms are
    # drawn only for normal's Gaussians.
    for name in ("PcaResult", "eigh_descending", "_as_matrix", "_check_matrix"):
        assert not hasattr(linalg, name) and not hasattr(ghnpost, name), name
    assert "k" not in inspect.signature(linalg.pca_project).parameters
    assert not hasattr(report, "project_embeddings")
    assert not hasattr(ghnpost, "project_embeddings")
    assert not hasattr(RngStream, "uniform")
    # Scratch arrays are made where they are used: no class holds buffers
    # to reuse between calls.
    assert not hasattr(postprocess, "_Gather")
    for name in ("_Words", "_uniforms"):
        assert not hasattr(rng, name), name
    # The engines take the settings the command line has checked, as plain
    # arguments: no config object, and init's method is its one orth flag.
    for name in ("PostprocessConfig", "_eligible", "_init_layer"):
        assert not hasattr(postprocess, name) and not hasattr(ghnpost, name), name
    assert "PostprocessConfig" not in ghnpost.__all__
    assert "method" not in inspect.signature(postprocess.init_tensors).parameters
    # analyze and compare yield each layer's result as it is made: no
    # result type carries a whole run's layers.
    for name in ("LayerRecord", "CompareRow"):
        assert name not in ghnpost.__all__
        assert not hasattr(ghnpost, name) and not hasattr(report, name), name
    assert inspect.isgeneratorfunction(report.analyze_checkpoint)
    assert inspect.isgeneratorfunction(report.compare_checkpoints)
    # A layer's statistics and an embedding table are plain tuples, which
    # their one caller unpacks.
    for name in ("CorrelationStats", "EmbeddingSet"):
        assert name not in ghnpost.__all__
        assert not hasattr(ghnpost, name), name
        assert not hasattr(report, name) and not hasattr(stats, name), name
    # FORMAT_VERSION is the one version a checkpoint can have.
    assert not hasattr(reader_of(make_checkpoint([])), "version")
    # One error class for each way a caller handles an error.
    for name in _LEAF_ERRORS:
        assert not hasattr(errors, name), name
    defined = {name for name, value in vars(errors).items()
               if isinstance(value, type) and issubclass(value, BaseException)
               and value.__module__ == errors.__name__}
    assert defined == {"GhnpostError", "DataFormatError", "NumericalError", "OutOfMemory"}


# The in-memory second path: the container, the single-tensor wrappers,
# the whole correlation matrix, and the layout and sign helpers.  The
# commands never ran them; the tests' oracles live in tests/reference.py.
_IN_MEMORY = (
    "Checkpoint", "write_checkpoint", "read_checkpoint", "validate_checkpoint",
    "_collected", "ghn_orth_tensor", "ghn_orth", "add_conditional_noise",
    "orthogonal_reinit", "he_init", "saxe_orthogonal_init", "_orth_layer", "_check_beta",
    "channel_correlation", "offdiagonal_values", "correlation_std",
    "correlation_histogram", "_fold_values",
    "Matricized", "matricize", "dematricize", "sign_adjust",
)


def test_in_memory_second_path_is_absent():
    for name in _IN_MEMORY:
        assert name not in ghnpost.__all__, name
        assert not hasattr(ghnpost, name), name
        for module in _MODULES:
            assert not hasattr(module, name), (module.__name__, name)
    # Every layer is written as float32, the one dtype a file holds.
    assert "dtype" not in inspect.signature(postprocess._write_layer).parameters


def test_reference_oracles_import_nothing_from_the_package():
    path = Path(__file__).with_name("reference.py")
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            assert node.level == 0, "a relative import"
            imported.add(node.module.split(".")[0])
    assert imported <= {"numpy"} | set(sys.stdlib_module_names), imported


def _public_functions():
    """Every public function and public method defined in the package's
    modules: its code object, mapped to its ``module.qualname``."""
    found = {}
    for info in pkgutil.iter_modules(ghnpost.__path__):
        module = importlib.import_module(f"{ghnpost.__name__}.{info.name}")
        for name, value in vars(module).items():
            if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            members = ([(f"{name}.{attr}", member) for attr, member in vars(value).items()
                        if not attr.startswith("_")] if inspect.isclass(value)
                       else [(name, value)])
            for qualname, member in members:
                fn = inspect.unwrap(getattr(member, "fget", member))
                if inspect.isfunction(fn):
                    found[fn.__code__] = f"{info.name}.{qualname}"
    return found


def test_every_public_function_runs_under_a_command(tmp_path):
    # The package holds what the commands run: each public function and
    # method is entered by one of these command lines, on every thread.
    resnet = resnet50_table(width=16, blocks=(1,), classes=10)
    vit = vit_table(dim=32, layers=1, patch=4, tokens=17, classes=10)
    for name, specs in (("resnet", resnet), ("vit", vit)):
        with open(tmp_path / f"{name}.ckpt", "wb") as handle:
            write_ckpt(handle, specs, synth_tensors(specs, seed=1))
    (tmp_path / "arch.json").write_text(archspec_json(resnet))
    (tmp_path / "emb.csv").write_text(embeddings_csv(40, 8, seed=1)[0])
    commands = [
        "postprocess {d}/resnet.ckpt --start-layer 0 --out {d}/repaired.ckpt",
        "postprocess {d}/vit.ckpt --start-layer 0 --skip-orth --out {d}/noised.ckpt",
        "init {d}/arch.json --method rand --out {d}/rand.ckpt",
        "init {d}/arch.json --method orth --out {d}/orth.ckpt",
        "analyze {d}/resnet.ckpt --svg-dir {d}/svg --out {d}/report.csv",
        "compare {d}/resnet.ckpt {d}/repaired.ckpt --out {d}/compare.csv",
        "pca {d}/emb.csv --out {d}/pca.csv",
    ]
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    threading.setprofile(profile)
    try:
        codes = [cli.main(command.format(d=tmp_path).split()) for command in commands]
    finally:
        threading.setprofile(None)
        sys.setprofile(None)
    assert codes == [0] * len(commands)
    public = _public_functions()
    assert "rng.RngStream.normal_at" in public.values()
    assert sorted(name for code, name in public.items() if code not in entered) == []


def _signatures(tree: ast.Module):
    """(called name, qualname, positional parameters, parameters with a
    default) of each public function, public method of a public class and
    public dataclass constructor of ``tree``."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            methods = [(node.name, node.name, node, 0)]
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            methods = [(item.name, f"{node.name}.{item.name}", item, 1) for item in node.body
                       if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")]
            if any("dataclass" in ast.unparse(d) for d in node.decorator_list):
                fields = [item for item in node.body
                          if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)]
                yield (node.name, node.name, [f.target.id for f in fields],
                       {f.target.id for f in fields if f.value is not None})
        else:
            continue
        for called, qualname, fn, skip in methods:
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][skip:]
            defaulted = positional[len(positional) - len(args.defaults):] if args.defaults else []
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            yield called, qualname, positional, set(defaulted)


def _passed(call: ast.Call, positional: list[str]):
    """The parameters ``call`` passes; all of them where it unpacks."""
    unpacks = (any(isinstance(a, ast.Starred) for a in call.args)
               or any(k.arg is None for k in call.keywords))
    return (set(positional if unpacks else positional[: len(call.args)])
            | {k.arg for k in call.keywords})


def _defaults_every_call_passes(trees: list[ast.Module]) -> list[str]:
    """``qualname.parameter`` of each public parameter of ``trees`` that
    has a default while every call of its function in ``trees`` passes
    it.  A function that nothing in ``trees`` calls is an entry point (as
    ``cli.main`` is), and its defaults are its callers' to take."""
    calls = [node for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Call)]
    found = []
    for tree in trees:
        for called, qualname, positional, defaulted in _signatures(tree):
            sites = [call for call in calls
                     if getattr(call.func, "id", getattr(call.func, "attr", None)) == called]
            if sites:
                passed = set.intersection(*(_passed(call, positional) for call in sites))
                found += [f"{qualname}.{name}" for name in sorted(defaulted & passed)]
    return sorted(found)


def _package_trees():
    package = Path(ghnpost.__file__).parent
    return [ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for path in sorted(package.glob("*.py"))]


def test_no_public_parameter_defaults_to_a_mode_no_call_takes():
    # A default that every call in the package overrides, None or any
    # other value, is a second mode that only tests take: each public
    # function takes the one mode the commands run.
    assert _defaults_every_call_passes(_package_trees()) == []


def test_the_mode_guard_names_a_default_every_call_overrides():
    source = """
from dataclasses import dataclass

def both(a, out=None, *, flag=None): ...
def entry(argv=None): ...
def scaled(x, gain=1.0, start=0): ...
class Reader:
    def read(self, i, out=None): ...
    def _hidden(self, out=None): ...
@dataclass
class Table:
    ids: list
    labels: list | None = None
    beta: float = 3e-5
    seed: int = 0
class _Private:
    def read_all(self, out=None): ...

both(1, None, flag=2)
both(a=1, out=2, flag=None)
entry()
scaled(1, 2.0)
scaled(x=1, gain=3.0)
Reader().read(1, out=2)
Table([], [], 1e-3)
Table([], None, beta=0.0)
_Private().read_all(1)
"""
    assert _defaults_every_call_passes([ast.parse(source)]) == [
        "Reader.read.out", "Table.beta", "Table.labels", "both.flag", "both.out",
        "scaled.gain"]
    lazy = source.replace("both(a=1, out=2, flag=None)", "both(1)")
    assert _defaults_every_call_passes([ast.parse(lazy)]) == [
        "Reader.read.out", "Table.beta", "Table.labels", "scaled.gain"]
