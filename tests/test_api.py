"""The package's public names: each exported name resolves, and the
second paths that the command line never ran are gone."""

import ast
import dataclasses
import inspect
import sys
from pathlib import Path

import ghnpost
from ghnpost import checkpoint_io, errors, linalg, postprocess, report, stats, tensor_ops
from ghnpost.checkpoint_io import CheckpointReader
from ghnpost.linalg import qr_decompose
from ghnpost.postprocess import PostprocessConfig
from ghnpost.rng import RngStream

from conftest import make_checkpoint, reader_of

_MODULES = (checkpoint_io, linalg, postprocess, report, stats, tensor_ops)


def test_every_public_name_resolves():
    assert len(set(ghnpost.__all__)) == len(ghnpost.__all__)
    missing = [name for name in ghnpost.__all__ if not hasattr(ghnpost, name)]
    assert missing == []


def test_removed_names_are_absent():
    for name in ("write_tensors", "init_checkpoint", "import_json"):
        assert name not in ghnpost.__all__
        assert not hasattr(ghnpost, name)
        assert not hasattr(checkpoint_io, name) and not hasattr(postprocess, name)
    assert not hasattr(errors, "ShapeMismatch")
    assert not hasattr(RngStream, "substream")
    for name in ("get", "_load", "__iter__"):
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
    assert "skip_noise" not in {f.name for f in dataclasses.fields(PostprocessConfig)}
    assert "overwrite_a" not in inspect.signature(qr_decompose).parameters
    # One row walker streams every tensor, and a streamed tensor costs the
    # pool nothing.
    for name in ("_put_rows", "_block_values", "_STREAM_BYTES"):
        assert not hasattr(postprocess, name)
    # FORMAT_VERSION is the one version a checkpoint can have.
    assert not hasattr(reader_of(make_checkpoint([])), "version")


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
