"""The package's public names: each exported name resolves, and the
second paths that the command line never ran are gone."""

import dataclasses
import inspect

import ghnpost
from ghnpost import checkpoint_io, errors, postprocess, report, stats
from ghnpost.checkpoint_io import Checkpoint, CheckpointReader
from ghnpost.linalg import qr_decompose
from ghnpost.postprocess import PostprocessConfig
from ghnpost.rng import RngStream

from conftest import reader_of


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
    assert not hasattr(Checkpoint, "read_rows")
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
    assert not hasattr(Checkpoint(), "version")
    assert not hasattr(reader_of(Checkpoint()), "version")
