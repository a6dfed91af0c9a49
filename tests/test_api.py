"""The package's public names: each exported name resolves, and the
second paths that the command line never ran are gone."""

import ghnpost
from ghnpost import checkpoint_io, errors, postprocess
from ghnpost.checkpoint_io import Checkpoint, CheckpointReader
from ghnpost.rng import RngStream


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
