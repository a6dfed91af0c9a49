import io
import math

import numpy as np
import pytest

from ghnpost import linalg
from ghnpost.checkpoint_io import Checkpoint, CheckpointReader, TensorMeta, write_checkpoint


def ghn_like_tensor(shape, rel_noise=1e-3, seed=0, scale=1.0):
    """One base channel duplicated K times plus i.i.d. noise of the given
    relative std -- mimics the near-duplicate channels of predicted
    parameters."""
    k = shape[0]
    chw = math.prod(shape[1:])
    rng = np.random.default_rng(seed)
    base = rng.normal(size=chw)
    noise = rng.normal(size=(k, chw)) * (rel_noise * base.std())
    return ((base[np.newaxis, :] + noise) * scale).reshape(shape).astype(np.float32)


def correlated_tensor(shape, seed=0, scale=0.02):
    """Channels built as mixtures of one shared and one private component,
    giving a broad spread of pairwise correlations (sigma_r well above 0)."""
    k = shape[0]
    chw = math.prod(shape[1:])
    rng = np.random.default_rng(seed)
    base = rng.normal(size=chw)
    private = rng.normal(size=(k, chw))
    phi = np.linspace(0.0, np.pi / 3.0, k)
    mixed = np.cos(phi)[:, np.newaxis] * base + np.sin(phi)[:, np.newaxis] * private
    return (mixed * scale).reshape(shape).astype(np.float32)


def make_checkpoint(specs):
    """specs: list of (name, shape, kind, depth, array)."""
    tensors = []
    for name, shape, kind, depth, arr in specs:
        tensors.append(
            (TensorMeta(name=name, shape=tuple(shape), kind=kind, depth=depth), arr)
        )
    return Checkpoint(tensors=tensors)


def reader_of(c):
    """The checkpoint ``c`` as the CLI reads a file: a CheckpointReader over
    its bytes."""
    return CheckpointReader(io.BytesIO(write_checkpoint(c)))


@pytest.fixture
def small_checkpoint():
    rng = np.random.default_rng(7)
    return make_checkpoint(
        [
            ("stem.conv", (8, 3, 3, 3), "conv", 0,
             rng.normal(size=(8, 3, 3, 3)).astype(np.float32)),
            ("stem.bn", (8,), "norm", 0,
             np.ones(8, dtype=np.float32)),
            ("block1.conv", (16, 8, 3, 3), "conv", 1,
             rng.normal(size=(16, 8, 3, 3)).astype(np.float32)),
            ("block1.bias", (16,), "bias", 1,
             rng.normal(size=16).astype(np.float32)),
            ("head.fc", (10, 16), "linear", 2,
             rng.normal(size=(10, 16)).astype(np.float32)),
        ]
    )


@pytest.fixture(params=["openblas", "lapack_lite"])
def binding(request, monkeypatch):
    """Run the kernel through the ctypes binding or, with the loader
    patched to find no library, through numpy.linalg.lapack_lite."""
    if request.param == "lapack_lite":
        monkeypatch.setattr(linalg, "_openblas", lambda: None)
    elif linalg._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    return request.param
