import io
import math
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ghnpost import linalg, stats
from ghnpost.checkpoint_io import CheckpointReader, positional_writer
from ghnpost.postprocess import DEFAULT_BETA, ghn_orth_tensors, init_tensors

# The benchmark's own container codec, written from the documented layout
# and independent of ghnpost: it builds the tests' input bytes and decodes
# the outputs.
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "e2ebench"))
from workloads import Spec, decode_ckpt, encode_ckpt  # noqa: E402


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


def fold_sigma_r(w):
    """sigma_r as the panel fold takes it, on a tall layer too, where
    ``sigma_r`` and a certified ``correlation_stats`` take the CHW x CHW
    route."""
    xc, safe, dead = stats._centered(w, np.empty(w.size))
    return stats._fold_panels(xc, safe, dead, stats._Fold(len(xc), None))[0]


def make_checkpoint(specs):
    """The checkpoint file bytes of ``specs``, a list of (name, shape, kind,
    depth, array), each array written as float32."""
    return encode_ckpt([Spec(name, tuple(shape), kind, depth)
                        for name, shape, kind, depth, _ in specs], [arr for *_, arr in specs])


def reader_of(blob):
    """The checkpoint bytes ``blob`` as the CLI reads a file: a
    CheckpointReader over them."""
    return CheckpointReader(io.BytesIO(blob))


def repair(start_layer, *, beta=DEFAULT_BETA, seed=0, orth=True):
    """The settings ``postprocess --start-layer start_layer`` passes to
    ``ghn_orth_tensors``, with the command line's defaults for the rest
    (``orth=False`` is ``--skip-orth``, ``beta=0.0`` ``--skip-noise``)."""
    return {"start_layer": start_layer, "beta": beta, "seed": seed, "orth": orth}


def through_file(c, settings=None, init=None, name="w"):
    """What the commands' engine writes for the checkpoint ``c``:
    ``ghn_orth_tensors`` under the :func:`repair` ``settings``, as
    ``postprocess`` runs it, or with ``init`` = (method, gain, seed),
    ``init_tensors`` of c's tensors, as ``init --method method`` runs it.
    ``c`` is read through a CheckpointReader, and the output written
    through positional_writer into a temporary file, whose bytes come
    back.  An array ``c`` is a one-tensor file instead, of the conv (rank
    4) or linear tensor ``name`` at depth 0 (so ``RngStream(seed, name)``
    is its stream), and the output tensor comes back, decoded."""
    one = isinstance(c, np.ndarray)
    if one:
        c = make_checkpoint([(name, c.shape, "conv" if c.ndim == 4 else "linear", 0, c)])
    reader = reader_of(c)
    with tempfile.TemporaryFile() as out:
        put = positional_writer(out.fileno(), reader.metas)
        if init is None:
            ghn_orth_tensors(reader, put, **settings)
        else:
            method, gain, seed = init
            assert method in ("rand", "orth"), method
            init_tensors(reader.metas, put, method == "orth", gain, seed)
        out.seek(0)
        blob = out.read()
    return decode_ckpt(blob)[1][0] if one else blob


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
    patched to find no library, through numpy.linalg.lapack_lite.  The
    latter cannot pin BLAS to one thread itself, so the whole test runs
    pinned: ``np.linalg.qr`` under ``one_blas_thread()`` is then the
    reference in both."""
    if request.param == "openblas" and linalg._openblas() is None:
        pytest.skip("numpy's bundled OpenBLAS not found")
    with linalg.one_blas_thread():
        if request.param == "lapack_lite":
            monkeypatch.setattr(linalg, "_openblas", lambda: None)
        yield request.param
