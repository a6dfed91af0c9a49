import hashlib
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ghnpost
from ghnpost.rng import RngStream, substream_seed

_MASK = 0xFFFFFFFFFFFFFFFF
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB


@pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
@pytest.mark.parametrize("label", ["", "fc.weight", "blöck.ünit ✓"])
def test_substream_seed_is_hashlib_blake2b(seed, label):
    # The documented digest, from hashlib here, whatever module the package
    # takes blake2b from.
    digest = hashlib.blake2b(seed.to_bytes(8, "little") + label.encode(), digest_size=8)
    assert substream_seed(seed, label) == int.from_bytes(digest.digest(), "little")


def test_substream_seed_golden_values():
    assert substream_seed(0, "") == 1786884285633530058
    assert substream_seed(2**64 - 1, "fc.weight") == 18248083433809422850


def _splitmix_scalar(seed, i):
    z = (seed + (i + 1) * _GOLDEN) & _MASK
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _reference_normals(seed, label, n):
    """Straightforward scalar implementation of the documented generator."""
    s = substream_seed(seed, label)
    out = []
    for j in range((n + 1) // 2):
        u1 = ((_splitmix_scalar(s, 2 * j) >> 11) + 1) * 2.0**-53
        u2 = ((_splitmix_scalar(s, 2 * j + 1) >> 11) + 1) * 2.0**-53
        radius = math.sqrt(-2.0 * math.log(u1))
        out.append(radius * math.cos(2.0 * math.pi * u2))
        out.append(radius * math.sin(2.0 * math.pi * u2))
    return np.array(out[:n])


def test_matches_scalar_reference():
    stream = RngStream(123456789, "layer3.conv")
    got = stream.normal(64, 0)
    ref = _reference_normals(123456789, "layer3.conv", 64)
    np.testing.assert_allclose(got, ref, rtol=1e-13, atol=1e-300)


def test_repeatable_and_stateless():
    stream = RngStream(42, "w")
    a = stream.normal(100, 0)
    b = stream.normal(100, 0)
    assert a.tobytes() == b.tobytes()


def test_prefix_property():
    stream = RngStream(7, "q")
    assert stream.normal(13, 0).tobytes() == stream.normal(40, 0)[:13].tobytes()


def test_labels_give_distinct_streams():
    a = RngStream(1, "layer.a").normal(32, 0)
    b = RngStream(1, "layer.b").normal(32, 0)
    c = RngStream(2, "layer.a").normal(32, 0)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_gaussian_moments():
    z = RngStream(5, "big").normal(1_000_000, 0)
    assert abs(z.mean()) < 4.0 / math.sqrt(1_000_000)
    assert abs(z.std() - 1.0) < 0.005
    # symmetric tails
    assert abs((z > 0).mean() - 0.5) < 0.005


def test_odd_length_crops_pair():
    stream = RngStream(11, "odd")
    assert stream.normal(7, 0).tobytes() == stream.normal(8, 0)[:7].tobytes()
    assert stream.normal(0, 0).size == 0


# --------------------------------------------------------------------------
# Byte-exact oracle for the chunked generator
# --------------------------------------------------------------------------

def _reference_uniform(seed, label, n):
    """One-shot vectorized splitmix64 uniforms over the whole stream."""
    s = np.uint64(substream_seed(seed, label))
    z = s + np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GOLDEN)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    return ((z >> np.uint64(11)).astype(np.float64) + 1.0) * 2.0**-53


def _reference_normal_vectorized(seed, label, n):
    """One-shot vectorized Box-Muller over the whole stream."""
    if n == 0:
        return np.empty(0, dtype=np.float64)
    pairs = (n + 1) // 2
    u = _reference_uniform(seed, label, 2 * pairs)
    radius = np.sqrt(-2.0 * np.log(u[0::2]))
    angle = (2.0 * np.pi) * u[1::2]
    out = np.empty(2 * pairs, dtype=np.float64)
    out[0::2] = radius * np.cos(angle)
    out[1::2] = radius * np.sin(angle)
    return out[:n]


def _oracle_sizes():
    from ghnpost.rng import _CHUNK

    return [1, 2, 37, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 11]


def test_normal_matches_one_shot_oracle_bytes():
    from ghnpost.rng import _CHUNK

    stream = RngStream(2024, "blocks.3.mlp.fc1")
    for n in _oracle_sizes():
        got = stream.normal(n, 0)
        ref = _reference_normal_vectorized(2024, "blocks.3.mlp.fc1", n)
        assert got.shape == (n,)
        assert got.tobytes() == ref.tobytes(), n
    # Slices drawn with ``start``: odd and even starts and lengths, inside
    # a chunk and across chunk boundaries.
    ref = _reference_normal_vectorized(2024, "blocks.3.mlp.fc1", 3 * _CHUNK + 11)
    for start, n in [(0, 0), (1, 0), (1, 1), (3, 4), (5, 37), (_CHUNK - 1, 2),
                     (_CHUNK - 3, 7), (_CHUNK, _CHUNK + 1), (_CHUNK + 1, 2 * _CHUNK),
                     (2 * _CHUNK - 5, _CHUNK + 16)]:
        got = stream.normal(n, start=start)
        assert got.shape == (n,)
        assert got.tobytes() == ref[start : start + n].tobytes(), (start, n)
    # consecutive slices of odd length concatenate to the whole stream
    pieces = [stream.normal(min(999, ref.size - s), start=s) for s in range(0, ref.size, 999)]
    assert np.concatenate(pieces).tobytes() == ref.tobytes()


def test_prefix_property_across_chunk_boundary():
    from ghnpost.rng import _CHUNK

    stream = RngStream(8, "edge")
    long = stream.normal(2 * _CHUNK + 3, 0)
    for n in (_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1):
        assert stream.normal(n, 0).tobytes() == long[:n].tobytes(), n


def test_normal_at_matches_normal_bytes():
    from ghnpost.rng import _CHUNK

    stream = RngStream(2024, "blocks.3.mlp.fc1")
    n = 3 * _CHUNK + 11
    ref = stream.normal(n, 0)
    rng = np.random.default_rng(0)
    cases = [
        np.array([], dtype=np.int64),
        np.array([0, n - 1]),  # first and last positions
        np.array([n - 1, 0, 0]),  # any order, repeats allowed
        np.array([4, 7, 9]),  # only one half of pairs 2, 3 and 4
        np.array([_CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK - 1, 2 * _CHUNK]),
        np.arange(n),  # every position: more than one work buffer of pairs
    ]
    for size in (1, 17, _CHUNK // 2 + 3, n // 2):  # random sets across chunks
        cases.append(np.sort(rng.choice(n, size=size, replace=False)))
        cases.append(rng.choice(n, size=size, replace=False))
    for positions in cases:
        got = stream.normal_at(positions, np.empty(len(positions)))
        assert got.dtype == np.float64 and got.shape == positions.shape
        assert got.tobytes() == ref[positions].tobytes(), positions[:8]
    # into a caller's buffer, as a prefix of a larger one
    buf = np.full(8, np.nan)
    out = stream.normal_at(np.array([5, 1, 2]), out=buf[:3])
    assert out.base is buf and buf[:3].tobytes() == ref[[5, 1, 2]].tobytes()


def test_normal_at_rejects_negative_positions():
    with pytest.raises(ValueError):
        RngStream(1, "x").normal_at(np.array([3, -1]), np.empty(2))


def test_draws_reject_negative_counts_and_starts():
    stream = RngStream(1, "x")
    with pytest.raises(ValueError, match="n and start must be non-negative"):
        stream.normal(-1, 0)
    with pytest.raises(ValueError, match="n and start must be non-negative"):
        stream.normal(1, start=-1)


# The AVX-512 dispatch targets of numpy's SIMD loops, by numpy 2's names.
# Turning them off changes the last bits of numpy's log, cos and sin, and
# so of the Gaussian values (README "Determinism"), but not the uniforms.
_AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")

# Prints which of the CPU features named in argv numpy runs with, then the
# bytes of the uniforms of one stream's first 16K words, as _mix makes them.
_UNIFORMS = """
import sys
from ghnpost import rng
try:
    from numpy._core._multiarray_umath import __cpu_features__
except ImportError:  # numpy 1
    from numpy.core._multiarray_umath import __cpu_features__
print(" ".join(f for f in sys.argv[1:] if __cpu_features__.get(f)))
stream = rng.RngStream(7, "blocks.0.mlp.fc1.weight")
print(rng._mix(stream._seed(), rng._COUNTER.copy()).tobytes().hex())
"""


def _cpu_dispatch():
    """The CPU features that numpy's loops may dispatch to and this CPU
    has."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy 1
        from numpy.core import _multiarray_umath as umath
    dispatch = getattr(umath, "__cpu_dispatch__", [])
    return [f for f in dispatch if umath.__cpu_features__.get(f)]


def test_uniforms_do_not_depend_on_the_cpu_features_numpy_dispatches_to():
    # The words and uniforms come from integer operations and exact float64
    # arithmetic, so their bytes hold whatever SIMD loops numpy picks.
    disabled = [f for f in _AVX512 if f in _cpu_dispatch()]
    if not disabled:
        pytest.skip("numpy dispatches to none of " + ", ".join(_AVX512) + " here")
    runs = []
    for features in ("", " ".join(disabled)):
        env = dict(os.environ, NPY_DISABLE_CPU_FEATURES=features)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(Path(ghnpost.__file__).parents[1])]
            + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        proc = subprocess.run([sys.executable, "-c", _UNIFORMS, *disabled],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        runs.append(proc.stdout.split("\n"))
    (on, with_features, _), (off, without, _) = runs
    assert (on.split(), off) == (disabled, "")
    assert with_features == without
