"""Deterministic, counter-based Gaussian random streams.

The generator is pinned so outputs are reproducible across builds and
platforms:

* substream seed = first 8 bytes (little-endian) of
  ``blake2b(master_seed as u64 LE || label as UTF-8, digest_size=8)``
* raw word i (0-based) = splitmix64 output for counter ``seed + (i+1) * G``
  with G = 0x9E3779B97F4A7C15 and the standard splitmix64 finalizer
  (shift-xor 30/27/31, multipliers 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
* uniform u_i = ((word_i >> 11) + 1) * 2**-53, in (0, 1]
* gaussians come from the Box-Muller transform on pairs (u_{2j}, u_{2j+1}):
  z_{2j} = sqrt(-2 ln u_{2j}) cos(2 pi u_{2j+1}),
  z_{2j+1} = sqrt(-2 ln u_{2j}) sin(2 pi u_{2j+1})

Streams are stateless: ``normal(n)`` always returns the first n values of
the stream, ``normal(n)`` is a prefix of ``normal(m)`` for n <= m, and
``normal(n, start=s)`` is values s .. s+n-1 of it.
Because every word is a pure function of (seed, counter), layers can be
processed in any order, or in parallel, with identical results; for the
same reason a stream is generated in fixed-size chunks without changing
any bit of it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def substream_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit seed for a named substream of a master seed."""
    h = hashlib.blake2b(digest_size=8)
    h.update((master_seed & _MASK64).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


# Values per generator chunk.  One chunk's splitmix64 words and Box-Muller
# temporaries (seven buffers of at most 128 KiB) stay in a core's L2 cache,
# so the ~20 elementwise passes of the generator run out of cache and
# allocate nothing per pass.  Even, so every chunk holds whole pairs.
_CHUNK = 1 << 14


class _Words:
    """splitmix64 work buffers of one generator call, sized for one chunk."""

    def __init__(self, size: int):
        self.counter = np.arange(1, size + 1, dtype=np.uint64)
        self.word = np.empty(size, dtype=np.uint64)
        self.shifted = np.empty(size, dtype=np.uint64)


def _uniforms(seed: np.uint64, start: int, u: np.ndarray, words: _Words) -> np.ndarray:
    """Write uniforms start .. start+len(u)-1 of the stream into u.

    Word i is splitmix64 of counter ``seed + (i+1) * G``; the uniform keeps
    its top 53 bits: ``((word >> 11) + 1) * 2**-53``, exact in float64.
    """
    n = len(u)
    z, t = words.word[:n], words.shifted[:n]
    np.add(words.counter[:n], np.uint64(start), out=z)
    np.multiply(z, _GOLDEN, out=z)
    np.add(z, seed, out=z)
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        np.right_shift(z, np.uint64(shift), out=t)
        np.bitwise_xor(z, t, out=z)
        if mix is not None:
            np.multiply(z, mix, out=z)
    np.right_shift(z, np.uint64(11), out=z)
    np.add(z, 1.0, out=u)
    np.multiply(u, 2.0**-53, out=u)
    return u


@dataclass(frozen=True)
class RngStream:
    """A named, deterministic Gaussian stream.

    Identical (master_seed, label) pairs produce identical sequences.
    """

    master_seed: int
    label: str = ""

    def substream(self, label: str) -> "RngStream":
        return RngStream(master_seed=self.master_seed, label=label)

    def _seed(self) -> np.uint64:
        return np.uint64(substream_seed(self.master_seed, self.label))

    def uniform(self, n: int) -> np.ndarray:
        """First n uniforms of the stream, each in (0, 1]."""
        if n < 0:
            raise ValueError("n must be non-negative")
        seed = self._seed()
        words = _Words(min(n, _CHUNK))
        out = np.empty(n, dtype=np.float64)
        for start in range(0, n, _CHUNK):
            _uniforms(seed, start, out[start : start + _CHUNK], words)
        return out

    def normal(self, n: int, start: int = 0) -> np.ndarray:
        """Standard-normal values start .. start+n-1 of the stream (float64).

        Any slice of the stream can be drawn on its own: consecutive calls
        with ``start`` advancing by ``n`` concatenate to ``normal(total)``.
        """
        if n < 0 or start < 0:
            raise ValueError("n and start must be non-negative")
        seed = self._seed()
        first = start - start % 2  # whole pairs; the end values may be cut
        size = start + n + (start + n) % 2 - first
        chunk = min(size, _CHUNK)
        words = _Words(chunk)
        u = np.empty(chunk)
        radius, angle, trig = (np.empty(chunk // 2) for _ in range(3))
        out = np.empty(size, dtype=np.float64)
        for lo in range(0, size, _CHUNK):
            hi = min(lo + _CHUNK, size)
            p = (hi - lo) // 2
            _uniforms(seed, first + lo, u[: 2 * p], words)
            r, a, c = radius[:p], angle[:p], trig[:p]
            np.log(u[0 : 2 * p : 2], out=r)
            np.multiply(-2.0, r, out=r)
            np.sqrt(r, out=r)
            np.multiply(2.0 * np.pi, u[1 : 2 * p : 2], out=a)
            np.cos(a, out=c)
            np.multiply(r, c, out=out[lo:hi:2])
            np.sin(a, out=c)
            np.multiply(r, c, out=out[lo + 1 : hi : 2])
        return out[start - first : start - first + n]
