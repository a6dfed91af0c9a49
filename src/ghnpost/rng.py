"""Deterministic, counter-based Gaussian random streams.

The generator is pinned as follows.  The words and uniforms come from
integer operations and exact float64 arithmetic, so their bits are the
same on every build and platform.  The Gaussians go through numpy's ``log``, ``cos``
and ``sin``, whose last bit can differ between numpy builds, between CPUs
and between the SIMD loops numpy dispatches to on one CPU (README
"Determinism"):

* substream seed = first 8 bytes (little-endian) of
  ``blake2b(master_seed as u64 LE || label as UTF-8, digest_size=8)``
* raw word i (0-based) = splitmix64 output for counter ``seed + (i+1) * G``
  with G = 0x9E3779B97F4A7C15 and the standard splitmix64 finalizer
  (shift-xor 30/27/31, multipliers 0xBF58476D1CE4E5B9, 0x94D049BB133111EB)
* uniform u_i = ((word_i >> 11) + 1) * 2**-53, in (0, 1]
* gaussians come from the Box-Muller transform on pairs (u_{2j}, u_{2j+1}):
  z_{2j} = sqrt(-2 ln u_{2j}) cos(2 pi u_{2j+1}),
  z_{2j+1} = sqrt(-2 ln u_{2j}) sin(2 pi u_{2j+1})

Streams are stateless: ``normal(n, 0)`` always returns the first n values
of the stream, ``normal(n, 0)`` is a prefix of ``normal(m, 0)`` for n <= m,
and ``normal(n, s)`` is values s .. s+n-1 of it.
Because every word is a pure function of (seed, counter), layers can be
processed in any order, or in parallel, with identical results; for the
same reason a stream is generated in fixed-size chunks without changing
any bit of it.  The stream is also random-access by position:
``normal_at(positions, out)`` generates only the pairs those positions
fall in and writes ``normal(n, 0)[positions]`` into ``out``, bit for bit, so
a caller that needs a few scattered values (the noise step, where most of
the noise is below float32 resolution) skips the rest of the stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

try:
    # CPython's own blake2b, which hashlib hands out too; importing hashlib
    # would also map OpenSSL's _hashlib (3.6 MB) into every command.
    from _blake2 import blake2b
except ImportError:  # a build without the module
    from hashlib import blake2b

_MASK64 = 0xFFFFFFFFFFFFFFFF
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def substream_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit seed for a named substream of a master seed: the
    8-byte blake2b digest of ``master_seed`` (mod 2**64) as 8 bytes
    little-endian followed by ``label`` as UTF-8, read little-endian.
    The digest is ``hashlib.blake2b``'s on every build, taken from
    CPython's ``_blake2`` where it exists, so that no command loads
    OpenSSL."""
    h = blake2b(digest_size=8)
    h.update((master_seed & _MASK64).to_bytes(8, "little"))
    h.update(label.encode("utf-8"))
    return int.from_bytes(h.digest(), "little")


# Values per generator chunk: small enough that its temporaries stay in a
# core's L2 cache (CHANGES.md); even, so every chunk holds whole pairs.
_CHUNK = 1 << 14

# Counters 1 .. _CHUNK: word i of a chunk starting at word s has counter
# s + i + 1.  Shared and read-only.
_COUNTER = np.arange(1, _CHUNK + 1, dtype=np.uint64)
_COUNTER.flags.writeable = False


def _mix(seed: np.uint64, z: np.ndarray) -> np.ndarray:
    """The uniforms of the word counters in z (z is clobbered).

    The word of counter c is splitmix64 of ``seed + c * G``; the uniform
    keeps its top 53 bits: ``((word >> 11) + 1) * 2**-53``, exact in float64.
    """
    z *= _GOLDEN
    z += seed
    for shift, mix in ((30, _MIX1), (27, _MIX2), (31, None)):
        z ^= z >> np.uint64(shift)
        if mix is not None:
            z *= mix
    z >>= np.uint64(11)
    u = z + 1.0
    u *= 2.0**-53
    return u


def _box_muller(u: np.ndarray, even: np.ndarray, odd: np.ndarray) -> None:
    """Gaussians of the uniform pairs (u[2j], u[2j+1]) into even[j] and odd[j].

    ``normal`` and ``normal_at`` both come through here with u laid out as
    interleaved pairs, so numpy's log, cos and sin see the same strides and
    give the same bits either way.
    """
    r = np.log(u[0::2])
    r *= -2.0
    np.sqrt(r, out=r)
    a = u[1::2] * (2.0 * np.pi)
    np.multiply(r, np.cos(a), out=even)
    np.multiply(r, np.sin(a), out=odd)


@dataclass(frozen=True)
class RngStream:
    """A named, deterministic Gaussian stream.

    Identical (master_seed, label) pairs produce identical sequences.
    """

    master_seed: int
    label: str

    def _seed(self) -> np.uint64:
        return np.uint64(substream_seed(self.master_seed, self.label))

    def normal(self, n: int, start: int) -> np.ndarray:
        """Standard-normal values start .. start+n-1 of the stream (float64).

        Any slice of the stream can be drawn on its own: consecutive calls
        with ``start`` advancing by ``n`` concatenate to ``normal(total, 0)``.
        """
        if n < 0 or start < 0:
            raise ValueError("n and start must be non-negative")
        seed = self._seed()
        first = start - start % 2  # whole pairs; the end values may be cut
        size = start + n + (start + n) % 2 - first
        out = np.empty(size, dtype=np.float64)
        for lo in range(0, size, _CHUNK):
            hi = min(lo + _CHUNK, size)
            u = _mix(seed, _COUNTER[: hi - lo] + np.uint64(first + lo))
            _box_muller(u, out[lo:hi:2], out[lo + 1 : hi : 2])
        return out[start - first : start - first + n]

    def normal_at(self, positions: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Standard-normal values at ``positions`` of the stream, written
        into ``out``, a float64 array of their length, and returned.

        Equals ``normal(max(positions) + 1, 0)[positions]`` bit for bit, but
        only the pairs the positions touch are generated: value p needs
        words 2j and 2j+1 of its pair j = p // 2 (counters 2j+1 and 2j+2).
        ``positions`` is a 1-D integer array in any order.  They are taken
        _CHUNK // 2 at a time, so the temporaries of a call hold at most
        _CHUNK values whatever the number of positions.
        """
        if positions.size and positions.min() < 0:
            raise ValueError("positions must be non-negative")
        seed = self._seed()
        for lo in range(0, len(positions), _CHUNK // 2):
            pos = positions[lo : lo + _CHUNK // 2]
            z = np.empty(2 * len(pos), dtype=np.uint64)
            np.bitwise_or(pos, 1, out=z[0::2], casting="unsafe")  # 2j + 1
            np.add(z[0::2], np.uint64(1), out=z[1::2])
            u = _mix(seed, z)
            # Box-Muller overwrites u with the pair's two values, as normal
            # lays them out in its output; each position keeps its half.
            _box_muller(u, u[0::2], u[1::2])
            out[lo : lo + len(pos)] = np.where(pos & 1, u[1::2], u[0::2])
        return out
