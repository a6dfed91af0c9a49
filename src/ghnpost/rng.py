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
any bit of it.  The stream is also random-access by position:
``normal_at(positions)`` generates only the pairs those positions fall in
and equals ``normal(n)[positions]`` bit for bit, so a caller that needs a
few scattered values (the noise step, where most of the noise is below
float32 resolution) skips the rest of the stream.
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


# Values per generator chunk: small enough that its work buffers stay in a
# core's L2 cache (CHANGES.md); even, so every chunk holds whole pairs.
_CHUNK = 1 << 14

# Counters 1 .. _CHUNK: word i of a chunk starting at word s has counter
# s + i + 1.  Shared and read-only.
_COUNTER = np.arange(1, _CHUNK + 1, dtype=np.uint64)
_COUNTER.flags.writeable = False


class _Words:
    """Work buffers of one generator call, sized for ``size`` values (even):
    splitmix64 words, uniforms and the Box-Muller temporaries."""

    def __init__(self, size: int):
        self.word = np.empty(size, dtype=np.uint64)
        self.shifted = np.empty(size, dtype=np.uint64)
        self.u = np.empty(size)
        self.radius, self.angle, self.trig = (np.empty(size // 2) for _ in range(3))


def _mix(seed: np.uint64, z: np.ndarray, t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Write the uniforms of the word counters in z into u (z and t are clobbered).

    The word of counter c is splitmix64 of ``seed + c * G``; the uniform
    keeps its top 53 bits: ``((word >> 11) + 1) * 2**-53``, exact in float64.
    """
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


def _uniforms(seed: np.uint64, start: int, u: np.ndarray, words: _Words) -> np.ndarray:
    """Write uniforms start .. start+len(u)-1 of the stream into u."""
    n = len(u)
    z = words.word[:n]
    np.add(_COUNTER[:n], np.uint64(start), out=z)
    return _mix(seed, z, words.shifted[:n], u)


def _box_muller(u: np.ndarray, even: np.ndarray, odd: np.ndarray, words: _Words) -> None:
    """Gaussians of the uniform pairs (u[2j], u[2j+1]) into even[j] and odd[j].

    ``normal`` and ``normal_at`` both come through here with u laid out as
    interleaved pairs, so numpy's log, cos and sin see the same strides and
    give the same bits either way.
    """
    p = len(u) // 2
    r, a, c = words.radius[:p], words.angle[:p], words.trig[:p]
    np.log(u[0::2], out=r)
    np.multiply(-2.0, r, out=r)
    np.sqrt(r, out=r)
    np.multiply(2.0 * np.pi, u[1::2], out=a)
    np.cos(a, out=c)
    np.multiply(r, c, out=even)
    np.sin(a, out=c)
    np.multiply(r, c, out=odd)


@dataclass(frozen=True)
class RngStream:
    """A named, deterministic Gaussian stream.

    Identical (master_seed, label) pairs produce identical sequences.
    """

    master_seed: int
    label: str = ""

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
        words = _Words(min(size, _CHUNK))
        out = np.empty(size, dtype=np.float64)
        for lo in range(0, size, _CHUNK):
            hi = min(lo + _CHUNK, size)
            u = _uniforms(seed, first + lo, words.u[: hi - lo], words)
            _box_muller(u, out[lo:hi:2], out[lo + 1 : hi : 2], words)
        return out[start - first : start - first + n]

    def normal_at(self, positions: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Standard-normal values at ``positions`` of the stream (float64).

        Equals ``normal(max(positions) + 1)[positions]`` bit for bit, but
        only the pairs the positions touch are generated: value p needs
        words 2j and 2j+1 of its pair j = p // 2 (counters 2j+1 and 2j+2).
        ``positions`` is a 1-D integer array in any order; the values go
        to ``out`` (a new array by default).  The work buffers have one
        size whatever the number of positions, so calls of varying size
        reuse the same heap blocks.
        """
        positions = np.asarray(positions)
        if out is None:
            out = np.empty(len(positions))
        if positions.size and positions.min() < 0:
            raise ValueError("positions must be non-negative")
        seed = self._seed()
        words = _Words(_CHUNK)
        for lo in range(0, len(positions), _CHUNK // 2):
            pos = positions[lo : lo + _CHUNK // 2]
            k = len(pos)
            z, u = words.word[: 2 * k], words.u[: 2 * k]
            np.bitwise_or(pos, 1, out=z[0::2], casting="unsafe")  # 2j + 1
            np.add(z[0::2], np.uint64(1), out=z[1::2])
            _mix(seed, z, words.shifted[: 2 * k], u)
            # Box-Muller overwrites u with the pair's two values, as normal
            # lays them out in its output; each position keeps its half.
            _box_muller(u, u[0::2], u[1::2], words)
            odd = words.shifted[:k].view(bool)[:k]  # free once _mix is done
            np.bitwise_and(pos, 1, out=odd, casting="unsafe")
            np.copyto(out[lo : lo + k], u[0::2])
            np.copyto(out[lo : lo + k], u[1::2], where=odd)
        return out
