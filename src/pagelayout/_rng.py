"""Seeded pseudo-random numbers from the splitmix64 sequence.

The generator is pinned to a fixed algorithm (rather than a library
generator) so fixtures reproduce bit-identically anywhere:

    state_i = (seed + i * 0x9E3779B97F4A7C15) mod 2**64       for i = 1, 2, ...
    u64_i   = mix(state_i)

where ``mix`` is the splitmix64 finalizer

    z ^= z >> 30;  z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27;  z *= 0x94D049BB133111EB
    z ^= z >> 31

Uniform doubles take the top 53 bits: u64 >> 11 times 2**-53.  Normal
deviates come from the Box-Muller transform on consecutive uniform pairs.

Array draws evaluate the same counter formula block-wise: ``BLOCK``
counters at a time into small reused buffers, so an array of n draws takes
the same values and advances the counter by the same n as n scalar draws.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB

BLOCK = 8192  # counters per kernel call: each uint64/float64 buffer is 64 KB and stays in cache
_STEPS = np.arange(BLOCK, dtype=np.uint64) * np.uint64(_GOLDEN)  # i * golden mod 2**64


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK
    return z ^ (z >> 31)


def _splitmix(seed: int, first: int, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """u64 draws of counters ``[first, first + len(z))``, at most ``BLOCK``, into ``z``; ``t`` is scratch of the same length."""
    np.add(_STEPS[: len(z)], np.uint64((seed + first * _GOLDEN) & _MASK), out=z)
    for shift, mul in ((30, _MIX1), (27, _MIX2)):
        np.right_shift(z, np.uint64(shift), out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, np.uint64(mul), out=z)
    np.right_shift(z, np.uint64(31), out=t)
    np.bitwise_xor(z, t, out=z)
    return z


def _uniform(seed: int, first: int, out: np.ndarray, z: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Uniform doubles of counters ``[first, first + len(out))`` into ``out``, through the uint64 buffers ``z`` and ``t``."""
    _splitmix(seed, first, z, t)
    np.right_shift(z, np.uint64(11), out=z)
    return np.multiply(z, 2.0**-53, out=out)


def _box_muller(seed: int, first: int, n: int):
    """The n normal deviates of counters ``first, first + 1, ...`` as blocks ``(at, values)``: deviates ``[at, at + len(values))``.

    With ``m = (n + 1) // 2`` pairs, pair j takes its radius from counter ``first + j`` and its angle from
    ``first + m + j``; its cosine is deviate j and its sine deviate ``m + j``, the last sine dropped for odd n.
    Each block of pairs yields its cosines, then its sines, as views of reused buffers valid until the next block.
    """
    m = (n + 1) // 2
    size = min(m, BLOCK)
    z, t = np.empty(size, np.uint64), np.empty(size, np.uint64)
    r, cos, sin = np.empty(size), np.empty(size), np.empty(size)
    for s in range(0, m, BLOCK):
        k = min(BLOCK, m - s)
        rk, ck, sk, zk, tk = r[:k], cos[:k], sin[:k], z[:k], t[:k]
        _uniform(seed, first + s, rk, zk, tk)
        np.maximum(rk, 2.0**-53, out=rk)
        np.log(rk, out=rk)
        np.multiply(rk, -2.0, out=rk)
        np.sqrt(rk, out=rk)
        _uniform(seed, first + m + s, sk, zk, tk)  # the angle, then its sine in place
        np.multiply(sk, 2.0 * np.pi, out=sk)
        np.cos(sk, out=ck)
        np.multiply(ck, rk, out=ck)
        np.sin(sk, out=sk)
        np.multiply(sk, rk, out=sk)
        yield s, ck
        yield m + s, sk[: min(k, n - m - s)]


class Rng:
    """Counter-based splitmix64 stream; every draw advances the counter."""

    def __init__(self, seed: int):
        self._seed = int(seed) & _MASK
        self._count = 0

    def u64(self) -> int:
        self._count += 1
        return _mix((self._seed + self._count * _GOLDEN) & _MASK)

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        return lo + (hi - lo) * ((self.u64() >> 11) * 2.0**-53)

    def randint(self, lo: int, hi: int) -> int:
        """Integer in [lo, hi] inclusive."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.u64() % (hi - lo + 1)

    def normal(self) -> float:
        u1 = max(self.uniform(), 2.0**-53)
        u2 = self.uniform()
        return math.sqrt(-2.0 * math.log(u1)) * math.cos(2.0 * math.pi * u2)

    def _take(self, n: int) -> int:
        """Reserve the next n counters; returns the first."""
        first = self._count + 1
        self._count += n
        return first

    def u64_array(self, n: int) -> np.ndarray:
        first = self._take(n)
        out = np.empty(n, np.uint64)
        t = np.empty(min(n, BLOCK), np.uint64)
        for s in range(0, n, BLOCK):
            k = min(BLOCK, n - s)
            _splitmix(self._seed, first + s, out[s : s + k], t[:k])
        return out

    def uniform_array(self, n: int) -> np.ndarray:
        first = self._take(n)
        out = np.empty(n)
        z, t = np.empty(min(n, BLOCK), np.uint64), np.empty(min(n, BLOCK), np.uint64)
        for s in range(0, n, BLOCK):
            k = min(BLOCK, n - s)
            _uniform(self._seed, first + s, out[s : s + k], z[:k], t[:k])
        return out

    def normal_blocks(self, n: int):
        """``normal_array(n)`` as ``(at, values)`` blocks (see ``_box_muller``); the counters are taken now."""
        return _box_muller(self._seed, self._take(2 * ((n + 1) // 2)), n)

    def normal_array(self, n: int) -> np.ndarray:
        out = np.empty(n)
        for at, values in self.normal_blocks(n):
            out[at : at + len(values)] = values
        return out
