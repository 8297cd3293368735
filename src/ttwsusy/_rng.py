"""Seeded uniform sample points, bit-identical to numpy's ``default_rng``.

``UniformStream(seed).uniform(low, high, size)`` returns the numbers that
``numpy.random.default_rng(seed).uniform(low, high, size)`` returns, and
successive calls continue one stream, as they do on one numpy Generator.
The checks draw nothing but uniform points, and loading ``numpy.random``
costs about 5 MB of memory, so the package carries the two pieces it needs:

- numpy's ``SeedSequence`` (NEP 19) hashes the seed's little-endian 32-bit
  words into a pool of four, mixes the pool and expands it into four
  64-bit words (``generate_state(4, uint64)``);
- PCG64 (M. E. O'Neill, "PCG: A Family of Simple Fast Space-Efficient
  Statistically Good Algorithms for Random Number Generation",
  HMC-CS-2014-0905), seeded from those words: a 128-bit LCG whose output
  is the XSL-RR 128/64 permutation of its state.

A double in [0, 1) is the top 53 bits of one output times 2**-53, and a
point is ``low + (high - low) * double``, as in numpy.  The points
therefore depend on the seed alone, not on the installed numpy.
"""

from __future__ import annotations

import math
import numbers
import operator

import numpy as np

_MASK32 = (1 << 32) - 1
_MASK64 = (1 << 64) - 1
_MASK128 = (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# SeedSequence's hash constants and pool size
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4


def _seed_words(seed: int) -> list[int]:
    """``SeedSequence(seed).generate_state(4, np.uint64)`` as Python ints."""
    entropy = [seed & _MASK32]
    while seed := seed >> 32:
        entropy.append(seed & _MASK32)
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const & _MASK32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        value = (_MIX_L * x - _MIX_R * y) & _MASK32
        return value ^ value >> 16

    pool = [hashmix(entropy[i] if i < len(entropy) else 0) for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            pool[dst] = mix(pool[dst], hashmix(word))

    hash_const = _INIT_B
    words = []
    for i in range(2 * 4):
        value = pool[i % _POOL] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const & _MASK32
        words.append(value ^ value >> 16)
    return [words[2 * j] | words[2 * j + 1] << 32 for j in range(4)]


class UniformStream:
    """The uniform draws of ``numpy.random.default_rng(seed)`` for a
    nonnegative int seed."""

    def __init__(self, seed: int):
        seed = operator.index(seed)
        if not seed >= 0:
            raise ValueError(f"seed must be a nonnegative integer, got {seed}")
        w = _seed_words(seed)
        self._inc = (w[2] << 64 | w[3]) << 1 & _MASK128 | 1
        self._state = ((self._inc + (w[0] << 64 | w[1])) * _PCG_MULT + self._inc) & _MASK128

    def uniform(self, low: float, high: float, size) -> np.ndarray:
        """An array of shape ``size`` (an int or a tuple) of points in
        [low, high), the next ones of the stream, in C order."""
        shape = (size,) if isinstance(size, numbers.Integral) else tuple(size)
        low = float(low)
        span = float(high) - low
        state, inc = self._state, self._inc
        out = []
        for _ in range(math.prod(shape)):
            state = (state * _PCG_MULT + inc) & _MASK128
            rot = state >> 122
            x = ((state >> 64) ^ state) & _MASK64
            x = (x >> rot | x << (-rot & 63)) & _MASK64
            out.append(low + span * ((x >> 11) * 2.0**-53))
        self._state = state
        return np.array(out, dtype=float).reshape(shape)
