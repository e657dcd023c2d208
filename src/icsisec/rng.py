"""Counter-based 64-bit pseudorandom generator (splitmix64).

Output i of a stream is a pure function mix(seed + (i + 1) * GAMMA), so any
value can be regenerated from (seed, i) alone and two implementations that
agree on the mixing function agree on every stream. Frozen test vectors
live in tests/test_rng.py and pin the exact sequences bit for bit.

Bounded draws use the multiply-shift reduction (value * bound) >> 64, which
is deterministic and unbiased enough for sweep sampling at this scale.
"""

from __future__ import annotations

from typing import Sequence, TypeVar

_MASK64 = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

T = TypeVar("T")


def mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def stream_value(seed: int, index: int) -> int:
    """Output `index` (0-based) of the stream with the given seed."""
    return mix64((seed + (index + 1) * _GAMMA) & _MASK64)


class Rng:
    """Sequential view of one splitmix64 stream; draw i is stream_value(seed, i)."""

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = state = (self._state + _GAMMA) & _MASK64
        return mix64(state)

    def below(self, bound: int) -> int:
        """Uniform draw from [0, bound)."""
        if bound < 1:
            raise ValueError(f"bound must be positive, got {bound}")
        return (self.next_u64() * bound) >> 64

    def subset(self, items: Sequence[T], size: int) -> tuple[T, ...]:
        """size distinct items, by partial Fisher-Yates; order not preserved."""
        if not 0 <= size <= len(items):
            raise ValueError(f"cannot pick {size} of {len(items)} items")
        pool = list(items)
        for i in range(size):
            j = i + self.below(len(pool) - i)
            pool[i], pool[j] = pool[j], pool[i]
        return tuple(pool[:size])
