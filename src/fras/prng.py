"""Deterministic 64-bit PRNG: xoroshiro128+ seeded through splitmix64.

Rotation constants are (24, 16, 37), the 2021 revision of the generator.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return state, z ^ (z >> 31)


class Prng:
    """xoroshiro128+ stream; two splitmix64 outputs expand the seed."""

    __slots__ = ("_s0", "_s1")

    def __init__(self, seed: int):
        state = seed & _MASK
        state, s0 = _splitmix64(state)
        state, s1 = _splitmix64(state)
        if s0 == 0 and s1 == 0:
            # The all-zero state is the generator's single fixed point.
            s1 = 0x9E3779B97F4A7C15
        self._s0 = s0
        self._s1 = s1

    def next_u64(self) -> int:
        s0 = self._s0
        s1 = self._s1
        result = (s0 + s1) & _MASK
        s1 ^= s0
        self._s0 = (((s0 << 24) | (s0 >> 40)) & _MASK) ^ s1 ^ ((s1 << 16) & _MASK)
        self._s1 = ((s1 << 37) | (s1 >> 27)) & _MASK
        return result
