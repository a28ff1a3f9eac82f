"""Deterministic, portable random numbers for simulations and sampling.

The generator is the splitmix construction on 64-bit state: each draw adds
the constant 0x9E3779B97F4A7C15 to the state and returns the finalizer

    z ^= z >> 30; z *= 0xBF58476D1CE4E5B9
    z ^= z >> 27; z *= 0x94D049BB133111EB
    z ^= z >> 31

applied to it (all arithmetic mod 2^64).  Identical seeds give identical
streams on every platform; nothing here depends on process state.

Derived streams: ``spawn(key)`` seeds a child with
``mix64(seed + (key + 1) * 0x9E3779B97F4A7C15)``, so per-trial streams are
a pure function of (seed, trial index).
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Seedable 64-bit splitmix stream."""

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK
        self._state = self.seed

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK
        return mix64(self._state)

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by rejection (no modulo bias)."""
        if n <= 0:
            raise ValueError("n must be positive")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.next_u64()
            if v < limit:
                return v % n

    def sample_indices(self, population: int, count: int) -> list[int]:
        """``count`` distinct indices from range(population), ascending."""
        if count > population:
            raise ValueError("sample larger than population")
        chosen: set[int] = set()
        while len(chosen) < count:
            chosen.add(self.randbelow(population))
        return sorted(chosen)

    def spawn(self, key: int) -> "SplitMix64":
        return SplitMix64(mix64(self.seed + (key + 1) * _GOLDEN))
