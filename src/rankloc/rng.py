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

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def mix64(z: int) -> int:
    z &= _MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 array arithmetic wraps mod 2^64, as ``mix64`` masks
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


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

    def randbelow_array(self, bounds) -> np.ndarray:
        """``[randbelow(b) for b in bounds]`` as a uint64 array, drawn in blocks.

        Consumes exactly the draws of that loop, so the stream and the final
        state match it.  Bounds must lie in [1, 2^64).  Each block runs the
        remaining positions up to the first rejected draw, then the next
        block resumes from the draw after it.
        """
        bounds = np.asarray(bounds, dtype=np.uint64).reshape(-1)
        if (bounds == 0).any():
            raise ValueError("n must be positive")
        same = bounds.size > 0 and bool((bounds == bounds[0]).all())
        if same:
            # one bound, so one scalar limit; a power of two divides 2^64,
            # so it rejects no draw and the remainder is a mask
            b = int(bounds[0])
            if not b & (b - 1):
                vals = self._block(bounds.size)
                self._skip(bounds.size)
                return vals & np.uint64(b - 1)
            bound, limit = np.uint64(b), np.uint64((1 << 64) - (1 << 64) % b)
        else:
            # limit = 2^64 - (2^64 mod b); 0 stands for 2^64 (b a power of two)
            limit = np.uint64(0) - (np.uint64(0) - bounds) % bounds
        out = np.empty(bounds.size, dtype=np.uint64)
        done = 0
        while done < bounds.size:
            vals = self._block(bounds.size - done)
            if same:
                rejected = np.flatnonzero(vals >= limit)
            else:
                lim = limit[done:]
                rejected = np.flatnonzero((lim != 0) & (vals >= lim))
            kept = int(rejected[0]) if rejected.size else vals.size
            out[done : done + kept] = vals[:kept] % (
                bound if same else bounds[done : done + kept]
            )
            self._skip(kept + 1 if rejected.size else kept)
            done += kept
        return out

    def _block(self, count: int) -> np.ndarray:
        """The next ``count`` draws as a uint64 array; the state stays put."""
        steps = np.arange(1, count + 1, dtype=np.uint64)
        return _mix64_array(steps * np.uint64(_GOLDEN) + np.uint64(self._state))

    def _skip(self, count: int) -> None:
        self._state = (self._state + count * _GOLDEN) & _MASK

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
