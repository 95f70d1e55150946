"""Portable deterministic random numbers for synthetic case generation.

Everything downstream of a seed must be reproducible byte-for-byte across
runs and platforms, so this module fixes the generator family and the exact
update recurrences instead of relying on library RNGs:

seeding (splitmix64), one step per call, all arithmetic mod 2**64:
    z = (state + 0x9E3779B97F4A7C15)
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    out = z ^ (z >> 31)

stream (xorshift64*), state never zero, all arithmetic mod 2**64:
    x ^= x >> 12
    x ^= (x << 25) & MASK64
    x ^= x >> 27
    out = (x * 0x2545F4914F6CDD1D) & MASK64

Derived quantities are defined on top of the u64 stream:
    u01    = (u64 >> 11) * 2.0**-53          in [0, 1)
    below  = u64 % n                          (documented modulo rule)
    normal = Box-Muller on ((u64 >> 11) + 1) * 2.0**-53 pairs, cos draw
             returned first, sin draw cached for the next call.

Named substreams are derived with FNV-1a 64 over the label's UTF-8 bytes,
xored into the parent seed material and re-mixed through splitmix64.
"""

from __future__ import annotations

import math

import numpy as np

MASK64 = (1 << 64) - 1

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def splitmix64(state: int) -> tuple[int, int]:
    """One splitmix64 step. Returns (new_state, output)."""
    state = (state + _SPLITMIX_GAMMA) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def fnv1a64(data: bytes) -> int:
    h = _FNV_OFFSET
    for b in data:
        h = ((h ^ b) * _FNV_PRIME) & MASK64
    return h


class Rng:
    """xorshift64* stream seeded through splitmix64.

    The integer stream is the portability contract; float helpers are thin,
    fully specified transforms of it.
    """

    def __init__(self, seed: int):
        self._seed_material = seed & MASK64
        sm = self._seed_material
        # xorshift state must be nonzero; skip zero outputs deterministically.
        state = 0
        while state == 0:
            sm, state = splitmix64(sm)
        self._x = state
        self._spare_normal: float | None = None

    def derive(self, label: str) -> "Rng":
        """Independent named substream of this generator's seed."""
        return Rng(self._seed_material ^ fnv1a64(label.encode("utf-8")))

    def u64(self) -> int:
        x = self._x
        x ^= x >> 12
        x ^= (x << 25) & MASK64
        x ^= x >> 27
        self._x = x
        return (x * 0x2545F4914F6CDD1D) & MASK64

    def u01(self) -> float:
        return (self.u64() >> 11) * 2.0**-53

    def below(self, n: int) -> int:
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.u64() % n

    def uniform(self, lo: float, hi: float) -> float:
        return lo + (hi - lo) * self.u01()

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        # (0, 1] for the log draw, [0, 1) for the angle draw
        u1 = ((self.u64() >> 11) + 1) * 2.0**-53
        u2 = (self.u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        theta = 2.0 * math.pi * u2
        self._spare_normal = r * math.sin(theta)
        return r * math.cos(theta)

    def normals(self, n: int) -> np.ndarray:
        return np.array([self.normal() for _ in range(n)], dtype=float)
