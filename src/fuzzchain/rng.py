"""Deterministic pseudo-random numbers for the differential check suites.

SplitMix64 is specified by algorithm rather than borrowed from the
standard library so that a given seed enumerates exactly the same trial
instances in any implementation of these checks, in any language.  It
is not meant for anything beyond reproducible test-case generation.
"""

from __future__ import annotations

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


class SplitMix64:
    """The SplitMix64 sequence: state += gamma; output = mix(state)."""

    def __init__(self, seed: int):
        self._state = seed & _MASK

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
        return z ^ (z >> 31)

    def below(self, n: int) -> int:
        """Uniform-ish integer in [0, n); modulo bias is irrelevant here."""
        if n <= 0:
            raise ValueError("below() needs a positive bound")
        return self.next_u64() % n

    def randint(self, lo: int, hi: int) -> int:
        """Integer in the inclusive range [lo, hi]."""
        return lo + self.below(hi - lo + 1)

    def chance(self, num: int, den: int) -> bool:
        return self.below(den) < num

    def choice(self, seq):
        return seq[self.below(len(seq))]

    def grade(self, points: int = 20) -> float:
        """A membership grade from the uniform grid {i/points}, i < points."""
        return self.below(points) / points

