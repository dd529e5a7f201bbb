"""Deterministic 64-bit pseudo-random streams (SplitMix64).

SplitMix64 is the mixing generator of Steele, Lea and Flood: the i-th output
of the stream seeded with s is mix(s + (i+1) * GOLDEN) where GOLDEN is the
64-bit golden-ratio constant and mix is the fixed xor-shift/multiply
finalizer below.  Outputs are a pure function of (seed, index), which gives
splittable substreams: derive an independent stream as
``Stream(seed).derive(tag)`` without consuming state from the parent.  All
sampling in the package flows through this generator, so results depend only
on the documented seeds.
"""

from __future__ import annotations

from fractions import Fraction

MASK = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
MIX1 = 0xBF58476D1CE4E5B9
MIX2 = 0x94D049BB133111EB
NUM_MAX = 9  # small random rationals: numerators in [-NUM_MAX, NUM_MAX],
DENS = (1, 2, 3, 4)  # denominators drawn from DENS


def mix64(z: int) -> int:
    """The SplitMix64 finalizer on a 64-bit word."""
    z &= MASK
    z = ((z ^ (z >> 30)) * MIX1) & MASK
    z = ((z ^ (z >> 27)) * MIX2) & MASK
    return z ^ (z >> 31)


class Stream:
    """A sequential SplitMix64 stream with splittable substreams."""

    __slots__ = ("seed", "_index")

    def __init__(self, seed: int):
        self.seed = seed & MASK
        self._index = 0

    def at(self, index: int) -> int:
        """The index-th output (stateless access)."""
        return mix64(self.seed + (index + 1) * GOLDEN)

    def next_u64(self) -> int:
        out = self.at(self._index)
        self._index += 1
        return out

    def derive(self, tag: int) -> "Stream":
        """An independent child stream; children with distinct tags do not
        collide with each other or with the parent sequence."""
        return Stream(mix64(self.seed ^ mix64(tag ^ 0xD6E8FEB86659FD93)))

    # -- convenience draws -------------------------------------------------

    def randint(self, lo: int, hi: int) -> int:
        """Uniform integer in [lo, hi] (modulo reduction; spans here are
        tiny relative to 2^64, so the bias is negligible and deterministic)."""
        return lo + self.next_u64() % (hi - lo + 1)

    def rational(self) -> Fraction:
        """Small random rational: numerator in [-NUM_MAX, NUM_MAX],
        denominator drawn from ``DENS``."""
        num = self.randint(-NUM_MAX, NUM_MAX)
        return Fraction(num, DENS[self.next_u64() % len(DENS)])

    def nonzero_rational(self) -> Fraction:
        num = self.randint(1, NUM_MAX)
        sign = -1 if self.next_u64() & 1 else 1
        return Fraction(sign * num, DENS[self.next_u64() % len(DENS)])
