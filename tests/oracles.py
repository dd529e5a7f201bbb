"""Definitional references that only the tests use: each computes by the
plain definition, for the library's fast routes to be checked against."""

from umbral.combinatorics import enumerate_partitions
from umbral.core import Atom
from umbral.poly import ZERO, Poly
from umbral.series import Series


def mul_t(f: Series) -> Series:
    """f times t at fixed order (the top coefficient falls off)."""
    return Series.from_moments([0] + [a * k for k, a in enumerate(f.moments()[:-1], 1)])


def dot_moment(bar: Atom, mult: int, m: int):
    """E[(mult.bar)^m] via the generating-function route: m! times the t^m
    coefficient of [gf(bar)]^mult (mult may be negative), with gf(bar)
    truncated at t^m first; the reference for the Bell route."""
    return bar.egf.truncate(m).pow_int(mult).egf_moment(m)


def weighted_partition_sum(n: int, k: int, a) -> Poly:
    """Definitional oracle for B_{n,k}: sum over k-block partitions of the
    product of a_{block size} over blocks."""
    av = tuple(map(Poly.coerce, a))
    total = ZERO
    for w in enumerate_partitions(n):
        if w.num_blocks != k:
            continue
        prod = Poly.const(w.count)
        for s in w.block_sizes:
            prod = prod * av[s - 1]
        total = total + prod
    return total
