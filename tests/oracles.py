"""Definitional references that only the tests use: each computes by the
plain definition, for the library's fast routes to be checked against."""

import math

from umbral.combinatorics import enumerate_partitions
from umbral.core import Atom
from umbral.poisson import POISSON_PART, _poisson_cdf, _uniform_block
from umbral.poly import ZERO, Poly
from umbral.prng import Stream
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


def masked_poisson_counts(rates, stream: Stream, count: int, pidx):
    """Poisson counts of the first ``count`` draws of ``stream`` at the rate
    ``rates[pidx]`` for each draw, by the per-rate loop: a boolean mask per
    rate, and every masked draw of each part binary-searched in full, with
    part j >= 1 read at the same positions of ``stream.derive(j)``; the
    reference for the one-pass stacked table."""
    import numpy as np
    counts = np.zeros(count, dtype=np.int64)
    for i, v in enumerate(rates):
        mask = pidx == i
        parts = max(1, math.ceil(float(v) / POISSON_PART))
        cdf = _poisson_cdf(float(v) / parts)
        for j in range(parts):
            w = _uniform_block((stream.derive(j) if j else stream).seed, count)[mask]
            counts[mask] += np.searchsorted(cdf, w * 2.0 ** -53, side="right")
    return counts
