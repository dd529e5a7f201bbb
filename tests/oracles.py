"""Definitional references that only the tests use: each computes by the
plain definition, for the library's fast routes to be checked against."""

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache, reduce

from umbral.combinatorics import bell_moment, stirling_sum
from umbral.core import Atom
from umbral.errors import TooLarge
from umbral.ops import falling_factorials
from umbral.poisson import POISSON_PART, _mix53, _poisson_cdf
from umbral.poly import ZERO, Poly
from umbral.prng import GOLDEN, MASK, Stream
from umbral.series import Series

ENUMERATION_CAP = 12


def mul_t(f: Series) -> Series:
    """f times t at fixed order (the top coefficient falls off)."""
    return Series.from_moments([0] + [a * k for k, a in enumerate(f.moments()[:-1], 1)])


def binomial_product(factors) -> list:
    """The moments of a product of series, by the binomial convolution of their
    moments two at a time, c_n = sum_k C(n,k) a_k b_(n-k), each a ``Poly``:
    the reference for ``Series.product``."""
    def convolve(a, b):
        return [sum((math.comb(n, k) * a[k] * b[n - k] for k in range(n + 1)), ZERO)
                for n in range(len(a))]
    return reduce(convolve, [list(map(Poly.coerce, f.moments())) for f in factors])


# -- the int kernels of ``series`` and ``combinatorics``, each by the plain
# recurrence its docstring states: every index summed, no term skipped


def convolve(a, b) -> list:
    """c_n = sum_k C(n,k) a_k b_(n-k) for n < len(a)."""
    return [sum(math.comb(n, k) * a[k] * b[n - k] for k in range(n + 1)) for n in range(len(a))]


def miller(a, r, q=1, log=False) -> list:
    """X_0 = 1 (0 with ``log``), X_m = sum_{k=1..m} (r C(m-1,k-1) - q C(m-1,k))
    a_k X_(m-k), plus a_m with ``log``."""
    x = [0 if log else 1]
    for m in range(1, len(a)):
        x.append((a[m] if log else 0) + sum(
            (r * math.comb(m - 1, k - 1) - q * math.comb(m - 1, k)) * a[k] * x[m - k]
            for k in range(1, m + 1)))
    return x


def compose(g, h) -> list:
    """sum_k g_k (N! / k!) H_k[m], H_0 = (1, 0, 0, ...) and H_k = h H_(k-1) by
    :func:`convolve`, N = len(g) - 1."""
    n, power, out = len(g) - 1, [1] + [0] * (len(g) - 1), [0] * len(g)
    for k in range(n + 1):
        out = [o + g[k] * (math.factorial(n) // math.factorial(k)) * p
               for o, p in zip(out, power)]
        power = convolve(h, power)
    return out


def revert(k) -> list:
    """w_0 = 0, w_1 = 1 and sum_{j=1..m} K_j P[j][m] / j! = 0 for m >= 2, P[j]
    the moments of w^j by :func:`convolve`: w_m = P[1][m] is the only term
    that reads w_m, as K_1 = 1."""
    w = [0, 1] + [0] * (len(k) - 2)
    for m in range(2, len(k)):
        powers = [w]
        for _ in range(2, m + 1):
            powers.append(convolve(w, powers[-1]))
        w[m] = -sum(Fraction(k[j] * p[m], math.factorial(j))
                    for j, p in enumerate(powers[1:], 2))
        assert w[m].denominator == 1
        w[m] = w[m].numerator
    return w


def comtet(a) -> list:
    """Rows 0..len(a) of B_(n,k)(a_1, a_2, ...), a_i = a[i - 1]: B_(0,0) = 1,
    B_(n,0) = 0 for n >= 1, and B_(n,k) = sum_{i=1..n-k+1} C(n-1,i-1) a_i
    B_(n-i,k-1)."""
    rows = [(1,)]
    for n in range(1, len(a) + 1):
        rows.append((0,) + tuple(
            sum(math.comb(n - 1, i - 1) * a[i - 1] * rows[n - i][k - 1]
                for i in range(1, n - k + 2))
            for k in range(1, n + 1)))
    return rows


def dot_moment(bar: Atom, mult: int, m: int):
    """E[(mult.bar)^m] via the generating-function route: m! times the t^m
    coefficient of [gf(bar)]^mult (mult may be negative), with gf(bar)
    truncated at t^m first; the reference for the Bell route."""
    return bar.egf.truncate(m).pow_int(mult).egf_moment(m)


def dot_moment_formula(bar: Atom, mult: int, m: int):
    """E[(mult.bar)^m] (mult may be negative) through the falling-factorial
    Bell expansion of bar's moments, row m of its triangle: the moment route
    of ``inversion.revert_umbral`` one moment at a time."""
    return bell_moment(falling_factorials(mult, m), bar.moments[1:], m)


def falling_factorial_moment(beta: Atom, i: int) -> Poly:
    """E[(beta)_i] = sum_j s(i,j) b_j, the signed-Stirling expansion of the
    falling factorial."""
    return Poly.coerce(stirling_sum("first_signed", i, beta.moments))


def dobinski_bracket(n: int, x0: Fraction):
    """(lower, upper, ratio) of ``identities._dobinski_bracket``, its two
    partial sums built term by term as ``Fraction``s."""
    K = 4 * n + 40
    s_num = sum(Fraction(k ** n) * x0 ** k / math.factorial(k) for k in range(K + 1))
    s_den = sum(x0 ** k / Fraction(math.factorial(k)) for k in range(K + 1))
    tail_num = Fraction((K + 1) ** n) * x0 ** (K + 1) / math.factorial(K + 1) * 2
    tail_den = x0 ** (K + 1) / Fraction(math.factorial(K + 1)) * 2
    return s_num / (s_den + tail_den), (s_num + tail_num) / s_den, s_num / s_den


@dataclass(frozen=True)
class PartitionWeight:
    """A block-size multiset (sorted descending) with its multiplicity among
    all set partitions of an n-set."""

    block_sizes: tuple
    count: int

    @property
    def num_blocks(self) -> int:
        return len(self.block_sizes)


@lru_cache(maxsize=None)
def enumerate_partitions(n: int) -> tuple:
    """Enumerate every set partition of an n-set, tallied by block sizes.

    Walks the block-joining tree (each element either joins an existing
    block or opens a new one), so the leaf count per size-multiset is the
    literal number of set partitions with that shape.  The walk stops at
    ``ENUMERATION_CAP``.
    """
    if n < 0:
        raise IndexError("enumerate_partitions needs n >= 0")
    if n > ENUMERATION_CAP:
        raise TooLarge(f"enumeration capped at n = {ENUMERATION_CAP}")
    if n == 0:
        return (PartitionWeight((), 1),)
    tally: dict = {}
    sizes: list = []

    def walk(i: int):
        if i == n:
            key = tuple(sorted(sizes, reverse=True))
            tally[key] = tally.get(key, 0) + 1
            return
        for j in range(len(sizes)):
            sizes[j] += 1
            walk(i + 1)
            sizes[j] -= 1
        sizes.append(1)
        walk(i + 1)
        sizes.pop()

    walk(0)
    return tuple(PartitionWeight(k, c) for k, c in sorted(tally.items(), reverse=True))


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


def uniform_block(seed: int, count: int):
    """The first ``count`` draws of the SplitMix64 stream ``seed`` as 53-bit
    ints, in a fresh array."""
    import numpy as np
    z = np.arange(1, count + 1, dtype=np.uint64)
    z *= np.uint64(GOLDEN)
    z += np.uint64(seed & MASK)
    return _mix53(z)


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
            w = uniform_block((stream.derive(j) if j else stream).seed, count)[mask]
            counts[mask] += np.searchsorted(cdf, w * 2.0 ** -53, side="right")
    return counts
