"""Exact combinatorial kernels: Stirling numbers, Bell numbers, partial and
complete Bell polynomials, exponential polynomials and Bernoulli numbers.

Partial Bell polynomials come from Comtet's recurrence on ints, which reads
no series (so the moment route of :mod:`umbral.ops` shares no kernel with the
generating-function route).  Every Bell sum sum_i w_i B_{n,i}(a) over one a
reads one cached triangle: int rows, or Kronecker images (a pack of this
module's own) held at the widest layout asked of it.  ``stirling_sum`` sums
sum_k S(n,k) v_k or sum_k s(n,k) v_k over the one Stirling row loop.
Recursion stays shallow: the digit split halves its input.  Memoization uses
``lru_cache``, and a wider pack replaces the held one as one object, so both
are safe under concurrent readers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb, lcm, prod

from .poly import Poly, rationals
from .series import Series


# -- Stirling numbers ---------------------------------------------------------


@lru_cache(maxsize=128)
def _stirling_row(kind: str, n: int) -> tuple:
    """Row n of S(n, k) for kind 'second', of the signed s(n, k) for
    'first_signed': row m from row m - 1 by S(m,j) = j S(m-1,j) + S(m-1,j-1)
    and s(m,j) = s(m-1,j-1) - (m-1) s(m-1,j), in one loop from row 0."""
    if kind not in ("second", "first_signed"):
        raise ValueError(f"unknown Stirling kind: {kind!r}")
    row, second = (1,), kind == "second"
    for m in range(1, n + 1):
        up = row + (0,)  # up[-1] = 0 stands for the j - 1 = -1 entry
        row = tuple((j if second else 1 - m) * up[j] + up[j - 1] for j in range(m + 1))
    return row


def stirling(kind: str, n: int, k: int) -> int:
    """Stirling number of the given kind ('second' or 'first_signed')."""
    if n < 0 or k < 0 or k > n:
        raise IndexError(f"stirling({kind}, {n}, {k}) outside 0 <= k <= n")
    return _stirling_row(kind, n)[k]


def stirling_sum(kind: str, n: int, values):
    """sum_k S(n,k) v_k ('second') or sum_k s(n,k) v_k ('first_signed') over
    row n, k = 0..n; ``values`` lists v_0..v_n at least.  The sum has the
    values' type: rational values give a rational."""
    if n < 0:
        raise IndexError("stirling_sum needs n >= 0")
    return sum(v * s for s, v in zip(_stirling_row(kind, n), values))


# -- Bell numbers --------------------------------------------------------------


@lru_cache(maxsize=128)
def bell_number(n: int) -> int:
    """n-th Bell number B_n = sum_k S(n,k)."""
    if n < 0:
        raise IndexError("bell_number needs n >= 0")
    return sum(_stirling_row("second", n))


# -- Bell polynomials -----------------------------------------------------------


def _padded(a, n: int) -> tuple:
    """a_1..a_n as given, a cut, or padded with ``0``, to n entries."""
    return (tuple(a) + (0,) * n)[:n]


def _lifted(values, graded: bool) -> tuple:
    """(D, the values D^i v_i, i = 1, 2, ..., if ``graded``, else D v_i), D
    the lcm of every coefficient denominator: ints when every value is
    rational (an all-int list as it is, D = 1), else int-coefficient ``Poly``
    values; an ``int`` is its own numerator over 1."""
    q = rationals(values)
    values = values if q is None else q
    d = lcm(*(c.denominator for v in values
              for c in (v.terms.values() if type(v) is Poly else (v,))))
    out = []
    for i, v in enumerate(values, 1):
        s = d ** i if graded else d
        out.append(Poly({m: c.numerator * (s // c.denominator) for m, c in v.terms.items()})
                   if type(v) is Poly else v.numerator * (s // v.denominator))
    return d, out


def _comtet(a) -> list:
    """Rows 0..len(a) of B_{n,k}(a) on ints a_i by Comtet's recurrence B_{n,k} =
    sum_{i=1..n-k+1} C(n-1,i-1) a_i B_{n-i,k-1} (Advanced Combinatorics, 1974,
    3.3), the one loop behind every Bell sum.  Its weights are nonnegative, so
    on the 1-norms |a_i| (sums of |c|) it bounds every |B_{n,k}(a)|."""
    rows = [(1,)]
    for n in range(1, len(a) + 1):
        ca = [comb(n - 1, i) * a[i] for i in range(n)]
        row = [0]
        for k in range(1, n + 1):
            acc = 0
            for i in range(n - k + 1):
                acc += ca[i] * rows[n - 1 - i][k - 1]
            row.append(acc)
        rows.append(tuple(row))
    return rows


def _norm(v) -> int:
    """The 1-norm of an int or of an int-coefficient ``Poly``."""
    return sum(map(abs, v.terms.values())) if type(v) is Poly else abs(v)


def _degrees(values) -> dict:
    """Each indeterminate of int and ``Poly`` values with its largest degree."""
    ms = [dict(m) for v in values if type(v) is Poly for m in v.terms]
    return {x: max(m.get(x, 0) for m in ms) for x in set().union(*ms)}


def _kronecker(layout) -> tuple:
    """(pack, unpack) at ``layout`` = (b, ((v_1, R_1), (v_2, R_2), ...)).  ``pack``,
    v_j -> 2^(b s_j), s_j = R_1 ... R_(j-1), is a ring homomorphism into Z, so
    Comtet's loop and a weighted row sum on images give the images of their
    results, exact at any layout.  ``unpack`` reads a value back when each |c| <
    h = 2^(b-1) and each degree in v_j is below R_j, so a wider layout decodes it
    too.  It adds h at n digits to split them by halves; a top digit t != 0 gives
    |v| > 2^(bt-2) for b >= 2, so n = (bit length of |v| + 1) // b + 1."""
    b, (variables, radix) = layout[0], zip(*layout[1])
    slot = {x: prod(radix[:j]) for j, x in enumerate(variables)}
    monomials = [tuple(sorted((x, e) for x, e in zip(variables, reversed(es)) if e))
                 for es in product(*map(range, reversed(radix)))]
    h, mask = 1 << b - 1, (1 << b) - 1

    def pack(v) -> int:
        return sum(c << b * sum(e * slot[x] for x, e in m)
                   for m, c in v.terms.items()) if type(v) is Poly else v

    def digits(u: int, n: int) -> list:
        m = n // 2
        return ([u >> b * j & mask for j in range(n)] if n <= 16
                else digits(u & (1 << b * m) - 1, m) + digits(u >> b * m, n - m))

    def unpack(v: int) -> list:
        n = min(len(monomials), (abs(v).bit_length() + 1) // b + 1)
        u = v + h * ((1 << b * n) - 1) // mask
        return [(m, c - h) for m, c in zip(monomials, digits(u, n)) if c != h]

    return pack, unpack


@lru_cache(maxsize=1024)  # keyed by moment tuples: bounded for long sessions
def _bell_triangle_cached(a: tuple) -> list:
    """[D, N, A, degrees, (layout, rows)], the one triangle every Bell sum over a
    reads: B_{n,k}(a) = rows[n][k] / D^n, 0 <= k <= n <= len(a), by :func:`_comtet`
    on A = (D^i a_i), D the lcm of all denominators (B_{n,k} has weight n).  For
    rational a, rows are ints, their own images at any layout, and N = rows.  Else
    N is the loop on 1-norms, and degrees maps v to floor(len(a) max_i deg_v a_i /
    i), which bounds deg_v of each product a_(i_1) ... a_(i_m) with i_1 + ... +
    i_m = n, so of B_{n,k}(a); :func:`_packed` packs the rows.  Row n reads only
    a_1..a_n, so one triangle per sequence serves every n."""
    d, a = _lifted(a, True)
    if all(type(v) is int for v in a):
        return [d, rows := _comtet(a), (), {}, ((0, ()), rows)]
    return [d, _comtet(list(map(_norm, a))), a, {x: max(len(a) * _degrees([v]).get(x, 0) // i
            for i, v in enumerate(a, 1)) for x in _degrees(a)}, ((0, ()), None)]


def _packed(entry, bound: int, weights=()) -> tuple:
    """(rows, pack, unpack) of a's triangle ``entry`` at the least layout that covers
    the held one and a sum of 1-norm <= ``bound`` over ``weights``; a layout wider
    than the held one packs x-carrying a's rows once, swapped in as one object."""
    held, rows = entry[-1]
    wd, radix = _degrees(weights), dict(held[1])
    for x in set(wd).union(entry[3]):
        radix[x] = max(radix.get(x, 0), wd.get(x, 0) + entry[3].get(x, 0) + 1)
    layout = max(held[0], bound.bit_length() + 1), tuple(  # a's variables inner
        sorted(radix.items(), key=lambda p: (p[0] not in entry[3], p[0])))
    pack, unpack = _kronecker(layout)
    if layout != held and entry[2]:
        entry[-1] = layout, rows = layout, _comtet(list(map(pack, entry[2])))
    return rows, pack, unpack


def _over(v, s):
    """v / s for an int or int-coefficient ``Poly`` v: v when s == 1, else each
    coefficient a ``Fraction``, or its numerator if integral."""
    if s == 1:
        return v
    if type(v) is Poly:
        return Poly({m: _over(c, s) for m, c in v.terms.items()})
    q = Fraction(v, s)
    return q.numerator if q.denominator == 1 else q


def bell_sums(groups, a):
    """Yield sum_i w_i B_{k,i}(a_1, a_2, ...) for each (w, ks) in ``groups`` and
    each k in ks, from one lookup of a's triangle; a lists a_1..a_(max k) at least.
    With w_i = u_i / E it is sum_i u_i rows[k][i] / (E D^k), scaled back once; on
    images (:func:`_packed`, bound max_k sum_i |u_i| |N_{k,i}|) it unpacks once."""
    d, norms, _, degrees, (_, rows) = entry = _bell_triangle_cached(tuple(a))
    groups = [(*_lifted(w, False), ks) for w, ks in groups]
    if packed := degrees or any(type(u) is Poly for _, w, _ in groups for u in w):
        rows, pack, unpack = _packed(entry, max((
            sum(u * abs(p) for u, p in zip(uw, norms[k]) if u)
            for _, w, ks in groups for uw in [list(map(_norm, w))] for k in ks), default=0),
            [u for _, w, _ in groups for u in w])
    for e, w, ks in groups:
        w = list(map(pack, w)) if packed else w
        for k in ks:
            acc, s = sum(u * p for u, p in zip(w, rows[k])), e * d ** k
            yield Poly({m: _over(c, s) for m, c in unpack(acc)}) if packed else _over(acc, s)


def bell_transform(weights, a, n: int) -> list:
    """m_k = sum_{i<=k} w_i B_{k,i}(a_1, a_2, ...) for k = 0..n, the
    :func:`bell_moment` of each row 0..n; a lists a_1..a_n at least."""
    return list(bell_sums([(weights, range(n + 1))], a))


def bell_moment(weights, a, n: int):
    """m_n = sum_{i<=n} w_i B_{n,i}(a_1, a_2, ...) alone, from row n of a's
    triangle; a lists a_1..a_n at least."""
    return next(bell_sums([(weights, (n,))], a))


def bell_triangle(a, max_n: int) -> tuple:
    """Every B_{n,k}(a_1,..) up to n = max_n, a cut or zero-padded to max_n; packed
    rows unpack at a layout that bounds every entry."""
    d, norms, _, degrees, (_, rows) = entry = _bell_triangle_cached(_padded(a, max_n))
    if degrees:
        rows, _, unpack = _packed(entry, max(map(max, norms)))
        rows = [[Poly(unpack(v)) for v in row] for row in rows]
    return tuple(tuple(Poly.coerce(_over(b, d ** n)) for b in row)
                 for n, row in enumerate(rows))


def partial_bell(n: int, k: int, a) -> Poly:
    """B_{n,k}(a_1,...,a_{n-k+1}): row n weighted 1 at k; a lists a_1 first."""
    if not (1 <= k <= n):
        raise IndexError(f"partial_bell needs 1 <= k <= n, got n={n}, k={k}")
    if len(a) < n - k + 1:
        raise IndexError(f"partial_bell(n={n}, k={k}) needs {n - k + 1} arguments")
    return Poly.coerce(bell_moment([0] * k + [1], _padded(a, n), n))


def complete_bell(n: int, a) -> Poly:
    """Y_n(a_1,...,a_n) = sum_{k=1..n} B_{n,k}: row n weighted 1; Y_0 = 1."""
    if n < 0:
        raise IndexError("complete_bell needs n >= 0")
    if len(a) < n:
        raise IndexError(f"complete_bell({n}) needs {n} arguments")
    return Poly.coerce(bell_moment([1] * (n + 1), a[:n], n))


@lru_cache(maxsize=128)
def exponential_poly(n: int) -> Poly:
    """The n-th exponential polynomial: sum_k S(n,k) x^k, one Stirling row."""
    if n < 0:
        raise IndexError("exponential_poly needs n >= 0")
    x = Poly.var("x")
    return stirling_sum("second", n, [x ** k for k in range(n + 1)])


# -- Bernoulli numbers ------------------------------------------------------------


@lru_cache(maxsize=128)
def _bernoulli_egf(order: int) -> Series:
    # reciprocal of (e^t - 1)/t, whose moments are 1/(k+1)
    base = Series.from_moments([Fraction(1, k + 1) for k in range(order + 1)])
    return base.pow_int(-1)


def bernoulli_number(n: int) -> Fraction:
    """n-th Bernoulli number, read off as the n-th EGF moment of t/(e^t - 1)."""
    if n < 0:
        raise IndexError("bernoulli_number needs n >= 0")
    return Fraction(_bernoulli_egf(n).egf_moment(n))
