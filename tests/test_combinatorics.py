import sys
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from math import comb, prod

import pytest
from hypothesis import given, settings, strategies as st

from umbral.combinatorics import (
    _bell_triangle_cached,
    bell_moment,
    bell_number,
    bell_sums,
    bell_transform,
    bell_triangle,
    bernoulli_number,
    complete_bell,
    exponential_poly,
    partial_bell,
    stirling,
)
from umbral import combinatorics, core, identities, inversion, ops, poly, series
from umbral.errors import TooLarge
from umbral.poly import ONE, ZERO, Poly
from umbral.prng import Stream

from oracles import enumerate_partitions, weighted_partition_sum

x = Poly.var("x")


def test_floats_are_rejected_where_values_enter():
    with pytest.raises(TypeError):
        partial_bell(3, 2, [1 / 3, 1])
    with pytest.raises(TypeError):
        bell_triangle([1 / 3, 1], 3)


def test_stirling_second_against_enumeration():
    # S(4,2) = number of 2-block set partitions of a 4-set
    two_block = sum(w.count for w in enumerate_partitions(4) if w.num_blocks == 2)
    assert stirling("second", 4, 2) == two_block == 7
    for n in range(9):
        for k in range(n + 1):
            by_enum = sum(w.count for w in enumerate_partitions(n)
                          if w.num_blocks == k)
            assert stirling("second", n, k) == by_enum


def test_stirling_diagonal_and_bounds():
    for n in range(8):
        assert stirling("second", n, n) == 1
        assert stirling("first_signed", n, n) == 1
    with pytest.raises(IndexError):
        stirling("second", 3, 4)
    with pytest.raises(IndexError):
        stirling("second", -1, 0)
    with pytest.raises(ValueError):
        stirling("third", 3, 1)
    # past the default recursion limit: the rows are built by a loop
    assert stirling("second", 1200, 2) == 2 ** 1199 - 1
    assert stirling("second", 1200, 1199) == comb(1200, 2)
    assert stirling("first_signed", 1200, 1) == -series.factorial(1199)
    assert stirling("first_signed", 1200, 1199) == -comb(1200, 2)
    assert series.factorial(1200) == prod(range(1, 1201))


def test_stirling_first_by_falling_factorial_expansion():
    # (x)_n = sum_k s(n,k) x^k, by direct multiplication
    for n in range(1, 8):
        ff = ONE
        for j in range(n):
            ff = ff * (x - j)
        expansion = sum((x ** k) * stirling("first_signed", n, k)
                        for k in range(n + 1))
        assert ff == expansion
    assert stirling("first_signed", 3, 1) == 2


def test_stirling_kinds_are_inverse_triangles():
    for i in range(11):
        for m in range(11):
            total = sum(stirling("first_signed", i, j) * stirling("second", j, m)
                        for j in range(min(i, 10) + 1) if j <= i and m <= j)
            assert total == (1 if i == m else 0)


def test_bell_numbers():
    assert bell_number(0) == 1
    assert bell_number(5) == 52
    for n in range(13):
        assert bell_number(n) == sum(stirling("second", n, k) for k in range(n + 1))


def test_bell_numbers_match_the_binomial_recurrence():
    # B_n = sum_k C(n-1,k) B_k, with no Stirling row involved
    b = [1]
    for n in range(1, 201):
        b.append(sum(comb(n - 1, k) * b[k] for k in range(n)))
    assert [bell_number(n) for n in range(201)] == b


def test_partial_bell_basics():
    a = [Poly.var(f"a{i}") for i in range(1, 9)]
    for n in range(1, 8):
        assert partial_bell(n, 1, a) == a[n - 1]
        assert partial_bell(n, n, a) == a[0] ** n
    assert partial_bell(3, 2, a) == 3 * a[0] * a[1]
    with pytest.raises(IndexError):
        partial_bell(3, 0, a)
    with pytest.raises(IndexError):
        partial_bell(3, 2, a[:1])


def test_partial_bell_matches_partition_oracle():
    stream = Stream(7)
    for n in range(1, 11):
        a = [Poly.const(stream.rational()) for _ in range(n)]
        for k in range(1, n + 1):
            assert partial_bell(n, k, a) == weighted_partition_sum(n, k, a)


rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
moment = st.one_of(rationals, st.just(Fraction(0)),
                   st.builds(lambda r, s: r + s * x, rationals, rationals))


def canonical(c) -> bool:
    """c is an ``int``, or a ``Fraction`` with a denominator left."""
    return type(c) is int or type(c) is Fraction and c.denominator > 1


def canonical_coefficients(values) -> bool:
    """Every value, or every coefficient of a ``Poly`` value, is
    :func:`canonical`: one representation per rational, never a float."""
    return all(canonical(c) for v in values
               for c in (v.terms.values() if type(v) is Poly else (v,)))


@settings(max_examples=40, deadline=None)
@given(st.lists(moment, min_size=1, max_size=8))
def test_bell_triangle_matches_partition_oracle(a):
    # zeros, signs, unequal denominators and x-carrying moments all go
    # through the one recurrence, with and without a common denominator
    a = [Poly.coerce(v) for v in a]
    n_max = len(a)
    tri = bell_triangle(a, n_max)
    assert tri[0] == (ONE,)
    for n in range(1, n_max + 1):
        assert tri[n][0] == 0
        for k in range(1, n + 1):
            assert tri[n][k] == weighted_partition_sum(n, k, a)
    assert all(map(canonical_coefficients, tri))


weight = st.one_of(st.integers(-4, 4), rationals, rationals.map(Poly.const),
                   moment.map(Poly.coerce))


@settings(max_examples=60, deadline=None)
@given(st.lists(moment, max_size=7), st.data())
def test_bell_transform_matches_partition_oracle(a, data):
    # m_k = sum_i w_i B_{k,i}(a) for weights given as ints, Fractions,
    # constant Polys and x-carrying Polys, over rational or x-carrying a
    n = len(a)
    w = data.draw(st.lists(weight, min_size=n + 1, max_size=n + 1))
    m = bell_transform(w, a, n)
    assert len(m) == n + 1
    for k in range(n + 1):
        assert m[k] == sum((w[i] * weighted_partition_sum(k, i, a)
                            for i in range(k + 1)), ZERO) == bell_moment(w, a, k)
    assert canonical_coefficients(m)
    if all(Poly.coerce(v).is_constant() for v in w + a):
        assert all(map(canonical, m))


RINGS = {"Z": (), "Z[x]": ("x",), "Z[y]": ("y",), "Z[x,y]": ("x", "y")}


def over(names):
    """Elements of Z[names] of degree at most 2 with coefficients in
    [-4, 4], zero among them; plain ints over Z."""
    if not names:
        return st.integers(-4, 4)
    gens = [Poly.var(v) for v in names]
    monomials = [ONE] + gens + [g * h for i, g in enumerate(gens) for h in gens[i:]]
    return st.lists(st.integers(-4, 4), min_size=len(monomials), max_size=len(monomials)).map(
        lambda cs: sum((c * m for c, m in zip(cs, monomials)), ZERO))


@pytest.mark.parametrize("a_ring", RINGS)
@pytest.mark.parametrize("w_ring", RINGS)
@settings(max_examples=25, deadline=None)
@given(st.integers(0, 7), st.data())
def test_packed_bell_sums_match_partition_oracle(w_ring, a_ring, n, data):
    # the Kronecker-packed triangle and weighted sums on every pairing of
    # Z, Z[x], Z[y] and Z[x, y] (a in y with weights in x among them), with
    # negative coefficients and zero moments, against the definitional sum
    a = data.draw(st.lists(over(RINGS[a_ring]), min_size=n, max_size=n))
    w = data.draw(st.lists(over(RINGS[w_ring]), min_size=n + 1, max_size=n + 1))
    _bell_triangle_cached.cache_clear()
    m = bell_transform(w, a, n)
    for k in range(n + 1):
        assert m[k] == sum((w[i] * weighted_partition_sum(k, i, a)
                            for i in range(k + 1)), ZERO) == bell_moment(w, a, k)
    assert canonical_coefficients(m)


y = Poly.var("y")
# weight vectors of one triangle's sums, from narrow to wide: rational;
# zero-heavy (3)_i; ints near 2^70 (a wider digit); (x)_i (a larger radix in
# x); y^i (a variable more over x-carrying a)
WEIGHTS = {
    "rational": lambda n, draw: draw(st.lists(rationals, min_size=n + 1, max_size=n + 1)),
    "(3)_i": lambda n, draw: ops.falling_factorials(3, n),
    "near 2^70": lambda n, draw: draw(st.lists(st.integers(2 ** 70 - 9, 2 ** 70 + 9),
                                               min_size=n + 1, max_size=n + 1)),
    "(x)_i": lambda n, draw: ops.falling_factorials(x, n),
    "y^i": lambda n, draw: [y ** i for i in range(n + 1)],
}
A_RINGS = {"rational": rationals,
           "x-carrying": st.builds(lambda r, s, e: r + s * x ** e,
                                   rationals, rationals.filter(bool), st.integers(1, 2))}


@pytest.mark.parametrize("ring", A_RINGS)
@settings(max_examples=25, deadline=None)
@given(st.integers(1, 6), st.data())
def test_one_cached_triangle_serves_every_layout_in_any_order(ring, n, data):
    # one triangle, read by weight vectors in a drawn order without clearing the
    # cache, so each sum meets whatever layout the sums before it left held
    a = data.draw(st.lists(A_RINGS[ring], min_size=n, max_size=n))
    oracle = [[weighted_partition_sum(k, i, a) for i in range(k + 1)] for k in range(n + 1)]

    def summed(w, k):
        return sum((c * b for c, b in zip(w, oracle[k])), ZERO)
    _bell_triangle_cached.cache_clear()
    narrow = bell_triangle(a, n)
    assert narrow == tuple(map(tuple, oracle))
    weights = {name: make(n, data.draw) for name, make in WEIGHTS.items()}
    for name in data.draw(st.permutations(list(WEIGHTS))):
        w = weights[name]
        assert bell_transform(w, a, n) == [summed(w, k) for k in range(n + 1)]
        assert bell_moment(w, a, n) == summed(w, n)
    assert bell_triangle(a, n) == narrow
    groups = [(w, range(n, -1, -1)) for w in weights.values()]
    assert list(bell_sums(groups, a)) == [summed(w, k) for w, ks in groups for k in ks]
    assert _bell_triangle_cached.cache_info().misses == 1


def test_concurrent_narrow_and_wide_sums_on_one_triangle():
    # four threads alternate narrow and wide sums on one fresh triangle, so the
    # held layout is widened under them; each sum must equal the serial one
    n, stream = 8, Stream(71)
    a = tuple(stream.rational() + stream.rational() * x for _ in range(n))
    weights = [[stream.rational() for _ in range(n + 1)], ops.falling_factorials(x, n),
               ops.falling_factorials(3, n), [2 ** 70 + i for i in range(n + 1)],
               [y ** i for i in range(n + 1)]]
    serial = [bell_transform(w, a, n) for w in weights]
    triangle = bell_triangle(a, n)

    def alternate(t):
        return [bell_triangle(a, n) if j % 2 else bell_transform(weights[(t + j) % 5], a, n)
                for j in range(10)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            _bell_triangle_cached.cache_clear()
            with ThreadPoolExecutor(4) as pool:
                runs = [pool.submit(alternate, t) for t in range(4)]
                for t, run in enumerate(runs):
                    assert run.result(timeout=60) == [
                        triangle if j % 2 else serial[(t + j) % 5] for j in range(10)]
    finally:
        sys.setswitchinterval(interval)


def test_complete_bell():
    assert complete_bell(0, []) == 1
    ones = [ONE] * 12
    for n in range(13):
        assert complete_bell(n, ones) == bell_number(n)
    a = [Poly.var(f"a{i}") for i in range(1, 4)]
    assert complete_bell(1, a) == a[0]
    # recursion: Y_{n+1} = sum C(n,k) a_{n-k+1} Y_k
    stream = Stream(11)
    vals = [Poly.const(stream.rational()) for _ in range(11)]
    ys = [complete_bell(n, vals) for n in range(11)]
    for n in range(10):
        rhs = sum((vals[n - k] * ys[k]) * comb(n, k) for k in range(n + 1))
        assert ys[n + 1] == rhs


def test_exponential_polynomials():
    assert exponential_poly(2) == x + x ** 2
    for n in range(13):
        assert exponential_poly(n).subs({"x": 1}) == bell_number(n)
    # recursion: Phi_{n+1}(x) = x sum C(n,k) Phi_k(x)
    for n in range(11):
        rhs = x * sum(exponential_poly(k) * comb(n, k) for k in range(n + 1))
        assert exponential_poly(n + 1) == rhs


def test_bernoulli_numbers():
    assert bernoulli_number(0) == 1
    assert bernoulli_number(1) == Fraction(-1, 2)
    assert bernoulli_number(2) == Fraction(1, 6)
    for n in range(3, 13, 2):
        assert bernoulli_number(n) == 0
    # defining recursion: sum_{j<n} C(n,j) B_j = 0 for n >= 2
    for n in range(2, 14):
        assert sum(comb(n, j) * bernoulli_number(j) for j in range(n)) == 0


def test_enumerate_partitions_shapes():
    tally = {w.block_sizes: w.count for w in enumerate_partitions(3)}
    assert tally == {(3,): 1, (2, 1): 3, (1, 1, 1): 1}
    assert sum(w.count for w in enumerate_partitions(5)) == 52
    assert enumerate_partitions(0)[0].block_sizes == ()
    with pytest.raises(TooLarge):
        enumerate_partitions(13)


def test_bell_triangle_shape():
    tri = bell_triangle([ONE] * 6, 6)
    assert tri[0][0] == 1
    for n in range(1, 7):
        assert tri[n][0] == 0
        assert tri[n][n] == 1
        for k in range(1, n + 1):
            assert tri[n][k] == stirling("second", n, k)


# caches keyed by integers alone, bounded by the orders a session asks for
KEYED_BY_INTEGERS = {"factorial", "_stirling2", "_stirling1_signed"}


def test_bell_triangle_cache_is_bounded():
    # keyed by moment tuples, so an unbounded cache grows with every new umbra;
    # so would any other cache keyed by moments or series
    assert _bell_triangle_cached.cache_info().maxsize is not None
    seen = set()
    for module in (poly, series, combinatorics, core, ops, inversion, identities):
        for name, value in vars(module).items():
            if hasattr(value, "cache_info"):
                seen.add(name)
                if name not in KEYED_BY_INTEGERS:
                    assert value.cache_info().maxsize is not None, name
    assert "_bell_triangle_cached" in seen
