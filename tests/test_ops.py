from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from umbral.combinatorics import (
    bell_number,
    complete_bell,
    exponential_poly,
    stirling,
)
from umbral.core import Atom, Workspace
from umbral import combinatorics, ops, series
from umbral.errors import (
    CoherenceError,
    NonUnitLinearMoment,
    UndeclaredIndeterminate,
    ZeroMomentReciprocal,
)
from umbral.inversion import revert_oracle, revert_umbral
from umbral.ops import (
    alpha_bar,
    bell_umbra,
    composition_umbra,
    dot,
    exponential_umbral_moment,
    inverse_umbra,
    partition_umbra,
    point_power,
    scale_atom,
)
from umbral.poly import ONE, ZERO, Poly
from umbral.prng import Stream
from umbral.series import Series, factorial

from oracles import falling_factorial_moment, mul_t


def fresh(order=8, indets=("x", "y")):
    return Workspace(order=order, indeterminates=indets)


def random_umbra(ws, stream, name, nonzero_first=False):
    moments = [ONE]
    for k in range(1, ws.order + 1):
        if k == 1 and nonzero_first:
            moments.append(Poly.const(stream.nonzero_rational()))
        else:
            moments.append(Poly.const(stream.rational()))
    return ws.define(name, moments)


def assert_coherent(atom):
    for k, m in enumerate(atom.moments):
        assert atom.egf.coeffs[k] * factorial(k) == m


# -- dot -------------------------------------------------------------------------


def test_dot_integer_on_unity():
    ws = fresh()
    d = dot(ws, 3, ws.u)
    assert list(d.moments) == [3 ** k for k in range(9)]
    assert_coherent(d)


def test_dot_zero_is_augmentation():
    ws = fresh()
    s = Stream(1)
    a = random_umbra(ws, s, "a")
    assert ws.similar(dot(ws, 0, a), ws.eps)


def test_dot_bell_on_unity_gives_bell_numbers():
    ws = fresh()
    d = dot(ws, bell_umbra(ws), ws.u)
    assert list(d.moments) == \
        [bell_number(k) for k in range(ws.order + 1)]


def test_dot_indeterminate_requires_declaration():
    ws = fresh(indets=("x",))
    with pytest.raises(UndeclaredIndeterminate):
        dot(ws, "z", ws.u)
    with pytest.raises(UndeclaredIndeterminate):
        dot(ws, Poly.var("z") + 1, ws.u)
    assert dot(ws, "x", ws.u).moments[4] == Poly.var("x") ** 4


def test_dot_umbra_via_series_vs_moment_expansion():
    # generating-function route (compose) against the falling-factorial
    # series expansion: sum_i E[(b)_i] (f-1)^i / i!
    ws = fresh()
    s = Stream(2)
    a = random_umbra(ws, s, "a")
    b = random_umbra(ws, s, "b")
    d = dot(ws, b, a)
    assert_coherent(d)
    fm1 = a.egf - Series.one(ws.order)
    total = Series.zero(ws.order)
    h_pow = Series.one(ws.order)
    for i in range(ws.order + 1):
        if i:
            h_pow = h_pow * fm1
        total = total + h_pow.scalar_mul(
            falling_factorial_moment(b, i) / factorial(i))
    assert d.egf == total


def test_falling_factorial_moment_bell_shortcut_matches_expansion():
    ws = fresh()
    beta = bell_umbra(ws)
    for i in range(ws.order + 1):
        by_stirling = sum(
            (beta.moments[j] * stirling("first_signed", i, j) for j in range(i + 1)),
            ZERO)
        assert falling_factorial_moment(beta, i) == ONE == by_stirling


# -- point power ----------------------------------------------------------------------


def test_point_power_moments():
    ws = fresh()
    beta = bell_umbra(ws)
    sq = point_power(ws, beta, 2)
    assert sq.moments[3] == 25
    assert ws.similar(point_power(ws, beta, 0), ws.u)
    assert_coherent(sq)


def test_point_power_negative_requires_invertible_moments():
    ws = fresh(order=4)
    a = ws.define("a", [ONE, ONE, ZERO, ONE, ONE])
    with pytest.raises(ZeroMomentReciprocal):
        point_power(ws, a, -1)
    b = ws.define("b", [ONE, Poly.var("x"), ONE, ONE, ONE])
    with pytest.raises(ZeroMomentReciprocal):
        point_power(ws, b, -2)
    c = ws.define("c", [ONE, Poly.const(2), Poly.const(3), ONE, ONE])
    rec = point_power(ws, c, -1)
    assert rec.moments[1] == Fraction(1, 2) and rec.moments[2] == Fraction(1, 3)


# -- inverse -------------------------------------------------------------------------------


def test_inverse_umbra():
    ws = fresh()
    assert ws.similar(inverse_umbra(ws, ws.eps), ws.eps)
    iu = inverse_umbra(ws, ws.u)
    assert list(iu.moments) == [(-1) ** k for k in range(9)]
    s = Stream(4)
    a = random_umbra(ws, s, "a")
    assert ws.similar(a + inverse_umbra(ws, a), ws.eps)
    n = 3
    assert ws.similar(dot(ws, n, a) + dot(ws, -n, a), ws.eps)


# -- Bell umbrae ------------------------------------------------------------------------------


def test_bell_scalar_umbra():
    ws = fresh(order=12)
    beta = bell_umbra(ws)
    assert ws.eval(beta, 3) == 5
    assert list(beta.moments) == \
        [bell_number(k) for k in range(13)]
    for n in range(13):
        assert falling_factorial_moment(beta, n) == ONE
    assert_coherent(beta)


def test_bell_polynomial_umbra():
    ws = fresh()
    xb = bell_umbra(ws, "x")
    for n in range(ws.order + 1):
        assert xb.moments[n] == exponential_poly(n)
    at_one = [m.subs({"x": 1}) for m in xb.moments]
    assert at_one == [Poly.const(bell_number(n)) for n in range(ws.order + 1)]
    nb = bell_umbra(ws, 3)
    assert nb.moments[2] == exponential_poly(2).subs({"x": 3})
    with pytest.raises(UndeclaredIndeterminate):
        bell_umbra(ws, "q")


# -- partition and composition umbrae -----------------------------------------------------------


def test_partition_umbra_of_unity_is_bell():
    ws = fresh()
    assert ws.similar(partition_umbra(ws, ws.u), bell_umbra(ws))


def test_partition_umbra_moments_are_partition_polynomials():
    ws = fresh()
    s = Stream(6)
    a = random_umbra(ws, s, "a")
    psi = partition_umbra(ws, a)
    for n in range(ws.order + 1):
        assert psi.moments[n] == complete_bell(n, a.moments[1:]) if n else ONE
    assert_coherent(psi)


def test_scaled_partition_umbra():
    ws = fresh()
    s = Stream(8)
    a = random_umbra(ws, s, "a")
    xpsi = partition_umbra(ws, a, "x")
    assert xpsi.egf == (a.egf - Series.one(ws.order)).scalar_mul(
        Poly.var("x")).exp()
    assert_coherent(xpsi)


def test_composition_umbra():
    ws = fresh()
    chi = composition_umbra(ws, ws.u, ws.u)
    assert list(chi.moments[:6]) == [1, 1, 2, 5, 15, 52]
    s = Stream(10)
    g = random_umbra(ws, s, "g")
    # comp(g, u) is the randomized-Poisson umbra g.bell
    assert ws.similar(composition_umbra(ws, g, ws.u),
                      dot(ws, g, bell_umbra(ws)))
    # associativity route: g.(bell.a) ~ (g.bell).a
    a = random_umbra(ws, s, "a")
    lhs = dot(ws, g, dot(ws, bell_umbra(ws), a))
    rhs = dot(ws, dot(ws, g, bell_umbra(ws)), a)
    assert ws.similar(lhs, rhs)
    assert ws.similar(composition_umbra(ws, g, a), lhs)


# -- alpha_bar ------------------------------------------------------------------------------------


def test_alpha_bar_of_unity():
    ws = fresh()
    bar = alpha_bar(ws, ws.u)
    assert [bar.moments[n] for n in range(1, ws.order)] == \
        [Poly.const(Fraction(1, n + 1)) for n in range(1, ws.order)]


def test_alpha_bar_tree_function():
    # f - 1 = t e^{-t} has bar similar to the inverse of the unity umbra
    ws = fresh(indets=())
    f = Series.one(ws.order) + mul_t(Series(
        ws.order, [Fraction((-1) ** k, factorial(k))
                   for k in range(ws.order + 1)]))
    tree = ws._register("tree", f.moments(), f)
    bar = alpha_bar(ws, tree)
    neg_u = inverse_umbra(ws, ws.u)
    assert bar.moments[1: ws.order] == neg_u.moments[1: ws.order]


def test_alpha_bar_series_identity():
    # f(t) - 1 = a_1 t gf(bar) coefficientwise
    ws = fresh()
    s = Stream(12)
    a = random_umbra(ws, s, "a", nonzero_first=True)
    bar = alpha_bar(ws, a)
    a1 = a.moments[1]
    assert a.egf - Series.one(ws.order) == mul_t(bar.egf).scalar_mul(a1)


def test_alpha_bar_requires_unit_linear_moment():
    ws = fresh()
    zero_a1 = ws.define("z1", [ONE, ZERO] + [ONE] * (ws.order - 1))
    with pytest.raises(NonUnitLinearMoment):
        alpha_bar(ws, zero_a1)
    poly_a1 = ws.define("p1", [ONE, Poly.var("x")] + [ONE] * (ws.order - 1))
    with pytest.raises(NonUnitLinearMoment):
        alpha_bar(ws, poly_a1)


# -- exponential umbral moments -------------------------------------------------------------------


def test_exponential_umbral_moments():
    ws = fresh()
    for n in range(ws.order + 1):
        assert exponential_umbral_moment(ws.u, n) == bell_number(n)
        assert exponential_umbral_moment(ws.eps, n) == (1 if n == 0 else 0)
    s = Stream(14)
    a = random_umbra(ws, s, "a")
    ab = dot(ws, a, bell_umbra(ws))
    for n in range(ws.order + 1):
        assert exponential_umbral_moment(a, n) == ab.moments[n]


# -- scale ------------------------------------------------------------------------------------------


def test_scale_atom():
    ws = fresh()
    s = Stream(16)
    a = random_umbra(ws, s, "a")
    c = Fraction(-2, 3)
    sa = scale_atom(ws, c, a)
    for k in range(ws.order + 1):
        assert sa.moments[k] == c ** k * a.moments[k]
    assert_coherent(sa)


def test_augmentation_through_constructors():
    # the zero-value umbra is absorbing for every construction built on it
    ws = fresh()
    assert ws.similar(dot(ws, 3, ws.eps), ws.eps)
    assert ws.similar(partition_umbra(ws, ws.eps), ws.eps)
    assert ws.similar(composition_umbra(ws, ws.eps, ws.u), ws.eps)
    assert ws.similar(point_power(ws, ws.eps, 2), ws.eps)
    s = Stream(20)
    a = random_umbra(ws, s, "a")
    # gamma = eps collapses the composition to the augmentation
    assert ws.similar(composition_umbra(ws, ws.eps, a), ws.eps)


def test_unit_scale_bell_is_bell():
    ws = fresh()
    assert ws.similar(bell_umbra(ws, 1), bell_umbra(ws))


# -- coherence across constructors -------------------------------------------------------------------


def test_every_constructor_produces_coherent_atoms():
    ws = fresh()
    s = Stream(18)
    a = random_umbra(ws, s, "a", nonzero_first=True)
    b = random_umbra(ws, s, "b")
    for atom in (
        dot(ws, 2, a), dot(ws, -1, a), dot(ws, "x", a), dot(ws, b, a),
        point_power(ws, a, 3), inverse_umbra(ws, a), bell_umbra(ws),
        bell_umbra(ws, "y"), partition_umbra(ws, a),
        partition_umbra(ws, a, "x"), composition_umbra(ws, b, a),
        alpha_bar(ws, a), scale_atom(ws, Fraction(1, 2), a),
    ):
        assert_coherent(atom)


# -- the coherence check still bites -----------------------------------------------------------


SCALAR_MULTIPLES = {
    "3.a": lambda ws, a: dot(ws, 3, a),
    "-2.a": lambda ws, a: dot(ws, -2, a),
    "x.a": lambda ws, a: dot(ws, "x", a),
    "inv(a)": lambda ws, a: inverse_umbra(ws, a),
}


@pytest.mark.parametrize("build", SCALAR_MULTIPLES.values(), ids=SCALAR_MULTIPLES)
def test_corrupted_power_routine_is_caught(monkeypatch, build):
    # one wrong coefficient on the generating-function route
    power = Series.pow_int

    def corrupted(self, p):
        out = power(self, p)
        coeffs = list(out.coeffs)
        coeffs[2] = coeffs[2] + 1
        return Series(out.order, coeffs)

    ws = fresh()
    a = random_umbra(ws, Stream(31), "a")
    assert_coherent(build(ws, a))
    monkeypatch.setattr(Series, "pow_int", corrupted)
    with pytest.raises(CoherenceError):
        build(ws, a)


@pytest.mark.parametrize("build", SCALAR_MULTIPLES.values(), ids=SCALAR_MULTIPLES)
def test_corrupted_falling_factorial_is_caught(monkeypatch, build):
    # one wrong Bell-expansion weight on the moment route
    falling = ops.falling_factorials

    def corrupted(value, n):
        out = falling(value, n)
        out[2] = out[2] + 1
        return out

    ws = fresh()
    a = random_umbra(ws, Stream(32), "a")
    monkeypatch.setattr(ops, "falling_factorials", corrupted)
    with pytest.raises(CoherenceError):
        build(ws, a)


def ring_inputs(ws, stream, ring):
    """Two atoms and a Bell scale, all rational or all carrying x, so each
    corrupted kernel is caught on rational and on Poly coefficients."""
    if ring == "scalar":
        return random_umbra(ws, stream, "a"), random_umbra(ws, stream, "g"), None
    x = Poly.var("x")
    a = ws.define("ax", [ONE] + [stream.rational() + x * stream.rational()
                                 for _ in range(ws.order)])
    g = ws.define("gx", [ONE] + [stream.rational() * x for _ in range(ws.order)])
    return a, g, "x"


def corrupt(method):
    """``method`` with one wrong coefficient (t^2) in its result."""
    def corrupted(self, *args):
        out = method(self, *args)
        coeffs = list(out.coeffs)
        coeffs[2] = coeffs[2] + 1
        return Series(out.order, coeffs)
    return corrupted


EXP_BUILT = {
    "bell(c)": lambda ws, a, g, c: bell_umbra(ws, c),
    "part(a)": lambda ws, a, g, c: partition_umbra(ws, a),
}
COMPOSE_BUILT = {
    "comp(g,a)": lambda ws, a, g, c: composition_umbra(ws, g, a),
    "g.a": lambda ws, a, g, c: dot(ws, g, a),
    # the series of c*a is a's composed with ct; its moments never compose
    "c*a": lambda ws, a, g, c: scale_atom(ws, Fraction(3, 2) if c is None else Poly.var(c), a),
}


def lag(ws, a, g, c):
    """revert_umbral of a with its first moment set to 2, a nonzero rational:
    on the x ring every moment of a carries x, and a_1 must be invertible."""
    return revert_umbral(ws, ws.define("a2", (ONE, Poly.const(2)) + a.moments[2:]))


# revert_umbral's series is the reversion of f - 1, its moments the Bell route
REVERT_BUILT = {"lag(a)": lag}
# compose forms the powers of f - 1 with series.convolve, the product kernel
# behind Series.__mul__; the moment route's Bell triangle must not, or a wrong
# product corrupts both routes alike.  The product is corrupted by doubling:
# adding one would also set the t^2 moments of (f - 1)^k, k >= 3, which only
# compose reads, and be caught through them whatever the triangle does.
MUL_BUILT = {"mul:comp(g,a)": COMPOSE_BUILT["comp(g,a)"]}


def corrupt_convolve(convolve):
    """``convolve`` with its t^2 moment doubled."""
    def corrupted(a, b):
        out = convolve(a, b)
        out[2] = out[2] * 2
        return out
    return corrupted


@pytest.mark.parametrize("ring", ["scalar", "x-carrying"])
@pytest.mark.parametrize("method, build", [("exp", b) for b in EXP_BUILT.values()]
                         + [("compose", b) for b in COMPOSE_BUILT.values()]
                         + [("convolve", b) for b in MUL_BUILT.values()]
                         + [("revert", b) for b in REVERT_BUILT.values()],
                         ids=list(EXP_BUILT) + list(COMPOSE_BUILT) + list(MUL_BUILT)
                         + list(REVERT_BUILT))
def test_corrupted_exp_and_compose_are_caught(monkeypatch, method, build, ring):
    ws = fresh()
    inputs = ring_inputs(ws, Stream(33), ring)
    assert_coherent(build(ws, *inputs))
    if method == "convolve":
        monkeypatch.setattr(series, method, corrupt_convolve(series.convolve))
    else:
        monkeypatch.setattr(Series, method, corrupt(getattr(Series, method)))
    # a triangle cached before the corruption would hide a shared kernel
    combinatorics._bell_triangle_cached.cache_clear()
    with pytest.raises(CoherenceError):
        build(ws, *inputs)


# every caller of the triangle's weighted sums, combinatorics.bell_transform
# and bell_moment; the Bell umbra reads u's triangle unscaled and scaled by c,
# and x.a and g.a weight it by x's falling factorials and by E[(g)_i]
BELL_BUILT = {
    "bell": lambda ws, a, g, c: bell_umbra(ws),
    "3.a": lambda ws, a, g, c: dot(ws, 3, a),
    "x.a": lambda ws, a, g, c: dot(ws, "x", a),
    "g.a": lambda ws, a, g, c: dot(ws, g, a),
    "inv(a)": lambda ws, a, g, c: inverse_umbra(ws, a),
    "part(a)": lambda ws, a, g, c: partition_umbra(ws, a),
    "x.part(a)": lambda ws, a, g, c: partition_umbra(ws, a, "x"),
    "bell(c)": lambda ws, a, g, c: bell_umbra(ws, c or Fraction(3, 2)),
    "comp(g,a)": lambda ws, a, g, c: composition_umbra(ws, g, a),
    "lag(a)": lag,
}


@pytest.mark.parametrize("ring", ["scalar", "x-carrying"])
@pytest.mark.parametrize("build", BELL_BUILT.values(), ids=BELL_BUILT)
def test_corrupted_bell_triangle_is_caught(monkeypatch, build, ring):
    # one wrong entry of the one int Comtet loop, which runs the cached
    # triangle and the packed weighted sums, on the moment route
    comtet = combinatorics._comtet

    def corrupted(a):
        rows = [list(r) for r in comtet(a)]
        rows[3][2] = rows[3][2] + 1
        return rows

    ws = fresh()
    inputs = ring_inputs(ws, Stream(34), ring)
    assert_coherent(build(ws, *inputs))
    monkeypatch.setattr(combinatorics, "_comtet", corrupted)
    # a cache of its own, so no corrupted triangle outlives the test
    monkeypatch.setattr(combinatorics, "_bell_triangle_cached",
                        lru_cache(maxsize=8)(combinatorics._bell_triangle_cached.__wrapped__))
    with pytest.raises(CoherenceError):
        build(ws, *inputs)


# each route hands its kernels' int results to registration through a private
# step of its own: combinatorics' scales them back on the moment route, and
# series' compares the lift a kernel's series holds with the moments, so one
# value one off at that step is caught on either
SCALE_BACK_BUILT = {
    "3.a": lambda ws, a, g, c: dot(ws, 3, a),
    "part(a)": lambda ws, a, g, c: partition_umbra(ws, a),
    "g.a": lambda ws, a, g, c: dot(ws, g, a),
    "comp(g,a)": lambda ws, a, g, c: composition_umbra(ws, g, a),
}


def first_result_off(scale_back, seen):
    def corrupted(v, s):
        q = scale_back(v, s)
        if type(q) is int and not seen:  # the first integral result, one off
            seen.append(q)
            return q + 1
        return q
    return corrupted


def first_lift_entry_off(matches, seen):
    def corrupted(m, planes, k, s):
        # the lift's constant plane one off at the first compared k > 0: a
        # kernel's is_delta and is_unital checks compare k = 0 alone
        if k and not seen:
            seen.append(k)
            constant = list(planes[()])
            constant[k] += 1
            planes = {**planes, (): constant}
        return matches(m, planes, k, s)
    return corrupted


@pytest.mark.parametrize("ring", ["scalar", "x-carrying"])
@pytest.mark.parametrize("build", SCALE_BACK_BUILT.values(), ids=SCALE_BACK_BUILT)
@pytest.mark.parametrize("module, name, corrupt", [(series, "_matches", first_lift_entry_off),
                                                   (combinatorics, "_over", first_result_off)],
                         ids=["series", "combinatorics"])
def test_corrupted_scale_back_is_caught(monkeypatch, module, name, corrupt, build, ring):
    seen = []
    ws = fresh()
    inputs = ring_inputs(ws, Stream(37), ring)
    assert_coherent(build(ws, *inputs))
    monkeypatch.setattr(module, name, corrupt(getattr(module, name), seen))
    with pytest.raises(CoherenceError):
        build(ws, *inputs)
    assert seen


HELD_BUILT = {
    "3": lambda ws, a, g: dot(ws, 3, a),
    "x": lambda ws, a, g: dot(ws, "x", a),
    "g.a": lambda ws, a, g: dot(ws, g, a),
    "comp(g,a)": lambda ws, a, g: composition_umbra(ws, g, a),
    "(-2/3)*a": lambda ws, a, g: scale_atom(ws, Fraction(-2, 3), a),
}


@pytest.mark.parametrize("ring", ["scalar", "x-carrying"])
@pytest.mark.parametrize("build", HELD_BUILT.values(), ids=HELD_BUILT)
def test_registering_a_power_builds_no_moment_of_its_series(monkeypatch, build, ring):
    # f^p, and the compositions of dot(g, a), comp(g, a) and c*a, stay
    # lifted from the kernel through the coherence check
    calls, quotient = [], series._quotient

    def counted(x, s):
        calls.append(x)
        return quotient(x, s)
    ws = fresh()
    a, g, _ = ring_inputs(ws, Stream(38), ring)
    monkeypatch.setattr(series, "_quotient", counted)
    atom = build(ws, a, g)
    assert calls == []
    assert atom.egf.moments() == list(atom.moments) and calls


def test_integral_moments_give_exact_fractions():
    # a_k = k + 1, so a_1 = 2: 1/a_k and 1/a_1 are Fractions, never floats
    ws = fresh()
    a = ws.define("a", range(1, ws.order + 2))
    inv = point_power(ws, a, -1)
    assert inv.moments == tuple(Poly.const(Fraction(1, k + 1)) for k in range(ws.order + 1))
    bar = alpha_bar(ws, a)
    assert bar.moments == (ONE,) + tuple(Poly.const(Fraction(n + 2, 2 * (n + 1)))
                                         for n in range(1, ws.order)) + (ZERO,)
    for atom in (inv, bar):
        assert all(type(c) in (int, Fraction) for m in atom.moments + atom.egf.coeffs
                   for c in Poly.coerce(m).terms.values())


def assert_reads_the_series(ring, build):
    # build's generating function comes from alpha's series, so a series that
    # disagrees with alpha's moments in one coefficient is caught
    ws, s = fresh(), Stream(35)
    a = random_umbra(ws, s, "a", nonzero_first=True)
    if ring == "x-carrying":
        x = Poly.var("x")
        a = ws.define("ax", a.moments[:2] + tuple(m + x * s.rational() for m in a.moments[2:]))
    assert_coherent(build(ws, a))
    coeffs = list(a.egf.coeffs)
    coeffs[3] = coeffs[3] + 1
    bad = Atom(a.uid, a.name, a.moments, Series(a.egf.order, coeffs))
    with pytest.raises(CoherenceError):
        build(ws, bad)


@pytest.mark.parametrize("ring", ["scalar", "x-carrying"])
def test_alpha_bar_reads_the_series(ring):
    assert_reads_the_series(ring, alpha_bar)


@pytest.mark.parametrize("ring", ["scalar", "x-carrying"])
def test_scale_atom_reads_the_series(ring):
    assert_reads_the_series(ring, lambda ws, a: scale_atom(ws, Fraction(3, 2), a))


# the packed series kernels read every x-carrying result back through
# series._unpack, which the moment route never calls
UNPACK_BUILT = {
    "x.a": lambda ws, a, g, c: dot(ws, "x", a),
    "3.a": lambda ws, a, g, c: dot(ws, 3, a),
    "part(a)": lambda ws, a, g, c: partition_umbra(ws, a),
    "bell(x)": lambda ws, a, g, c: bell_umbra(ws, "x"),
    "comp(g,a)": lambda ws, a, g, c: composition_umbra(ws, g, a),
    "g.a": lambda ws, a, g, c: dot(ws, g, a),
}


def corrupt_unpack(unpack):
    """``unpack`` with digit 2 of each value off by one; a zero value keeps its
    digits, so log's M_0 = 0 stays zero and compose still takes the delta series."""
    def corrupted(xs, b, n):
        for x, digits in zip(xs, unpack(xs, b, n)):
            if x:
                digits[2] += 1
            yield digits
    return corrupted


@pytest.mark.parametrize("build", UNPACK_BUILT.values(), ids=UNPACK_BUILT)
def test_corrupted_unpack_is_caught(monkeypatch, build):
    ws = fresh()
    inputs = ring_inputs(ws, Stream(36), "x-carrying")
    assert_coherent(build(ws, *inputs))
    monkeypatch.setattr(series, "_unpack", corrupt_unpack(series._unpack))
    with pytest.raises(CoherenceError):
        build(ws, *inputs)


# -- one value type per ring ----------------------------------------------------------


_RATIONALS = st.fractions(min_value=-4, max_value=4, max_denominator=3)


def registered(ws, a, g):
    """One atom from every registering constructor, on source a and a
    rational partner g."""
    return [a, g, ws.clone(a), ws.atom_of(a * g + 2 * a, "e"),
            dot(ws, 3, a), dot(ws, -2, a), dot(ws, "x", a), dot(ws, g, a), dot(ws, a, g),
            partition_umbra(ws, a), partition_umbra(ws, a, "x"),
            composition_umbra(ws, g, a), composition_umbra(ws, a, g),
            bell_umbra(ws), bell_umbra(ws, "x"), inverse_umbra(ws, a), alpha_bar(ws, a),
            point_power(ws, a, 2), point_power(ws, g, 0), revert_umbral(ws, a),
            revert_oracle(ws, a), scale_atom(ws, Fraction(1, 3), a)]


@settings(max_examples=25, deadline=None)
@given(a1=_RATIONALS.filter(bool), ms=st.lists(_RATIONALS, min_size=8, max_size=8),
       ring=st.sampled_from(["scalar", "x-carrying"]))
def test_atoms_hold_moments_by_the_series_rule(a1, ms, ring):
    # all Poly, or all int and Fraction with a denominator left, on both
    # rings; the same values as the atom's series holds
    ws = fresh(order=5)
    x = ws.var("x") if ring == "x-carrying" else 0
    a = ws.define("a", [1, a1] + [m + c * x for m, c in zip(ms[:4], ms[4:])])
    g = ws.define("g", [1] + ms[3:])
    for atom in registered(ws, a, g):
        kinds = {type(m) for m in atom.moments}
        assert kinds == {Poly} or (kinds <= {int, Fraction} and all(
            type(m) is int or m.denominator > 1 for m in atom.moments)), atom.name
        assert list(atom.moments) == atom.egf.moments(), atom.name
        assert [type(m) for m in atom.moments] == list(map(type, atom.egf.moments()))
    # an umbra defined from rationals or from constant Polys is one umbra
    views = []
    for values in ([1, a1] + ms[:4], [Poly.const(v) for v in [1, a1] + ms[:4]]):
        ws = fresh(order=5)
        p = ws.define("p", values)
        e = p * ws.clone(p) + 2 * p + ws.var("x") * dot(ws, 2, p)
        views.append([(str(v), v.to_json()) for v in map(ws.eval, [e] * 3, range(3))]
                     + [str(ws.gf_of(e)), ws.gf_of(e).to_json(), ws.to_json()])
    assert views[0] == views[1]
