from fractions import Fraction

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

import faults
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


# -- the route map: every fault a constructor reaches fails its registration ---------------------


def test_every_constructor_produces_coherent_atoms():
    # the matrix's clean runs: every atom a row registers, on either ring
    for row, ring in faults.ROW_RINGS:
        registered = faults.run_row(row, ring).registered
        assert registered, (row, ring)
        for atom in registered:
            assert_coherent(atom)


@pytest.mark.parametrize("row, ring", faults.ROW_RINGS,
                         ids=[f"{row}-{ring}" for row, ring in faults.ROW_RINGS])
def test_every_reached_fault_fails_registration(row, ring):
    # each fault the clean build calls fires, and registration raises
    cells = faults.run_row(row, ring).cells
    assert {f: cell for f, cell in cells.items() if cell != faults.CAUGHT} == {}


def test_every_fault_is_reached():
    reached = set().union(*(faults.run_row(*cell).reached for cell in faults.ROW_RINGS))
    assert [f for f in faults.FAULTS if f not in reached] == []
    assert all(hasattr(owner, name) for owner, name in faults.EXEMPT)


@pytest.mark.parametrize("ring", faults.RINGS)
def test_the_routes_share_no_kernel(ring):
    # the Bell and Stirling sums and the falling factorials reach no series
    # fault, and Series' kernels no combinatorics or ops fault; compose takes
    # full products, and bar(a) builds its series from the coefficients
    o, n = faults.operands(ring), faults.ORDER
    f, g, h = o.a.egf, o.g.egf, o.a2.egf - Series.one(n)
    with faults.installed(faults.FAULTS) as moment_route:
        combinatorics.bell_transform(ops.falling_factorials(o.c, n), o.a.moments[1:], n)
        combinatorics.bell_moment(o.g.moments, o.a.moments[1:], n)
        combinatorics.stirling_sum("first_signed", n, o.g.moments)
    with faults.installed(faults.FAULTS) as series_route:
        Series.product([f, g, f]), f.pow_int(o.c), h.exp(), f.log(), g.compose(h), h.revert()
    assert {f.split(".")[0] for f in moment_route} == {"combinatorics", "ops"}
    assert {f.split(".")[0] for f in series_route} == {"Series", "series"}
    assert "series.convolve" in faults.run_row("comp(g,a)", ring).reached
    assert faults.run_row("bar(a)", ring).reached == set()


# the seven hand-picked corruption tests the matrix replaced, kept by name:
# each case is the cell (row, fault, ring) it corrupted
MULTIPLES, SCALE_BACK = ["3.a", "-2.a", "x.a", "inv(a)"], ["3.a", "part(a)", "g.a", "comp(g,a)"]
test_corrupted_power_routine_is_caught = faults.folded_test(
    faults.grid("Series.pow_int", MULTIPLES, ["scalar"]))
test_corrupted_falling_factorial_is_caught = faults.folded_test(
    faults.grid("ops.falling_factorials", MULTIPLES, ["scalar"]))
test_corrupted_exp_and_compose_are_caught = faults.folded_test(
    faults.grid("Series.exp", ["bell(c)", "part(a)"])
    + faults.grid("Series.compose", ["comp(g,a)", "g.a", "c*a"])
    + faults.grid("series.convolve", [("mul:comp(g,a)", "comp(g,a)")])
    + faults.grid("Series.revert", ["lag(a)"]))
test_corrupted_bell_triangle_is_caught = faults.folded_test(faults.grid(
    "combinatorics._comtet", ["bell", "3.a", "x.a", "g.a", "inv(a)", "part(a)",
                              ("x.part(a)", "c.part(a)"), "bell(c)", "comp(g,a)", "lag(a)"]))
test_corrupted_scale_back_is_caught = faults.folded_test(
    faults.grid("series._matches", [(f"series-{row}", row) for row in SCALE_BACK])
    + faults.grid("combinatorics._over", [(f"combinatorics-{row}", row) for row in SCALE_BACK]))
test_corrupted_unpack_is_caught = faults.folded_test(faults.grid(
    "series._unpack", ["x.a", "3.a", "part(a)", ("bell(x)", "bell(c)"), "comp(g,a)", "g.a"],
    ["x-carrying"]))


def ring_inputs(ws, stream, ring):
    """Two atoms and a Bell scale, all rational or all carrying x."""
    if ring == "scalar":
        return random_umbra(ws, stream, "a"), random_umbra(ws, stream, "g"), None
    x = Poly.var("x")
    a = ws.define("ax", [ONE] + [stream.rational() + x * stream.rational()
                                 for _ in range(ws.order)])
    g = ws.define("gx", [ONE] + [stream.rational() * x for _ in range(ws.order)])
    return a, g, "x"


HELD_BUILT = {
    "3": lambda ws, a, g: dot(ws, 3, a),
    "x": lambda ws, a, g: dot(ws, "x", a),
    "g.a": lambda ws, a, g: dot(ws, g, a),
    "comp(g,a)": lambda ws, a, g: composition_umbra(ws, g, a),
    "(-2/3)*a": lambda ws, a, g: scale_atom(ws, Fraction(-2, 3), a),
    # a_1 = 2, so the x-carrying ring reverts too
    "lag(a)": lambda ws, a, g: revert_umbral(ws, ws.define("a2", [1, 2, *a.moments[2:]])),
}


@pytest.mark.parametrize("ring", ["scalar", "x-carrying"])
@pytest.mark.parametrize("build", HELD_BUILT.values(), ids=HELD_BUILT)
def test_registering_a_power_builds_no_moment_of_its_series(monkeypatch, build, ring):
    # f^p, the compositions of dot(g, a), comp(g, a) and c*a, and the
    # reversion plus one of lag(a), stay lifted from the kernel through the
    # coherence check
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
