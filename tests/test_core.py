import ast
from fractions import Fraction
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import umbral
from umbral import core, series
from umbral.core import (
    Atom,
    IntPower,
    Product,
    ScalarMul,
    Sum,
    Workspace,
    _expand,
)
from umbral.errors import BadZerothMoment, CoherenceError, OrderExceeded
from umbral.ops import dot
from umbral.poly import ONE, Poly
from umbral.prng import Stream
from umbral.series import Series

import faults
from oracles import binomial_product


def fresh(order=8, indets=("x", "y")):
    return Workspace(order=order, indeterminates=indets)


def random_umbra(ws, stream, name):
    return ws.define(name, [ONE] + [Poly.const(stream.rational())
                                    for _ in range(ws.order)])


def test_builtin_axioms():
    ws = fresh()
    for n in range(ws.order + 1):
        assert ws.eval(ws.u, n) == 1
        assert ws.eval(ws.eps, n) == (1 if n == 0 else 0)
    assert ws.gf_of(ws.eps) == Series.one(ws.order)
    assert ws.gf_of(ws.u) == Series.exp_t(ws.order)


def test_define_validates_zeroth_moment():
    ws = fresh()
    with pytest.raises(BadZerothMoment):
        ws.define("bad", [Poly.const(2)] + [ONE] * ws.order)
    all_ones = ws.define("ones", [ONE] * (ws.order + 1))
    assert ws.similar(all_ones, ws.u)
    delta = ws.define("delta", [ONE] + [Poly()] * ws.order)
    assert ws.similar(delta, ws.eps)


def test_define_rejects_floats():
    with pytest.raises(TypeError):
        fresh(order=2).define("a", [1, 1 / 3, 0])


def test_deterministic_value_umbra():
    # moments x^k represent the constant value x
    ws = fresh()
    xv = Poly.var("x")
    det = ws.define("detx", [xv ** k for k in range(ws.order + 1)])
    assert det.egf.coeffs[3] == xv ** 3 / 6
    assert ws.eval(det ** 2, 1) == xv ** 2


def test_clone_similarity_and_uncorrelation():
    ws = fresh()
    s = Stream(3)
    a = random_umbra(ws, s, "a")
    a2 = ws.clone(a)
    assert ws.similar(a, a2)
    assert ws.eval(a * a2, 1) == a.moments[1] ** 2
    assert ws.eval(a ** 2, 1) == a.moments[2]
    assert ws.similar(ws.clone(ws.u), ws.u)


def test_eval_binomial_convolution():
    ws = fresh()
    s = Stream(5)
    a = random_umbra(ws, s, "a")
    a2 = ws.clone(a)
    for n in range(ws.order + 1):
        expected = sum(comb(n, i) * a.moments[i] * a.moments[n - i]
                       for i in range(n + 1))
        assert ws.eval(a + a2, n) == expected


def test_uncorrelation_in_products():
    ws = fresh()
    s = Stream(9)
    a = random_umbra(ws, s, "a")
    g = random_umbra(ws, s, "g")
    assert ws.eval((a ** 2) * (g ** 3), 1) == a.moments[2] * g.moments[3]


def test_gf_of_sum_factorizes_over_disjoint_supports():
    ws = fresh()
    s = Stream(13)
    a = random_umbra(ws, s, "a")
    g = random_umbra(ws, s, "g")
    assert ws.gf_of(a + g) == a.egf * g.egf
    e1 = Sum((a, a))     # correlated: same atom twice
    assert ws.gf_of(e1) != a.egf * a.egf or a.moments[1] == 0


def test_linearity():
    ws = fresh()
    s = Stream(17)
    a = random_umbra(ws, s, "a")
    g = random_umbra(ws, s, "g")
    c = Poly.var("x") + 2
    lhs = ws.eval(Sum((ScalarMul(c, a), g)), 1)
    assert lhs == c * a.moments[1] + g.moments[1]


def test_scalar_multiples_scale_moments_geometrically():
    ws = fresh()
    s = Stream(19)
    a = random_umbra(ws, s, "a")
    c = Fraction(3, 2)
    for k in range(ws.order + 1):
        assert ws.eval(ScalarMul(Poly.const(c), a), k) == \
            c ** k * a.moments[k]


def test_similarity_is_order_bounded():
    ws = fresh(order=4)
    m = [ONE, ONE, ONE, ONE, Poly.const(7)]
    odd = ws.define("odd", m)
    assert not ws.similar(odd, ws.u)
    trunc = ws.define("trunc", m[:4] + [ONE])
    assert ws.similar(trunc, ws.u)


def test_power_expansion_before_substitution():
    # E[(a + a')^2] = 2 a_1^2 + 2 a_2 must not collapse to 4 a_2
    ws = fresh()
    a = ws.define("a", [ONE, Poly.const(2)] + [Poly()] * (ws.order - 1))
    a2 = ws.clone(a)
    assert ws.eval(a + a2, 2) == 2 * Fraction(4) + 0  # 2 a1^2, a2 = 0


def test_order_exceeded():
    ws = fresh(order=4)
    a = ws.define("a", [ONE] * 5)
    with pytest.raises(OrderExceeded):
        ws.eval(a, 5)
    with pytest.raises(OrderExceeded):
        ws.eval(a ** 3, 2)
    assert ws.eval(a ** 2, 2) == 1


def test_zero_factor_is_read_in_uid_order():
    # overflow is decided from the tree's structure before any moment is
    # read: a zero factor earlier in uid order no longer hides a later
    # factor's power beyond the order, and of several atoms that overflow
    # the error names the one with the lowest uid
    ws = fresh(order=12)
    for i in range(6):
        ws.define(f"filler{i}", [ONE] * 13)
    z = ws.define("z", [ONE, Poly()] + [ONE] * 11)
    b = ws.define("b", [ONE] * 13)
    assert (z.uid, b.uid) == (9, 10)
    with pytest.raises(OrderExceeded, match="^moment 20 of b exceeds order 12$"):
        ws.eval(z * b ** 20)
    with pytest.raises(OrderExceeded, match="^moment 20 of u exceeds order 12$"):
        ws.eval(ws.eps * ws.u ** 20)
    with pytest.raises(OrderExceeded, match="^moment 21 of b exceeds order 12$"):
        ws.eval(b ** 20 * b)
    with pytest.raises(OrderExceeded, match="^moment 20 of z exceeds order 12$"):
        ws.eval(b ** 20 + z ** 20)
    # E[(w b^13)^k] reads moment 13k of b, whatever w's moments are
    ws = fresh(order=12)
    w = ws.define("w", [ONE, ONE] + [Poly()] * 11)
    b = ws.define("b", [ONE] * 13)
    with pytest.raises(OrderExceeded, match="^moment 26 of b exceeds order 12$"):
        ws.eval(w * b ** 13, 2)
    with pytest.raises(OrderExceeded, match="^moment 13 of b exceeds order 12$"):
        ws.eval(w * b ** 13, 1)
    # a zero scalar hides nothing either; moments_of names the first k
    # at which an atom overflows, here k = 7
    with pytest.raises(OrderExceeded, match="^moment 14 of u exceeds order 12$"):
        ws.moments_of(0 * ws.u ** 2)


def test_overflow_is_decided_before_any_expansion(monkeypatch):
    # (u + u' + u'')^60 would expand into 1,891 monomials before its
    # first moment is read; the structure alone rules it out
    ws = fresh(order=12)
    u1 = ws.clone(ws.u)
    u2 = ws.clone(u1)
    calls = []
    for name in ("_expand", "_nf_mul"):
        original = getattr(core, name)
        monkeypatch.setattr(core, name,
                            lambda *a, f=original, n=name: calls.append(n) or f(*a))
    with pytest.raises(OrderExceeded, match="^moment 60 of u exceeds order 12$"):
        ws.eval(IntPower(Sum((ws.u, u1, u2)), 60))
    assert (u1.name, u2.name, calls) == ("u'", "u''", [])
    # the counters do count: a group of parts that share an atom is expanded
    ws.eval(IntPower(Sum((ws.u, u1, ws.u * u2)), 2))
    assert "_expand" in calls and "_nf_mul" in calls


def test_structural_work_is_linear_in_the_tree(monkeypatch):
    # an alternating sum/product chain of depth 60 over distinct atoms has
    # 121 nodes (61 atoms); each sum or product merges its parts' degrees
    # once, when it is built, and evaluation only reads them, where
    # recomputing the degrees at every node visited made 7,562 merges
    ws = fresh(order=12)
    merges = []
    merge = core._merge
    monkeypatch.setattr(core, "_merge", lambda *a: merges.append(a) or merge(*a))
    e = atom = ws.u
    for i in range(1, 61):
        atom = ws.clone(atom)
        e = Sum((e, atom)) if i % 2 else Product((e, atom))
    assert ws.eval(e, 1) == ws._apply(_expand(e))
    assert len(merges) <= 121
    assert list(e.degrees.values()) == [1] * 61 and atom.name == "u" + "'" * 60


def test_one_block_is_applied_once():
    # a*g + a^2 is one group, as both parts hold a: it is expanded and E
    # applied to its powers, which the binomial sum over g's powers checks
    ws = fresh()
    s = Stream(6)
    a, g = random_umbra(ws, s, "a"), random_umbra(ws, s, "g")
    k = 4
    assert ws.eval(a * g + a ** 2, k) == sum(
        comb(k, j) * a.moments[2 * k - j] * g.moments[j] for j in range(k + 1))


def test_empty_product_is_unit():
    ws = fresh()
    assert ws.eval(Product(()), 0) == 1
    assert ws.eval(Product(()), 3) == 1


def test_clone_independence_of_labels():
    # results depend only on which leaves share an atom, not on which
    # particular clones play the roles
    ws = fresh()
    s = Stream(101)
    a = random_umbra(ws, s, "a")
    c1, c2, c3 = ws.clone(a), ws.clone(a), ws.clone(a)
    assert ws.eval(c1 * c1 ** 2, 1) == a.moments[3]
    assert ws.eval(c3 * c3 ** 2, 1) == a.moments[3]
    assert ws.eval(c1 * c2 ** 2, 1) == a.moments[1] * a.moments[2]
    assert ws.eval(c2 * c3 ** 2, 1) == a.moments[1] * a.moments[2]
    assert ws.eval(Sum((c1, c2)), 4) == \
        ws.eval(Sum((c3, a)), 4)


def test_atoms_and_nodes_are_immutable():
    ws = fresh(order=1)
    a, b = ws.define("a", [1, 2]), ws.define("b", [1, 3])
    nodes = [a, Sum((a, b)), Product((a, b)), ScalarMul(2, a), IntPower(a, 2)]
    for node in nodes:
        for field in node.__slots__ + ("extra",):
            with pytest.raises(AttributeError):
                setattr(node, field, None)


def test_expression_equality_is_by_type_and_fields():
    ws = fresh(order=1)
    a, b = ws.define("a", [1, 2]), ws.define("b", [1, 3])
    assert a + b == Sum((a, b))
    assert Sum((a, b)) != Product((a, b))
    assert Sum((a, b)) != Sum((b, a))
    assert a * b == Product((a, b)) and 2 * a == ScalarMul(2, a)
    assert a ** 2 == IntPower(a, 2) != IntPower(a, 3)
    assert repr(a + b) == "(a + b)" and repr(a) == "a"
    pairs = [(Sum((a, b)), a + b), (Product((a, b)), a * b),
             (ScalarMul(2, a), a * 2), (IntPower(a, 2), a ** 2)]
    for x, y in pairs:
        assert x is not y and x == y and hash(x) == hash(y)
    assert len({node for pair in pairs for node in pair}) == len(pairs)


def test_an_atom_is_its_own_symbol():
    # a clone has the moments of its source but is a different umbra
    ws = fresh(order=1)
    a = ws.define("a", [1, 2])
    c = ws.clone(a)
    assert c.moments == a.moments
    assert c != a and not c == a and a == a
    assert Sum((a, c)) != Sum((a, a))
    assert len({a, c, a}) == 2


def test_a_clone_is_its_source_under_a_new_symbol(monkeypatch):
    # a clone shares its source's moments, egf (here a kernel's lift) and
    # moment series, so a sum with it lifts nothing the source's sum lifted
    ws = fresh()
    b = dot(ws, 3, random_umbra(ws, Stream(47), "a"))
    c = ws.clone(b)
    assert c != b and c.moments is b.moments
    assert c.egf is b.egf and c._series is b._series and c.egf is not c._series
    ws.moments_of(b + ws.u)
    calls, planes = [], series._planes
    monkeypatch.setattr(series, "_planes", lambda ms: calls.append(ms) or planes(ms))
    assert ws.moments_of(c + ws.u) == ws.moments_of(b + ws.u) and calls == []


def test_a_clone_needs_its_workspace_order():
    ws = fresh(order=4)
    with pytest.raises(ValueError, match="^need 5 moments at order 4, got 9$"):
        ws.clone(fresh(order=8).u)


def test_package_exports_resolve():
    namespace = {}
    exec("from umbral import *", namespace)
    assert set(umbral.__all__) <= set(namespace)


def test_no_module_imports_a_private_name_from_another():
    # a name with a leading underscore is read only inside its own module
    found = []
    for path in sorted(Path(umbral.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("umbral")):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []


def test_register_rejects_incoherent_atoms():
    ws = fresh(order=2)
    with pytest.raises(CoherenceError):
        ws._register("broken", [ONE, ONE, ONE], Series.one(2))


def test_coherence_error_names_the_disagreement():
    ws = fresh(order=3)
    egf = Series.exp_t(3)
    moments = [ONE, ONE, Poly.const(5), ONE]
    with pytest.raises(CoherenceError) as info:
        ws._register("broken", moments, egf)
    exc = info.value
    assert (exc.atom, exc.k, exc.order) == ("broken", 2, 3)
    assert exc.moment == 5 and exc.gf_moment == 1
    assert str(exc) == "atom 'broken': moment 2 = 5 but k![t^k]gf = 1"


def test_workspace_json_round_trip():
    ws = fresh(order=5)
    s = Stream(23)
    random_umbra(ws, s, "a")
    ws.define("b", [ONE, Poly.var("x")] + [Poly()] * 4)
    data = ws.to_json()
    restored = Workspace.from_json(data)
    assert restored.order == 5
    assert restored.indeterminates == ("x", "y")
    for name in ("a", "b"):
        assert restored.lookup(name).moments == ws.lookup(name).moments
    # shorter moment lists pad with zeros
    data["umbrae"]["c"] = ["1", "2"]
    ws2 = Workspace.from_json(data)
    assert ws2.lookup("c").moments[2] == 0


def test_atom_of_materializes_and_severs():
    ws = fresh()
    s = Stream(29)
    a = random_umbra(ws, s, "a")
    g = random_umbra(ws, s, "g")
    both = ws.atom_of(a + g, "a+g")
    for k in range(ws.order + 1):
        assert both.moments[k] == ws.eval(a + g, k)
    # severed: multiplying by a behaves as an uncorrelated product
    assert ws.eval(both * a, 1) == both.moments[1] * a.moments[1]


# -- blockwise evaluation against the full expansion ----------------------------

_LEAVES = st.one_of(
    st.tuples(st.sampled_from(["atom", "clone"]), st.integers(0, 3)),
    st.sampled_from([("u",), ("eps",), ("one",)]),
)


def _branches(children):
    return st.one_of(
        st.tuples(st.sampled_from(["sum", "prod"]),
                  st.lists(children, min_size=2, max_size=3)),
        st.tuples(st.just("pow"), children, st.integers(0, 3)),
        st.tuples(st.just("smul"),
                  st.one_of(st.fractions(-3, 3, max_denominator=4),
                            st.sampled_from(["x", 0])),
                  children),
    )


def _build(ws, atoms, node):
    kind = node[0]
    if kind in ("atom", "clone"):
        atom = atoms[node[1] % len(atoms)]
        return (ws.clone(atom) if kind == "clone" else atom)
    if kind in ("u", "eps"):
        return getattr(ws, kind)
    if kind == "one":
        return Product(())
    if kind in ("sum", "prod"):
        parts = [_build(ws, atoms, c) for c in node[1]]
        return Sum(parts) if kind == "sum" else Product(parts)
    if kind == "pow":
        return IntPower(_build(ws, atoms, node[1]), node[2])
    coeff = ws.var("x") if node[1] == "x" else node[1]
    return ScalarMul(coeff, _build(ws, atoms, node[2]))


_RATIONALS = st.fractions(-2, 2, max_denominator=3)
# a moment is rational or q + q'x, so blocks fold in both rings and across them
_MOMENTS = st.one_of(
    _RATIONALS.map(Poly.const),
    st.builds(lambda q, r: Poly.const(q) + r * Poly.var("x"), _RATIONALS, _RATIONALS))


def _structural_degrees(e) -> dict:
    """deg_a(e) for each atom a, read off the tree as the overflow rule
    defines it: an oracle written apart from ``core``'s own."""
    if isinstance(e, Atom):
        return {e: 1}
    if isinstance(e, ScalarMul):
        return _structural_degrees(e.child)
    if isinstance(e, IntPower):
        if e.power == 0:
            return {}
        return {a: e.power * d for a, d in _structural_degrees(e.child).items()}
    out = {}
    for part in e.parts:
        for a, d in _structural_degrees(part).items():
            out[a] = max(out.get(a, 0), d) if isinstance(e, Sum) else out.get(a, 0) + d
    return out


def _overflow_message(ws, degrees, k):
    """The error E[e^k] must raise, or None: the lowest-uid atom whose
    moment d*k passes the order."""
    for atom in sorted(degrees, key=lambda a: a.uid):
        if degrees[atom] * k > ws.order:
            return f"moment {degrees[atom] * k} of {atom.name} exceeds order {ws.order}"
    return None


@settings(max_examples=40, deadline=None)
@given(moments=st.lists(st.lists(_MOMENTS, min_size=6, max_size=6),
                        min_size=2, max_size=4),
       terms=st.lists(st.recursive(_LEAVES, _branches, max_leaves=5),
                      min_size=1, max_size=4))
def test_blockwise_evaluation_matches_full_expansion(moments, terms):
    ws = fresh(order=6)
    atoms = [ws.define(f"a{i}", [ONE] + m) for i, m in enumerate(moments)]
    e = Sum([_build(ws, atoms, t) for t in terms])
    nf = _expand(e)
    degrees = _structural_degrees(e)
    assert e.degrees == degrees and all(
        t.degrees == _structural_degrees(t) for t in e.parts)
    expected = []
    for k in range(ws.order + 1):
        message = _overflow_message(ws, degrees, k)
        expected.append(message or ws._apply(nf ** k))
    first = next((v for v in expected if isinstance(v, str)), None)
    if first:
        with pytest.raises(OrderExceeded) as exc:
            ws.moments_of(e)
        assert str(exc.value) == first
    else:
        assert ws.moments_of(e) == expected
        assert ws.gf_of(e) == Series.from_moments(expected)
    for k, want in enumerate(expected):
        if isinstance(want, str):
            with pytest.raises(OrderExceeded) as exc:
                ws.eval(e, k)
            assert str(exc.value) == want
        else:
            assert ws.eval(e, k) == want


# -- the read path: a sum of atoms reads each atom's series of its moments


def read_path_atoms(ws):
    """Defined atoms a, c (rational) and b (carrying x), and clones a' and b'."""
    s, x = Stream(45), Poly.var("x")
    a, c = random_umbra(ws, s, "a"), random_umbra(ws, s, "c")
    b = ws.define("b", [ONE] + [Poly.const(s.rational()) + x * s.rational()
                                for _ in range(ws.order)])
    return a, ws.clone(a), b, ws.clone(b), c


def test_a_second_evaluation_lifts_no_atom_again(monkeypatch):
    # each atom part keeps the lift of its moments, read again whole or
    # sliced (eval at k < order); only the part that is no atom, a'' * b'',
    # is lifted on each evaluation
    ws = fresh()
    atoms = read_path_atoms(ws)
    a2, b2 = ws.clone(atoms[0]), ws.clone(atoms[2])
    expr = Sum(atoms + (a2 * b2,))
    first, low = ws.moments_of(expr), ws.eval(expr, 5)
    calls, planes = [], series._planes

    def counted(ms):
        calls.append(ms)
        return planes(ms)
    monkeypatch.setattr(series, "_planes", counted)
    assert ws.moments_of(expr) == first and ws.eval(expr, 5) == low == first[5]
    assert len(calls) == 2
    pointwise = Series.from_moments([p * q for p, q in zip(a2.moments, b2.moments)])
    assert first == binomial_product([Series.from_moments(t.moments) for t in atoms]
                                     + [pointwise])


def test_a_faulted_convolve_reaches_a_sum_of_atoms():
    # two rational atoms and one carrying x: the rational fold and the
    # packed one both read the module's convolve
    ws = fresh()
    a, _, b, _, c = read_path_atoms(ws)
    expected = binomial_product([Series.from_moments(t.moments) for t in (a, c, b)])
    assert ws.moments_of(a + c + b) == expected
    with faults.installed(["series.convolve"], corrupting=True) as fired:
        assert ws.moments_of(a + c + b) != expected
    assert fired == {"series.convolve"}
