import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbral.combinatorics import _bell_triangle_cached
from umbral.core import Workspace
from umbral import inversion
from umbral.errors import CoherenceError, NonUnitLinearMoment
from umbral.inversion import (
    cross_check,
    revert_oracle,
    revert_umbral,
)
from umbral.ops import alpha_bar
from umbral.poly import ONE, Poly
from umbral.prng import Stream
from umbral.series import Series, factorial

from oracles import dot_moment, dot_moment_formula, mul_t


def fresh(order=10):
    return Workspace(order=order, indeterminates=())


def tree_umbra(ws):
    f = Series.one(ws.order) + mul_t(Series(
        ws.order, [Fraction((-1) ** k, factorial(k))
                   for k in range(ws.order + 1)]))
    return ws._register("tree", f.moments(), f)


def random_umbra(ws, stream, name):
    moments = [ONE, Poly.const(stream.nonzero_rational())]
    moments += [Poly.const(stream.rational()) for _ in range(ws.order - 1)]
    return ws.define(name, moments)


def test_tree_function_moments():
    ws = fresh()
    gamma = revert_umbral(ws, tree_umbra(ws))
    assert list(gamma.moments[1:]) == \
        [k ** (k - 1) for k in range(1, 11)]


def test_identity_series_inverts_to_itself():
    ws = fresh()
    f = Series.one(10) + Series.t(10)
    ident = ws._register("ident", f.moments(), f)
    gamma = revert_umbral(ws, ident)
    assert gamma.moments[1] == ONE
    assert all(not m for m in gamma.moments[2:])


def test_oracle_defining_property():
    ws = fresh()
    s = Stream(31)
    a = random_umbra(ws, s, "a")
    oracle = revert_oracle(ws, a)
    g_delta = oracle.egf - Series.one(ws.order)
    f_delta = a.egf - Series.one(ws.order)
    assert g_delta.compose(f_delta) == Series.t(ws.order)
    assert a.egf.compose(g_delta) == Series.one(ws.order) + Series.t(ws.order)


def test_umbral_route_composes_to_identity():
    ws = fresh()
    s = Stream(37)
    a = random_umbra(ws, s, "a")
    gamma = revert_umbral(ws, a)
    assert gamma.egf.compose(a.egf - Series.one(ws.order)) == \
        Series.one(ws.order) + Series.t(ws.order)


def test_cross_check_random_sweep():
    ws = fresh()
    s = Stream(41)
    for trial in range(20):
        a = random_umbra(ws, s, f"a{trial}")
        rep = cross_check(ws, a)
        assert rep.passed and rep.witness is None
        # gamma equals the brute series reversion, registered on its own
        assert rep.gamma_moments == list(revert_oracle(ws, a).moments)
        assert rep.chi_moments[0] == 1 and rep.chi_moments[1] == 1
        assert all(not m for m in rep.chi_moments[2:])


def test_inversion_is_an_involution():
    ws = fresh()
    s = Stream(43)
    a = random_umbra(ws, s, "a")
    assert ws.similar(a, revert_umbral(ws, revert_umbral(ws, a)))


def test_normalized_case_drops_the_a1_division():
    # with a_1 = 1 the k-th moment is E[(-k.bar)^{k-1}] itself
    ws = fresh()
    s = Stream(47)
    moments = [ONE, ONE] + [Poly.const(s.rational()) for _ in range(ws.order - 1)]
    a = ws.define("a", moments)
    bar = alpha_bar(ws, a)
    gamma = revert_umbral(ws, a)
    for k in range(1, ws.order + 1):
        assert gamma.moments[k] == dot_moment(bar, -k, k - 1)


def test_dual_route_negative_dot_moments_agree():
    ws = fresh()
    s = Stream(53)
    a = random_umbra(ws, s, "a")
    bar = alpha_bar(ws, a)
    for mult in (-3, -1, 2):
        for m in range(ws.order):
            assert dot_moment(bar, mult, m) == \
                dot_moment_formula(bar, mult, m)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=4),
                min_size=8, max_size=8),
       st.integers(min_value=-6, max_value=6),
       st.integers(min_value=0, max_value=8))
def test_dot_moment_reads_the_untruncated_power(moments, mult, m):
    bar = fresh(order=8).define("bar", [1] + moments)
    assert dot_moment(bar, mult, m) == \
        bar.egf.pow_int(mult).coeffs[m] * factorial(m)


def x_carrying_umbra(ws, stream, name):
    x = Poly.var("x")
    moments = [ONE, Poly.const(stream.nonzero_rational())]
    moments += [stream.rational() + stream.rational() * x for _ in range(ws.order - 1)]
    return ws.define(name, moments)


@pytest.mark.parametrize("umbra", [random_umbra, x_carrying_umbra],
                         ids=["scalar", "x-carrying"])
def test_corrupted_reversion_is_caught(monkeypatch, umbra):
    # one wrong coefficient on the brute-reversion route, on either ring:
    # revert_umbral registers that series against the Bell-route moments
    revert = Series.revert

    def corrupted(self):
        out = revert(self)
        coeffs = list(out.coeffs)
        coeffs[3] = coeffs[3] + 1
        return Series(out.order, coeffs)

    ws = Workspace(order=6, indeterminates=("x",))
    a = umbra(ws, Stream(61), "a")
    assert cross_check(ws, a).passed
    monkeypatch.setattr(Series, "revert", corrupted)
    with pytest.raises(CoherenceError):
        cross_check(ws, a)


def test_one_inversion_builds_one_bell_triangle():
    # every moment gamma_k reads a prefix of bar's one triangle, looked up
    # once for all k, also when the triangle is packed: moments a_k, k >= 2,
    # that carry x
    ws = Workspace(order=12, indeterminates=("x",))
    a = random_umbra(ws, Stream(67), "a")
    x = Poly.var("x")
    ax = ws.define("ax", a.moments[:2] + tuple(m + x * (k % 3 - 1)
                                               for k, m in enumerate(a.moments[2:])))
    for alpha in (a, ax):
        _bell_triangle_cached.cache_clear()
        revert_umbral(ws, alpha)
        info = _bell_triangle_cached.cache_info()
        assert (info.misses, info.hits) == (1, 0)


def test_bar_normalization_identity_when_g1_is_one():
    # if g - 1 = t e^{bar(g) t} then k bar(g)^{k-1} matches (-k.bar(f))^{k-1}
    ws = fresh()
    s = Stream(59)
    moments = [ONE, ONE] + [Poly.const(s.rational()) for _ in range(ws.order - 1)]
    a = ws.define("a", moments)
    gamma = revert_umbral(ws, a)
    assert gamma.moments[1] == ONE
    gbar = alpha_bar(ws, gamma)
    fbar = alpha_bar(ws, a)
    for k in range(1, ws.order):
        assert k * gbar.moments[k - 1] == dot_moment(fbar, -k, k - 1)


def test_requires_invertible_linear_moment():
    ws = fresh(order=4)
    a = ws.define("flat", [ONE, Poly()] + [ONE] * 3)
    with pytest.raises(NonUnitLinearMoment):
        revert_umbral(ws, a)
    with pytest.raises(NonUnitLinearMoment):
        revert_oracle(ws, a)
    # an order-0 workspace has no first moment to invert
    ws = fresh(order=0)
    for build in (revert_umbral, revert_oracle, alpha_bar):
        with pytest.raises(NonUnitLinearMoment):
            build(ws, ws.u)


def test_report_serializes():
    ws = fresh(order=6)
    rep = cross_check(ws, tree_umbra(ws))
    doc = rep.to_json()
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == {
        "order": 6, "gamma_moments": ["1", "1", "2", "9", "64", "625", "7776"],
        "chi_moments": ["1", "1", "0", "0", "0", "0", "0"], "pass": True, "witness": None}


def test_each_claim_carries_n_and_the_callers_data(monkeypatch):
    # C(3,2) one off fails both expansions at n = 3 and nothing else; every
    # per-n claim carries n after the caller's data
    real = inversion.comb
    monkeypatch.setattr(inversion, "comb", lambda n, k: real(n, k) + ((n, k) == (3, 2)))
    ws = fresh(order=6)
    tree = tree_umbra(ws)
    claims = list(inversion.claims(ws, tree, *inversion.invert(ws, tree), {"trial": 4}))
    assert len(claims) == 1 + 2 * 7
    assert claims[0][3] == {"trial": 4}
    assert [c[3] for c in claims[1:]] == [{"trial": 4, "n": n} for n in range(7) for _ in "ab"]
    false = [(c[0].partition("sum_k ")[2][:12], c[3]["n"]) for c in claims if c[1] != c[2]]
    assert false == [("C(n,k) a_1^k", 3), ("C(n,k) E[chi", 3)]


def test_inversion_registers_one_bar():
    # gamma and the expansions share one bar(a)
    ws = fresh(order=6)
    tree = tree_umbra(ws)
    before = len(ws._atoms)
    cross_check(ws, tree)
    names = [a.name for a in list(ws._atoms.values())[before:]]
    assert names.count("bar(tree)") == 1

