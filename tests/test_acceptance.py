"""Acceptance criteria, one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.
"""

import time
from fractions import Fraction

from umbral.cli import ExprContext, render
from umbral.combinatorics import (
    bell_number,
    complete_bell,
    stirling,
)
from umbral.core import Workspace
from umbral.identities import check, check_all
from umbral.inversion import cross_check, revert_oracle, revert_umbral
from umbral.ops import (
    alpha_bar,
    bell_umbra,
    composition_umbra,
    dot,
    inverse_umbra,
    partition_umbra,
    point_power,
    scale_atom,
)
from umbral.poisson import (
    CompoundModel,
    DiscreteDist,
    PoissonModel,
    RandomizedModel,
    compare,
)
from umbral.poly import ONE, Poly
from umbral.prng import Stream
from umbral.series import Series, factorial

from oracles import dot_moment, enumerate_partitions, mul_t

HALF = Fraction(1, 2)


def _report(num, name, started):
    print(f"\nACCEPTANCE {num} ({name}): PASS [{time.time() - started:.1f}s]")


def _random_umbra(ws, stream, name, nonzero_first=False):
    moments = [ONE]
    for k in range(1, ws.order + 1):
        if k == 1 and nonzero_first:
            moments.append(Poly.const(stream.nonzero_rational()))
        else:
            moments.append(Poly.const(stream.rational()))
    return ws.define(name, moments)


def test_criterion_1_coherence_sweep():
    started = time.time()
    ws = Workspace(order=12)
    stream = Stream(1001)
    beta = bell_umbra(ws)
    built = [beta, bell_umbra(ws, "x")]
    for i in range(50):
        a = _random_umbra(ws, stream, f"a{i}", nonzero_first=True)
        other = _random_umbra(ws, stream, f"o{i}")
        built.extend([
            dot(ws, 2, a),
            dot(ws, -2, a),
            dot(ws, "x", a),
            dot(ws, other, a),
            point_power(ws, a, 2),
            point_power(ws, a, 0),
            inverse_umbra(ws, a),
            partition_umbra(ws, a),
            partition_umbra(ws, a, "x"),
            composition_umbra(ws, other, a),
            alpha_bar(ws, a),
            scale_atom(ws, HALF, a),
        ])
    for atom in built:
        for k in range(13):
            assert atom.egf.coeffs[k] * factorial(k) == atom.moments[k], atom.name
    elapsed = time.time() - started
    assert elapsed < 60, f"coherence sweep too slow: {elapsed:.1f}s"
    _report(1, "coherence sweep, 50 umbrae x all constructors", started)


def test_criterion_2_identity_catalog():
    started = time.time()
    cases = check_all()
    assert len(cases) == 31
    failures = [c.id for c in cases if not c.passed]
    assert failures == [], failures
    remark1 = next(c for c in cases if c.id == "remark1_left_dist_counterexample")
    assert remark1.designed_counterexample and remark1.witness is not None
    _report(2, "all 31 identity catalog entries pass", started)


def test_criterion_3_bell_chain():
    started = time.time()
    ws = Workspace(order=12)
    beta = bell_umbra(ws)
    ones = [ONE] * 12
    for n in range(13):
        b = bell_number(n)
        assert ws.eval(beta, n) == b
        assert complete_bell(n, ones) == b
        assert sum(w.count for w in enumerate_partitions(n)) == b
    assert bell_number(5) == 52
    _report(3, "Bell chain: moments = recursion = Y_n(1) = enumeration, n <= 12",
            started)


def test_criterion_4_lagrange_inversion():
    started = time.time()
    ws = Workspace(order=10, indeterminates=())
    # the tree-function case
    f = Series.one(10) + mul_t(Series(
        10, [Fraction((-1) ** k, factorial(k)) for k in range(11)]))
    tree = ws._register("tree", f.moments(), f)
    gamma = revert_umbral(ws, tree)
    assert list(gamma.moments[1:]) == \
        [k ** (k - 1) for k in range(1, 11)]
    rep = cross_check(ws, tree)
    assert rep.passed and rep.gamma_moments == list(revert_oracle(ws, tree).moments)
    assert list(rep.chi_moments) == [1, 1] + [0] * 9
    # 20 random seeded umbrae at order 10
    stream = Stream(4004)
    for trial in range(20):
        a = _random_umbra(ws, stream, f"r{trial}", nonzero_first=True)
        u_route = revert_umbral(ws, a)
        o_route = revert_oracle(ws, a)
        assert u_route.moments == o_route.moments, trial
        chi = composition_umbra(ws, u_route, a)
        assert list(chi.moments) == [1, 1] + [0] * 9, trial
    _report(4, "Lagrange inversion: oracle agreement + tree case + unit chi",
            started)


def test_criterion_5_stirling_bernoulli():
    started = time.time()
    from umbral.combinatorics import bernoulli_number
    from math import comb
    ws = Workspace(order=10, indeterminates=())
    bern = ws.define("bern", [Poly.const(bernoulli_number(k)) for k in range(11)])
    for n in range(11):
        for k in range(n + 1):
            rhs = comb(n, k) * dot_moment(bern, -k, n - k)
            assert rhs == stirling("second", n, k), (n, k)
    _report(5, "S(n,k) via the Bernoulli umbra, all 0 <= k <= n <= 10", started)


def test_criterion_6_dobinski_bounded():
    started = time.time()
    for n in range(9):
        case = check("dobinski_scalar", {"n": n})
        assert case.passed, case.witness
    # explicit bracketing detail at n = 8
    from umbral.identities import _dobinski_bracket
    lower, upper, ratio = _dobinski_bracket(8, Fraction(1))
    b8 = bell_number(8)
    assert lower <= b8 <= upper
    assert (upper - lower) / b8 < Fraction(1, 10 ** 6)
    assert (ratio + HALF).__floor__() == b8
    _report(6, "Dobinski partial sums bracket B_n within 1e-6, n <= 8", started)


def test_criterion_7_monte_carlo_lab():
    started = time.time()
    n = 10 ** 6
    models = [
        ("poisson(1) vs Bell numbers", PoissonModel(1), 101),
        ("poisson(2) vs exponential polynomials", PoissonModel(2), 102),
        ("compound", CompoundModel(1, DiscreteDist((1, 2), (HALF, HALF))), 103),
        ("randomized", RandomizedModel(DiscreteDist((1, 2), (HALF, HALF))), 104),
    ]
    for label, model, seed in models:
        comp = compare(model, n, seed, max_order=4)
        zmax = max(abs(r["z"]) for r in comp.rows)
        assert comp.passed, (label, comp.to_json())
        print(f"  {label}: max|z| = {zmax:.2f} over orders 1..4")
    # spot-check the documented prediction rows
    assert [r["exact"] for r in compare(PoissonModel(1), 1000, 1).rows] == \
        ["1", "2", "5", "15"]
    assert compare(PoissonModel(2), 1000, 1, 2).rows[1]["exact"] == "6"
    elapsed = time.time() - started
    assert elapsed < 120, f"Monte Carlo lab too slow: {elapsed:.1f}s"
    _report(7, "Monte Carlo lab, four models at n = 10^6, |z| <= 8", started)


def test_criterion_8_cli_round_trip():
    started = time.time()
    from test_cli import CORPUS

    ws = Workspace(order=8)
    ws.define("a", [1] + [Fraction(k) for k in range(1, 9)])
    ws.define("b", [1] + [Fraction(1, k) for k in range(1, 9)])
    ws.define("g", [1] + [Fraction(2)] * 8)
    ctx = ExprContext(ws)
    assert len(CORPUS) >= 20
    for text in CORPUS:
        tree = ctx.parse(text)
        ws.eval(tree, 1)
        rendered = render(tree)
        assert ctx.parse(rendered) == tree, text
    from umbral.cli import main
    import contextlib, io, json
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["check", "all"])
    doc = json.loads(out.getvalue())
    assert code == 0 and len(doc) == 31 and all(c["pass"] for c in doc)
    _report(8, "CLI corpus round-trip + `check all` exits 0", started)
