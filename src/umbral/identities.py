"""Runnable catalog of the engine's umbral identities.

Every entry has default parameters (max order ``n``, random ``trials``,
``seed``) and yields *claims*: ``(statement, lhs, rhs, data)`` tuples, each
holding when ``lhs == rhs``.  A similarity lhs ~ rhs is claimed on the
moment sequences of both sides; a bare condition is claimed as
``(statement, cond, True, data)``; ``data`` carries the trial, n, k and
drawn parameters.  All comparisons are exact (polynomial identities compare
coefficients, never sampled points).

One harness, ``core.verdict``, judges every entry (and the Lagrange
inversion's claims in :func:`umbral.inversion.cross_check`): it pulls the
claims in order and stops at the first false one, whose witness
``{"statement", "lhs", "rhs", **data}`` renders each side as a string or a
list of strings.  An entry fails on a false claim and passes when every
claim holds.  One entry, ``remark1_left_dist_counterexample``, is a designed
counterexample, and its verdict is inverted: it passes by *exhibiting* a
false claim (the point product does not left-distribute over umbra sums),
with that claim as its witness, and fails if every claim holds.
Parameters under which an entry makes no claim at all are a
``UsageError``, never a vacuous pass.

Random umbrae draw their moments from SplitMix64 streams (numerator in
[-9, 9], denominator in {1, 2, 3, 4}, zeroth moment 1), with a fixed
per-entry default seed (CRC-32 of the entry id), so runs are reproducible
byte for byte.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .combinatorics import (
    bell_moment,
    bell_number,
    bell_transform,
    bell_triangle,
    exponential_poly,
    bernoulli_number,
    stirling,
)
from .core import IntPower, Product, Sum, Workspace, verdict
from .errors import CoherenceError, UnknownIdentity, UsageError
from .inversion import claims as inversion_claims, invert
from .ops import (
    alpha_bar,
    bell_umbra,
    composition_umbra,
    dot,
    exponential_umbral_moment,
    falling_factorials,
    inverse_umbra,
    partition_umbra,
    point_power,
    scale_atom,
)
from .poly import ONE, ZERO, Poly
from .prng import Stream
from .series import Series, factorial


# -- harness -------------------------------------------------------------------


@dataclass
class IdentityCase:
    """Result of checking one catalog entry."""

    id: str
    anchor: str
    params: dict
    passed: bool
    witness: dict | None
    designed_counterexample: bool = False

    def to_json(self) -> dict:
        return {
            "id": self.id,
            "anchor": self.anchor,
            "params": self.params,
            "pass": self.passed,
            "witness": self.witness,
            "designed_counterexample": self.designed_counterexample,
        }


def _similar(ws, statement, lhs, rhs, **data):
    """The claim lhs ~ rhs: equal moments up to the workspace's order."""
    return statement, ws.gf_of(lhs).moments(), ws.gf_of(rhs).moments(), data


def _ws(params, indets=("x", "y")) -> Workspace:
    return Workspace(order=params["n"], indeterminates=indets)


def _random_atom(ws, stream, name, nonzero_first=False):
    moments = [1]
    for k in range(1, ws.order + 1):
        moments.append(stream.nonzero_rational() if k == 1 and nonzero_first
                       else stream.rational())
    return ws.define(name, moments)


def _trials(params, names, nonzero_first=False):
    """Per trial, ``(trial, ws, stream, *atoms)``: a fresh workspace and one
    random umbra per name, drawn in order from the entry's stream, which
    the trial goes on drawing from."""
    stream = Stream(params["seed"])
    for trial in range(params["trials"]):
        ws = _ws(params)
        yield (trial, ws, stream,
               *[_random_atom(ws, stream, name, nonzero_first) for name in names])


# -- integer point multiples ------------------------------------------------------


def _recover_from_int_dot(ws, n_int, q):
    """Invert q_k = sum_i (n)_i B_{k,i}(a) for the source moments a; B_{k,1}
    is the only term containing a_k and enters with factor n, so recovery is
    triangular: the Bell moment of row k with a_k = 0 sums the other terms."""
    rec = [1]
    weights = falling_factorials(n_int, ws.order)
    for k in range(1, ws.order + 1):
        acc = bell_moment(weights[:k + 1], rec[1:] + [0], k)
        rec.append((q[k] - acc) * Fraction(1, n_int))
    return rec


def _chk_prop1(params):
    for trial, ws, stream, a, b in _trials(params, "ab"):
        c = stream.rational()
        n_int = stream.randint(1, 3)
        m_int = stream.randint(1, 3)
        # (i) cancellation: the moments of n.a determine a
        na = dot(ws, n_int, a)
        yield ("(i): moments of n.a failed to invert to a",
               tuple(_recover_from_int_dot(ws, n_int, na.moments)), a.moments,
               {"trial": trial, "n": n_int})
        yield ("(i): n.a similar to n.b for dissimilar a, b",
               a.moments == b.moments or not ws.similar(na, dot(ws, n_int, b)), True,
               {"trial": trial, "n": n_int})
        yield _similar(ws, "(ii): n.(c a) not similar to c (n.a)",
                       dot(ws, n_int, scale_atom(ws, c, a)), scale_atom(ws, c, na),
                       trial=trial, n=n_int, c=str(c))
        # (iii) n.(m.a) ~ (nm).a ~ m.(n.a)
        nm = dot(ws, n_int * m_int, a)
        yield _similar(ws, "(iii): n.(m.a) not similar to (nm).a",
                       dot(ws, n_int, dot(ws, m_int, a)), nm, trial=trial, n=n_int, m=m_int)
        yield _similar(ws, "(iii): m.(n.a) not similar to (nm).a",
                       dot(ws, m_int, na), nm, trial=trial, n=n_int, m=m_int)
        yield _similar(ws, "(iv): (n+m).a not similar to n.a + m.a'",
                       dot(ws, n_int + m_int, a),
                       Sum((dot(ws, n_int, a), dot(ws, m_int, ws.clone(a)))),
                       trial=trial, n=n_int, m=m_int)
        yield _similar(ws, "(v): n.(a+b) not similar to n.a + n.b",
                       dot(ws, n_int, ws.atom_of(a + b, "a+b")),
                       Sum((dot(ws, n_int, a), dot(ws, n_int, b))), trial=trial, n=n_int)


def _chk_cor1(params):
    for trial, ws, stream, a, b in _trials(params, "ab"):
        x, y = ws.var("x"), ws.var("y")
        c = stream.rational()
        xa = dot(ws, "x", a)
        # (i) cancellation: q_k(x) at x = 1 returns a_k
        yield ("(i): q_k(x)|_{x=1} != a_k",
               tuple(Poly.coerce(m).subs({"x": 1}) for m in xa.moments), a.moments,
               {"trial": trial})
        yield ("(i): x.a similar to x.b for dissimilar a, b",
               a.moments == b.moments or not ws.similar(xa, dot(ws, "x", b)), True,
               {"trial": trial})
        yield _similar(ws, "(ii): x.(c a) not similar to c (x.a)",
                       dot(ws, "x", scale_atom(ws, c, a)), scale_atom(ws, c, xa),
                       trial=trial, c=str(c))
        yield _similar(ws, "(iii): x.(y.a) not similar to (xy).a",
                       dot(ws, "x", dot(ws, "y", a)), dot(ws, x * y, a), trial=trial)
        yield _similar(ws, "(iv): (x+y).a not similar to x.a + y.a'",
                       dot(ws, x + y, a), Sum((xa, dot(ws, "y", ws.clone(a)))),
                       trial=trial)
        yield _similar(ws, "(v): x.(a+b) not similar to x.a + x.b",
                       dot(ws, "x", ws.atom_of(a + b, "a+b")),
                       Sum((dot(ws, "x", a), dot(ws, "x", b))), trial=trial)


def _chk_thm1(params):
    x, y = Poly.var("x"), Poly.var("y")
    for trial, ws, _, a in _trials(params, "a"):
        q = list(map(Poly.coerce, dot(ws, "x", a).moments))
        for k in range(ws.order + 1):
            rhs = sum((comb(k, i) * q[i] * q[k - i].subs({"x": y}) for i in range(k + 1)),
                      ZERO)
            yield ("q_k(x+y) != sum C(k,i) q_i(x) q_{k-i}(y)",
                   q[k].subs({"x": x + y}), rhs, {"trial": trial, "k": k})


def _chk_abel(params):
    for trial, ws, _, a, b, g in _trials(params, "abg"):
        # per k: E[a (a + (-k).g)^{k-1}] and the moments of b + k.g'
        first, second = [None], [None]
        for k in range(1, ws.order + 1):
            w = dot(ws, -k, g)
            first.append(ws.eval(Product((a, IntPower(Sum((a, w)), k - 1)))))
            v = dot(ws, k, g)
            second.append(ws.gf_of(Sum((b, v))).moments())
        for n in range(ws.order + 1):
            rhs = sum((comb(n, k) * first[k] * second[k][n - k] for k in range(1, n + 1)),
                      ws.eval(b, n))  # k = 0 term
            yield ("Abel expansion of (a+b)^n failed", ws.eval(a + b, n), rhs,
                   {"trial": trial, "n": n})


def _chk_cor2(params):
    for trial, ws, _, a, b, g in _trials(params, "abg"):
        yield _similar(ws, "(a+b).g not similar to a.g + b.g'",
                       dot(ws, ws.atom_of(a + b, "a+b"), g),
                       Sum((dot(ws, a, g), dot(ws, b, ws.clone(g)))), trial=trial)


def _chk_remark1(params):
    # designed counterexample: left distributivity, claimed order by order,
    # is false from k = 2
    if params["n"] < 2:
        raise UsageError(f"n must be at least 2 for this counterexample, not {params['n']}")
    ws = _ws(params)
    a, b, g = bell_umbra(ws), bell_umbra(ws), bell_umbra(ws)
    lhs = dot(ws, a, ws.atom_of(Sum((b, g)), "b+g"))
    rhs = Sum((dot(ws, a, b), dot(ws, ws.clone(a), g)))
    for k in range(min(4, ws.order) + 1):
        yield ("a.(b+g) differs from a.b + a'.g at order k", ws.eval(lhs, k),
               ws.eval(rhs, k), {"inputs": "a, b, g all Bell scalar umbrae", "k": k})


def _chk_cor3(params):
    for trial, ws, _, a, b, g in _trials(params, "abg"):
        yield _similar(ws, "b.(g.a) not similar to (b.g).a", dot(ws, b, dot(ws, g, a)),
                       dot(ws, dot(ws, b, g), a), trial=trial)


def _power(statement, fp, f, p, data):
    """The claim fp = f^p through ``Series.product`` of |p| copies of f, not
    ``pow_int``, which point multiples are built with: fp f^-p = 1 for p < 0."""
    copies, one = [f] * abs(p), Series.one(f.order)
    if p < 0:
        return statement, Series.product([fp] + copies), one, data
    return statement, fp, Series.product([one] + copies), data


def _chk_prop5(params):
    for trial, ws, _, a in _trials(params, "a"):
        inv = inverse_umbra(ws, a)
        yield _power("gf of inverse times f is not 1", inv.egf, a.egf, -1, {"trial": trial})
        yield _similar(ws, "a + inv(a) not similar to eps", a + inv, ws.eps, trial=trial)


def _chk_prop6(params):
    for trial, ws, stream, a in _trials(params, "a"):
        n_int = stream.randint(1, 3)
        neg = dot(ws, -n_int, a)
        yield _power("gf of -n.a times f^n is not 1", neg.egf, a.egf, -n_int,
                     {"trial": trial, "n": n_int})
        yield _similar(ws, "n.a + (-n).a' not similar to eps",
                       Sum((dot(ws, n_int, a), neg)), ws.eps, trial=trial, n=n_int)


def _chk_eq10(params):
    for trial, ws, stream, a, b in _trials(params, "ab"):
        for n_int in (0, 2, 3):
            yield ("moments of a^.n are not a_k^n", point_power(ws, a, n_int).moments,
                   tuple(m ** n_int for m in a.moments), {"trial": trial, "n": n_int})
        yield _similar(ws, "a^.0 not similar to the unity umbra", point_power(ws, a, 0),
                       ws.u, trial=trial)
        # negative point power on an umbra with invertible moments
        nz = ws.define("nz", [1] + [stream.nonzero_rational() for _ in range(ws.order)])
        rec = point_power(ws, nz, -1)
        yield ("a^.{-1} moments are not reciprocals",
               [r * m for r, m in zip(rec.moments, nz.moments)], [ONE] * (ws.order + 1),
               {"trial": trial})
        # binomial expansion at the equivalence (first-moment) level
        n_int = stream.randint(2, 4)
        lhs = ws.eval(point_power(ws, ws.atom_of(a + b, "a+b"), n_int))
        rhs = sum((comb(n_int, i) * ws.eval(point_power(ws, a, i))
                   * ws.eval(point_power(ws, b, n_int - i))
                   for i in range(n_int + 1)), ZERO)
        yield ("(a+b)^.n binomial expansion failed at first moments", lhs, rhs,
               {"trial": trial, "n": n_int})


def _chk_eq11(params):
    for trial, ws, _, a in _trials(params, "a"):
        for n_int in (0, 1, 2, 3, -2):
            yield _power("gf of n.a is not f^n", dot(ws, n_int, a).egf, a.egf, n_int,
                         {"trial": trial, "n": n_int})


def _chk_eq13(params):
    stream = Stream(params["seed"])
    order = params["n"]
    for trial in range(params["trials"]):
        a1 = stream.rational()
        for n_int in (2, 3):
            base = Series.t(order).scalar_mul(a1).exp()
            yield ("exp(n a_1 t) != exp(a_1 t)^n",
                   Series.t(order).scalar_mul(a1 * n_int).exp(), base.pow_int(n_int),
                   {"trial": trial, "n": n_int, "a1": str(a1)})


def _chk_thm2(params):
    ws = _ws(params)
    beta = bell_umbra(ws)
    for n in range(ws.order):
        lhs = ws.eval(beta, n + 1)
        yield "E[b^{n+1}] != E[(b+u)^n]", lhs, ws.eval(beta + ws.u, n), {"n": n}
        yield ("Bell recursion value mismatch", lhs,
               sum(comb(n, k) * bell_number(k) for k in range(n + 1)), {"n": n})


def _chk_eq17(params):
    ws = _ws(params)
    beta = bell_umbra(ws)
    yield ("d/dt gf(b) != gf(b+u)", beta.egf.derivative(),
           ws.gf_of(beta + ws.u).truncate(ws.order - 1), {})


def _chk_eq18(params):
    ws = _ws(params)
    # exp(h) through compose, not Series.exp, which built the Bell umbra's series
    yield ("gf(b) != exp(e^t - 1)", bell_umbra(ws).egf,
           Series.exp_t(ws.order).compose(Series.expm1_t(ws.order)), {})


def _dobinski_bracket(n, x0: Fraction):
    """Exact partial-sum bracketing of e^{-x0} sum k^n x0^k / k!.

    Returns (lower, upper, ratio) where ratio = sum_{k<=K} k^n x0^k/k!
    divided by sum_{k<=K} x0^k/k!, and [lower, upper] provably contains the
    limit value.  K = 4n + 40 makes consecutive tail terms decay by at
    least a factor of 2, giving the geometric tail bounds below.
    """
    K = 4 * n + 40
    p, q, fk = x0.numerator, x0.denominator, factorial(K)  # x0^k / k! = w_k / (q^K K!)
    w = [p ** k * q ** (K - k) * (fk // factorial(k)) for k in range(K + 1)]
    s_num = Fraction(sum(k ** n * c for k, c in enumerate(w)), q ** K * fk)
    s_den = Fraction(sum(w), q ** K * fk)
    # decay ratio of consecutive terms beyond K, as exact fractions
    r_num = Fraction(K + 2, K + 1) ** n * x0 / (K + 2)
    r_den = x0 / Fraction(K + 2)
    assert r_num < Fraction(1, 2) and r_den < Fraction(1, 2)
    tail_num = Fraction((K + 1) ** n) * x0 ** (K + 1) / factorial(K + 1) * 2
    tail_den = x0 ** (K + 1) / Fraction(factorial(K + 1)) * 2
    lower = s_num / (s_den + tail_den)
    upper = (s_num + tail_num) / s_den
    return lower, upper, s_num / s_den


def _dobinski(n, x0: Fraction, target):
    """Claims that the bracket at (n, x0) holds ``target``, the limit
    Phi_n(x0), within 1e-6 relative; returns the partial-sum ratio."""
    lower, upper, ratio = _dobinski_bracket(n, x0)
    data = {"n": n, "x0": str(x0)}
    yield "partial sums fail to bracket Phi_n(x0)", lower <= target <= upper, True, data
    yield ("tail bound wider than 1e-6 relative",
           not target or (upper - lower) / target < Fraction(1, 10 ** 6), True, data)
    return ratio


def _chk_dobinski_scalar(params):
    # B_n = Phi_n(1), which the partial-sum ratio also rounds to
    for n in range(params["n"] + 1):
        ratio = yield from _dobinski(n, Fraction(1), Fraction(bell_number(n)))
        yield ("partial-sum ratio does not round to B_n",
               (ratio + Fraction(1, 2)).__floor__(), bell_number(n), {"n": n})


def _chk_dobinski_polynomial(params):
    for x0 in (Fraction(1), Fraction(2), Fraction(1, 2)):
        for n in range(params["n"] + 1):
            yield from _dobinski(n, x0, exponential_poly(n).subs({"x": x0}).constant())


def _chk_thm4(params):
    ws = _ws(params)
    yield _similar(ws, "scaled Bell umbra not similar to x.bell", bell_umbra(ws, "x"),
                   dot(ws, "x", bell_umbra(ws)))


def _chk_thm5(params):
    ws = _ws(params)
    xb = bell_umbra(ws, "x")
    x = ws.var("x")
    for n in range(ws.order):
        yield ("E[(x.b)^{n+1}] != x E[(x.b+u)^n]", ws.eval(xb, n + 1),
               x * ws.eval(xb + ws.u, n), {"n": n})


def _chk_rodrigues(params):
    ws = _ws(params)
    xb = bell_umbra(ws, "x")
    for n in range(ws.order + 1):
        yield ("d/dx E[(x.b)^n] != E[(x.b+u)^n] - E[(x.b)^n]",
               ws.eval(xb, n).derivative("x"), ws.eval(xb + ws.u, n) - ws.eval(xb, n),
               {"n": n})


def _chk_eq22_1(params):
    for trial, ws, _, a in _trials(params, "a"):
        ab = dot(ws, a, bell_umbra(ws))
        for n in range(ws.order + 1):
            yield ("sum S(n,k) a_k != moment of a.bell", exponential_umbral_moment(a, n),
                   ab.moments[n], {"trial": trial, "n": n})


def _chk_eq22_3(params):
    for trial, ws, _, a in _trials(params, "a"):
        yield ("gf(a.bell) != f(e^t - 1)", dot(ws, a, bell_umbra(ws)).egf,
               a.egf.compose(Series.expm1_t(ws.order)), {"trial": trial})


def _chk_eq24(params):
    for trial, ws, _, a in _trials(params, "a"):
        yield ("gf(part(a)) != exp(f - 1)", partition_umbra(ws, a).egf,
               Series.exp_t(ws.order).compose(a.egf - Series.one(ws.order)), {"trial": trial})


def _chk_eq_somma(params):
    x, y = Poly.var("x"), Poly.var("y")
    for trial, ws, _, a in _trials(params, "a"):
        yield _similar(ws, "(x+y).part(a) not similar to x.part(a) + y.part(a')",
                       partition_umbra(ws, a, x + y),
                       Sum((partition_umbra(ws, a, "x"),
                            partition_umbra(ws, ws.clone(a), "y"))), trial=trial)


def _chk_thm6(params):
    for trial, ws, _, a in _trials(params, "a"):
        psi = partition_umbra(ws, a)
        a2 = ws.clone(a)
        for n in range(ws.order):
            yield ("E[psi^{n+1}] != E[a'(psi+a')^n]", ws.eval(psi, n + 1),
                   ws.eval(a2 * (psi + a2) ** n), {"trial": trial, "n": n})


def _bell_sums(ws, weights, a, target, statement, trial):
    """Claims that moment n of ``target`` is sum_k w_k B_{n,k}(a), n = 0..N,
    summed over row n of the Bell triangle."""
    tri = bell_triangle(a.moments[1:], ws.order)
    for n in range(ws.order + 1):
        total = sum((w * b for w, b in zip(weights, tri[n])), ZERO)
        yield statement, total, target.moments[n], {"trial": trial, "n": n}


def _chk_eq28(params):
    for trial, ws, _, a in _trials(params, "a"):
        xpsi = partition_umbra(ws, a, "x")
        yield _similar(ws, "x.part(a) built two ways disagrees", xpsi,
                       dot(ws, "x", partition_umbra(ws, a)), trial=trial)
        x = ws.var("x")
        yield from _bell_sums(ws, [x ** k for k in range(ws.order + 1)], a, xpsi,
                              "moments differ from sum x^k B_{n,k}(a)", trial)


def _chk_thm7(params):
    # E[chi^{n+1}] = sum_i C(n,i) a_{n-i+1} E[g chi^i], with the g-weighted
    # powers of chi read through the shifted composition moments
    # E[g chi^i] = sum_m g_{m+1} B_{i,m}(a): the left factor g stays
    # correlated with the g inside chi.
    for trial, ws, _, a, g in _trials(params, "ag"):
        chi = composition_umbra(ws, g, a)
        shifted = bell_transform(g.moments[1:], a.moments[1:], ws.order)
        for n in range(ws.order):
            rhs = sum((comb(n, i) * a.moments[n - i + 1] * shifted[i]
                       for i in range(n + 1)), ZERO)
            yield ("composition-umbra recursion failed", chi.moments[n + 1], rhs,
                   {"trial": trial, "n": n})


def _chk_eq30(params):
    for trial, ws, _, a, g in _trials(params, "ag"):
        chi = composition_umbra(ws, g, a)
        yield _similar(ws, "comp(g,a) not similar to g.part(a)", chi,
                       dot(ws, g, partition_umbra(ws, a)), trial=trial)
        yield from _bell_sums(ws, g.moments, a, chi,
                              "moments differ from sum g_k B_{n,k}(a)", trial)


def _chk_lemma1(params):
    for trial, ws, _, a in _trials(params, "a", nonzero_first=True):
        bar = alpha_bar(ws, a)
        a1 = a.moments[1]
        tri = bell_triangle(a.moments[1:], ws.order)
        # E[(k.bar)^m] is m! [t^m] gf(bar)^k
        powers = [bar.egf.pow_int(k) for k in range(ws.order + 1)]
        for n in range(1, ws.order + 1):
            for k in range(1, n + 1):
                rhs = comb(n, k) * a1 ** k * powers[k].egf_moment(n - k)
                yield ("B_{n,k}(a) != C(n,k) a_1^k E[(k.bar)^{n-k}]", tri[n][k], rhs,
                       {"trial": trial, "n": n, "k": k})


def _chk_remark4(params):
    ws = _ws(params)
    bern = ws.define("bern", [bernoulli_number(k) for k in range(ws.order + 1)])
    # a k outside 0..order makes no claim
    ks = [k for k in ([params["k"]] if "k" in params else range(ws.order + 1))
          if 0 <= k <= ws.order]
    # E[(-k.bern)^m] is m! [t^m] gf(bern)^{-k}
    powers = {k: bern.egf.pow_int(-k) for k in ks}
    for n in range(ws.order + 1):
        for k in ks:
            if k > n:
                break
            yield ("S(n,k) != C(n,k) E[(-k.bern)^{n-k}]", stirling("second", n, k),
                   comb(n, k) * powers[k].egf_moment(n - k), {"n": n, "k": k})


def _chk_thm8(params):
    stream = Stream(params["seed"])
    ws = _ws(params, indets=())
    # the classical test case f - 1 = t e^{-t}, whose k-th moment is k (-1)^(k-1)
    f = Series.from_moments([1] + [k * (-1) ** (k - 1) for k in range(1, ws.order + 1)])
    tree = ws._register("tree", f.moments(), f)
    bar, gamma, chi = invert(ws, tree)
    yield ("tree-function inversion failed", list(gamma.moments[1:]),
           [Fraction(k ** (k - 1)) for k in range(1, ws.order + 1)], {})
    yield from inversion_claims(ws, tree, bar, gamma, chi, {})
    for trial in range(params["trials"]):
        a = _random_atom(ws, stream, f"a{trial}", nonzero_first=True)
        yield from inversion_claims(ws, a, *invert(ws, a), {"trial": trial})


# -- catalog -----------------------------------------------------------------------


def _entry(id_, anchor, fn, n=8, trials=10, designed=False):
    return {
        "id": id_,
        "anchor": anchor,
        "fn": fn,
        "defaults": {"n": n, "trials": trials, "seed": zlib.crc32(id_.encode())},
        "designed_counterexample": designed,
    }


_CATALOG = [
    _entry("prop1_i_v",
           "integer point multiples: cancellation, scaling, iteration, "
           "additivity and right distributivity", _chk_prop1, n=8, trials=6),
    _entry("cor1_i_v",
           "indeterminate point multiples: cancellation, scaling, iteration, "
           "additivity and right distributivity", _chk_cor1, n=8, trials=6),
    _entry("thm1_binomial_type",
           "moment polynomials of x.a form a sequence of binomial type",
           _chk_thm1, n=8, trials=4),
    _entry("abel",
           "Abel-style expansion of E[(a+b)^n] with point multiples of a "
           "third umbra", _chk_abel, n=8, trials=10),
    _entry("cor2_right_dist",
           "the point product right-distributes: (a+b).g ~ a.g + b.g'",
           _chk_cor2),
    _entry("remark1_left_dist_counterexample",
           "the point product does NOT left-distribute over umbra sums "
           "(designed counterexample)", _chk_remark1, n=6, designed=True),
    _entry("cor3_assoc", "the point product is associative: b.(g.a) ~ (b.g).a",
           _chk_cor3),
    _entry("prop5_inverse",
           "the inverse umbra has reciprocal generating function and sums "
           "with its source to the augmentation", _chk_prop5),
    _entry("prop6_neg_dot",
           "inverse point multiples carry f^{-n} and cancel n.a", _chk_prop6),
    _entry("eq10_point_power",
           "point-power moments are componentwise powers of the base moments",
           _chk_eq10),
    _entry("eq11_gf_power", "the generating function of n.a is f^n",
           _chk_eq11),
    _entry("eq13_point_exp_series",
           "the point exponential of a multiple expands as the n-th power "
           "series identity exp(n a_1 t) = exp(a_1 t)^n", _chk_eq13, n=10),
    _entry("thm2_bell_recursion",
           "the Bell umbra satisfies E[b^{n+1}] = E[(b+u)^n] (Bell-number "
           "recursion)", _chk_thm2, n=10),
    _entry("eq17_derivative",
           "d/dt of the Bell generating function equals the generating "
           "function of b+u", _chk_eq17, n=10),
    _entry("eq18_bell_gf", "the Bell generating function is exp(e^t - 1)",
           _chk_eq18, n=12),
    _entry("dobinski_scalar",
           "Bell numbers as exp(-1)-weighted power sums, bracketed by exact "
           "partial sums", _chk_dobinski_scalar, n=8),
    _entry("thm4_phi_is_xbeta",
           "the polynomial Bell umbra coincides with x.bell", _chk_thm4, n=10),
    _entry("thm5_recursion",
           "E[(x.b)^{n+1}] = x E[(x.b+u)^n] as a polynomial identity",
           _chk_thm5, n=10),
    _entry("rodrigues",
           "d/dx E[(x.b)^n] = E[(x.b+u)^n] - E[(x.b)^n]", _chk_rodrigues, n=10),
    _entry("dobinski_polynomial",
           "exponential polynomials as exp(-x)-weighted power sums at "
           "rational points, bracketed exactly", _chk_dobinski_polynomial, n=8),
    _entry("eq22_1_exponential_umbral",
           "sum_k S(n,k) a_k equals the n-th moment of a.bell", _chk_eq22_1),
    _entry("eq22_3_randomized_gf",
           "the generating function of a.bell is f(e^t - 1)", _chk_eq22_3),
    _entry("eq24_partition_gf",
           "the partition umbra carries exp(f - 1)", _chk_eq24),
    _entry("eq_somma_convolution",
           "scaled partition umbrae convolve: (x+y).part(a) ~ x.part(a) + "
           "y.part(a')", _chk_eq_somma, n=6, trials=6),
    _entry("thm6_partition_recursion",
           "E[psi^{n+1}] = E[a'(psi+a')^n] for the partition umbra",
           _chk_thm6),
    _entry("eq28_poly_partition",
           "scaled partition moments are sum_k x^k B_{n,k}(a), matching the "
           "x.part(a) route", _chk_eq28, n=8, trials=6),
    _entry("thm7_composition_recursion",
           "the composition umbra's moment recursion with correlated left "
           "weight", _chk_thm7),
    _entry("eq30_composition_moments",
           "composition moments are sum_k g_k B_{n,k}(a), matching the "
           "g.part(a) route", _chk_eq30),
    _entry("lemma1_partial_bell",
           "B_{n,k}(a) = C(n,k) a_1^k E[(k.bar)^{n-k}]", _chk_lemma1, n=10,
           trials=6),
    _entry("remark4_stirling_bernoulli",
           "S(n,k) = C(n,k) E[(-k.bern)^{n-k}] through the Bernoulli umbra",
           _chk_remark4, n=10),
    _entry("thm8_lagrange",
           "compositional inversion: closed moment formula vs series "
           "reversion, with unit composition moments", _chk_thm8, n=10,
           trials=10),
]

_BY_ID = {e["id"]: e for e in _CATALOG}


def list_identities() -> list:
    """Stable descriptors (id, anchor, default parameters) for the catalog."""
    return [
        {
            "id": e["id"],
            "anchor": e["anchor"],
            "defaults": dict(e["defaults"]),
            "designed_counterexample": e["designed_counterexample"],
        }
        for e in _CATALOG
    ]


def check(identity_id: str, params: dict = None) -> IdentityCase:
    """Evaluate one catalog entry; exact comparison, reproducible from
    (id, params, seed).  A ``CoherenceError`` is an engine fault and fails
    the entry, with the error's fields as the witness; parameters that
    leave the entry no claim raise ``UsageError``."""
    entry = _BY_ID.get(identity_id)
    if entry is None:
        raise UnknownIdentity(f"no identity named {identity_id!r}")
    merged = dict(entry["defaults"])
    if params:
        merged.update(params)
    try:
        passed, witness = verdict(entry["fn"](merged), entry["designed_counterexample"])
    except CoherenceError as exc:
        passed, witness = False, exc.to_json()
    return IdentityCase(
        id=entry["id"],
        anchor=entry["anchor"],
        params=merged,
        passed=passed,
        witness=witness,
        designed_counterexample=entry["designed_counterexample"],
    )


def check_all(params: dict = None) -> list:
    """Run the whole catalog in id order."""
    return [check(e["id"], params) for e in _CATALOG]
