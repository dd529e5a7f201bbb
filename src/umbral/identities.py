"""Runnable catalog of the engine's umbral identities.

Every entry is a named predicate with default parameters (max order ``n``,
random ``trials``, ``seed``); all comparisons are exact (polynomial
identities compare coefficients, never sampled points).  A failing entry
always carries a witness: the inputs plus both evaluated sides.  One entry,
``remark1_left_dist_counterexample``, is a designed counterexample: it
passes by *exhibiting* dissimilarity, since the point product does not
left-distribute over umbra sums.

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
    bell_number,
    bell_triangle,
    exponential_poly,
    bernoulli_number,
    stirling,
)
from .core import IntPower, Product, Sum, Workspace
from .errors import UnknownIdentity
from .inversion import cross_check
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


def _ws(params, indets=("x", "y")) -> Workspace:
    return Workspace(order=params["n"], indeterminates=indets)


def _random_atom(ws, stream, name, nonzero_first=False):
    moments = [ONE]
    for k in range(1, ws.order + 1):
        if k == 1 and nonzero_first:
            moments.append(Poly.const(stream.nonzero_rational()))
        else:
            moments.append(Poly.const(stream.rational()))
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


def _strs(values) -> list:
    return [str(v) for v in values]


def _fail(statement, **data):
    data["statement"] = statement
    return False, data


_OK = (True, None)


# -- integer point multiples ------------------------------------------------------


def _recover_from_int_dot(ws, n_int, q):
    """Invert q_k = sum_i (n)_i B_{k,i}(a) for the source moments a; B_{k,1}
    is the only term containing a_k and enters with factor n, so recovery is
    triangular."""
    rec = [ONE]
    weights = falling_factorials(n_int, ws.order)
    for k in range(1, ws.order + 1):
        tri = bell_triangle(tuple(rec[1:]) + (ZERO,), k)
        acc = ZERO
        for i in range(1, k + 1):
            w = weights[i]
            if w and tri[k][i]:
                acc = acc + tri[k][i] * w
        rec.append((q[k] - acc) / n_int)
    return rec


def _chk_prop1(params):
    for trial, ws, stream, a, b in _trials(params, "ab"):
        c = stream.rational()
        n_int = stream.randint(1, 3)
        m_int = stream.randint(1, 3)
        # (i) cancellation: the moments of n.a determine a
        na = dot(ws, n_int, a)
        rec = _recover_from_int_dot(ws, n_int, na.moments)
        if tuple(rec) != a.moments:
            return _fail("(i): moments of n.a failed to invert to a",
                         trial=trial, n=n_int,
                         recovered=_strs(rec), expected=_strs(a.moments))
        if a.moments != b.moments and ws.similar(na, dot(ws, n_int, b)):
            return _fail("(i): n.a similar to n.b for dissimilar a, b",
                         trial=trial, n=n_int)
        # (ii) n.(c a) ~ c (n.a)
        lhs, rhs = dot(ws, n_int, scale_atom(ws, c, a)), scale_atom(ws, c, na)
        if not ws.similar(lhs, rhs):
            return _fail("(ii): n.(c a) not similar to c (n.a)", trial=trial,
                         c=str(c), lhs=_strs(lhs.moments), rhs=_strs(rhs.moments))
        # (iii) n.(m.a) ~ (nm).a ~ m.(n.a)
        nm = dot(ws, n_int * m_int, a)
        if not ws.similar(dot(ws, n_int, dot(ws, m_int, a)), nm) or \
           not ws.similar(dot(ws, m_int, na), nm):
            return _fail("(iii): iterated multiples disagree with (nm).a",
                         trial=trial, n=n_int, m=m_int)
        # (iv) (n+m).a ~ n.a + m.a'
        lhs = dot(ws, n_int + m_int, a)
        rhs = Sum((dot(ws, n_int, a).ref(), dot(ws, m_int, ws.clone(a)).ref()))
        if not ws.similar(lhs, rhs):
            return _fail("(iv): (n+m).a not similar to n.a + m.a'",
                         trial=trial, n=n_int, m=m_int,
                         lhs=_strs(lhs.moments), rhs=_strs(ws.moments_of(rhs)))
        # (v) n.(a+b) ~ n.a + n.b
        lhs = dot(ws, n_int, ws.atom_of(a + b, "a+b"))
        rhs = Sum((dot(ws, n_int, a).ref(), dot(ws, n_int, b).ref()))
        if not ws.similar(lhs, rhs):
            return _fail("(v): n.(a+b) not similar to n.a + n.b",
                         trial=trial, n=n_int,
                         lhs=_strs(lhs.moments), rhs=_strs(ws.moments_of(rhs)))
    return _OK


def _chk_cor1(params):
    for trial, ws, stream, a, b in _trials(params, "ab"):
        x, y = ws.var("x"), ws.var("y")
        c = stream.rational()
        xa = dot(ws, "x", a)
        # (i) cancellation: q_k(x) at x = 1 returns a_k
        rec = [m.subs({"x": 1}) for m in xa.moments]
        if tuple(rec) != a.moments:
            return _fail("(i): q_k(x)|_{x=1} != a_k", trial=trial,
                         recovered=_strs(rec), expected=_strs(a.moments))
        if a.moments != b.moments and ws.similar(xa, dot(ws, "x", b)):
            return _fail("(i): x.a similar to x.b for dissimilar a, b", trial=trial)
        # (ii) x.(c a) ~ c (x.a)
        if not ws.similar(dot(ws, "x", scale_atom(ws, c, a)), scale_atom(ws, c, xa)):
            return _fail("(ii): x.(c a) not similar to c (x.a)", trial=trial, c=str(c))
        # (iii) x.(y.a) ~ (xy).a
        lhs, rhs = dot(ws, "x", dot(ws, "y", a)), dot(ws, x * y, a)
        if not ws.similar(lhs, rhs):
            return _fail("(iii): x.(y.a) not similar to (xy).a", trial=trial,
                         lhs=_strs(lhs.moments), rhs=_strs(rhs.moments))
        # (iv) (x+y).a ~ x.a + y.a'
        lhs = dot(ws, x + y, a)
        rhs = Sum((xa.ref(), dot(ws, "y", ws.clone(a)).ref()))
        if not ws.similar(lhs, rhs):
            return _fail("(iv): (x+y).a not similar to x.a + y.a'", trial=trial,
                         lhs=_strs(lhs.moments), rhs=_strs(ws.moments_of(rhs)))
        # (v) x.a + x.b ~ x.(a+b)
        lhs = dot(ws, "x", ws.atom_of(a + b, "a+b"))
        rhs = Sum((dot(ws, "x", a).ref(), dot(ws, "x", b).ref()))
        if not ws.similar(lhs, rhs):
            return _fail("(v): x.(a+b) not similar to x.a + x.b", trial=trial,
                         lhs=_strs(lhs.moments), rhs=_strs(ws.moments_of(rhs)))
    return _OK


def _chk_thm1(params):
    for trial, ws, _, a in _trials(params, "a"):
        q = dot(ws, "x", a).moments
        for k in range(ws.order + 1):
            lhs = q[k].subs({"x": Poly.var("x") + Poly.var("y")})
            rhs = ZERO
            for i in range(k + 1):
                rhs = rhs + comb(k, i) * q[i] * q[k - i].subs({"x": Poly.var("y")})
            if lhs != rhs:
                return _fail("q_k(x+y) != sum C(k,i) q_i(x) q_{k-i}(y)",
                             trial=trial, k=k, lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_abel(params):
    for trial, ws, _, a, b, g in _trials(params, "abg"):
        # per k: E[a (a + (-k).g)^{k-1}] and the moments of b + k.g'
        first, second = [None], [None]
        for k in range(1, ws.order + 1):
            w = dot(ws, -k, g)
            first.append(ws.eval(Product((a.ref(),
                                          IntPower(Sum((a.ref(), w.ref())), k - 1)))))
            v = dot(ws, k, g)
            second.append(ws.moments_of(Sum((b.ref(), v.ref()))))
        for n in range(ws.order + 1):
            lhs = ws.eval(a + b, n)
            rhs = ws.eval(b, n)  # k = 0 term
            for k in range(1, n + 1):
                rhs = rhs + comb(n, k) * first[k] * second[k][n - k]
            if lhs != rhs:
                return _fail("Abel expansion of (a+b)^n failed",
                             trial=trial, n=n, lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_cor2(params):
    for trial, ws, _, a, b, g in _trials(params, "abg"):
        lhs = dot(ws, ws.atom_of(a + b, "a+b"), g)
        rhs = Sum((dot(ws, a, g).ref(), dot(ws, b, ws.clone(g)).ref()))
        if not ws.similar(lhs, rhs):
            return _fail("(a+b).g not similar to a.g + b.g'", trial=trial,
                         lhs=_strs(lhs.moments), rhs=_strs(ws.moments_of(rhs)))
    return _OK


def _chk_remark1(params):
    # designed counterexample: passes by exhibiting dissimilarity
    ws = _ws(params)
    a, b, g = bell_umbra(ws), bell_umbra(ws), bell_umbra(ws)
    lhs = dot(ws, a, ws.atom_of(Sum((b.ref(), g.ref())), "b+g"))
    rhs = Sum((dot(ws, a, b).ref(), dot(ws, ws.clone(a), g).ref()))
    for k in range(min(4, ws.order) + 1):
        left, right = ws.eval(lhs, k), ws.eval(rhs, k)
        if left != right:
            witness = {
                "statement": "a.(b+g) differs from a.b + a'.g at order k",
                "inputs": "a, b, g all Bell scalar umbrae",
                "k": k,
                "lhs": str(left),
                "rhs": str(right),
            }
            return True, witness
    return _fail("no dissimilarity found up to order 4 (it should exist)",
                 lhs=_strs(ws.moments_of(lhs)), rhs=_strs(ws.moments_of(rhs)))


def _chk_cor3(params):
    for trial, ws, _, a, b, g in _trials(params, "abg"):
        lhs = dot(ws, b, dot(ws, g, a))
        rhs = dot(ws, dot(ws, b, g), a)
        if not ws.similar(lhs, rhs):
            return _fail("b.(g.a) not similar to (b.g).a", trial=trial,
                         lhs=_strs(lhs.moments), rhs=_strs(rhs.moments))
    return _OK


def _chk_prop5(params):
    for trial, ws, _, a in _trials(params, "a"):
        inv = inverse_umbra(ws, a)
        if inv.egf != a.egf.pow_int(-1):
            return _fail("gf of inverse is not 1/f", trial=trial)
        if not ws.similar(a + inv, ws.eps):
            return _fail("a + inv(a) not similar to eps", trial=trial,
                         moments=_strs(ws.moments_of(a + inv)))
    return _OK


def _chk_prop6(params):
    for trial, ws, stream, a in _trials(params, "a"):
        n_int = stream.randint(1, 3)
        neg = dot(ws, -n_int, a)
        if neg.egf != a.egf.pow_int(-n_int):
            return _fail("gf of -n.a is not f^{-n}", trial=trial, n=n_int)
        if not ws.similar(Sum((dot(ws, n_int, a).ref(), neg.ref())), ws.eps):
            return _fail("n.a + (-n).a' not similar to eps", trial=trial, n=n_int)
    return _OK


def _chk_eq10(params):
    for trial, ws, stream, a, b in _trials(params, "ab"):
        for n_int in (0, 2, 3):
            pp = point_power(ws, a, n_int)
            if pp.moments != tuple(m ** n_int for m in a.moments):
                return _fail("moments of a^.n are not a_k^n", trial=trial, n=n_int)
        if not ws.similar(point_power(ws, a, 0), ws.u):
            return _fail("a^.0 not similar to the unity umbra", trial=trial)
        # negative point power on an umbra with invertible moments
        nz = ws.define("nz", [ONE] + [Poly.const(stream.nonzero_rational())
                                      for _ in range(ws.order)])
        rec = point_power(ws, nz, -1)
        if any(rec.moments[k] * nz.moments[k] != ONE for k in range(ws.order + 1)):
            return _fail("a^.{-1} moments are not reciprocals", trial=trial)
        # binomial expansion at the equivalence (first-moment) level
        n_int = stream.randint(2, 4)
        lhs = ws.eval(point_power(ws, ws.atom_of(a + b, "a+b"), n_int))
        rhs = ZERO
        for i in range(n_int + 1):
            rhs = rhs + comb(n_int, i) * ws.eval(point_power(ws, a, i)) \
                * ws.eval(point_power(ws, b, n_int - i))
        if lhs != rhs:
            return _fail("(a+b)^.n binomial expansion failed at first moments",
                         trial=trial, n=n_int, lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_eq11(params):
    for trial, ws, _, a in _trials(params, "a"):
        for n_int in (0, 1, 2, 3, -2):
            if dot(ws, n_int, a).egf != a.egf.pow_int(n_int):
                return _fail("gf of n.a is not f^n", trial=trial, n=n_int)
    return _OK


def _chk_eq13(params):
    stream = Stream(params["seed"])
    order = params["n"]
    for trial in range(params["trials"]):
        a1 = stream.rational()
        for n_int in (2, 3):
            base = Series.t(order).scalar_mul(a1).exp()
            lhs = Series.t(order).scalar_mul(a1 * n_int).exp()
            if lhs != base.pow_int(n_int):
                return _fail("exp(n a_1 t) != exp(a_1 t)^n", trial=trial,
                             n=n_int, a1=str(a1))
    return _OK


def _chk_thm2(params):
    ws = _ws(params)
    beta = bell_umbra(ws)
    for n in range(ws.order):
        lhs, rhs = ws.eval(beta, n + 1), ws.eval(beta + ws.u, n)
        if lhs != rhs:
            return _fail("E[b^{n+1}] != E[(b+u)^n]", n=n, lhs=str(lhs), rhs=str(rhs))
        recursion = sum(comb(n, k) * bell_number(k) for k in range(n + 1))
        if lhs != recursion:
            return _fail("Bell recursion value mismatch", n=n,
                         lhs=str(lhs), recursion=str(recursion))
    return _OK


def _chk_eq17(params):
    ws = _ws(params)
    beta = bell_umbra(ws)
    lhs = beta.egf.derivative()
    rhs = ws.gf_of(beta + ws.u).truncate(ws.order - 1)
    if lhs != rhs:
        return _fail("d/dt gf(b) != gf(b+u)", lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_eq18(params):
    ws = _ws(params)
    beta = bell_umbra(ws)
    rhs = Series.expm1_t(ws.order).exp()
    if beta.egf != rhs:
        return _fail("gf(b) != exp(e^t - 1)", lhs=str(beta.egf), rhs=str(rhs))
    return _OK


def _dobinski_bracket(n, x0: Fraction):
    """Exact partial-sum bracketing of e^{-x0} sum k^n x0^k / k!.

    Returns (lower, upper, ratio) where ratio = sum_{k<=K} k^n x0^k/k!
    divided by sum_{k<=K} x0^k/k!, and [lower, upper] provably contains the
    limit value.  K = 4n + 40 makes consecutive tail terms decay by at
    least a factor of 2, giving the geometric tail bounds below.
    """
    K = 4 * n + 40
    s_num = sum(Fraction(k ** n) * x0 ** k / factorial(k) for k in range(K + 1))
    s_den = sum(x0 ** k / Fraction(factorial(k)) for k in range(K + 1))
    # decay ratio of consecutive terms beyond K, as exact fractions
    r_num = Fraction(K + 2, K + 1) ** n * x0 / (K + 2)
    r_den = x0 / Fraction(K + 2)
    assert r_num < Fraction(1, 2) and r_den < Fraction(1, 2)
    tail_num = Fraction((K + 1) ** n) * x0 ** (K + 1) / factorial(K + 1) * 2
    tail_den = x0 ** (K + 1) / Fraction(factorial(K + 1)) * 2
    lower = s_num / (s_den + tail_den)
    upper = (s_num + tail_num) / s_den
    return lower, upper, s_num / s_den


def _chk_dobinski_scalar(params):
    for n in range(params["n"] + 1):
        target = Fraction(bell_number(n))
        lower, upper, ratio = _dobinski_bracket(n, Fraction(1))
        if not (lower <= target <= upper):
            return _fail("partial sums fail to bracket B_n", n=n,
                         lower=str(lower), upper=str(upper))
        if target and (upper - lower) / target >= Fraction(1, 10 ** 6):
            return _fail("tail bound wider than 1e-6 relative", n=n)
        nearest = (ratio + Fraction(1, 2)).__floor__()
        if nearest != bell_number(n):
            return _fail("partial-sum ratio does not round to B_n", n=n,
                         ratio=str(ratio))
    return _OK


def _chk_thm4(params):
    ws = _ws(params)
    lhs = bell_umbra(ws, "x")
    rhs = dot(ws, "x", bell_umbra(ws))
    if not ws.similar(lhs, rhs):
        return _fail("scaled Bell umbra not similar to x.bell",
                     lhs=_strs(lhs.moments), rhs=_strs(rhs.moments))
    return _OK


def _chk_thm5(params):
    ws = _ws(params)
    xb = bell_umbra(ws, "x")
    x = ws.var("x")
    for n in range(ws.order):
        lhs = ws.eval(xb, n + 1)
        rhs = x * ws.eval(xb + ws.u, n)
        if lhs != rhs:
            return _fail("E[(x.b)^{n+1}] != x E[(x.b+u)^n]", n=n,
                         lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_rodrigues(params):
    ws = _ws(params)
    xb = bell_umbra(ws, "x")
    for n in range(ws.order + 1):
        lhs = ws.eval(xb, n).derivative("x")
        rhs = ws.eval(xb + ws.u, n) - ws.eval(xb, n)
        if lhs != rhs:
            return _fail("d/dx E[(x.b)^n] != E[(x.b+u)^n] - E[(x.b)^n]",
                         n=n, lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_dobinski_polynomial(params):
    for x0 in (Fraction(1), Fraction(2), Fraction(1, 2)):
        for n in range(params["n"] + 1):
            target = exponential_poly(n).subs({"x": x0}).constant()
            lower, upper, ratio = _dobinski_bracket(n, x0)
            if not (lower <= target <= upper):
                return _fail("partial sums fail to bracket Phi_n(x0)",
                             n=n, x0=str(x0), lower=str(lower), upper=str(upper))
            if target and abs(upper - lower) / target >= Fraction(1, 10 ** 6):
                return _fail("tail bound wider than 1e-6 relative", n=n, x0=str(x0))
    return _OK


def _chk_eq22_1(params):
    for trial, ws, _, a in _trials(params, "a"):
        ab = dot(ws, a, bell_umbra(ws))
        for n in range(ws.order + 1):
            direct = exponential_umbral_moment(a, n)
            if direct != ab.moments[n]:
                return _fail("sum S(n,k) a_k != moment of a.bell", trial=trial,
                             n=n, lhs=str(direct), rhs=str(ab.moments[n]))
    return _OK


def _chk_eq22_3(params):
    for trial, ws, _, a in _trials(params, "a"):
        lhs = dot(ws, a, bell_umbra(ws)).egf
        rhs = a.egf.compose(Series.expm1_t(ws.order))
        if lhs != rhs:
            return _fail("gf(a.bell) != f(e^t - 1)", trial=trial,
                         lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_eq24(params):
    for trial, ws, _, a in _trials(params, "a"):
        psi = partition_umbra(ws, a)
        rhs = (a.egf - Series.one(ws.order)).exp()
        if psi.egf != rhs:
            return _fail("gf(part(a)) != exp(f - 1)", trial=trial,
                         lhs=str(psi.egf), rhs=str(rhs))
    return _OK


def _chk_eq_somma(params):
    x, y = Poly.var("x"), Poly.var("y")
    for trial, ws, _, a in _trials(params, "a"):
        lhs = partition_umbra(ws, a, x + y)
        rhs = Sum((partition_umbra(ws, a, "x").ref(),
                   partition_umbra(ws, ws.clone(a), "y").ref()))
        if not ws.similar(lhs, rhs):
            return _fail("(x+y).part(a) not similar to x.part(a) + y.part(a')",
                         trial=trial, lhs=_strs(lhs.moments),
                         rhs=_strs(ws.moments_of(rhs)))
    return _OK


def _chk_thm6(params):
    for trial, ws, _, a in _trials(params, "a"):
        psi = partition_umbra(ws, a)
        a2 = ws.clone(a)
        for n in range(ws.order):
            lhs = ws.eval(psi, n + 1)
            rhs = ws.eval(a2 * (psi + a2) ** n)
            if lhs != rhs:
                return _fail("E[psi^{n+1}] != E[a'(psi+a')^n]", trial=trial,
                             n=n, lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_eq28(params):
    for trial, ws, _, a in _trials(params, "a"):
        xpsi = partition_umbra(ws, a, "x")
        alt = dot(ws, "x", partition_umbra(ws, a))
        if not ws.similar(xpsi, alt):
            return _fail("x.part(a) built two ways disagrees", trial=trial,
                         lhs=_strs(xpsi.moments), rhs=_strs(alt.moments))
        x = ws.var("x")
        tri = bell_triangle(a.moments[1:], ws.order)
        for n in range(ws.order + 1):
            explicit = ZERO
            for k in range(n + 1):
                if tri[n][k]:
                    explicit = explicit + (x ** k) * tri[n][k]
            if explicit != xpsi.moments[n]:
                return _fail("moments differ from sum x^k B_{n,k}(a)",
                             trial=trial, n=n)
    return _OK


def _chk_thm7(params):
    # E[chi^{n+1}] = sum_i C(n,i) a_{n-i+1} E[g chi^i], with the g-weighted
    # powers of chi read through the shifted composition moments
    # E[g chi^i] = sum_m g_{m+1} B_{i,m}(a): the left factor g stays
    # correlated with the g inside chi.
    for trial, ws, _, a, g in _trials(params, "ag"):
        chi = composition_umbra(ws, g, a)
        tri = bell_triangle(a.moments[1:], ws.order)
        for n in range(ws.order):
            lhs = chi.moments[n + 1]
            rhs = ZERO
            for i in range(n + 1):
                shifted = ZERO
                for m in range(i + 1):
                    if tri[i][m]:
                        shifted = shifted + g.moments[m + 1] * tri[i][m]
                rhs = rhs + comb(n, i) * a.moments[n - i + 1] * shifted
            if lhs != rhs:
                return _fail("composition-umbra recursion failed", trial=trial,
                             n=n, lhs=str(lhs), rhs=str(rhs))
    return _OK


def _chk_eq30(params):
    for trial, ws, _, a, g in _trials(params, "ag"):
        chi = composition_umbra(ws, g, a)
        alt = dot(ws, g, partition_umbra(ws, a))
        if not ws.similar(chi, alt):
            return _fail("comp(g,a) not similar to g.part(a)", trial=trial,
                         lhs=_strs(chi.moments), rhs=_strs(alt.moments))
        tri = bell_triangle(a.moments[1:], ws.order)
        for n in range(ws.order + 1):
            explicit = ZERO
            for k in range(n + 1):
                if tri[n][k] and g.moments[k]:
                    explicit = explicit + g.moments[k] * tri[n][k]
            if explicit != chi.moments[n]:
                return _fail("moments differ from sum g_k B_{n,k}(a)",
                             trial=trial, n=n)
    return _OK


def _chk_lemma1(params):
    for trial, ws, _, a in _trials(params, "a", nonzero_first=True):
        bar = alpha_bar(ws, a)
        a1 = a.moments[1].constant()
        tri = bell_triangle(a.moments[1:], ws.order)
        # E[(k.bar)^m] is m! [t^m] gf(bar)^k
        powers = [bar.egf.pow_int(k) for k in range(ws.order + 1)]
        for n in range(1, ws.order + 1):
            for k in range(1, n + 1):
                rhs = Poly.const(comb(n, k) * a1 ** k) * powers[k].egf_moment(n - k)
                if tri[n][k] != rhs:
                    return _fail("B_{n,k}(a) != C(n,k) a_1^k E[(k.bar)^{n-k}]",
                                 trial=trial, n=n, k=k,
                                 lhs=str(tri[n][k]), rhs=str(rhs))
    return _OK


def _chk_remark4(params):
    ws = _ws(params)
    bern = ws.define("bern", [Poly.const(bernoulli_number(k))
                              for k in range(ws.order + 1)])
    ks = [params["k"]] if "k" in params else range(ws.order + 1)
    # E[(-k.bern)^m] is m! [t^m] gf(bern)^{-k}
    powers = {k: bern.egf.pow_int(-k) for k in ks}
    for n in range(ws.order + 1):
        for k in ks:
            if k > n:
                break
            rhs = comb(n, k) * powers[k].egf_moment(n - k)
            if rhs != stirling("second", n, k):
                return _fail("S(n,k) != C(n,k) E[(-k.bern)^{n-k}]",
                             n=n, k=k, lhs=str(stirling("second", n, k)),
                             rhs=str(rhs))
    return _OK


def _chk_thm8(params):
    stream = Stream(params["seed"])
    ws = _ws(params, indets=())
    # the classical test case f - 1 = t e^{-t}
    f = Series.one(ws.order) + Series(
        ws.order,
        [Fraction((-1) ** k, factorial(k)) for k in range(ws.order + 1)]).mul_t()
    tree = ws._register("tree", f.moments(), f)
    rep = cross_check(ws, tree)
    expect = [Fraction(k ** (k - 1)) for k in range(1, ws.order + 1)]
    got = [m.constant() for m in rep.gamma_moments_umbral[1:]]
    if got != expect or not (rep.agree and rep.chi_ok
                             and rep.partial_bell_expansion_ok
                             and rep.abel_expansion_ok):
        return _fail("tree-function inversion failed", got=_strs(got),
                     expected=_strs(expect), report=rep.to_json())
    for trial in range(params["trials"]):
        a = _random_atom(ws, stream, f"a{trial}", nonzero_first=True)
        rep = cross_check(ws, a)
        if not (rep.agree and rep.chi_ok and rep.partial_bell_expansion_ok
                and rep.abel_expansion_ok):
            return _fail("random inversion cross-check failed", trial=trial,
                         report=rep.to_json())
    return _OK


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
    (id, params, seed)."""
    entry = _BY_ID.get(identity_id)
    if entry is None:
        raise UnknownIdentity(f"no identity named {identity_id!r}")
    merged = dict(entry["defaults"])
    if params:
        merged.update(params)
    passed, witness = entry["fn"](merged)
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
