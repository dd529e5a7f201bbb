"""Compositional inversion of umbrae, checked by claims.

``revert_umbral`` builds the inverse umbra from the closed moment formula

    gamma_k = E[(-k.bar)^{k-1}] / a_1^k     (k >= 1)

where bar is the shifted-moment umbra of alpha (:func:`umbral.ops.alpha_bar`)
and the expectation is the falling-factorial Bell expansion of bar's
moments (row k - 1 of bar's triangle, one lookup for every k); registration
checks gamma against 1 + (f - 1)^{<-1>}, the series ``revert_oracle`` registers.
``cross_check`` judges the identities behind the formula (:func:`claims`)
through the claim harness of :mod:`umbral.core`, as the identity catalog's
``thm8_lagrange`` does, and reports the first false claim as the witness.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .combinatorics import bell_sums
from .core import Atom, IntPower, Product, Sum, Workspace, verdict
from .ops import a1_reciprocal, alpha_bar, composition_umbra, dot, falling_factorials
from .poly import Poly, rational
from .series import Series


def _reversion(alpha: Atom) -> Series:
    """1 + (f - 1)^{<-1>}, f alpha's generating function."""
    return Series.one(alpha.egf.order) + (alpha.egf - Series.one(alpha.egf.order)).revert()


def _lagrange(ws: Workspace, alpha: Atom, bar: Atom) -> Atom:
    inv_a1, ks = a1_reciprocal(alpha), range(1, ws.order + 1)
    sums = bell_sums([(falling_factorials(-k, k - 1), (k - 1,)) for k in ks], bar.moments[1:])
    moments = [1] + [m * inv_a1 ** k for k, m in zip(ks, sums)]
    return ws._register(f"lag({alpha.name})", moments, _reversion(alpha))


def revert_umbral(ws: Workspace, alpha: Atom) -> Atom:
    """The inverse umbra gamma of alpha, from the closed moment formula.

    Its generating function g satisfies g(f(t)-1) = 1 + t up to the
    workspace order, i.e. the composition umbra of (gamma, alpha) has
    moment sequence (1, 1, 0, 0, ...).  Registration checks the Bell-route
    moments against the reversion of f - 1: Lagrange inversion at every order.
    """
    return _lagrange(ws, alpha, alpha_bar(ws, alpha))


def revert_oracle(ws: Workspace, alpha: Atom) -> Atom:
    """The same umbra by brute series reversion of f - 1 (no moment
    formula involved): it registers the moments read off the series alone."""
    a1_reciprocal(alpha)
    return ws._register(f"lagrev({alpha.name})", _reversion(alpha).moments())


def invert(ws: Workspace, alpha: Atom) -> tuple:
    """``(bar, gamma, chi)``: bar(alpha), the inverse umbra gamma built on
    that one bar, and chi = comp(gamma, alpha)."""
    bar = alpha_bar(ws, alpha)
    gamma = _lagrange(ws, alpha, bar)
    return bar, gamma, composition_umbra(ws, gamma, alpha)


def claims(ws: Workspace, alpha: Atom, bar: Atom, gamma: Atom, chi: Atom, data: dict):
    """The claims ``(statement, lhs, rhs, data)`` behind the inversion of
    alpha (see :func:`invert`), for n up to the workspace order:

    * chi = comp(gamma, alpha) has moments (1, 1, 0, ..., 0);
    * E[chi^n] equals the partial-Bell expansion
      sum_k C(n,k) a_1^k g_k E[(k.bar)^{n-k}];
    * E[chi^n] equals the Abel-style expansion
      sum_k C(n,k) E[chi (chi - k.bar)^{k-1}] E[(k.bar')^{n-k}].

    Each per-n claim's data is the caller's ``data`` plus ``n``.
    """
    order = ws.order
    expected = [1] * min(2, order + 1) + [0] * max(0, order - 1)
    yield "comp(gamma, a) moments != (1, 1, 0, ..., 0)", list(chi.moments), expected, data
    a1 = rational(alpha.moments[1])
    # built once per k: the multiples k.bar and the Abel factors
    # E[chi (chi + w)^{k-1}] with w = (-k).bar, uncorrelated with k.bar
    mult = [dot(ws, k, bar) for k in range(order + 1)]
    abel_first = [1]
    for k in range(1, order + 1):
        w = dot(ws, -k, bar)
        abel_first.append(
            ws.eval(Product((chi, IntPower(Sum((chi, w)), k - 1)))))
    for n in range(order + 1):
        # partial-Bell expansion of chi^n (the positive multiple k.bar,
        # matching the B_{n,k} identity the expansion comes from), with
        # E[(k.bar)^{n-k}] read off the generating function [gf(bar)]^k
        total = 0
        for k in range(n + 1):
            total += comb(n, k) * a1 ** k * gamma.moments[k] * mult[k].egf.egf_moment(n - k)
        yield ("E[chi^n] != sum_k C(n,k) a_1^k g_k E[(k.bar)^{n-k}]", chi.moments[n],
               total, {**data, "n": n})
        # Abel-style expansion of chi^n (k = 0 term is E[eps-shift] = 0 for
        # n >= 1 and 1 for n = 0)
        total = 1 if n == 0 else 0
        for k in range(1, n + 1):
            total = total + comb(n, k) * abel_first[k] * mult[k].moments[n - k]
        yield ("E[chi^n] != sum_k C(n,k) E[chi (chi - k.bar)^{k-1}] E[(k.bar')^{n-k}]",
               chi.moments[n], total, {**data, "n": n})


@dataclass
class InversionReport:
    """Outcome of the inversion of one umbra: the harness's verdict on its
    claims, with the first false one as the witness."""

    order: int
    gamma_moments: list
    chi_moments: list
    passed: bool
    witness: dict | None

    def to_json(self) -> dict:
        def values(ms):
            return [Poly.coerce(m).to_json() for m in ms]
        return {
            "order": self.order,
            "gamma_moments": values(self.gamma_moments),
            "chi_moments": values(self.chi_moments),
            "pass": self.passed,
            "witness": self.witness,
        }


def cross_check(ws: Workspace, alpha: Atom) -> InversionReport:
    """Invert alpha by the closed moment formula and judge its
    :func:`claims`."""
    bar, gamma, chi = invert(ws, alpha)
    passed, witness = verdict(claims(ws, alpha, bar, gamma, chi, {}))
    return InversionReport(ws.order, list(gamma.moments), list(chi.moments), passed,
                           witness)
