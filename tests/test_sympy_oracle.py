"""Combinatorial numbers against sympy, an independent implementation.

sympy is optional: without it this module is skipped.
"""

from fractions import Fraction

import pytest

from umbral.combinatorics import bell_number, bernoulli_number, partial_bell, stirling
from umbral.poly import Poly

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling as sympy_stirling  # noqa: E402

N = 12


def test_stirling_numbers_match_sympy():
    for n in range(N + 1):
        for k in range(n + 1):
            assert stirling("second", n, k) == sympy_stirling(n, k, kind=2)
            assert stirling("first_signed", n, k) == \
                sympy_stirling(n, k, kind=1, signed=True)


def test_bell_numbers_match_sympy():
    assert [bell_number(n) for n in range(N + 1)] == \
        [sympy.bell(n) for n in range(N + 1)]


def test_partial_bell_polynomials_match_sympy():
    names = [f"a{i}" for i in range(1, N + 1)]
    ours_args = [Poly.var(v) for v in names]
    theirs_args = sympy.symbols(names)
    for n in range(1, N + 1):
        for k in range(1, n + 1):
            ours = partial_bell(n, k, ours_args[: n - k + 1])
            theirs = sympy.Poly(sympy.bell(n, k, theirs_args[: n - k + 1]),
                                *theirs_args).as_dict()
            assert {tuple(dict(m).get(v, 0) for v in names): c
                    for m, c in ours.terms.items()} == \
                {m: Fraction(int(c.p), int(c.q)) for m, c in theirs.items()}


def test_bernoulli_numbers_match_sympy():
    # sympy takes B_1 = +1/2 (the generating function t/(1 - e^-t)); umbral
    # reads the moments of t/(e^t - 1), where B_1 = -1/2, and the two agree
    # at every other n
    for n in range(N + 1):
        theirs = sympy.bernoulli(n)
        theirs = Fraction(int(theirs.p), int(theirs.q))
        assert bernoulli_number(n) == (-theirs if n == 1 else theirs)
