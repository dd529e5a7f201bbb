"""Combinatorial numbers and series kernels against sympy, an independent
implementation.

sympy is optional: without it this module is skipped.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from umbral.combinatorics import bell_number, bernoulli_number, partial_bell, stirling
from umbral.errors import NotInvertible
from umbral.poly import Poly
from umbral.series import Series

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling as sympy_stirling  # noqa: E402
from sympy.polys import ring_series as rs  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

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


# -- series kernels against sympy's ring_series ------------------------------------

R, T, Y = ring("t,y", sympy.QQ)


def coeffs_qq(s):
    return [sympy.QQ(c.numerator, c.denominator) for c in s.coeffs]


def to_ring(s):
    return sum((c * T ** k for k, c in enumerate(coeffs_qq(s))), R(0))


def from_ring(p, order, var=T):
    coeffs = [p.coeff(var ** k) for k in range(order + 1)]
    return Series(order, [Fraction(int(c.numerator), int(c.denominator)) for c in coeffs])


def series(order, c0=None):
    """Random rational series; ``c0`` fixes the constant term, and a delta
    series (c0 = 0) gets a nonzero linear term."""
    def build(coeffs):
        if c0 is not None:
            coeffs[0] = Fraction(c0)
        if c0 == 0 and order >= 1 and not coeffs[1]:
            coeffs[1] = Fraction(1)
        return Series(order, coeffs)
    rat = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.lists(rat, min_size=order + 1, max_size=order + 1).map(build)


@pytest.mark.parametrize("order", [0, 1, 8])
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_series_kernels_match_sympy_ring_series(order, data):
    f, g = data.draw(series(order)), data.draw(series(order, c0=1))
    h, k = data.draw(series(order, c0=0)), data.draw(series(order))
    prec = order + 1
    assert f * k == from_ring(rs.rs_mul(to_ring(f), to_ring(k), T, prec), order)
    assert f.pow_int(3) == from_ring(rs.rs_pow(to_ring(f), 3, T, prec), order)
    assert g.pow_int(-2) == from_ring(rs.rs_pow(to_ring(g), -2, T, prec), order)
    assert g.pow_int(Fraction(1, 2)) == \
        from_ring(rs.rs_nth_root(to_ring(g), 2, T, prec), order)
    # a Poly exponent p = x + 1, read at x = 2, -3 and -1/2
    gp = g.pow_int(Poly.var("x") + 1)
    for v, theirs in ((2, rs.rs_pow(to_ring(g), 3, T, prec)),
                      (-3, rs.rs_pow(to_ring(g), -2, T, prec)),
                      (Fraction(-1, 2), rs.rs_nth_root(to_ring(g), 2, T, prec))):
        assert Series(order, [Poly.coerce(c).subs({"x": v}) for c in gp.coeffs]) == from_ring(theirs, order)
    assert h.exp() == from_ring(rs.rs_exp(to_ring(h), T, prec), order)
    assert g.log() == from_ring(rs.rs_log(to_ring(g), T, prec), order)
    # compose against a truncated Horner evaluation in sympy's ring
    horner = R(0)
    for c in reversed(coeffs_qq(f)):
        horner = rs.rs_mul(horner, to_ring(h), T, prec) + c
    assert f.compose(h) == from_ring(horner, order)
    if order == 0:
        with pytest.raises(NotInvertible):
            h.revert()
    else:
        assert h.revert() == \
            from_ring(rs.rs_series_reversion(to_ring(h), T, prec, Y), order, Y)
