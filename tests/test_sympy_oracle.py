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


# -- x-carrying series: the packed kernels against a sympy ring with x and y --------

RX, TX, XR, YR, WX = ring("t,x,y,w", sympy.QQ)
x, y = Poly.var("x"), Poly.var("y")


def poly_to_ring(c):
    out = RX(0)
    for m, q in Poly.coerce(c).terms.items():
        term = RX(sympy.QQ(q.numerator, q.denominator))
        for v, e in m:
            term *= {"x": XR, "y": YR}[v] ** e
        out += term
    return out


def to_ring_x(s):
    return sum((poly_to_ring(c) * TX ** k for k, c in enumerate(s.coeffs)), RX(0))


def from_ring_x(p, order, var=0):
    """The series in generator ``var`` (0 for t, 3 for w) of p."""
    coeffs = [Poly() for _ in range(order + 1)]
    for mono, c in p.terms():
        term = Poly.const(Fraction(int(c.numerator), int(c.denominator)))
        coeffs[mono[var]] += term * x ** mono[1] * y ** mono[2]
    return Series(order, coeffs)


def x_series(order, c0=None, var=x):
    """Random series with coefficients r + s*var; ``c0`` fixes the constant
    term, and a delta series (c0 = 0) gets a linear term r + s*var with
    r != 0."""
    def build(pairs):
        coeffs = [r + s * var for r, s in pairs]
        if c0 is not None:
            coeffs[0] = Poly.const(c0)
        if c0 == 0 and order >= 1 and not pairs[1][0]:
            coeffs[1] = coeffs[1] + 1
        return Series(order, coeffs)
    rat = st.fractions(min_value=-9, max_value=9, max_denominator=6)
    return st.lists(st.tuples(rat, rat), min_size=order + 1, max_size=order + 1).map(build)


@pytest.mark.parametrize("order", [1, 6])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_x_carrying_kernels_match_sympy_ring_series(order, data):
    f, g = data.draw(x_series(order)), data.draw(x_series(order, c0=1))
    h, k = data.draw(x_series(order, c0=0)), data.draw(x_series(order, var=y))
    prec = order + 1
    assert f * k == from_ring_x(rs.rs_mul(to_ring_x(f), to_ring_x(k), TX, prec), order)
    assert f.pow_int(3) == from_ring_x(rs.rs_pow(to_ring_x(f), 3, TX, prec), order)
    assert g.pow_int(-2) == from_ring_x(rs.rs_pow(to_ring_x(g), -2, TX, prec), order)
    assert g.pow_int(Fraction(1, 2)) == \
        from_ring_x(rs.rs_nth_root(to_ring_x(g), 2, TX, prec), order)
    log_g = rs.rs_log(to_ring_x(g), TX, prec)
    for p in (x, x * y / 3 + Fraction(1, 2)):
        assert g.pow_int(p) == \
            from_ring_x(rs.rs_exp(poly_to_ring(p) * log_g, TX, prec), order)
    assert h.exp() == from_ring_x(rs.rs_exp(to_ring_x(h), TX, prec), order)
    assert g.log() == from_ring_x(log_g, order)
    horner = RX(0)
    for c in reversed(f.coeffs):
        horner = rs.rs_mul(horner, to_ring_x(h), TX, prec) + poly_to_ring(c)
    assert f.compose(h) == from_ring_x(horner, order)
    # reversion needs a rational linear coefficient
    hr = h - Series.make([0, h.coeffs[1] - Poly.coerce(h.coeffs[1]).terms.get((), 0)], order)
    assert hr.revert() == \
        from_ring_x(rs.rs_series_reversion(to_ring_x(hr), TX, prec, WX), order, 3)
