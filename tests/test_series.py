import random
from fractions import Fraction
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from umbral import combinatorics, series
from umbral.errors import (
    DomainError,
    NegativePowerOfDeltaSeries,
    NotInvertible,
    OrderExceeded,
    OrderMismatch,
)
from umbral.poly import Poly
from umbral.prng import Stream
from umbral.series import Series, factorial

import oracles
from oracles import binomial_product, mul_t

rationals = st.fractions(
    min_value=Fraction(-9), max_value=Fraction(9), max_denominator=4)


def series_strategy(order, first_nonzero=False, delta=False, unital=False):
    def build(vals):
        coeffs = list(vals)
        if delta:
            coeffs[0] = Fraction(0)
        if unital:
            coeffs[0] = Fraction(1)
        if first_nonzero and coeffs[1] == 0:
            coeffs[1] = Fraction(1)
        return Series(order, coeffs)
    return st.lists(rationals, min_size=order + 1, max_size=order + 1).map(build)


# -- construction -----------------------------------------------------------


def test_floats_are_rejected_where_values_enter():
    with pytest.raises(TypeError):
        Series.from_moments([1, 1 / 3])
    with pytest.raises(TypeError):
        Series(1, [1, 1 / 3])


def test_make_pads_and_validates():
    s = Series.make([1], 4)
    assert s == Series.one(4)  # the augmentation's generating function
    e = Series.make([1, 1, Fraction(1, 2), Fraction(1, 6), Fraction(1, 24)], 4)
    assert e == Series.exp_t(4)
    assert Series.make([0, 1], 3) == Series.t(3)
    with pytest.raises(ValueError):
        Series.make([1, 2, 3], 1)
    with pytest.raises(ValueError):
        Series(-1, [])


# -- arithmetic ----------------------------------------------------------------


def test_products():
    one_plus = Series.make([1, 1], 6)
    one_minus = Series.make([1, -1], 6)
    prod = one_plus * one_minus
    assert prod == Series.make([1, 0, -1], 6)


def test_negative_power_geometric():
    inv = Series.make([1, 1], 3).pow_int(-1)
    assert inv == Series.make([1, -1, 1, -1], 3)


def test_power_by_convolution_oracle():
    # cube of e^t, against three explicit convolutions
    e = Series.exp_t(8)
    direct = e.pow_int(3)
    oracle = e * e * e
    assert direct == oracle
    assert [Poly.coerce(direct.coeffs[k]).constant() for k in range(9)] == \
        [Fraction(3 ** k, factorial(k)) for k in range(9)]


def test_negative_power_needs_unital():
    with pytest.raises(NegativePowerOfDeltaSeries):
        Series.t(4).pow_int(-1)


def test_order_mismatch_is_an_error():
    with pytest.raises(OrderMismatch):
        Series.one(3) + Series.one(4)
    with pytest.raises(OrderMismatch):
        Series.one(3) * Series.one(4)


# -- exp / log --------------------------------------------------------------------


def test_exp_of_t():
    assert Series.t(6).exp() == Series.exp_t(6)


def test_exp_of_expm1_gives_bell_coefficients():
    # Bell numbers by their binomial recursion, independently of the engine
    from math import comb
    bell = [1]
    for n in range(10):
        bell.append(sum(comb(n, k) * bell[k] for k in range(n + 1)))
    g = Series.expm1_t(4).exp()
    assert [Poly.coerce(c).constant() for c in g.coeffs] == \
        [Fraction(bell[k], factorial(k)) for k in range(5)]
    assert g.coeffs[3] == Fraction(5, 6) and g.coeffs[4] == Fraction(5, 8)


def test_exp_log_domain_errors():
    with pytest.raises(DomainError):
        Series.one(4).exp()
    with pytest.raises(DomainError):
        Series.t(4).log()


@settings(max_examples=40, deadline=None)
@given(series_strategy(8, delta=True))
def test_log_exp_round_trip(h):
    assert h.exp().log() == h


@settings(max_examples=40, deadline=None)
@given(series_strategy(8, unital=True))
def test_exp_log_round_trip(f):
    assert f.log().exp() == f


# -- composition and reversion --------------------------------------------------------


def test_compose_identity():
    g = Series.make([2, 1, Fraction(1, 3), 0, 5], 6)
    assert g.compose(Series.t(6)) == g


def test_compose_against_horner_oracle():
    order = 8
    g = Series.exp_t(order)
    h = Series.expm1_t(order)
    # Horner evaluation, written out independently of Series.compose
    acc = Series.make([g.coeffs[order]], order)
    for k in range(order - 1, -1, -1):
        acc = acc * h + Series.make([g.coeffs[k]], order)
    assert g.compose(h) == acc
    assert g.compose(h) == Series.expm1_t(order).exp()


def test_compose_requires_delta():
    with pytest.raises(DomainError):
        Series.one(4).compose(Series.one(4))


def test_revert_identity_and_tree():
    assert Series.t(5).revert() == Series.t(5)
    order = 8
    neg = Series(order, [Fraction((-1) ** k, factorial(k))
                         for k in range(order + 1)])
    h = mul_t(neg)  # t e^{-t}
    w = h.revert()
    assert [w.egf_moment(k) for k in range(1, order + 1)] == \
        [k ** (k - 1) for k in range(1, order + 1)]
    # an x-carrying series (c_1 = 2, moments q + q'x) past the sizes the
    # round-trip property draws: the Poly ring runs the same lifted path
    s, x = Stream(15), Poly.var("x")
    h = Series.from_moments([0, 2] + [s.rational() + s.rational() * x for _ in range(19)])
    assert h.revert().compose(h) == Series.t(20) == h.compose(h.revert())


def test_revert_needs_invertible_linear_term():
    with pytest.raises(NotInvertible):
        Series.make([0, 0, 1], 4).revert()
    with pytest.raises(NotInvertible):
        Series.make([0, Poly.var("x")], 4).revert()
    with pytest.raises(DomainError):
        Series.one(4).revert()


@settings(max_examples=25, deadline=None)
@given(series_strategy(10, delta=True, first_nonzero=True))
def test_revert_round_trips(h):
    w = h.revert()
    assert w.compose(h) == Series.t(10)
    assert h.compose(w) == Series.t(10)


@settings(max_examples=25, deadline=None)
@given(series_strategy(8, unital=True))
def test_compose_with_reversion_oracle(g):
    h = g - Series.one(8)
    if not h.coeffs[1] or not Poly.coerce(h.coeffs[1]).is_constant():
        h = h + Series.t(8)
    w = h.revert()
    assert (Series.one(8) + h).compose(w) == Series.one(8) + Series.t(8)


# -- moments ---------------------------------------------------------------------------


def test_egf_moments():
    e = Series.exp_t(7)
    assert all(e.egf_moment(k) == 1 for k in range(8))
    one = Series.one(7)
    assert all(one.egf_moment(k) == 0 for k in range(1, 8))
    assert Series.expm1_t(6).exp().egf_moment(4) == 15
    with pytest.raises(OrderExceeded):
        e.egf_moment(8)
    assert Series.from_moments([1, 2, 5]).egf_moment(2) == 5


# -- ring laws -----------------------------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(series_strategy(12), series_strategy(12), series_strategy(12))
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@settings(max_examples=20, deadline=None)
@given(series_strategy(8, unital=True),
       st.integers(min_value=-3, max_value=3),
       st.integers(min_value=-3, max_value=3))
def test_power_additivity(f, n, m):
    assert f.pow_int(n) * f.pow_int(m) == f.pow_int(n + m)


def x_series_strategy(order, unital=False):
    """Series whose coefficients are r + s*x with small rationals r, s."""
    x = Poly.var("x")

    def build(pairs):
        coeffs = [r + x * s for r, s in pairs]
        if unital:
            coeffs[0] = Poly.const(1)
        return Series(order, coeffs)
    return st.lists(st.tuples(rationals, rationals),
                    min_size=order + 1, max_size=order + 1).map(build)


def power_by_products(f, n):
    """f^n for n >= 0 by n - 1 plain series products."""
    out = Series.one(f.order)
    for _ in range(n):
        out = out * f
    return out


@settings(max_examples=40, deadline=None)
@given(st.one_of(series_strategy(6, unital=True), x_series_strategy(6, unital=True)),
       st.integers(min_value=-6, max_value=6))
def test_pow_int_of_unital_series_matches_products(f, n):
    if n >= 0:
        assert f.pow_int(n) == power_by_products(f, n)
    else:
        assert f.pow_int(n) * power_by_products(f, -n) == Series.one(6)


@settings(max_examples=40, deadline=None)
@given(st.one_of(series_strategy(6, delta=True), series_strategy(6),
                 x_series_strategy(6)),
       st.integers(min_value=0, max_value=6))
def test_pow_int_of_other_series_matches_products(f, n):
    # delta series (shifted t-valuation), constant terms other than 0 and 1,
    # and x-carrying lowest coefficients
    assert f.pow_int(n) == power_by_products(f, n)


@settings(max_examples=20, deadline=None)
@given(st.one_of(series_strategy(6, unital=True), x_series_strategy(6, unital=True)),
       st.sampled_from([Poly.var("x"), Poly.var("y") * 2 - 1,
                        Poly.var("x") * Poly.var("y"), Poly.const(Fraction(-1, 3)),
                        Poly.var("x") * Poly.var("y") / 3 + Fraction(1, 2)]))
def test_pow_int_poly_exponent_matches_exp_log(f, p):
    assert f.pow_int(p) == f.log().scalar_mul(p).exp()


def test_pow_int_domain():
    x = Poly.var("x")
    with pytest.raises(DomainError):
        Series.make([2, 1], 4).pow_int(x)
    with pytest.raises(NegativePowerOfDeltaSeries):
        Series.make([2, 1], 4).pow_int(-2)
    assert Series.t(4).pow_int(5) == Series.zero(4)
    assert Series.zero(4).pow_int(0) == Series.one(4)


@settings(max_examples=15, deadline=None)
@given(series_strategy(8, unital=True), st.integers(min_value=0, max_value=4))
def test_exp_x_log_specializes_to_integer_powers(f, n):
    # coefficients of exp(x log f) are polynomials in x; at x = n they
    # agree with the n-th power coefficientwise
    powered = f.log().scalar_mul(Poly.var("x")).exp()
    specialized = Series(8, [Poly.coerce(c).subs({"x": n}) for c in powered.coeffs])
    assert specialized == f.pow_int(n)


# -- reversion against recomposition ------------------------------------------------------


def revert_by_recomposition(h):
    """The reversion of h by recomposing the whole series for every
    coefficient: w_k = -[t^k] h(w) / c_1 with w known below t^k."""
    n, c1 = h.order, Poly.coerce(h.coeffs[1]).constant()
    w = [Poly(), Poly.const(1 / c1)] + [Poly()] * (n - 1)
    for k in range(2, n + 1):
        w[k] = -h.compose(Series(n, w)).coeffs[k] / c1
    return Series(n, w)


def x_delta_series_strategy(order):
    """Delta series with a nonzero rational c_1 and coefficients r + s*x above."""
    def build(args):
        c1, s = args
        return Series(order, [0, c1] + list(s.coeffs[2:]))
    return st.tuples(rationals.filter(bool), x_series_strategy(order)).map(build)


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8).flatmap(
    lambda n: st.one_of(series_strategy(n, delta=True, first_nonzero=True),
                        x_delta_series_strategy(n))))
def test_revert_matches_recomposition(h):
    assert h.revert() == revert_by_recomposition(h)


# -- serialization ----------------------------------------------------------------------------


def test_json_round_trip():
    s = Series(3, [1, Poly.var("x"), Fraction(-2, 3), 0])
    data = s.to_json()
    assert data["order"] == 3
    assert Series.from_json(data) == s


# -- the coefficient ring ---------------------------------------------------------------------

x, y = Poly.var("x"), Poly.var("y")


@settings(max_examples=30, deadline=None)
@given(series_strategy(5))
def test_constant_polys_give_the_scalar_ring(s):
    lifted = Series(5, [Poly.const(c) for c in s.coeffs])
    assert all(type(c) is Fraction for c in lifted.coeffs)
    assert lifted == s and hash(lifted) == hash(s)
    assert lifted.to_json() == s.to_json() and str(lifted) == str(s)
    mixed = Series(5, list(s.coeffs[:5]) + [x])
    assert all(type(c) is Poly for c in mixed.coeffs)
    assert mixed.coeffs[:5] == tuple(Poly.const(c) for c in s.coeffs[:5])


def lift(s, d):
    """s with d_k * y added to its coefficients from t^2 on; c_0 and c_1
    stay rational because pow_int and revert divide by them."""
    return Series(s.order, list(s.coeffs[:2]) + [c + dk * y for c, dk in zip(s.coeffs[2:], d)])


def at_y0(s):
    return Series(s.order, [Poly.coerce(c).subs({"y": 0}) for c in s.coeffs])


def unital(f):
    return f - Series.make([f.coeffs[0] - 1], f.order)


def delta(f):
    """f with c_0 = 0 and, where c_1 = 0, c_1 = 1 (keeps the operand
    reversible)."""
    h = f - Series.make([f.coeffs[0]], f.order)
    return h if h.coeffs[1] else h + Series.t(f.order)


RING_KERNELS = {
    "add": lambda f, g, p: f + g,
    "sub": lambda f, g, p: f - g,
    "mul": lambda f, g, p: f * g,
    "scalar_mul": lambda f, g, p: f.scalar_mul(Fraction(p, 3)),
    "scalar_mul_x": lambda f, g, p: f.scalar_mul(x * p + 1),
    "pow_int_unital": lambda f, g, p: unital(f).pow_int(p),
    "pow_int_other": lambda f, g, p: f.pow_int(abs(p)),
    # t-valuation >= 2: the lifted lowest coefficient carries y, so the Poly
    # ring multiplies where the rational ring runs the recurrence
    "pow_int_valuation": lambda f, g, p: (f - Series.make(f.coeffs[:2], f.order)).pow_int(abs(p)),
    "pow_int_rational": lambda f, g, p: unital(f).pow_int(Fraction(p, 2)),
    "pow_int_poly": lambda f, g, p: unital(f).pow_int(x * p + 1),
    "exp": lambda f, g, p: delta(f).exp(),
    "log": lambda f, g, p: unital(f).log(),
    "compose": lambda f, g, p: f.compose(delta(g)),
    "revert": lambda f, g, p: delta(f).revert(),
    "derivative": lambda f, g, p: f.derivative(),
    "mul_t": lambda f, g, p: mul_t(f),
    "truncate": lambda f, g, p: f.truncate(abs(p)),
}

nonzero_rationals = rationals.filter(bool)


@pytest.mark.parametrize("kernel", RING_KERNELS.values(), ids=RING_KERNELS)
@settings(max_examples=20, deadline=None)
@given(series_strategy(6), series_strategy(6),
       st.lists(nonzero_rationals, min_size=5, max_size=5),
       st.integers(min_value=-3, max_value=4))
def test_scalar_ring_matches_the_lifted_poly_ring(kernel, f, g, d, p):
    # y := 0 commutes with every kernel, so the rational computation must
    # agree with the Poly computation on inputs that carry y
    lf, lg = lift(f, d), lift(g, d[::-1])
    assert type(lf.coeffs[0]) is Poly and type(f.coeffs[0]) is Fraction
    assert at_y0(kernel(lf, lg, p)) == kernel(f, g, p)


def convolve(a, b):
    """Truncated product of two Poly coefficient lists."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Poly()) for k in range(len(a))]


def compose_by_horner(g, h):
    """g(h(t)) on Poly coefficient lists, for h with h_0 = 0."""
    acc = [g[-1]] + [Poly()] * (len(g) - 1)
    for k in range(len(g) - 2, -1, -1):
        acc = convolve(acc, h)
        acc[0] = acc[0] + g[k]
    return acc


@settings(max_examples=30, deadline=None)
@given(series_strategy(6), x_series_strategy(6))
def test_mixed_rings_match_poly_arithmetic(s, xs):
    a, b = [Poly.const(c) for c in s.coeffs], [Poly.coerce(c) for c in xs.coeffs]
    assert s * xs == xs * s == Series(6, convolve(a, b))
    assert s.compose(delta(xs)) == \
        Series(6, compose_by_horner(a, [Poly.coerce(c) for c in delta(xs).coeffs]))
    assert xs.compose(delta(s)) == \
        Series(6, compose_by_horner(b, [Poly.const(c) for c in delta(s).coeffs]))


# -- the ordinary-coefficient boundary --------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(st.one_of(series_strategy(6), x_series_strategy(6)))
def test_coefficients_and_moments_round_trip(s):
    assert Series(6, s.coeffs) == s
    assert Series.from_moments(s.moments()) == s
    assert s.moments() == [s.egf_moment(k) for k in range(7)]


PINNED = [
    (Series.exp_t(3), "1 + (1)*t^1 + (1/2)*t^2 + (1/6)*t^3",
     {"order": 3, "coeffs": ["1", "1", "1/2", "1/6"]}),
    (Series(3, [1, x, Fraction(-2, 3), 0]), "1 + (x)*t^1 + (-2/3)*t^2",
     {"order": 3, "coeffs": ["1", {"x": "1"}, "-2/3", "0"]}),
    (Series.expm1_t(3).scalar_mul(x).exp(),
     "1 + (x)*t^1 + (1/2*x + 1/2*x^2)*t^2 + (1/6*x + 1/2*x^2 + 1/6*x^3)*t^3",
     {"order": 3, "coeffs": ["1", {"x": "1"}, {"x": "1/2", "x^2": "1/2"},
                             {"x": "1/6", "x^2": "1/2", "x^3": "1/6"}]}),
    (Series.make([1, Fraction(1, 2), 3], 4).pow_int(-1),
     "1 + (-1/2)*t^1 + (-11/4)*t^2 + (23/8)*t^3 + (109/16)*t^4",
     {"order": 4, "coeffs": ["1", "-1/2", "-11/4", "23/8", "109/16"]}),
]


@pytest.mark.parametrize("s, text, data", PINNED)
def test_rendering_is_pinned(s, text, data):
    assert str(s) == text
    assert s.to_json() == data


big = st.fractions(min_value=-10 ** 6, max_value=10 ** 6, max_denominator=97)
big_unital = st.lists(big, min_size=10, max_size=10).map(lambda c: Series(10, [1] + c))


@settings(max_examples=15, deadline=None)
@given(st.one_of(series_strategy(10, unital=True), x_series_strategy(10, unital=True),
                 big_unital),
       st.sampled_from([x, x + 1, x / 2]))
def test_pow_int_poly_exponent_matches_exp_log_at_order_10(f, p):
    # the Poly exponent packs into ints (Kronecker substitution), and on a
    # Poly series the moments pack with it; large moments stress the digit
    # bound.  exp and log run miller too, so this is not an independent
    # oracle: test_sympy_oracle checks both rings
    assert f.pow_int(p) == f.log().scalar_mul(p).exp()


# -- the digit bounds of the packed kernels ---------------------------------------------------


def at(s, values):
    """s with its indeterminates set to rationals: the rational ring, which
    packs nothing."""
    return Series(s.order, [Poly.coerce(c).subs(values) for c in s.coeffs])


POINTS = [{"x": 2, "y": Fraction(-1, 3)}, {"x": Fraction(-5, 7), "y": 3}]

PACKED_KERNELS = {
    "mul": lambda f, g, v, w: f * g,
    "pow_int": lambda f, g, v, w: unital(f).pow_int(3),
    "pow_int_negative": lambda f, g, v, w: unital(f).pow_int(-2),
    "pow_int_fraction": lambda f, g, v, w: unital(f).pow_int(Fraction(1, 2)),
    "pow_int_poly": lambda f, g, v, w: unital(f).pow_int(v * w / 3 + Fraction(1, 2)),
    "exp": lambda f, g, v, w: delta(f).exp(),
    "log": lambda f, g, v, w: unital(f).log(),
    "compose": lambda f, g, v, w: f.compose(delta(g)),
    "revert": lambda f, g, v, w: reversible(f).revert(),
}

big_x = st.lists(st.tuples(big, big), min_size=11, max_size=11).map(
    lambda pairs: Series(10, [r + s * x for r, s in pairs]))


@pytest.mark.parametrize("kernel", PACKED_KERNELS.values(), ids=PACKED_KERNELS)
@settings(max_examples=5, deadline=None)
@given(big_x, big_x)
def test_packed_kernels_commute_with_evaluation(kernel, f, g):
    # setting x and y commutes with every kernel; large moments of both signs
    # stress the digit bound b, and the rational ring checks every digit
    out = kernel(f, g, x, y)
    for values in POINTS:
        assert at(out, values) == kernel(at(f, values), at(g, values), values["x"], values["y"])


def graded(cs, v):
    """The series sum_k c_k (v t)^k / k!: moment k is c_k v^k."""
    return Series.from_moments([c * v ** k for k, c in enumerate(cs)])


TIGHT = {
    # for c_k > 0 every result moment is one term (two indeterminates aside)
    # whose coefficient is the majorant's value and whose degree reaches the
    # degree bound, so one bit less of b, or one digit less of a radix, loses
    # a digit
    "mul": lambda cs, v, w: graded(cs, v) * graded(cs[::-1], v),
    "mul_two_indeterminates": lambda cs, v, w: graded(cs, v) * graded(cs[::-1], w),
    "pow_int": lambda cs, v, w: graded([1] + [-c for c in cs[1:]], v).pow_int(-1),
    "exp": lambda cs, v, w: graded([0] + cs[1:], v).exp(),
    "log": lambda cs, v, w: graded([1] + [-c for c in cs[1:]], v).log(),
    "compose": lambda cs, v, w: Series.from_moments(cs).compose(graded([0] + cs[1:], v)),
    "revert": lambda cs, v, w: Series.from_moments(
        [0, 1] + [-c * v ** (k - 1) for k, c in enumerate(cs[2:], 2)]).revert(),
}


@pytest.mark.parametrize("kernel", TIGHT.values(), ids=TIGHT)
@pytest.mark.parametrize("top", [1, 10 ** 6])
def test_packed_kernels_at_their_digit_bounds(kernel, top):
    cs = [Fraction(top + k, k + 1) for k in range(9)]
    out = kernel(cs, x, y)
    assert any(Poly.coerce(c).variables() for c in out.coeffs)
    for values in POINTS:
        assert at(out, values) == kernel(cs, values["x"], values["y"])


@pytest.mark.parametrize("b", [2, 3, 64])
@pytest.mark.parametrize("n", [1, 16, 17, 33, 81, 441])
def test_unpack_gives_back_balanced_digits(b, n):
    # the extreme digits, and a top digit of +-1 or at an extreme over lower
    # digits that are zero or all at one extreme, with zero digits above it:
    # zero upper halves, and halves that are zero but for one digit
    h, rng = 1 << b - 1, random.Random(1000 * b + n)
    cases = [[0] * n, [-h] * n, [h - 1] * n]
    cases += [[rng.choice([-h, h - 1, rng.randrange(-h, h)]) for _ in range(n)]
              for _ in range(3)]
    for top in {0, 1, 15, 16, 17, n // 2, n - 2, n - 1} & set(range(n)):
        for lower in (-h, h - 1, 0, None):
            cases += [[rng.randrange(-h, h) if lower is None else lower for _ in range(top)]
                      + [sign] + [0] * (n - top - 1) for sign in (1, -1, -h, h - 1)]
    values = [sum(dig << b * j for j, dig in enumerate(digits)) for digits in cases]
    assert list(series._unpack(values, b, n)) == cases


# -- every int kernel against its plain recurrence ----------------------------------------


@st.composite
def sparse_ints(draw, n):
    """n ints in one of four shapes: zero runs between values, the same with
    valuation >= 2, a single nonzero entry, all zeros; a value is small or
    wide, as a packed moment is."""
    shape = draw(st.sampled_from(["runs", "valuation", "single", "zeros"]))
    value = st.integers(-9, 9) | st.integers(-2 ** 80, 2 ** 80)
    if shape in ("runs", "valuation"):
        out = [v for zeros, c in draw(st.lists(st.tuples(st.integers(0, 4), value),
                                                min_size=n, max_size=n))
               for v in [0] * zeros + [c]][:n]
        return [0] * min(n, 2) + out[2:] if shape == "valuation" else out
    out = [0] * n
    if shape == "single":
        out[draw(st.integers(0, n - 1))] = draw(value.filter(bool))
    return out


KERNEL_CASES = {
    "convolve": lambda d, n: ((d.draw(sparse_ints(n)), d.draw(sparse_ints(n))), {}),
    "miller": lambda d, n: ((d.draw(sparse_ints(n)), d.draw(st.integers(-4, 4)),
                             d.draw(st.integers(-3, 3))), {}),
    "miller-exp": lambda d, n: ((d.draw(sparse_ints(n)), 1, 0), {}),
    "miller-log": lambda d, n: ((d.draw(sparse_ints(n)), 0, 1), {"log": True}),
    "compose": lambda d, n: ((d.draw(sparse_ints(n)), [0] + d.draw(sparse_ints(n))[1:]), {}),
    "revert": lambda d, n: (([0, 1] + d.draw(sparse_ints(n))[2:],), {}),
    "comtet": lambda d, n: ((d.draw(sparse_ints(n)),), {}),
}
KERNELS = {"convolve": series.convolve, "miller": series.miller, "compose": series.compose,
           "revert": series.revert, "comtet": combinatorics._comtet}


@pytest.mark.parametrize("case", KERNEL_CASES)
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.data())
def test_each_kernel_equals_its_plain_recurrence(case, n, data):
    # the kernels skip zero terms; the oracles sum every term, so inputs
    # full of zeros check each skip
    args, kw = KERNEL_CASES[case](data, n)
    name = case.split("-")[0]
    assert KERNELS[name](*args, **kw) == getattr(oracles, name)(*args, **kw)


# -- the product of many factors in one run ---------------------------------------------------


def product_oracle(factors):
    """The product by this file's ``convolve`` on ordinary Poly coefficients."""
    return Series(factors[0].order,
                  reduce(convolve, [[Poly.coerce(c) for c in f.coeffs] for f in factors]))


def graded_factors(count, top):
    """``count`` factors whose moment k is c_k x^k, c_k y^k or c_k (xy)^k in
    turn, every c_k > 0: the top moment of the product has a term of each
    degree that the product's bound allows, so the bound is reached."""
    return [graded([Fraction(top + 3 * i + k, k + 1) for k in range(9)], v)
            for i, v in zip(range(count), [x, y, x * y] * 2)]


PRODUCT_RINGS = {
    "scalar": lambda count: st.lists(series_strategy(6), min_size=count, max_size=count),
    "x": lambda count: st.lists(x_series_strategy(6), min_size=count, max_size=count),
    # a rational factor at every even place, among Poly ones
    "mixed": lambda count: st.tuples(*[(x_series_strategy if i % 2 else series_strategy)(6)
                                       for i in range(count)]).map(list),
}


@pytest.mark.parametrize("ring", PRODUCT_RINGS)
@pytest.mark.parametrize("count", range(1, 6))
@settings(max_examples=10, deadline=None)
@given(st.data())
def test_product_is_the_fold_of_binary_products(ring, count, data):
    factors = data.draw(PRODUCT_RINGS[ring](count))
    out = Series.product(factors)
    assert out == reduce(lambda f, g: f * g, factors) == product_oracle(factors)
    assert Series.product(iter(factors)) == out


@pytest.mark.parametrize("top", [1, 10 ** 6])
@pytest.mark.parametrize("count", range(1, 6))
def test_product_at_its_degree_bound(count, top):
    factors = graded_factors(count, top)
    out = Series.product(factors)
    assert out == reduce(lambda f, g: f * g, factors) == product_oracle(factors)
    # moment 8 reaches degree 8 in each variable, the bound
    top_terms = Poly.coerce(out.egf_moment(8)).terms
    assert {v: max(dict(m).get(v, 0) for m in top_terms) for v in "xy"} == \
        {"x": 8, "y": 8 if count > 1 else 0}


def test_product_of_mixed_orders_is_an_error():
    with pytest.raises(OrderMismatch):
        Series.product([Series.exp_t(4), Series.exp_t(4), Series.exp_t(5)])
    with pytest.raises(OrderMismatch):
        Series.product([Series.make([1, x], 3), Series.one(2)])


@pytest.mark.parametrize("count", range(1, 6))
def test_a_degree_bound_one_short_breaks_the_product(monkeypatch, count):
    # the test above can fail: with every radix one digit short, the top
    # degree of a graded factor falls off or lands on another monomial
    run = series._run

    def short(kernel, groups, degree, *args, **kwargs):
        return run(kernel, groups, lambda *ds: degree(*ds) - 1, *args, **kwargs)
    factors = graded_factors(count, 1)
    expected = product_oracle(factors)
    monkeypatch.setattr(series, "_run", short)
    assert Series.product(factors) != expected


def product_factor(ring):
    """A factor of the ring: drawn moments, the same with M_0 = 1/2, a held
    ``compose`` result (e != 1) or a held ``pow_int(1/2)``, whose d is not
    the least; on the x ring, one that carries x."""
    base = series_strategy(6) if ring == "scalar" else x_series_strategy(6)
    return st.one_of(
        base,
        base.map(lambda f: Series.from_moments([Fraction(1, 2)] + f.moments()[1:])),
        st.tuples(base, base).map(lambda fg: fg[0].compose(delta(fg[1]))),
        base.map(lambda f: unital(f).pow_int(Fraction(1, 2))),
    ).filter(lambda f: (ring == "scalar") != (type(f.moments()[0]) is Poly))


@settings(max_examples=40, deadline=None)
@given(st.lists(product_factor("scalar"), min_size=2, max_size=3),
       st.lists(product_factor("x"), min_size=1, max_size=2), st.data())
def test_rational_factors_are_multiplied_first(rational, carrying, data):
    # r rational factors fold on their own ring (r - 1 convolutions), then
    # enter the packed fold and its bound as one factor: 2 per x-carrying one
    factors = data.draw(st.permutations(rational + carrying))
    calls, convolve = [], series.convolve

    def counted(a, b):
        calls.append(a)
        return convolve(a, b)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(series, "convolve", counted)
        out = Series.product(factors)
    assert out.moments() == Series.from_moments(binomial_product(factors)).moments()
    assert len(calls) == len(rational) - 1 + 2 * len(carrying)


def test_a_lift_without_constant_terms_keeps_its_constant_plane():
    # f's moments have no constant term, yet its kept lift has the (zero)
    # constant plane: the product does not take f for a rational factor, and
    # a slice or a sum with an int constant reads that plane
    f, q = Series.from_moments([0, x, 0, 2 * x, 0, 0, x * y]), Series.exp_t(6)
    assert Series.product([q, q, f]).moments() == \
        Series.from_moments(binomial_product([q, q, f])).moments()
    assert f._lift[1].keys() == {(), (("x", 1),), (("x", 1), ("y", 1))}
    assert f.truncate(3) == Series.from_moments(f.moments()[:4])
    assert f.truncate(2) == Series.from_moments([0, x, 0])
    # a slice drops the planes it leaves all zero, so f to order 0 is rational
    assert f.truncate(3)._lift[1].keys() == {(), (("x", 1),)}
    assert f.truncate(0)._lift[1].keys() == {()}
    assert f + Series.one(6) == Series.from_moments([1] + f.moments()[1:])


# -- no float anywhere -----------------------------------------------------------------------


def reversible(f):
    """f with c_0 = 0 and c_1 = 1."""
    return f - Series.make(f.coeffs[:2], f.order) + Series.t(f.order)


FLOAT_OPS = {
    "mul": lambda f, g: f * g,
    "add": lambda f, g: f + g,
    "scalar_mul": lambda f, g: f.scalar_mul(3),
    "pow_int": lambda f, g: unital(f).pow_int(-2),
    "pow_int_other": lambda f, g: f.pow_int(2),
    "pow_int_fraction": lambda f, g: unital(f).pow_int(Fraction(-1, 3)),
    "pow_int_poly": lambda f, g: unital(f).pow_int(x / 2 + 1),
    "exp": lambda f, g: delta(f).exp(),
    "log": lambda f, g: unital(f).log(),
    "compose": lambda f, g: f.compose(delta(g)),
    "revert": lambda f, g: reversible(f).revert(),
    "derivative": lambda f, g: f.derivative(),
    "mul_t": lambda f, g: mul_t(f),
    "truncate": lambda f, g: f.truncate(2),
    "from_moments": lambda f, g: Series.from_moments(f.moments()),
}


def values(s):
    """Every number a series exposes, and every Poly term among them."""
    for v in list(s.coeffs) + s.moments() + [s.egf_moment(k) for k in range(s.order + 1)]:
        yield from (v.terms.values() if type(v) is Poly else [v])


@settings(max_examples=60, deadline=None)
@given(st.one_of(series_strategy(5), x_series_strategy(5)),
       st.one_of(series_strategy(5), x_series_strategy(5)),
       st.lists(st.sampled_from(sorted(FLOAT_OPS)), min_size=1, max_size=3))
def test_no_float_appears(f, g, ops):
    for name in ops:
        f = FLOAT_OPS[name](f, g)
        if f.order < g.order:
            f = Series(g.order, list(f.coeffs) + [0] * (g.order - f.order))
        assert all(type(v) in (int, Fraction) for v in values(f)), name


def test_revert_of_an_integral_linear_term_is_exact():
    # c_1 = 2 and every moment an int: the division by c_1 is a Fraction's
    w = Series.make([0, 2, 4], 6).revert()
    assert w.coeffs[:3] == (0, Fraction(1, 2), Fraction(-1, 2))
    assert all(type(v) in (int, Fraction) for v in values(w))
    assert w.compose(Series.make([0, 2, 4], 6)) == Series.t(6)


monomial = st.sampled_from([(), (("x", 1),), (("x", 2),), (("x", 1), ("y", 1))])


@settings(max_examples=60, deadline=None)
@given(st.dictionaries(monomial, st.integers(-10 ** 6, 10 ** 6).filter(bool), max_size=4),
       st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=1, max_size=6))
def test_int_and_fraction_coefficients_are_one_value(terms, ms):
    # an integral coefficient held as an int or as a Fraction is the same
    # value to every reader: equality, hashing, rendering and JSON
    p, q = Poly(terms), Poly({m: Fraction(c) for m, c in terms.items()})
    fs = [Fraction(m) for m in ms]
    for a, b in [(p, q), (Series.from_moments(ms), Series.from_moments(fs)),
                 (Series(len(ms) - 1, ms), Series(len(fs) - 1, fs)),
                 (Series.from_moments([p * m for m in ms]), Series.from_moments([q * m for m in fs]))]:
        assert a == b and hash(a) == hash(b)
        assert str(a) == str(b) and a.to_json() == b.to_json()
        assert type(a).from_json(a.to_json()) == b and type(b).from_json(b.to_json()) == a


# -- a kernel's series holds its lift ---------------------------------------------------


F = Series.from_moments([1, Fraction(1, 2), Fraction(-2, 3), 3, Fraction(5, 4), Fraction(7, 3)])
FX = Series.from_moments([1, x + Fraction(1, 2), Fraction(-2, 3) * x, 3 + x * x,
                          Fraction(5, 4) * y, x / 3])
HALF = Series.from_moments([Fraction(1, 2)] + FX.moments()[1:])  # M_0 = 1/2

# every kernel, on both rings, and chained on a lift: compose holds the
# scale e N!, revert d |p| for c_1 = p/q, and a product its factors' M_0
# denominators
LIFTED = {
    "pow_int": lambda: F.pow_int(3),
    "pow_int_x": lambda: F.pow_int(x),
    "pow_int_fx": lambda: FX.pow_int(-2),
    "exp": lambda: (F - Series.one(5)).exp(),
    "exp_fx": lambda: (FX - Series.one(5)).exp(),
    "log": lambda: F.log(),
    "log_fx": lambda: FX.log(),
    "product": lambda: Series.product([F, FX, F]),
    "product_half": lambda: Series.product([HALF * HALF, F]),
    "compose": lambda: F.compose(F - Series.one(5)),
    "compose_fx": lambda: FX.compose(FX - Series.one(5)),
    "revert_-2": lambda: Series.from_moments([0, -2] + FX.moments()[2:]).revert(),
    "revert_1/3": lambda: Series.from_moments([0, Fraction(1, 3)] + F.moments()[2:]).revert(),
    "chained": lambda: (F.pow_int(3) * FX.pow_int(x)).log().exp().pow_int(Fraction(1, 2)),
}


def fraction_oracle(s):
    """The moments of s read off its lift by one ``Fraction`` per entry."""
    d, planes, e = s._lift
    return Series.from_moments([Poly({m: Fraction(p[k], e * d ** k) for m, p in planes.items()
                                      if p[k]}) for k in range(s.order + 1)]).moments()


@pytest.mark.parametrize("name", LIFTED)
def test_a_lift_reads_back_as_its_fractions(name):
    s = LIFTED[name]()
    oracle = fraction_oracle(s)
    assert s.moments() == oracle
    assert [type(m) for m in s.moments()] == [type(m) for m in oracle]


@pytest.mark.parametrize("name", LIFTED)
def test_a_lifted_series_is_equal_to_its_moments(name):
    canonical = Series.from_moments(LIFTED[name]().moments())
    s = LIFTED[name]()
    assert hash(s) == hash(canonical)
    assert LIFTED[name]() == canonical and canonical == LIFTED[name]()


def off_by_one(m):
    """Moments that differ from m: in value, by a monomial m lacks, and,
    for a nonzero m, by a term short."""
    yield m + Fraction(1, 7)
    yield Poly.coerce(m) + x ** 9
    terms = list(Poly.coerce(m).terms.items())
    if terms:
        yield Poly(dict(terms[1:]))


@pytest.mark.parametrize("name", LIFTED)
def test_first_mismatch_compares_on_the_lift(monkeypatch, name):
    moments, s = LIFTED[name]().moments(), LIFTED[name]()

    def no_quotient(x, s):
        raise AssertionError("a moment was built")
    monkeypatch.setattr(series, "_quotient", no_quotient)
    assert s.first_mismatch(moments) is None
    assert s.first_mismatch([Poly.coerce(m) for m in moments]) is None
    for k in (0, 1, 4, 5):
        for bad in off_by_one(moments[k]):
            assert s.first_mismatch(moments[:k] + [bad] + moments[k + 1:]) == k


@pytest.mark.parametrize("p", [3, 5, 8])
def test_pow_int_of_a_non_unital_series_is_the_product_of_its_copies(monkeypatch, p):
    # with c_0 = 1/2 too: a square whose M_0 has a denominator stays held
    def no_quotient(x, s):
        raise AssertionError("a square was scaled back")
    for c0 in (2, Fraction(1, 2)):
        f = Series.from_moments([c0] + FX.moments()[1:])
        with monkeypatch.context() as m:
            m.setattr(series, "_quotient", no_quotient)
            power = f.pow_int(p)
        assert power._lift is not None
        assert power == Series.product([f] * p) == power_by_products(f, p)
