import doctest
import importlib
import inspect
import pkgutil
from fractions import Fraction

import pytest

import umbral
from umbral.poly import ONE, ZERO, Poly, rational

x = Poly.var("x")
y = Poly.var("y")


def test_constant_arithmetic():
    assert Poly.const(Fraction(1, 2)) + Poly.const(Fraction(1, 2)) == 1
    assert Poly.const(3) * Poly.const(Fraction(1, 3)) == 1
    assert (Poly.const(5) - 5) == ZERO
    assert not (x - x)


def test_constants_hash_as_their_values():
    # equal objects hash alike, so a constant Poly finds its value's entry
    assert hash(Poly.const(1)) == hash(1) and hash(ZERO) == hash(0)
    assert hash(Poly.const(Fraction(-3, 4))) == hash(Fraction(-3, 4))
    assert {1: "one"}.get(Poly.const(1)) == "one"
    assert len({Poly.const(1), 1, Fraction(1), ONE}) == 1
    assert len({ZERO, 0, x - x}) == 1


def test_ring_ops():
    p = (x + y) ** 2
    assert p == x * x + 2 * x * y + y * y
    assert (x + 1) * (x - 1) == x ** 2 - 1
    assert -(x - y) == y - x
    assert (x * y) ** 3 == x ** 3 * y ** 3


def test_mixed_scalars():
    assert 2 * x + x == 3 * x
    assert Fraction(1, 2) * (x + x) == x


def test_division_by_constants():
    assert (x * 6) / 3 == 2 * x
    assert (x / Fraction(1, 2)) == 2 * x
    with pytest.raises(ValueError):
        (x + 1).constant()


def test_integral_values_stay_int():
    # const, var and from_json store an integral value as an int; a
    # Fraction keeps its denominator, and division never gives a float
    assert type(Poly.const(Fraction(6, 2)).terms[()]) is int
    assert type(x.terms[(("x", 1),)]) is int
    assert type(Poly.from_json({"x": "4/2", "1": "1/3"}).terms[(("x", 1),)]) is int
    assert type(rational(Poly.const(3))) is int and type(rational(Fraction(3, 2))) is Fraction
    assert type(Poly.const(3).constant()) is Fraction
    q = Poly.const(3) / 2
    assert q == Fraction(3, 2) and type(q.terms[()]) is Fraction
    assert type(((3 * x) / 2).terms[(("x", 1),)]) is Fraction


def test_floats_are_rejected_where_values_enter():
    # a float's binary fraction is not the value meant: 1/3 would be stored
    # as 6004799503160661/18014398509481984
    for enter in (Poly.const, Poly.coerce, rational, lambda v: x / v):
        with pytest.raises(TypeError):
            enter(1 / 3)
    assert rational(Fraction(6, 2)) == 3 and type(rational(Fraction(6, 2))) is int


def test_subs():
    p = x ** 2 + 2 * x * y + 1
    assert p.subs({"x": 1, "y": Fraction(1, 2)}) == 3
    assert p.subs({"x": y}) == y ** 2 + 2 * y * y + 1
    assert p.subs({}) == p


def test_derivative():
    p = x ** 3 - 3 * x ** 2 + 2 * x + 7
    assert p.derivative("x") == 3 * x ** 2 - 6 * x + 2
    assert p.derivative("y") == ZERO
    assert (x * y ** 2).derivative("y") == 2 * x * y


def test_pow_and_identity():
    assert x ** 0 == ONE
    assert ZERO ** 0 == ONE
    with pytest.raises(ValueError):
        x ** -1


def test_json_round_trip():
    for p in (ZERO, ONE, Poly.const(Fraction(-3, 4)), x,
              x ** 2 * y - Fraction(1, 2) * y + 5):
        assert Poly.from_json(p.to_json()) == p
    assert Poly.from_json("7/2") == Fraction(7, 2)


def test_json_keys_that_name_one_monomial_add():
    assert Poly.from_json({"x*y": "1", "y*x": "1"}) == 2 * x * y
    assert Poly.from_json({"x*x": "1", "x^2": "1", "1": "3"}) == 2 * x ** 2 + 3
    assert Poly.from_json({"x*y": "1", "y*x": "-1"}) == ZERO
    assert not Poly.from_json({"x*y": "1", "y*x": "-1", "x": "0"}).terms
    # a sum keeps an integral value an int
    half = Poly.from_json({"x": "1/2", "x^1": "1/2"})
    assert half == x and type(half.terms[(("x", 1),)]) is int


def test_json_exponents_below_one_are_rejected():
    for key in ("x^0", "x^-1", "x*y^0"):
        with pytest.raises(ValueError, match="exponent below 1"):
            Poly.from_json({key: "1"})
    with pytest.raises(ValueError):
        Poly.from_json({"1": "2", "x^0": "-2"})


def test_hash_consistency():
    assert hash(x + y) == hash(y + x)
    d = {x + y: 1}
    assert d[y + x] == 1


def test_module_docstring_examples():
    # every umbral module that holds a >>> example runs it
    modules = [importlib.import_module(f"umbral.{m.name}")
               for m in pkgutil.iter_modules(umbral.__path__)]
    with_examples = [m for m in modules if ">>>" in inspect.getsource(m)]
    assert {m.__name__ for m in with_examples} >= {"umbral.poly", "umbral.series"}
    for m in with_examples:
        result = doctest.testmod(m)
        assert result.attempted and not result.failed, m.__name__
