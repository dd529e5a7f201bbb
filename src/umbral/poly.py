"""Sparse multivariate polynomials over exact rationals.

This is the coefficient ring for umbra moments, identity-check values and
the coefficients of series that carry an indeterminate; a series whose
coefficients are all rational holds plain rationals instead (see
:mod:`umbral.series`).  ``Poly`` arithmetic mixes freely with ``int`` and
``Fraction`` operands, and a rational operand costs one operation per term.

A polynomial is a dict mapping a monomial to a nonzero ``int`` or
``Fraction``; ``const``, ``var`` and ``from_json`` keep an integral value an
``int``, and ``+`` and ``*`` keep what their operands give.  A monomial is a
tuple of ``(variable, exponent)`` pairs, sorted by variable name, with all
exponents >= 1; the empty tuple is the constant monomial.  ``rational`` and
``rationals`` decide whether values are rational.  A float is not exact:
``const``, ``coerce`` and ``rational`` raise ``TypeError`` on one.

The series kernels and the Bell triangle run on the Kronecker images of
``Poly`` values (see :mod:`umbral.series`, :mod:`umbral.combinatorics`): int
products that unpack once, an ``int`` coefficient unless a denominator is left.

>>> x, y = Poly.var("x"), Poly.var("y")
>>> str((x + y) ** 2)
'2*x*y + x^2 + y^2'
>>> (x + 1).subs({"x": 2})
Poly('3')
>>> len((x + y) ** 2)
3
"""

from __future__ import annotations

from fractions import Fraction

Monomial = tuple  # tuple[tuple[str, int], ...]
Rat = (int, Fraction)


def _mono_mul(m1: Monomial, m2: Monomial) -> Monomial:
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


class Poly:
    """Immutable sparse polynomial with ``int`` or ``Fraction`` coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", dict(terms) if terms else {})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "Poly":
        q = value if type(value) is int else _exact(value)
        return _poly({(): q} if q else {})

    @staticmethod
    def var(name: str) -> "Poly":
        return _poly({((name, 1),): 1})

    @staticmethod
    def coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        # the smaller term map is merged into a copy of the larger, so a
        # constant operand costs one addition
        if type(other) is Poly:
            a, b = self.terms, other.terms
            if len(a) < len(b):
                a, b = b, a
        elif isinstance(other, Rat):
            if not other:
                return self
            a, b = self.terms, {(): other}
        else:
            return NotImplemented
        terms = dict(a)
        for m, c in b.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                del terms[m]
        return _poly(terms)

    __radd__ = __add__

    def __neg__(self):
        return _poly({m: -c for m, c in self.terms.items()})

    def __sub__(self, other):
        if type(other) is Poly or isinstance(other, Rat):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other):
        return Poly.coerce(other) + (-self)

    def __mul__(self, other):
        if type(other) is Poly:
            terms: dict = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = _mono_mul(m1, m2)
                    s = terms.get(m, 0) + c1 * c2
                    if s:
                        terms[m] = s
                    else:
                        del terms[m]
            return _poly(terms)
        if isinstance(other, Rat):  # a rational factor scales termwise
            return _poly({m: c * other for m, c in self.terms.items()} if other else {})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational (or constant Poly) only."""
        if isinstance(other, Poly):
            other = other.constant()
        return self * (Fraction(1) / _exact(other))

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly power must be a nonnegative integer")
        result = Poly.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    # -- predicates and access ---------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __len__(self):
        """The number of terms."""
        return len(self.terms)

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and () in self.terms)

    def constant(self) -> Fraction:
        """The value of a constant polynomial, a ``Fraction`` (raises otherwise)."""
        if self.is_constant():
            return Fraction(self.terms.get((), 0))
        raise ValueError(f"not a constant polynomial: {self}")

    def variables(self):
        out = set()
        for m in self.terms:
            out.update(v for v, _ in m)
        return out

    # -- calculus and substitution -----------------------------------------

    def subs(self, mapping) -> "Poly":
        """Substitute polynomials (or rationals) for variables."""
        result = Poly()
        for m, c in self.terms.items():
            factor = Poly.const(c)
            for v, e in m:
                if v in mapping:
                    factor = factor * (Poly.coerce(mapping[v]) ** e)
                else:
                    factor = factor * (Poly.var(v) ** e)
            result = result + factor
        return result

    def derivative(self, var: str) -> "Poly":
        terms: dict = {}
        for m, c in self.terms.items():
            exps = dict(m)
            e = exps.get(var, 0)
            if not e:
                continue
            if e == 1:
                del exps[var]
            else:
                exps[var] = e - 1
            mono = tuple(sorted(exps.items()))
            s = terms.get(mono, 0) + c * e
            if s:
                terms[mono] = s
            else:
                del terms[mono]
        return _poly(terms)

    # -- comparison, hashing, rendering --------------------------------------

    def __eq__(self, other):
        if type(other) is Poly:
            return self.terms == other.terms
        if isinstance(other, Rat):
            return self.is_constant() and self.terms.get((), 0) == other
        return NotImplemented

    def __hash__(self):
        # a constant hashes as its value, since it compares equal to it
        h = self._hash
        if h is None:
            h = hash(self.terms.get((), 0) if self.is_constant() else frozenset(self.terms.items()))
            object.__setattr__(self, "_hash", h)
        return h

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for m, c in sorted(self.terms.items()):
            if not m:
                parts.append(str(c))
            elif c == 1:
                parts.append(_mono_str(m))
            elif c == -1:
                parts.append(f"-{_mono_str(m)}")
            else:
                parts.append(f"{c}*{_mono_str(m)}")
        out = " + ".join(parts)
        return out.replace("+ -", "- ")

    def __repr__(self):
        return f"Poly('{self}')"

    # -- JSON ----------------------------------------------------------------

    def to_json(self):
        """Constants serialize to a 'p/q' string, everything else to a term map."""
        if self.is_constant():
            return str(self.terms.get((), 0))
        return {_mono_str(m): str(c) for m, c in sorted(self.terms.items())}

    @staticmethod
    def from_json(data) -> "Poly":
        """Read a rational string, an int or a term map of rational strings;
        ``ValueError`` for any other shape or for an exponent below 1."""
        if isinstance(data, str) or type(data) is int:
            return Poly.const(data)
        if not (isinstance(data, dict) and all(isinstance(c, str) for c in data.values())):
            raise ValueError(f"a moment is a rational string, an int or a term "
                             f"map of rational strings, not {data!r}")
        terms = {}  # keys that name one monomial (x*y, y*x) add up
        for mono, c in ((_parse_mono(m), _exact(c)) for m, c in data.items()):
            terms[mono] = terms.get(mono, 0) + c
        return Poly({m: _exact(c) for m, c in terms.items() if c})


def _exact(value):
    """value as a ``Fraction``, or as its numerator when that is integral;
    ``TypeError`` for a float, whose binary fraction is not the value meant."""
    if isinstance(value, float):
        raise TypeError(f"not an exact value: {value!r}")
    q = value if type(value) is Fraction else Fraction(value)
    return q.numerator if q.denominator == 1 else q


def _poly(terms: dict) -> Poly:
    """A Poly that takes over ``terms``, a dict just built (no copy)."""
    p = object.__new__(Poly)
    object.__setattr__(p, "terms", terms)
    object.__setattr__(p, "_hash", None)
    return p


def _parse_mono(text: str) -> Monomial:
    if text in ("", "1"):
        return ()
    exps = {}
    for piece in text.split("*"):
        v, e = piece.split("^") if "^" in piece else (piece, 1)
        if int(e) < 1:
            raise ValueError(f"monomial {text!r} has an exponent below 1")
        exps[v] = exps.get(v, 0) + int(e)
    return tuple(sorted(exps.items()))


ZERO = Poly()
ONE = Poly.const(1)


def rational(c):
    """The value of an int, a ``Fraction`` or a constant ``Poly``, an ``int`` unless
    a denominator is left; None for another ``Poly``; else ``TypeError``."""
    if type(c) is Poly:
        return rational(c.terms.get((), 0)) if c.is_constant() else None
    if isinstance(c, Rat):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"not an exact value: {c!r}")


def rationals(values):
    """Every value as a rational (see :func:`rational`), or None as soon as
    one is not rational."""
    out = []
    for c in values:
        q = rational(c)
        if q is None:
            return None
        out.append(q)
    return out
