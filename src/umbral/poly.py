"""Sparse multivariate polynomials over exact rationals.

This is the coefficient ring for umbra moments, identity-check values and
the coefficients of series that carry an indeterminate; a series whose
coefficients are all rational holds plain ``Fraction`` values instead (see
:mod:`umbral.series`).  ``Poly`` arithmetic mixes freely with ``int`` and
``Fraction`` operands, and a constant operand costs one ``Fraction``
operation per term.

A polynomial is a dict mapping a monomial to a nonzero ``Fraction``.  A
monomial is a tuple of ``(variable, exponent)`` pairs, sorted by variable
name, with all exponents >= 1; the empty tuple is the constant monomial.

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
    if not m1:
        return m2
    if not m2:
        return m1
    exps = dict(m1)
    for v, e in m2:
        exps[v] = exps.get(v, 0) + e
    return tuple(sorted(exps.items()))


def _mono_str(m: Monomial) -> str:
    if not m:
        return "1"
    return "*".join(v if e == 1 else f"{v}^{e}" for v, e in m)


class Poly:
    """Immutable sparse polynomial with ``Fraction`` coefficients."""

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        object.__setattr__(self, "terms", dict(terms) if terms else {})
        object.__setattr__(self, "_hash", None)

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def const(value) -> "Poly":
        q = value if type(value) is Fraction else Fraction(value)
        return _poly({(): q} if q else {})

    @staticmethod
    def var(name: str) -> "Poly":
        return _poly({((name, 1),): Fraction(1)})

    @staticmethod
    def coerce(value) -> "Poly":
        if isinstance(value, Poly):
            return value
        return Poly.const(value)

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        # the smaller term map is merged into a copy of the larger, so a
        # constant operand costs one Fraction addition
        if type(other) is Poly:
            a, b = self.terms, other.terms
            if len(a) < len(b):
                a, b = b, a
        elif isinstance(other, Rat):
            if not other:
                return self
            a, b = self.terms, {(): other if type(other) is Fraction else Fraction(other)}
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
        # a constant factor q (rational or constant Poly) scales termwise
        if type(other) is Poly:
            a, b = self.terms, other.terms
            if len(b) == 1 and () in b:
                q = b[()]
            elif len(a) == 1 and () in a:
                a, q = b, a[()]
            else:
                terms: dict = {}
                for m1, c1 in a.items():
                    for m2, c2 in b.items():
                        m = _mono_mul(m1, m2)
                        s = terms.get(m, 0) + c1 * c2
                        if s:
                            terms[m] = s
                        else:
                            del terms[m]
                return _poly(terms)
        elif isinstance(other, Rat):
            if not other:
                return _poly({})
            a, q = self.terms, other
        else:
            return NotImplemented
        return _poly({m: c * q for m, c in a.items()})

    __rmul__ = __mul__

    def __truediv__(self, other):
        """Division by a nonzero rational (or constant Poly) only."""
        if isinstance(other, Poly):
            other = other.constant()
        return self * (Fraction(1) / Fraction(other))

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
        """The value of a constant polynomial (raises otherwise)."""
        if not self.terms:
            return Fraction(0)
        if self.is_constant():
            return self.terms[()]
        raise ValueError(f"not a constant polynomial: {self}")

    def constant_term(self) -> Fraction:
        return self.terms.get((), Fraction(0))

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
            return self.is_constant() and self.constant() == other
        return NotImplemented

    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash(frozenset(self.terms.items()))
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
            return str(self.constant())
        return {_mono_str(m): str(c) for m, c in sorted(self.terms.items())}

    @staticmethod
    def from_json(data) -> "Poly":
        """Read a rational string, an int or a term map of rational strings;
        ``ValueError`` for any other shape."""
        if isinstance(data, str) or type(data) is int:
            return Poly.const(Fraction(data))
        if not (isinstance(data, dict) and all(isinstance(c, str) for c in data.values())):
            raise ValueError(f"a moment is a rational string, an int or a term "
                             f"map of rational strings, not {data!r}")
        terms = {}
        for mono_str, coeff in data.items():
            mono = _parse_mono(mono_str)
            terms[mono] = Fraction(coeff)
        return Poly({m: c for m, c in terms.items() if c})


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
        if "^" in piece:
            v, e = piece.split("^")
            exps[v] = exps.get(v, 0) + int(e)
        else:
            exps[piece] = exps.get(piece, 0) + 1
    return tuple(sorted(exps.items()))


ZERO = Poly()
ONE = Poly.const(1)
