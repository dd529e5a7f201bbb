"""Umbra workspace and the linear evaluation functional.

An :class:`Atom` is a named symbol carrying a finite moment sequence
m_0..m_N (m_0 = 1) and its generating function, a
:class:`~umbral.series.Series`, whose rule the moments follow: all ``int`` or
``Fraction`` when all are rational, else all :class:`~umbral.poly.Poly`.  The
two are kept coherent (k! * c_k = m_k) by every registration path.  An atom is
itself an expression, the leaf of the tree, so ``a + b``, ``a * b ** 2`` and
``Sum((a, b))`` all work directly.

An expression is a polynomial in one ring, over the declared indeterminates
and one symbol per atom, and E acts on that ring linearly with distinct
atoms uncorrelated (Rota and Taylor, SIAM J. Math. Anal. 1994).  Evaluation
reads the moment sequence E[e^0], E[e^1], ... off the tree by the rules that
follow from that, for atom-disjoint X and Y:

* an atom gives its moments, and an atom-free subtree is a scalar c (its
  normal form) with moments c^k; E[(cX)^k] = c^k E[X^k] and
  E[(X^p)^k] = E[X^(pk)];
* the parts of a sum or a product fall into groups linked through shared
  atoms.  Groups are uncorrelated: a product's multiply pointwise,
  E[(XY)^k] = E[X^k] E[Y^k], and a sum's gfs multiply, so their moments
  convolve, E[(X+Y)^k] = sum_i C(k,i) E[X^i] E[Y^(k-i)], an atom's by the
  series of its moments (never its ``egf``), lifted once for every sum;
* a group of several parts is expanded into its normal form, a
  :class:`~umbral.poly.Poly` in that ring, *before* moments are substituted
  into each of its powers: within a monomial, powers of distinct atoms
  evaluate independently and multiply, while powers of one atom merge
  first; the indeterminates are scalars to E and multiply the result.

Overflow is decided once, from the tree's structure, before any expansion.
An atom's structural degree in e, counted before any cancellation, bounds
its power in every monomial of e's normal form, so E[e^k] reads no moment
of it beyond degree * k.  Each node carries these degrees (``degrees``),
merged from its children's when it is built.  ``eval`` raises
``OrderExceeded`` for the lowest-uid atom where that passes the order, and
``moments_of`` does so at the first such k, whatever the moments are.

Distinct atoms are therefore uncorrelated by construction, and similarity
(equal moment sequences) is decidable only up to the truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, count, repeat
from operator import add, mul

from .errors import (
    BadZerothMoment,
    CoherenceError,
    OrderExceeded,
    UndeclaredIndeterminate,
    UsageError,
)
from .poly import ONE, ZERO, Poly
from .series import Series

DEFAULT_ORDER = 12


# -- expression trees ----------------------------------------------------------


class Expr:
    """An immutable expression node; two nodes are equal when they have the
    same type and equal fields.  ``degrees``, not a field, maps each atom to
    its structural degree, set from the children's as the node is built."""

    __slots__ = ("degrees",)

    def __setattr__(self, *a):
        raise AttributeError("immutable")

    def _fields(self) -> tuple:
        return tuple(getattr(self, f) for f in self.__slots__)

    def __eq__(self, other):
        return type(other) is type(self) and other._fields() == self._fields()

    def __hash__(self):
        return hash((type(self), self._fields()))

    def __add__(self, other):
        return Sum((self, as_expr(other)))

    __radd__ = __add__

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, Poly)):
            return ScalarMul(Poly.coerce(other), self)
        return Product((self, as_expr(other)))

    def __rmul__(self, other):
        if isinstance(other, Expr):
            return Product((other, self))
        return ScalarMul(Poly.coerce(other), self)

    def __pow__(self, p: int):
        return IntPower(self, p)


class Atom(Expr):
    """A registered umbra: unique symbol, moments (by the ``Series`` rule),
    their series (what a sum reads), generating function.  An atom is its
    own symbol, so equality is identity: a clone has equal moments but is a
    different umbra."""

    __slots__ = ("uid", "name", "moments", "egf", "_series")

    def __init__(self, uid: int, name: str, moments, egf: Series, series: Series = None):
        object.__setattr__(self, "uid", uid)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "moments", tuple(moments))
        object.__setattr__(self, "egf", egf)
        object.__setattr__(self, "_series", series or Series.from_moments(moments))

    __eq__ = object.__eq__
    __hash__ = object.__hash__
    # built on each read: stored on the atom, the map would be a cycle
    degrees = property(lambda self: {self: 1})

    def __repr__(self):
        return self.name


class Sum(Expr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(as_expr(p) for p in parts))
        object.__setattr__(self, "degrees", _merge(self.parts, max))

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.parts)) + ")"


class Product(Expr):
    """Product of sub-expressions; the empty product is the constant 1."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        object.__setattr__(self, "parts", tuple(as_expr(p) for p in parts))
        object.__setattr__(self, "degrees", _merge(self.parts, add))

    def __repr__(self):
        return "(" + " * ".join(map(repr, self.parts)) + ")" if self.parts else "1"


class ScalarMul(Expr):
    __slots__ = ("coeff", "child")

    def __init__(self, coeff, child):
        object.__setattr__(self, "coeff", Poly.coerce(coeff))
        object.__setattr__(self, "child", as_expr(child))
        object.__setattr__(self, "degrees", self.child.degrees)

    def __repr__(self):
        return f"({self.coeff})*{self.child!r}"


class IntPower(Expr):
    __slots__ = ("child", "power")

    def __init__(self, child, power: int):
        if power < 0:
            raise ValueError("expression powers must be nonnegative")
        object.__setattr__(self, "child", as_expr(child))
        object.__setattr__(self, "power", power)
        object.__setattr__(self, "degrees", {a: d * power for a, d in
                                             self.child.degrees.items() if power})

    def __repr__(self):
        return f"{self.child!r}^{self.power}"


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    raise TypeError(f"not an umbral expression: {x!r}")


def _merge(parts, combine) -> dict:
    """The degrees of a sum (combine = max) or a product (add) of parts; a
    p-th power has p times its child's (none at p = 0), a scalar its child's."""
    out: dict = {}
    for part in parts:
        for a, d in part.degrees.items():
            out[a] = combine(out.get(a, 0), d)
    return out


#: the multiplicative unit as an expression
ONE_EXPR = Product(())


# -- normal forms ------------------------------------------------------------------

# A normal form is one Poly over the indeterminates and one symbol per atom.
# An atom's symbol is a NUL byte and its zero-padded uid: no identifier starts
# with NUL, so the symbol never names an indeterminate, and a monomial lists
# its atom factors first, in uid order, then its indeterminates.


def _symbol(uid: int) -> str:
    return f"\0{uid:012d}"


def _is_atom(var: str) -> bool:
    return var[0] == "\0"


def _nf_mul(a: Poly, b: Poly) -> Poly:
    """The product of two normal forms (a named call, so a tracer can count it)."""
    return a * b


def _expand(e: Expr) -> Poly:
    if isinstance(e, Atom):
        return Poly.var(_symbol(e.uid))
    if isinstance(e, Sum):
        return sum(map(_expand, e.parts), ZERO)
    if isinstance(e, Product):
        return reduce(_nf_mul, map(_expand, e.parts), ONE)
    if isinstance(e, ScalarMul):
        return _expand(e.child) * e.coeff
    if isinstance(e, IntPower):
        return _expand(e.child) ** e.power
    raise TypeError(f"unknown expression node: {e!r}")


def _groups(parts) -> list:
    """Split parts into groups linked through shared atoms; an atom-free
    part is a group of its own."""
    groups = []  # (atoms, parts) pairs
    for part in parts:
        atoms = set(part.degrees)
        linked = [g for g in groups if g[0] & atoms]
        groups = [g for g in groups if not g[0] & atoms]
        groups.append((atoms.union(*(g[0] for g in linked)),
                       [p for g in linked for p in g[1]] + [part]))
    return [g[1] for g in groups]


# -- claims ---------------------------------------------------------------------------


def _render(side):
    return [str(v) for v in side] if isinstance(side, (list, tuple)) else str(side)


def verdict(claims, designed=False):
    """``(passed, witness)`` for an entry's claims, pulled in order up to the
    first false one, which is the witness; a designed counterexample passes
    on it and fails, with its last claim as the witness, if every claim
    holds.  An entry that makes no claim raises ``UsageError``."""
    held, claim = True, None
    for claim in claims:
        held = claim[1] == claim[2]
        if not held:
            break
    if claim is None:
        raise UsageError("these parameters leave the entry no claim to check")
    if held and not designed:
        return True, None
    statement, lhs, rhs, data = claim
    return held != designed, {"statement": statement, "lhs": _render(lhs),
                              "rhs": _render(rhs), **data}


# -- workspace ------------------------------------------------------------------------


class Workspace:
    """Registry of atoms plus the evaluation functional at one truncation
    order.  Single-writer during registration; evaluation is pure."""

    def __init__(self, order: int = DEFAULT_ORDER, indeterminates=("x", "y")):
        if order < 0:
            raise ValueError("order must be nonnegative")
        for v in indeterminates:
            if not (isinstance(v, str) and v.isidentifier()):
                raise ValueError(f"indeterminate name {v!r} is not an identifier")
        self.order = order
        self.indeterminates = tuple(indeterminates)
        self._uids = count(1)
        self._atoms: dict = {}
        self._by_name: dict = {}
        self._defined: list = []  # user-defined names, for serialization
        n = order + 1
        self.eps = self._register("eps", [1] + [0] * (n - 1), Series.one(order))
        self.u = self._register("u", [1] * n, Series.exp_t(order))
        self._by_name["eps"] = self.eps
        self._by_name["u"] = self.u

    # -- registration ---------------------------------------------------------

    def _register(self, name: str, moments, egf: Series) -> Atom:
        """A fresh atom, once ``moments`` equal ``egf``'s: on ints, by
        :meth:`Series.first_mismatch`, when ``egf`` holds a kernel's lift."""
        series = Series.from_moments(moments)  # the series' rule, and what a sum reads
        moments = series.moments()
        if len(moments) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} moments at order {self.order}, got {len(moments)}")
        if egf.order != self.order:
            raise ValueError("generating function order disagrees with workspace")
        k = egf.first_mismatch(moments)
        if k is not None:
            raise CoherenceError(name, k, moments[k], egf.egf_moment(k), self.order)
        atom = Atom(next(self._uids), name, moments, egf, series)
        self._atoms[_symbol(atom.uid)] = atom
        return atom

    def define(self, name: str, moments) -> Atom:
        """Register a named umbra from its moment sequence (m_0 must be 1,
        and every variable a declared indeterminate); its series is built
        from them, so registration compares them with themselves.  The name
        must be an identifier an expression reads as this umbra."""
        if not (isinstance(name, str) and name.isidentifier()):
            raise ValueError(f"umbra name {name!r} is not an identifier")
        if name in self.indeterminates + ("u", "eps", "bell"):
            raise ValueError(f"umbra name {name!r} names an indeterminate or a built-in umbra")
        moments = list(moments)
        if not moments or moments[0] != 1:
            raise BadZerothMoment("an umbra's zeroth moment must be 1")
        egf = Series.from_moments(moments)
        undeclared = set().union(*(m.variables() for m in egf.moments() if type(m) is Poly))
        undeclared -= set(self.indeterminates)
        if undeclared:
            raise UndeclaredIndeterminate(
                f"indeterminate {min(undeclared)!r} not declared")
        atom = self._register(name, egf.moments(), egf)
        self._by_name[name] = atom
        if name not in self._defined:
            self._defined.append(name)
        return atom

    def clone(self, atom: Atom, primes: int = 1) -> Atom:
        """A fresh atom with the same moments, uncorrelated with the source,
        named by ``primes`` primes after the source's name."""
        return self._register(atom.name + "'" * primes, atom.moments, atom.egf)

    def atom_of(self, expr, name: str = None) -> Atom:
        """Materialize an expression as a fresh atom (its own symbol, with
        the expression's moments); correlation with the inputs is severed.
        The series is built from the moments, so registration compares the
        sequence with itself."""
        egf = self.gf_of(expr)
        return self._register(name or f"<{as_expr(expr)!r}>", egf.moments(), egf)

    def lookup(self, name: str):
        return self._by_name.get(name)

    def var(self, name: str) -> Poly:
        """A declared indeterminate as a Poly."""
        if name not in self.indeterminates:
            raise UndeclaredIndeterminate(f"indeterminate {name!r} not declared")
        return Poly.var(name)

    # -- evaluation --------------------------------------------------------------

    def _apply(self, nf: Poly) -> Poly:
        """Substitute moments for the atom powers of each monomial, in uid
        order, and multiply what remains of it (its indeterminates) back.
        The caller has checked every power against the order."""
        total = ZERO
        for mono, val in nf.terms.items():
            for i, (v, p) in enumerate(mono):
                if not _is_atom(v):
                    val = val * Poly({mono[i:]: 1})
                    break
                val = self._atoms[v].moments[p] * val
            total = total + val
        return total

    def _moments(self, e: Expr, n: int) -> list:
        """E[e^j] for j = 0..n by the tree rules (see the module docstring);
        a sum's atom enters as its moments' series, sliced at n < order."""
        if not e.degrees:
            return list(accumulate(repeat(_expand(e), n), mul, initial=ONE))
        if isinstance(e, Atom):
            return list(e.moments[: n + 1])
        if isinstance(e, ScalarMul):  # c X is the product of two uncorrelated parts
            return self._moments(Product((ScalarMul(e.coeff, ONE_EXPR), e.child)), n)
        if isinstance(e, IntPower):
            return self._moments(e.child, n * e.power)[:: e.power]
        groups = _groups(e.parts)
        seqs = [self._moments(group[0], n) if len(group) == 1 else
                list(map(self._apply, accumulate(repeat(_expand(type(e)(group)), n),
                                                 _nf_mul, initial=ONE)))
                for group in groups]
        if isinstance(e, Product):
            return [reduce(mul, column) for column in zip(*seqs)]
        return Series.product(g[0]._series.truncate(n) if len(g) == 1 and isinstance(g[0], Atom)
                              else Series.from_moments(s) for g, s in zip(groups, seqs)).moments()

    def _checked(self, expr, ks) -> list:
        """E[expr^j] for j = 0..ks[-1], after the one order test (see the
        module docstring) at each k of ks in turn."""
        expr = as_expr(expr)
        degrees = sorted(expr.degrees.items(), key=lambda ad: ad[0].uid)
        for k in ks:
            for atom, d in degrees:
                if d * k > self.order:
                    raise OrderExceeded(
                        f"moment {d * k} of {atom.name} exceeds order {self.order}")
        return self._moments(expr, ks[-1])

    def eval(self, expr, k: int = 1) -> Poly:
        """E[expr^k] as a Poly over the declared indeterminates."""
        if k < 0 or k > self.order:
            raise OrderExceeded(f"power {k} outside order {self.order}")
        return Poly.coerce(self._checked(expr, [k])[k])

    def moments_of(self, expr) -> list:
        """E[expr^k] for k = 0..order, each a Poly."""
        return list(map(Poly.coerce, self._checked(expr, range(self.order + 1))))

    def gf_of(self, expr) -> Series:
        """The generating function: sum_k E[expr^k] t^k / k!."""
        return Series.from_moments(self._checked(expr, range(self.order + 1)))

    def similar(self, a, b) -> bool:
        """Equal moments for every power up to the truncation order.

        Similarity is decidable only up to that order; a True result means
        "similar up to order N"."""
        return self.gf_of(a).moments() == self.gf_of(b).moments()

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "indeterminates": list(self.indeterminates),
            "umbrae": {
                name: [Poly.coerce(m).to_json() for m in self._by_name[name].moments]
                for name in self._defined
            },
        }

    @staticmethod
    def from_json(data) -> "Workspace":
        """Read an object whose ``order`` is an int, whose ``indeterminates``
        is a list and whose ``umbrae`` maps names to moment lists;
        ``ValueError`` names the first field of any other shape."""
        if not isinstance(data, dict):
            raise ValueError("a workspace is a JSON object")
        order = data.get("order", DEFAULT_ORDER)
        indeterminates = data.get("indeterminates", ["x", "y"])
        umbrae = data.get("umbrae", {})
        if type(order) is not int:
            raise ValueError(f"workspace order {order!r} is not an integer")
        if not isinstance(indeterminates, list):
            raise ValueError("workspace indeterminates is not a list")
        if not isinstance(umbrae, dict):
            raise ValueError("workspace umbrae is not an object")
        ws = Workspace(order=order, indeterminates=tuple(indeterminates))
        for name, moments in umbrae.items():
            if not isinstance(moments, list):
                raise ValueError(f"workspace umbra {name!r} is not a list of moments")
            try:
                parsed = [Poly.from_json(m) for m in moments]
            except ValueError as exc:
                raise ValueError(f"workspace umbra {name!r}: {exc}") from None
            ws.define(name, (parsed + [ZERO] * (ws.order + 1))[: ws.order + 1])
        return ws
