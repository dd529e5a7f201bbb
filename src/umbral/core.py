"""Umbra workspace and the linear evaluation functional.

An :class:`Atom` is a named symbol carrying a finite moment sequence
m_0..m_N (each a :class:`~umbral.poly.Poly`, m_0 = 1) together with its
generating function as a :class:`~umbral.series.Series`; the two are kept
coherent (k! * c_k = m_k) by every registration path.  An atom is itself an
expression, the leaf of the tree, so ``a + b``, ``a * b ** 2`` and
``Sum((a, b))`` all work directly.

An expression is a polynomial in one ring, over the declared indeterminates
and one symbol per atom, and E acts on that ring linearly (Rota and Taylor,
SIAM J. Math. Anal. 1994).  Evaluation follows the defining rules exactly:

* an expression is expanded into its normal form, a :class:`~umbral.poly.Poly`
  in that ring, *before* moments are substituted;
* within a monomial, powers of distinct atoms evaluate independently and
  multiply, while powers of one atom merge first; the indeterminates are
  scalars to E and multiply the result;
* blocks of a normal form (maximal sets of monomials linked through shared
  atoms) are uncorrelated: their gfs multiply, so a sum's blocks fold by the
  series product, whose moments are the binomial convolution
  E[(A+B)^k] = sum_i C(k,i) E[A^i] E[B^(k-i)]; ``eval`` reads moment k of
  that fold (of one block, E[nf^k] alone) and ``moments_of`` reads all of
  them.

Distinct atoms are therefore uncorrelated by construction, and similarity
(equal moment sequences) is decidable only up to the truncation order.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import count

from .errors import (
    BadZerothMoment,
    CoherenceError,
    OrderExceeded,
    UndeclaredIndeterminate,
)
from .poly import ONE, ZERO, Poly
from .series import Series

DEFAULT_ORDER = 12


# -- expression trees ----------------------------------------------------------


class Expr:
    """An immutable expression node; two nodes are equal when they have the
    same type and equal fields."""

    __slots__ = ()

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
    """A registered umbra: unique symbol, moments, generating function.  An
    atom is its own symbol, so equality is identity: a clone has equal
    moments but is a different umbra."""

    __slots__ = ("uid", "name", "moments", "egf")

    def __init__(self, uid: int, name: str, moments, egf: Series):
        object.__setattr__(self, "uid", uid)
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "moments", tuple(moments))
        object.__setattr__(self, "egf", egf)

    __eq__ = object.__eq__
    __hash__ = object.__hash__

    def __repr__(self):
        return self.name


class Sum(Expr):
    __slots__ = ("parts",)

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(as_expr(p) for p in parts))

    def __repr__(self):
        return "(" + " + ".join(map(repr, self.parts)) + ")"


class Product(Expr):
    """Product of sub-expressions; the empty product is the constant 1."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        object.__setattr__(self, "parts", tuple(as_expr(p) for p in parts))

    def __repr__(self):
        return "(" + " * ".join(map(repr, self.parts)) + ")" if self.parts else "1"


class ScalarMul(Expr):
    __slots__ = ("coeff", "child")

    def __init__(self, coeff, child):
        object.__setattr__(self, "coeff", Poly.coerce(coeff))
        object.__setattr__(self, "child", as_expr(child))

    def __repr__(self):
        return f"({self.coeff})*{self.child!r}"


class IntPower(Expr):
    __slots__ = ("child", "power")

    def __init__(self, child, power: int):
        if power < 0:
            raise ValueError("expression powers must be nonnegative")
        object.__setattr__(self, "child", as_expr(child))
        object.__setattr__(self, "power", power)

    def __repr__(self):
        return f"{self.child!r}^{self.power}"


def as_expr(x) -> Expr:
    if isinstance(x, Expr):
        return x
    raise TypeError(f"not an umbral expression: {x!r}")


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


def _blocks(nf: Poly) -> list:
    """Split a normal form into blocks: maximal sets of monomials linked
    through shared atoms (union-find over atom symbols).  The atom-free
    monomials are a block of their own; the zero form is one empty block."""
    root: dict = {}

    def find(v):
        while root.setdefault(v, v) != v:
            v = root[v]
        return v

    def key(mono):
        return find(mono[0][0]) if mono and _is_atom(mono[0][0]) else None

    for mono in nf.terms:
        first = key(mono)
        for v, _ in mono[1:]:
            if not _is_atom(v):
                break
            root[find(v)] = first
    blocks: dict = {}
    for mono, c in nf.terms.items():
        blocks.setdefault(key(mono), {})[mono] = c
    return [Poly(b) for b in blocks.values()] or [nf]


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
        self.eps = self._register("eps", [ONE] + [ZERO] * (n - 1), Series.one(order))
        self.u = self._register("u", [ONE] * n, Series.exp_t(order))
        self._by_name["eps"] = self.eps
        self._by_name["u"] = self.u

    # -- registration ---------------------------------------------------------

    def _register(self, name: str, moments, egf: Series) -> Atom:
        moments = tuple(Poly.coerce(m) for m in moments)
        if len(moments) != self.order + 1:
            raise ValueError(
                f"need {self.order + 1} moments at order {self.order}, got {len(moments)}")
        if egf.order != self.order:
            raise ValueError("generating function order disagrees with workspace")
        for k, m in enumerate(moments):
            gf_moment = egf.egf_moment(k)
            if gf_moment != m:
                raise CoherenceError(name, k, m, gf_moment, self.order)
        atom = Atom(next(self._uids), name, moments, egf)
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
        moments = [Poly.coerce(m) for m in moments]
        if not moments or moments[0] != ONE:
            raise BadZerothMoment("an umbra's zeroth moment must be 1")
        undeclared = set().union(*(m.variables() for m in moments))
        undeclared -= set(self.indeterminates)
        if undeclared:
            raise UndeclaredIndeterminate(
                f"indeterminate {min(undeclared)!r} not declared")
        atom = self._register(name, moments, Series.from_moments(moments))
        self._by_name[name] = atom
        if name not in self._defined:
            self._defined.append(name)
        return atom

    def clone(self, atom: Atom) -> Atom:
        """A fresh atom with the same moments, uncorrelated with the source."""
        return self._register(atom.name + "'", atom.moments, atom.egf)

    def atom_of(self, expr, name: str = None) -> Atom:
        """Materialize an expression as a fresh atom (its own symbol, with
        the expression's moments); correlation with the inputs is severed.
        The series is built from the moments, so registration compares the
        sequence with itself."""
        expr = as_expr(expr)
        moments = self.moments_of(expr)
        return self._register(name or f"<{expr!r}>", moments,
                              Series.from_moments(moments))

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
        order, and multiply what remains of it (its indeterminates) back."""
        total = ZERO
        for mono, val in nf.terms.items():
            for i, (v, p) in enumerate(mono):
                if not _is_atom(v):
                    val = val * Poly({mono[i:]: Fraction(1)})
                    break
                atom = self._atoms[v]
                if p > self.order:
                    raise OrderExceeded(
                        f"moment {p} of {atom.name} exceeds order {self.order}")
                val = atom.moments[p] * val
                if not val:
                    break
            total = total + val
        return total

    def eval(self, expr, k: int = 1) -> Poly:
        """E[expr^k] as a Poly over the declared indeterminates: moment k
        of the block fold, or E applied to nf^k when there is one block."""
        if k < 0 or k > self.order:
            raise OrderExceeded(f"power {k} outside order {self.order}")
        nf = _expand(as_expr(expr))
        blocks = _blocks(nf)
        if len(blocks) > 1:
            try:
                return self._fold(blocks, k).egf_moment(k)
            except OrderExceeded:
                pass
        return self._apply(nf ** k)  # also decides, and names, any overflow

    def _powers(self, nf: Poly, n: int) -> list:
        """E[nf^k] for k = 0..n by repeated multiplication."""
        out = []
        acc = ONE
        for k in range(n + 1):
            if k:
                acc = _nf_mul(acc, nf)
            out.append(self._apply(acc))
        return out

    def _fold(self, blocks: list, n: int) -> Series:
        """The gf to order n of a normal form split into ``blocks``: the
        uncorrelated blocks' gfs multiply."""
        return reduce(Series.__mul__, (Series.from_moments(self._powers(b, n))
                                       for b in blocks))

    def moments_of(self, expr) -> list:
        """E[expr^k] for k = 0..order: the product of the blocks' series."""
        nf = _expand(as_expr(expr))
        try:
            return self._fold(_blocks(nf), self.order).moments()
        except OrderExceeded:
            return self._powers(nf, self.order)  # decides, and names, any overflow

    def gf_of(self, expr) -> Series:
        """The generating function: sum_k E[expr^k] t^k / k!."""
        return Series.from_moments(self.moments_of(expr))

    def similar(self, a, b) -> bool:
        """Equal moments for every power up to the truncation order.

        Similarity is decidable only up to that order; a True result means
        "similar up to order N"."""
        return self.moments_of(a) == self.moments_of(b)

    # -- serialization --------------------------------------------------------------

    def to_json(self) -> dict:
        return {
            "order": self.order,
            "indeterminates": list(self.indeterminates),
            "umbrae": {
                name: [m.to_json() for m in self._by_name[name].moments]
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
            if len(parsed) < ws.order + 1:
                parsed += [ZERO] * (ws.order + 1 - len(parsed))
            ws.define(name, parsed[: ws.order + 1])
        return ws
