"""Truncated power series with exact rational or polynomial coefficients.

A ``Series`` of order N stores ordinary coefficients c_0..c_N of
sum_k c_k t^k, all ``Fraction`` or all ``Poly`` (see :class:`Series`).  The
exponential point of view enters only at the moment boundary: the k-th EGF
moment is k! * c_k (``egf_moment`` / ``from_moments``).  All arithmetic is
exact and truncation-stable; binary operations demand equal orders rather
than silently re-truncating.

Terminology used throughout: a series is *unital* when c_0 = 1 and *delta*
when c_0 = 0.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import lcm

from .errors import (
    DomainError,
    NegativePowerOfDeltaSeries,
    NotInvertible,
    OrderExceeded,
    OrderMismatch,
)
from .poly import Poly, rational, rationals


@lru_cache(maxsize=None)
def factorial(n: int) -> int:
    return 1 if n <= 1 else n * factorial(n - 1)


def _ring(coeffs) -> tuple:
    """All coefficients as ``Fraction`` if they are all rational, else all
    as ``Poly``."""
    q = rationals(coeffs)
    return tuple(map(Poly.coerce, coeffs)) if q is None else tuple(q)


class Series:
    """A truncated power series.  The constructor picks the coefficient
    ring: ``coeffs`` is a tuple of ``Fraction`` when every coefficient is
    rational and of ``Poly`` otherwise, so equal series have equal
    ``coeffs``.  Each kernel is one code path over either ring (a rational
    times a ``Poly`` is a ``Poly``); ``egf_moment`` is a ``Poly`` either way."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = _ring(tuple(coeffs))
        if len(coeffs) != order + 1:
            raise ValueError(f"need exactly {order + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    # -- constructors --------------------------------------------------------

    @staticmethod
    def make(coeffs, order: int) -> "Series":
        """Series with the given leading coefficients, zero-padded to order."""
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the order admits")
        coeffs += [0] * (order + 1 - len(coeffs))
        return Series(order, coeffs)

    @staticmethod
    def zero(order: int) -> "Series":
        return Series.make([], order)

    @staticmethod
    def one(order: int) -> "Series":
        return Series.make([1], order)

    @staticmethod
    def t(order: int) -> "Series":
        return Series.make([0, 1], order)

    @staticmethod
    def exp_t(order: int) -> "Series":
        """The exponential series: c_k = 1/k!."""
        return Series(order, [Fraction(1, factorial(k)) for k in range(order + 1)])

    @staticmethod
    def expm1_t(order: int) -> "Series":
        """e^t - 1, the canonical delta series with unit linear term."""
        return Series.exp_t(order) - Series.one(order)

    @staticmethod
    def from_moments(moments) -> "Series":
        """Series whose k-th EGF moment is moments[k]; order = len - 1."""
        return Series(len(moments) - 1,
                      [Poly.coerce(m) / factorial(k) for k, m in enumerate(moments)])

    # -- predicates ------------------------------------------------------------

    def is_unital(self) -> bool:
        return self.coeffs[0] == 1

    def is_delta(self) -> bool:
        return not self.coeffs[0]

    def _same_order(self, other: "Series"):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    # -- ring operations ---------------------------------------------------------

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._same_order(other)
        return Series(self.order, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._same_order(other)
        return Series(self.order, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return Series(self.order, [-a for a in self.coeffs])

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._same_order(other)
        n = self.order
        a, b = self.coeffs, other.coeffs
        out = []
        for k in range(n + 1):
            acc = 0
            for i in range(k + 1):
                if a[i] and b[k - i]:
                    acc = acc + a[i] * b[k - i]
            out.append(acc)
        return Series(n, out)

    def scalar_mul(self, c) -> "Series":
        return Series(self.order, [c * a for a in self.coeffs])

    def pow_int(self, p) -> "Series":
        """f^p by J.C.P. Miller's recurrence (Knuth, TAOCP vol. 2, 4.7):

            m a_0 b_m = sum_{k=1..m} ((p+1) k - m) a_k b_{m-k},  b = f^p,

        the t^(m-1) coefficient of f (f^p)' = p f' f^p, in one O(N^2) pass.
        For unital f, p may be any integer, rational or ``Poly``.  Otherwise
        p must be a nonnegative integer: the t-valuation is shifted out and a
        constant lowest coefficient divided out; a non-constant one has no
        reciprocal, so that case multiplies p times.

        Rational f and p with a_0 = 1 run on the integer coefficients d^k a_k
        of f(dt), d the lcm of the denominators; for integer p the division
        by m is then exact, and b_m is the result over d^m.  A ``Poly`` f or
        p keeps d = 1, where scaling would only enlarge the coefficients.
        """
        n = self.order
        if p == 0:
            return Series.one(n)
        if self.is_unital():
            v, shift, c0 = 0, 0, Fraction(1)
        elif not isinstance(p, int):
            raise DomainError("non-integer power needs constant term 1")
        elif p < 0:
            raise NegativePowerOfDeltaSeries("negative power needs constant term 1")
        else:
            v = next((k for k, c in enumerate(self.coeffs) if c), n + 1)
            shift = v * p
            if shift > n:
                return Series.zero(n)
            c0 = rational(self.coeffs[v])
            if c0 is None:
                result = self
                for _ in range(p - 1):
                    result = result * self
                return result
        a, d = self.coeffs[v:], 1
        if c0 == 1 and type(a[0]) is Fraction and type(p) is not Poly:
            d = lcm(*(c.denominator for c in a))
            a = [c.numerator * (d ** k // c.denominator) for k, c in enumerate(a)]
        qk = [(p + 1) * k for k in range(len(a))]
        b = [1 if c0 == 1 else c0 ** p]
        for m in range(1, n - shift + 1):
            acc = 0
            for k in range(1, m + 1):
                if a[k] and b[m - k]:
                    # weight a_k, which usually has fewer terms than b_{m-k}
                    acc = acc + a[k] * (qk[k] - m) * b[m - k]
            b.append(acc // m if type(acc) is int else acc / (c0 * m))
        if d != 1:
            b = [Fraction(c, d ** m) for m, c in enumerate(b)]
        return Series(n, [0] * shift + b)

    # -- exp / log -------------------------------------------------------------

    def exp(self) -> "Series":
        """exp of a delta series, via n*g_n = sum j*h_j*g_{n-j}."""
        if not self.is_delta():
            raise DomainError("exp requires constant term 0")
        h = self.coeffs
        g = [1]
        for n in range(1, self.order + 1):
            acc = 0
            for j in range(1, n + 1):
                if h[j] and g[n - j]:
                    acc = acc + h[j] * g[n - j] * j
            g.append(acc * Fraction(1, n))
        return Series(self.order, g)

    def log(self) -> "Series":
        """log of a unital series; inverse of :meth:`exp` up to truncation."""
        if not self.is_unital():
            raise DomainError("log requires constant term 1")
        f = self.coeffs
        l = [0]
        for n in range(1, self.order + 1):
            acc = f[n] * n
            for j in range(1, n):
                if l[j] and f[n - j]:
                    acc = acc - l[j] * f[n - j] * j
            l.append(acc / n)
        return Series(self.order, l)

    # -- composition and reversion ------------------------------------------------

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)) for a delta inner series, exactly truncated."""
        self._same_order(inner)
        if not inner.is_delta():
            raise DomainError("composition requires a delta inner series")
        result = Series.make([self.coeffs[0]], self.order)
        h_pow = Series.one(self.order)
        for k in range(1, self.order + 1):
            h_pow = h_pow * inner
            c = self.coeffs[k]
            if c:
                result = result + h_pow.scalar_mul(c)
        return result

    def revert(self) -> "Series":
        """Compositional inverse of a delta series with invertible c_1.

        Triangular coefficient solving: the t^m coefficient of self(w(t)) is
        c_1 w_m + sum_{j=2..m} c_j P[j][m] with P[j][m] = [t^m] w^j, so each
        w_m is determined by one division.  The power table is filled one
        column at a time: for j >= 2, P[j][m] = sum_{i=1..m-j+1} w_i
        P[j-1][m-i] reads only w_1..w_{m-1} and earlier columns.  That is
        O(N^3) coefficient products in all, where recomposing the series
        for every coefficient was O(N^4).
        """
        if not self.is_delta():
            raise DomainError("reversion requires a delta series")
        if self.order < 1:
            raise NotInvertible("no linear coefficient at order 0")
        c1 = rational(self.coeffs[1])
        if not c1:
            raise NotInvertible("linear coefficient has no reciprocal")
        n, c = self.order, self.coeffs
        w = [0, 1 / c1] + [0] * (n - 1)
        powers = [None, w] + [[0] * (n + 1) for _ in range(n - 1)]
        for m in range(2, n + 1):
            acc = 0
            for j in range(2, m + 1):
                prev, entry = powers[j - 1], 0
                for i in range(1, m - j + 2):
                    if w[i] and prev[m - i]:
                        entry = entry + w[i] * prev[m - i]
                powers[j][m] = entry
                if c[j] and entry:
                    acc = acc + c[j] * entry
            w[m] = -acc / c1
        return Series(n, w)

    # -- calculus helpers ------------------------------------------------------

    def derivative(self) -> "Series":
        """Formal d/dt; the order drops by one."""
        if self.order == 0:
            return Series.zero(0)
        return Series(self.order - 1,
                      [self.coeffs[k] * k for k in range(1, self.order + 1)])

    def mul_t(self) -> "Series":
        """Multiply by t at fixed order (the top coefficient falls off)."""
        return Series(self.order, (0,) + self.coeffs[:-1])

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} to {order}")
        return Series(order, self.coeffs[: order + 1])

    # -- moments ----------------------------------------------------------------

    def egf_moment(self, k: int) -> Poly:
        """k! * c_k, the k-th moment under the EGF reading."""
        if k < 0 or k > self.order:
            raise OrderExceeded(f"moment {k} outside order {self.order}")
        return Poly.coerce(self.coeffs[k] * factorial(k))

    def moments(self) -> list:
        return [self.egf_moment(k) for k in range(self.order + 1)]

    # -- comparison and rendering -------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((self.order, self.coeffs))

    def __str__(self):
        parts = [str(c) if k == 0 else f"({c})*t^{k}"
                 for k, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Series(order={self.order}, {self})"

    # -- JSON -----------------------------------------------------------------------

    def to_json(self):
        return {"order": self.order,
                "coeffs": [Poly.coerce(c).to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(data) -> "Series":
        return Series(data["order"], [Poly.from_json(c) for c in data["coeffs"]])
