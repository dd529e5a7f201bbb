"""Truncated power series with exact rational or polynomial coefficients.

A ``Series`` of order N is sum_k c_k t^k, held by its EGF moments M_k = k! c_k
(see :class:`Series`), where every kernel is a recurrence with integer
binomial weights: :func:`convolve` for products, :func:`miller` for exp, log
and powers, full products h^k for composition and reversion (one exact ``//``
per reversion step).  Every kernel lifts both rings alike, to d^k M_k with d
the lcm of all coefficient denominators: ints, or ``Poly`` values with int
coefficients, so every coefficient product in a kernel is an int product, and
each coefficient of a result costs one ``Fraction``.
The constructor takes ordinary coefficients, and ``coeffs``, ``str`` and JSON
give them back.  Binary operations demand equal orders.  A series is
*unital* when c_0 = 1 and *delta* when c_0 = 0.

>>> e = Series.exp_t(3)
>>> e.moments(), str(e)
([Poly('1'), Poly('1'), Poly('1'), Poly('1')], '1 + (1)*t^1 + (1/2)*t^2 + (1/6)*t^3')
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from math import comb, factorial, lcm

from .errors import (DomainError, NegativePowerOfDeltaSeries, NotInvertible,
                     OrderExceeded, OrderMismatch)
from .poly import Poly, rational, rationals


def _ring(values) -> tuple:
    """All values as ``Fraction`` if all are rational, else as ``Poly``."""
    q = rationals(values)
    return tuple(map(Poly.coerce, values)) if q is None else tuple(q)


# -- kernels: on ints and int-coefficient Poly values (a scaled series) or
# Fraction and Poly values alike; a weight multiplies the first factor, which
# usually has fewer terms.


def _denominator(ms) -> int:
    """The lcm of every coefficient denominator of rational or ``Poly`` values."""
    return lcm(*(c.denominator for q in ms
                 for c in (q.terms.values() if type(q) is Poly else (q,))))


def _lift(ms, d: int, e: int = 1) -> list:
    """e d^k M_k for moments whose coefficient denominators divide e d^k:
    an int for a rational M_k, a ``Poly`` with int coefficients for a
    ``Poly`` M_k."""
    out = []
    for k, q in enumerate(ms):
        s = e * d ** k
        out.append(Poly({m: c.numerator * (s // c.denominator) for m, c in q.terms.items()})
                   if type(q) is Poly else q.numerator * (s // q.denominator))
    return out


def convolve(a, b) -> list:
    """The moments of a product, c_n = sum_k C(n,k) a_k b_{n-k} for
    n < len(a)."""
    n = len(a) - 1
    va, vb = (next((k for k, c in enumerate(s) if c), n + 1) for s in (a, b))
    return [0] * min(va + vb, n + 1) + [
        sum(comb(m, k) * a[k] * b[m - k] for k in range(va, m - vb + 1) if a[k] and b[m - k])
        for m in range(va + vb, n + 1)]


def miller(a, r, q=1, log=False) -> list:
    """J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) in moment
    coordinates: for a_0 = 1, X_0 = 1 and
    X_m = sum_{k=1..m} (r C(m-1,k-1) - q C(m-1,k)) a_k X_{m-k} is f^(r/q);
    (r, q) = (1, 0) on a delta series is exp f.  With ``log``, X_0 = 0 and
    a_m is added to X_m: (r, q) = (0, 1) is log f.  A ``Poly`` r keeps the
    two sums apart, so it costs one ``Poly`` product per m, not per term."""
    split, x = type(r) is Poly, [0 if log else 1]
    for m in range(1, len(a)):
        row, s1, s2 = [comb(m - 1, k) for k in range(m + 1)], 0, 0
        for k in range(1, m + 1):
            if a[k] and x[m - k]:
                if split:
                    term = a[k] * x[m - k]
                    s1, s2 = s1 + term * row[k - 1], s2 + term * row[k]
                elif w := r * row[k - 1] - q * row[k]:
                    s1 += w * a[k] * x[m - k]
        xm = r * s1 - q * s2 if split else s1
        x.append(a[m] + xm if log else xm)
    return x


def _scaled_down(xs, d: int, e: int = 1) -> "Series":
    """The series with moments x_k / (e d^k): one ``Fraction`` per int x_k,
    one ``Fraction`` product per coefficient of a ``Poly`` x_k, so no int
    coefficient leaves the module."""
    scales = [e * d ** k for k in range(len(xs))]
    return Series.from_moments([Fraction(x, s) if type(x) is int else x * Fraction(1, s)
                                for x, s in zip(xs, scales)])


class Series:
    """A truncated power series held by its moments M_k = k! c_k: all
    ``Fraction`` when all are rational, else all ``Poly``, so equal series
    have equal moments; ``egf_moment`` is a ``Poly`` either way."""

    __slots__ = ("order", "_m")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = _ring(tuple(coeffs))
        if len(coeffs) != order + 1:
            raise ValueError(f"need exactly {order + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_m", tuple(c * factorial(k) for k, c in enumerate(coeffs)))

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @staticmethod
    def make(coeffs, order: int) -> "Series":
        """Series with the given leading coefficients, zero-padded to order."""
        coeffs = list(coeffs)
        if len(coeffs) > order + 1:
            raise ValueError("more coefficients than the order admits")
        return Series(order, coeffs + [0] * (order + 1 - len(coeffs)))

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
        """The exponential series: every moment is 1."""
        return Series.from_moments([1] * (order + 1))

    @staticmethod
    def expm1_t(order: int) -> "Series":
        """e^t - 1, the canonical delta series with unit linear term."""
        return Series.exp_t(order) - Series.one(order)

    @staticmethod
    def from_moments(moments) -> "Series":
        """Series whose k-th EGF moment is moments[k]; order = len - 1."""
        moments = _ring(tuple(moments))
        if not moments:
            raise ValueError("order must be nonnegative")
        s = object.__new__(Series)
        object.__setattr__(s, "order", len(moments) - 1)
        object.__setattr__(s, "_m", moments)
        return s

    def is_unital(self) -> bool:
        return self._m[0] == 1

    def is_delta(self) -> bool:
        return not self._m[0]

    def _same_order(self, other: "Series"):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def _scaled(self):
        """(d, d^k M_k), d the lcm of every coefficient denominator: ints on
        the rational ring, int-coefficient ``Poly`` values on the other."""
        d = _denominator(self._m)
        return d, _lift(self._m, d)

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._same_order(other)
        return Series.from_moments([a + b for a, b in zip(self._m, other._m)])

    def __sub__(self, other):
        return self + (-other) if isinstance(other, Series) else NotImplemented

    def __neg__(self):
        return Series.from_moments([-a for a in self._m])

    def __mul__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._same_order(other)
        a, b = self._m, other._m
        if sum(len(q) for q in b if type(q) is Poly) < sum(len(q) for q in a if type(q) is Poly):
            a, b = b, a
        d, ea, eb = _denominator(a + b), _denominator(a[:1]), _denominator(b[:1])
        return _scaled_down(convolve(_lift(a, d, ea), _lift(b, d, eb)), d, ea * eb)

    def scalar_mul(self, c) -> "Series":
        return Series.from_moments([c * a for a in self._m])

    def pow_int(self, p) -> "Series":
        """f^p.  For unital f, p may be any integer, rational or ``Poly``:
        :func:`miller` in one O(N^2) pass on q^(k-1) a_k, p lifted to r/q on
        both rings (r an int, or a ``Poly`` with int coefficients); a ``Poly``
        r on a rational f runs on ints that pack the powers of r (Kronecker).
        Otherwise p must be a nonnegative integer: repeated squaring."""
        if not self.is_unital():
            if not isinstance(p, int):
                raise DomainError("non-integer power needs constant term 1")
            if p < 0:
                raise NegativePowerOfDeltaSeries("negative power needs constant term 1")
            result, base = Series.one(self.order), self
            while p:
                result, base, p = result * base if p & 1 else result, base * base, p >> 1
            return result
        c, (d, a) = rational(p), self._scaled()
        p = p if c is None else c
        q = _denominator([p])
        r = _lift([p], 1, q)[0]  # p = r/q: r an int, or a Poly with int coefficients
        if q != 1:
            a = a[:1] + [x * q ** k for k, x in enumerate(a[1:])]
        if type(r) is Poly and type(a[0]) is int:
            # Kronecker substitution: run with r = 2^b, b past the bit length
            # of the sum of |r-coefficients| of X_m (the recurrence on |a_k|
            # with -q bounds it); the base-2^b digits of X_m + h (1 + 2^b + ...),
            # h = 2^(b-1), are then the r-coefficients plus h
            b = max(miller([abs(x) for x in a], 1, -q)).bit_length() + 1
            h, out = 1 << (b - 1), []
            powers = list(accumulate([r] * (len(a) - 1), Poly.__mul__, initial=Poly({(): 1})))
            for m, v in enumerate(miller(a, 1 << b, q)):
                v += h * sum(1 << (b * i) for i in range(m + 1))
                out.append(sum((powers[i] * ((v >> (b * i) & (2 * h - 1)) - h)
                                for i in range(m + 1)), Poly()))
            return _scaled_down(out, d * q)
        return _scaled_down(miller(a, r, q), d * q)

    def exp(self) -> "Series":
        """exp of a delta series."""
        if not self.is_delta():
            raise DomainError("exp requires constant term 0")
        d, a = self._scaled()
        return _scaled_down(miller(a, 1, 0), d)

    def log(self) -> "Series":
        """log of a unital series; inverse of :meth:`exp` up to truncation."""
        if not self.is_unital():
            raise DomainError("log requires constant term 1")
        d, a = self._scaled()
        return _scaled_down(miller(a, 0, 1, log=True), d)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)) for a delta inner series: sum_k G_k Q_k[n] / k!, the
        powers Q_k = h Q_{k-1} full products (never the Bell triangle's
        divided-power recurrence), every k! put into one denominator N!."""
        self._same_order(inner)
        if not inner.is_delta():
            raise DomainError("composition requires a delta inner series")
        n, (d, h), e = self.order, inner._scaled(), _denominator(self._m)
        g = _lift(self._m, 1, e)
        nf = factorial(n)
        out, power = [g[0] * nf] + [0] * n, [1] + [0] * n
        for k in range(1, n + 1):
            power = convolve(h, power)
            if g[k]:
                c = g[k] * (nf // factorial(k))
                for m in range(k, n + 1):
                    if power[m]:
                        out[m] += c * power[m]
        return _scaled_down(out, d, e * nf)

    def revert(self) -> "Series":
        """Compositional inverse of a delta series with invertible c_1: w,
        the inverse of k = f / c_1 (lifted to d^(j-1) K_j on both rings),
        solves sum_{j=1..m} K_j P[j][m] / j! = 0 for m >= 2, where the moments
        P[j][m] of w^j = w w^(j-1) fill one column at a time and read only
        w_1..w_{m-1}: O(N^3) products.  The division by m! is an exact ``//``,
        as P[j][m] / j! = B_{m,j}(w).  Then w_m is divided by d^(m-1) c_1^m."""
        if not self.is_delta():
            raise DomainError("reversion requires a delta series")
        if self.order < 1:
            raise NotInvertible("no linear coefficient at order 0")
        c1 = rational(self._m[1])
        if not c1:
            raise NotInvertible("linear coefficient has no reciprocal")
        n, k = self.order, [m / c1 for m in self._m]
        k = [0] + _lift(k[1:], d := _denominator(k))
        w = [0, 1] + [0] * (n - 1)
        powers = [None, w] + [[0] * (n + 1) for _ in range(n - 1)]
        for m in range(2, n + 1):
            row, fm, acc = [comb(m, i) for i in range(m + 1)], factorial(m), 0
            for j in range(2, m + 1):
                prev, entry = powers[j - 1], 0
                for i in range(1, m - j + 2):
                    if w[i] and prev[m - i]:
                        entry += row[i] * w[i] * prev[m - i]
                powers[j][m] = entry
                if k[j] and entry:
                    acc += k[j] * (fm // factorial(j)) * entry
            w[m] = -acc // fm
        return Series.from_moments([x * d / (d * c1) ** m for m, x in enumerate(w)])

    def derivative(self) -> "Series":
        """Formal d/dt, a shift of the moments; the order drops by one."""
        return Series.from_moments(self._m[1:] or (0,))

    def mul_t(self) -> "Series":
        """Multiply by t at fixed order (the top coefficient falls off)."""
        return Series.from_moments([0] + [a * k for k, a in enumerate(self._m[:-1], 1)])

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} to {order}")
        return Series.from_moments(self._m[: order + 1])

    def egf_moment(self, k: int) -> Poly:
        """The k-th moment M_k = k! c_k."""
        if k < 0 or k > self.order:
            raise OrderExceeded(f"moment {k} outside order {self.order}")
        return Poly.coerce(self._m[k])

    def moments(self) -> list:
        return list(map(Poly.coerce, self._m))

    @property
    def coeffs(self) -> tuple:
        """The ordinary coefficients c_k = M_k / k!."""
        return tuple(m * Fraction(1, factorial(k)) for k, m in enumerate(self._m))

    def __eq__(self, other):
        return self._m == other._m if isinstance(other, Series) else NotImplemented

    def __hash__(self):
        return hash(self._m)

    def __str__(self):
        parts = [str(c) if k == 0 else f"({c})*t^{k}"
                 for k, c in enumerate(self.coeffs) if c]
        return " + ".join(parts) if parts else "0"

    def __repr__(self):
        return f"Series(order={self.order}, {self})"

    def to_json(self):
        return {"order": self.order,
                "coeffs": [Poly.coerce(c).to_json() for c in self.coeffs]}

    @staticmethod
    def from_json(data) -> "Series":
        return Series(data["order"], [Poly.from_json(c) for c in data["coeffs"]])
