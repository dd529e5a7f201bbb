"""Truncated power series with exact rational or polynomial coefficients.

A ``Series`` of order N is sum_k c_k t^k, held by its EGF moments M_k = k! c_k
(see :class:`Series`).  Every kernel is a recurrence on ints with integer
binomial weights: :func:`convolve` for products (folded over every factor of
:meth:`Series.product` at once, its rational factors first, whose product's
exact norms then bound the packed run), :func:`miller` for exp, log and powers,
:func:`compose` and :func:`revert` on full products h^k (one exact ``//`` per
reversion step); only :func:`convolve` skips terms, a sparse factor's
zeros.  A kernel lifts its operands to d^k M_k over one
denominator d, one int list (plane) per monomial (:func:`_lift`), packed
into one int per moment by Kronecker substitution when a monomial carries
an indeterminate (:func:`_run`); each result moment is unpacked once, by
halves (:func:`_unpack`).  Every kernel holds its result as a lift (d,
planes x, e), M_k = x_k / (e d^k), and a series of moments keeps the first
lift taken of it at e = 1: the next kernel reads it, registration compares
it on ints (:meth:`Series.first_mismatch`), and a moment is scaled back
once, on first read, to an ``int`` unless a denominator is left.
The constructor takes ordinary coefficients, and ``coeffs``, ``str`` and JSON
give them back.  Binary operations demand equal orders.  A series is
*unital* when c_0 = 1 and *delta* when c_0 = 0.

>>> e = Series.exp_t(3)
>>> e.moments(), str(e)
([1, 1, 1, 1], '1 + (1)*t^1 + (1/2)*t^2 + (1/6)*t^3')
>>> (e * Series.make([1, Poly.var("x")], 3)).moments()
[Poly('1'), Poly('1 + x'), Poly('1 + 2*x'), Poly('1 + 3*x')]
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from itertools import accumulate, product
from math import comb, factorial, lcm, prod
from operator import add, mul

from .errors import (DomainError, NegativePowerOfDeltaSeries, NotInvertible,
                     OrderExceeded, OrderMismatch)
from .poly import Poly, rational, rationals


def _ring(values) -> tuple:
    """All values as rationals if all are rational, else as ``Poly``: the one
    rule for the moments of a series and of an atom."""
    q = rationals(values)
    return tuple(map(Poly.coerce, values)) if q is None else tuple(q)


# -- kernels: recurrences on ints, lifted rational moments or the Kronecker
# images of lifted Poly moments (see _run); a weight multiplies the first
# factor, which is usually the smaller.  Each kernel's docstring proves the
# digit bounds that _run needs: a majorant of the 1-norm (sum of |c|) and of
# the degree in each indeterminate of every result moment.


def convolve(a, b) -> list:
    """The moments of a product, c_n = sum_k C(n,k) a_k b_{n-k} for
    n < len(a), summed over the nonzero a_k with n - k at least b's
    valuation, so a sparse factor costs less.  Bounds: the weights are
    nonnegative and the 1-norm is submultiplicative, so ``convolve`` on
    1-norms bounds each 1-norm; c_n has degree at most max_{j+k<=n}
    (deg a_j + deg b_k)."""
    n, ka = len(a) - 1, [k for k, c in enumerate(a) if c]
    vb = next((k for k, c in enumerate(b) if c), n + 1)
    out = [0] * min((ka[0] if ka else n + 1) + vb, n + 1)
    for m in range(len(out), n + 1):
        s = 0
        for k in ka:
            if k > m - vb:
                break
            s += comb(m, k) * a[k] * b[m - k]
        out.append(s)
    return out


def miller(a, r, q=1, log=False) -> list:
    """J.C.P. Miller's power recurrence (Knuth, TAOCP vol. 2, 4.7) in moment
    coordinates: for a_0 = 1, X_0 = 1 and
    X_m = sum_{k=1..m} (r C(m-1,k-1) - q C(m-1,k)) a_k X_{m-k} is f^(r/q);
    (r, q) = (1, 0) on a delta series is exp f.  With ``log``, X_0 = 0 and
    a_m is added to X_m: (r, q) = (0, 1) is log f.  Bounds, for q >= 0:
    a weight has 1-norm at most |r| C(m-1,k-1) + q C(m-1,k), so by
    induction on m ``miller`` on |a_k| and |r| with -q bounds the 1-norm of
    X_m; X_m is a sum of products r^i a_(k_1) ... a_(k_j), i <= j and
    k_1 + ... + k_j = m, k_i >= 1, so its degree is at most
    :func:`_slope` (deg a, m) + m deg r."""
    x = [0 if log else 1]
    for m in range(1, len(a)):
        row, s = [comb(m - 1, k) for k in range(m + 1)], 0
        for k in range(1, m + 1):
            s += (r * row[k - 1] - q * row[k]) * a[k] * x[m - k]
        x.append(a[m] + s if log else s)
    return x


def compose(g, h) -> list:
    """N! sum_k g_k H_k[m] / k!, the moments of N! g(h) for a delta h,
    N = len(g) - 1: the powers H_k = h H_{k-1} are full products (never the
    Bell triangle's divided-power recurrence).  Bounds: every weight is
    nonnegative, so ``compose`` on 1-norms bounds each 1-norm; H_k[m] is a
    sum of products h_(k_1) ... h_(k_k) with k_1 + ... + k_k = m, so moment
    m has degree at most max deg g + :func:`_slope` (deg h, N)."""
    n = len(g) - 1
    nf = factorial(n)
    out, power = [g[0] * nf] + [0] * n, [1] + [0] * n
    for k in range(1, n + 1):
        power = convolve(h, power)
        c = g[k] * (nf // factorial(k))
        for m in range(k, n + 1):
            out[m] += c * power[m]
    return out


def revert(k) -> list:
    """The moments w of the compositional inverse of a series with moments
    K_0 = 0, K_1 = 1: w_1 = 1 and sum_{j=1..m} K_j P[j][m] / j! = 0 for
    m >= 2, where the moments P[j][m] of w^j = w w^(j-1) fill one column at
    a time and read only w_1..w_{m-1}: O(N^3) products.  The division by m!
    is exact, as P[j][m] / j! = B_{m,j}(w) has integer coefficients in the
    w's.  Bounds: w_m = -sum_{j>=2} K_j P[j][m] / j! and P has nonnegative
    weights, so by induction on m the (nonnegative) reversion w' of the
    majorant t - sum_{j>=2} |K_j| t^j, ``revert`` on 0, 1, -|K_2|, -|K_3|,
    ..., bounds the 1-norm of w_m.  w_m is a sum of products of K_j, j >= 2,
    with sum (j - 1) = m - 1, so its degree is at most :func:`_slope` at
    m - 1 of deg K_1, deg K_2, ... (K_j at index j - 1)."""
    n = len(k) - 1
    w = [0, 1] + [0] * (n - 1)
    powers = [None, w] + [[0] * (n + 1) for _ in range(n - 1)]
    for m in range(2, n + 1):
        row, fm, acc = [comb(m, i) for i in range(m + 1)], factorial(m), 0
        for j in range(2, m + 1):
            prev, entry = powers[j - 1], 0
            for i in range(1, m - j + 2):
                entry += row[i] * w[i] * prev[m - i]
            powers[j][m] = entry
            acc += k[j] * (fm // factorial(j)) * entry
        w[m] = -acc // fm
    return w


# -- lifting, packing and scaling back


def _planes(ms) -> dict:
    """The moments as one rational moment list per monomial, so moment k is
    the sum of plane[k] times its monomial: the constant plane always, and
    alone for rational moments (a ``Series`` never mixes the two)."""
    if type(ms[0]) is not Poly:
        return {(): ms}
    planes: dict = {(): [0] * len(ms)}
    for k, q in enumerate(ms):
        for m, c in q.terms.items():
            planes.setdefault(m, [0] * len(ms))[k] = c
    return planes


def _denominator(*lists) -> int:
    """The lcm of the denominators of every rational in the lists."""
    return lcm(*(q.denominator for ms in lists for q in ms))


def _lift(planes, d: int, e: int = 1) -> dict:
    """e d^k M_k in every plane, an int when the denominator of M_k divides
    e d^k."""
    return {m: [q.numerator * (e * d ** k // q.denominator) for k, q in enumerate(p)]
            for m, p in planes.items()}


def _degrees(planes, v: str) -> list:
    """The degree in v of every moment of lifted planes (0 for a zero moment)."""
    exps = [dict(m).get(v, 0) for m in planes]
    return [max((i for i, c in zip(exps, col) if c), default=0)
            for col in zip(*planes.values())]


def _slope(degrees, n: int) -> int:
    """floor(n max_k deg_k / k) over k >= 1: the degree bound of a product
    of moments whose indices k_i >= 1 sum to at most n, as
    sum deg_(k_i) <= sum k_i max_k deg_k / k."""
    return max((n * i // k for k, i in enumerate(degrees) if k), default=0)


def _unpack(xs, b: int, n: int):
    """The n balanced base-2^b digits of each x in xs, each in [-2^(b-1), 2^(b-1)),
    lowest first, one list per x.  With h = 2^(b-1), x + h (2^(bn) - 1) / (2^b - 1)
    has x's digits plus h, no borrow; it splits by halves down to blocks of 16
    digits, so a digit is read off its block, not off the whole of x."""
    h, mask = 1 << b - 1, (1 << b) - 1
    offset = ((1 << b * n) - 1) // mask << b - 1

    def digits(u: int, k: int) -> list:
        if k <= 16:
            return [(u >> b * j & mask) - h for j in range(k)]
        m = k // 2
        return digits(u & (1 << b * m) - 1, m) + digits(u >> b * m, k - m)
    for x in xs:
        yield digits(x + offset, n)


def _run(kernel, groups, degree, majorant=None) -> dict:
    """The constant plane and the other nonzero planes of x = kernel(*args),
    one argument, a list of ints, per group of lifted planes.

    When every group is rational, its constant plane is the argument.
    Otherwise each moment packs into one int by Kronecker substitution: the
    indeterminates v_1 < v_2 < ... get mixed-radix slots of R_i = D_i + 1
    digits, v_i -> 2^(b s_i) with s_i = R_1 ... R_(i-1).  That map is a ring
    homomorphism from Z[v_1, v_2, ...] into Z, and it takes an exact
    quotient by an int to the quotient of the images, so the kernel on the
    images gives the images of its results, whatever the size of the values
    in between.  A result is read back from its image when each of its
    coefficients c has |c| < 2^(b-1) and its degree in each v_i is at most
    D_i.  So ``majorant`` (the kernel itself by default) on the 1-norms of
    the arguments' moments must bound the 1-norm of every result moment,
    and ``degree``, given each group's degree in v_i, must bound its degree
    in v_i; each kernel's docstring proves both."""
    variables = sorted({v for g in groups for m in g for v, _ in m})
    if not variables:
        return {(): kernel(*(g[()] for g in groups))}
    norms = ([sum(map(abs, c)) for c in zip(*g.values())] for g in groups)
    b = max((majorant or kernel)(*norms)).bit_length() + 1
    radix = [degree(*(_degrees(g, v) for g in groups)) + 1 for v in variables]
    slot = dict(zip(variables, accumulate(radix[:-1], mul, initial=1)))
    args = []
    for g in groups:
        shifts = [b * sum(i * slot[v] for v, i in m) for m in g]
        args.append([sum(c << s for c, s in zip(col, shifts) if c) for col in zip(*g.values())])
    monomials = [tuple((v, i) for v, i in zip(variables, reversed(es)) if i)
                 for es in product(*map(range, reversed(radix)))]
    xs = _unpack(kernel(*args), b, len(monomials))
    return {m: list(p) for m, p in zip(monomials, zip(*xs)) if not m or any(p)}


def _quotient(x: int, s):
    """x / s: x when s == 1, else a ``Fraction``, or its numerator if integral."""
    if s == 1:
        return x
    q = Fraction(x, s)
    return q.numerator if q.denominator == 1 else q


def _matches(m, planes, k: int, s: int) -> bool:
    """Whether m == x_k / s for planes x, by cross-multiplication: each term q
    of m has x_k q.denominator == q.numerator s, and no other x_k is nonzero."""
    row = {c: p[k] for c, p in planes.items() if p[k]}
    terms = m.terms if type(m) is Poly else {(): m} if m else {}
    return row.keys() == terms.keys() and all(
        row[c] * q.denominator == q.numerator * s for c, q in terms.items())


def _scaled_down(d: int, planes: dict, e: int) -> tuple:
    """The moments x_k / (e d^k) of a lift (see :func:`_held`), in the
    ``Series`` rule: one :func:`_quotient` per nonzero x."""
    scales = [e * d ** k for k in range(len(planes[()]))]
    if len(planes) == 1:
        return tuple(map(_quotient, planes[()], scales))
    return tuple(Poly({m: _quotient(c, s) for m, c in zip(planes, col) if c})
                 for col, s in zip(zip(*planes.values()), scales))


def _held(d: int, planes: dict, e: int = 1) -> "Series":
    """The series M_k = x_k / (e d^k) of planes x, held as that lift (d, planes,
    e): e d^k is a common denominator of M_k, not always the least."""
    s = object.__new__(Series)
    object.__setattr__(s, "order", len(planes[()]) - 1)
    object.__setattr__(s, "_lift", (d, planes, e))
    return s


class Series:
    """A truncated power series by its moments M_k = k! c_k: all ``int`` or
    ``Fraction`` when all are rational, else all ``Poly``, so equal series
    have equal moments.  A kernel's series holds its lift (d, planes of e d^k
    M_k, e), which kernels and :meth:`first_mismatch` read, and so does its sum
    with an int constant c (x_0 + c e); M_k is built on first read."""

    __slots__ = ("order", "_m", "_lift")

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise ValueError("order must be nonnegative")
        coeffs = tuple(coeffs)
        if len(coeffs) != order + 1:
            raise ValueError(f"need exactly {order + 1} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "_m", _ring([c * factorial(k) for k, c in enumerate(coeffs)]))
        object.__setattr__(self, "_lift", None)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    def __getattr__(self, name):  # only an unset slot: a held lift's moments, first read
        if name == "_m":
            object.__setattr__(self, "_m", _scaled_down(*self._lift))
        return object.__getattribute__(self, name)

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
        object.__setattr__(s, "_lift", None)
        return s

    def is_unital(self) -> bool:
        return self.first_mismatch([1]) is None

    def is_delta(self) -> bool:
        return self.first_mismatch([0]) is None

    def _same_order(self, other: "Series"):
        if self.order != other.order:
            raise OrderMismatch(f"orders differ: {self.order} != {other.order}")

    def _scaled(self):
        """(d, the planes of e d^k M_k, e): the lift the series holds (see
        :func:`_held`) when its e is 1, else d the lcm of every denominator and
        e that of M_0, so e is 1 for a unital or delta series: kept if so."""
        if self._lift and self._lift[2] == 1:
            return self._lift
        planes = _planes(self._m)
        d, e = _denominator(*planes.values()), _denominator(*(p[:1] for p in planes.values()))
        lift = d, _lift(planes, d, e), e
        if e == 1 and self._lift is None:
            object.__setattr__(self, "_lift", lift)
        return lift

    def __add__(self, other):
        if not isinstance(other, Series):
            return NotImplemented
        self._same_order(other)
        f, c = (other, self) if other._lift else (self, other)
        if f._lift and c._lift is None and type(c._m[0]) is int and not any(c._m[1:]):
            d, planes, e = f._lift
            return _held(d, {**planes, (): [planes[()][0] + c._m[0] * e, *planes[()][1:]]}, e)
        return Series.from_moments([a + b for a, b in zip(self._m, other._m)])

    def __sub__(self, other):
        return self + (-other) if isinstance(other, Series) else NotImplemented

    def __neg__(self):
        return Series.from_moments([-a for a in self._m])

    def __mul__(self, other):
        return Series.product([self, other]) if isinstance(other, Series) else NotImplemented

    @staticmethod
    def product(factors) -> "Series":
        """The product of one or more series of one order in one :func:`_run`:
        :func:`convolve` folded over the packed lifts e_i d^k M_k of factor i,
        each read at its own (d_i, e_i) (the lift it holds, else
        :meth:`_scaled`) and brought to d = lcm d_i, the result held at
        (d, prod e_i); rational factors beside one with an indeterminate are
        multiplied first, unpacked.  Bounds: the fold on 1-norms bounds each
        1-norm, on their product's exact norms too (|r s| <= |r| |s|).  Let
        A, B be nondecreasing with A_j >= deg a_j, B_k >= deg b_k (prefix
        maxima).  By ``convolve``'s bound c = a b has deg c_m <= max_{j<=m}
        (A_j + B_(m-j)) = C_m, nondecreasing in m like each A_j + B_(m-j); so
        C, folded factor by factor, bounds every degree of the product by its
        last entry.  B = 0 gives C = A: a factor of degree 0 is skipped."""
        first, *rest = factors = list(factors)
        for f in rest:
            first._same_order(f)
        lifts = [f._lift or f._scaled() for f in factors]  # at (d_i, e_i)
        rational = [f for f, (_, g, _) in zip(factors, lifts) if len(g) == 1]
        if 1 < len(rational) < len(factors):
            lifts = [Series.product(rational)._lift] + [l for l in lifts if len(l[1]) > 1]
        ds, planes, es = zip(*lifts)
        d = lcm(*ds)

        def degree(*degrees):  # the last factor gives C_N alone
            *bs, last = [list(accumulate(g, max)) for g in degrees if any(g)] or [[0]]
            c = reduce(lambda c, b: [max(map(add, c[:m + 1], b[m::-1])) for m in range(len(b))],
                       bs[1:], bs[0]) if bs else [0]
            return max(map(add, c, reversed(last)))
        lifts = [g if d == di else _lift(g, d // di) for di, g in zip(ds, planes)]
        # a lambda, so the module's convolve is read per call
        return _held(d, _run(lambda *xs: reduce(convolve, xs), lifts, degree), prod(es))

    def scalar_mul(self, c) -> "Series":
        return Series.from_moments([c * a for a in self._m])

    def pow_int(self, p) -> "Series":
        """f^p.  For unital f, p may be any integer, rational or ``Poly``:
        :func:`miller` in one O(N^2) pass on q^(k-1) a_k, p lifted to r/q
        (r an int, or a ``Poly`` with int coefficients that packs like a
        moment).  Otherwise p must be a nonnegative integer: the squares
        that p's bits select, multiplied in one :meth:`product`."""
        if not self.is_unital():
            if not isinstance(p, int):
                raise DomainError("non-integer power needs constant term 1")
            if p < 0:
                raise NegativePowerOfDeltaSeries("negative power needs constant term 1")
            squares = accumulate(range(p.bit_length() - 1), lambda f, _: f * f, initial=self)
            chosen = [f for i, f in enumerate(squares) if p >> i & 1]  # f^(2^i) for bit i
            return Series.product(chosen or [Series.one(self.order)])
        c, (d, a, _), n = rational(p), self._scaled(), self.order
        r = _planes([p if c is None else c])
        q = _denominator(*r.values())

        def weighted(a):  # q^(k-1) a_k
            return a[:1] + [x * q ** k for k, x in enumerate(a[1:])]
        return _held(d * q, _run(lambda a, r: miller(weighted(a), r[0], q), [a, _lift(r, 1, q)],
                                 lambda da, dr: _slope(da, n) + n * dr[0],
                                 majorant=lambda a, r: miller(weighted(a), r[0], -q)))

    def exp(self) -> "Series":
        """exp of a delta series."""
        if not self.is_delta():
            raise DomainError("exp requires constant term 0")
        (d, a, _), n = self._scaled(), self.order
        return _held(d, _run(lambda a: miller(a, 1, 0), [a], lambda da: _slope(da, n)))

    def log(self) -> "Series":
        """log of a unital series; inverse of :meth:`exp` up to truncation."""
        if not self.is_unital():
            raise DomainError("log requires constant term 1")
        (d, a, _), n = self._scaled(), self.order
        return _held(d, _run(lambda a: miller(a, 0, 1, log=True), [a], lambda da: _slope(da, n),
                             majorant=lambda a: miller(a, 0, -1, log=True)))

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)) for a delta inner series, by :func:`compose` on
        G_k = e M_k (e the lcm of self's denominators) and d^k H_k, every k!
        put into one denominator N!: the result is held at (d, e N!)."""
        self._same_order(inner)
        if not inner.is_delta():
            raise DomainError("composition requires a delta inner series")
        n, (d, h, _), g = self.order, inner._scaled(), _planes(self._m)
        e = _denominator(*g.values())
        return _held(d, _run(compose, [_lift(g, 1, e), h], lambda dg, dh: max(dg) + _slope(dh, n)),
                     e * factorial(n))

    def revert(self) -> "Series":
        """Compositional inverse of a delta series with invertible c_1 = p/q:
        :func:`revert` on k = f / c_1, lifted to d^(j-1) K_j, gives w_m with
        M_m = w_m / (d^(m-1) c_1^m) = d (s q)^m w_m / (d |p|)^m, s the sign of
        p: held as that lift over D = d |p|, so a held d stays positive."""
        if not self.is_delta():
            raise DomainError("reversion requires a delta series")
        if self.order < 1:
            raise NotInvertible("no linear coefficient at order 0")
        c1 = Fraction(rational(self._m[1]) or 0)
        if not c1:
            raise NotInvertible("linear coefficient has no reciprocal")
        n, k = self.order, _planes([m / c1 for m in self._m[1:]])
        d = _denominator(*k.values())
        k = {m: [0] + p for m, p in _lift(k, d).items()}
        planes = _run(revert, [k], lambda dk: _slope(dk[1:], n - 1),
                      majorant=lambda k: revert([0, 1] + [-c for c in k[2:]]))
        sq = c1.denominator if c1 > 0 else -c1.denominator
        return _held(d * abs(c1.numerator),
                     {m: [d * sq ** i * w for i, w in enumerate(p)] for m, p in planes.items()})

    def derivative(self) -> "Series":
        """Formal d/dt, a shift of the moments; the order drops by one."""
        return Series.from_moments(self._m[1:] or (0,))

    def truncate(self, order: int) -> "Series":
        """Held: the lift sliced to order + 1 moments, all-zero planes dropped."""
        if order > self.order:
            raise OrderExceeded(f"cannot extend order {self.order} to {order}")
        d, planes, e = self._lift or self._scaled()
        return _held(d, {m: p[:order + 1] for m, p in planes.items()
                         if not m or any(p[:order + 1])}, e)

    def egf_moment(self, k: int):
        """The k-th moment M_k = k! c_k."""
        if k < 0 or k > self.order:
            raise OrderExceeded(f"moment {k} outside order {self.order}")
        return self._m[k]

    def moments(self) -> list:
        return list(self._m)

    def first_mismatch(self, moments):
        """The first k < len(moments) with moments[k] != M_k, or None; a held
        lift is compared as it is (:func:`_matches`), and builds no moment."""
        if self._lift is None:
            return next((k for k, (m, a) in enumerate(zip(moments, self._m)) if m != a), None)
        d, planes, e = self._lift
        return next((k for k, m in enumerate(moments) if not _matches(m, planes, k, e * d ** k)),
                    None)

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
