"""Constructors for auxiliary umbrae.

Every constructor here materializes a *fresh* atom: moments come from the
closed combinatorial form and the generating function from independent
series arithmetic, and registration verifies the two against each other
coefficient by coefficient.  Materializing severs correlation with the
source umbrae on purpose -- recursions that mix a constructed umbra with a
clone of its source rely on exactly that.

Point-multiple moments use the falling-factorial/Bell-polynomial expansion

    E[(L.a)^k] = sum_{i<=k} L_i * B_{k,i}(a_1, a_2, ...)

where L_i is (n)_i for an integer multiplier, the falling-factorial
polynomial for an indeterminate one, and E[(b)_i] (expanded through signed
Stirling numbers) for an umbral one.  The same formula with a negative
integer is the binomial series of [f(t)]^{-n}, so inverse point multiples
need no separate code path.  The Bell umbra (the partition umbra of u),
partition and composition umbrae weight the same sum,
:func:`umbral.combinatorics.bell_transform`; each Stirling-type moment
reads one row through :func:`umbral.combinatorics.stirling_sum`.
"""

from __future__ import annotations

from fractions import Fraction

from .combinatorics import bell_transform, stirling_sum
from .core import Atom, Workspace
from .errors import (
    NonUnitLinearMoment,
    OrderExceeded,
    UndeclaredIndeterminate,
    ZeroMomentReciprocal,
)
from .poly import Poly, rational
from .series import Series


# -- falling factorials ------------------------------------------------------


def falling_factorials(value, n: int) -> list:
    """[(value)_0, ..., (value)_n], where (value)_i = value (value-1) ...
    (value-i+1), by one running product in the value's own type: ints for
    an integer, Fractions for a Fraction, Polys for a Poly."""
    out = [value ** 0]
    for j in range(n):
        out.append(out[-1] * (value - j))
    return out


def _scale_arg(ws: Workspace, scale):
    """Normalize a scale argument (int, Fraction, indeterminate name, Poly)
    to a Poly, checking indeterminate declarations."""
    if isinstance(scale, str):
        return ws.var(scale)
    p = Poly.coerce(scale)
    for v in p.variables():
        if v not in ws.indeterminates:
            raise UndeclaredIndeterminate(f"indeterminate {v!r} not declared")
    return p


def _scale_name(scale) -> str:
    s = str(scale)
    return s if s.isalnum() else f"({s})"


def wrap_name(name: str) -> str:
    """An atom name as an operand: parenthesized when it holds a space or an
    operator of the grammar (+ - * ^), bare otherwise.  The one rule for
    naming constructs here and for rendering atoms in :mod:`umbral.cli`."""
    if any(ch in name for ch in " +-*^"):
        return f"({name})"
    return name


# -- point product -------------------------------------------------------------


def dot(ws: Workspace, left, alpha: Atom) -> Atom:
    """The point multiple left.alpha.

    ``left`` may be an integer (negative means the inverse multiple), an
    indeterminate name or Poly, or an umbra.  Moments follow the
    falling-factorial Bell expansion.  The generating function is computed
    independently of them: f^p for a scalar multiplier p (an integer or a
    Poly, by :meth:`Series.pow_int`), and g(log f) for an umbra with
    generating function g.
    """
    if isinstance(left, Atom):
        weights = [stirling_sum("first_signed", i, left.moments) for i in range(ws.order + 1)]
        return ws._register(f"{wrap_name(left.name)}.{wrap_name(alpha.name)}",
                            bell_transform(weights, alpha.moments[1:], ws.order),
                            left.egf.compose(alpha.egf.log()))
    if isinstance(left, int):
        return _scalar_multiple(ws, left, alpha, f"{left}.{wrap_name(alpha.name)}")
    p = _scale_arg(ws, left)
    return _scalar_multiple(ws, p, alpha, f"{_scale_name(p)}.{wrap_name(alpha.name)}")


def _scalar_multiple(ws: Workspace, p, alpha: Atom, name: str) -> Atom:
    """p.alpha for an integer or Poly p: moments sum_i (p)_i B_{k,i}(a),
    generating function f^p."""
    weights = falling_factorials(p, ws.order)
    return ws._register(name, bell_transform(weights, alpha.moments[1:], ws.order),
                        alpha.egf.pow_int(p))


# -- point power ----------------------------------------------------------------


def point_power(ws: Workspace, alpha: Atom, n: int) -> Atom:
    """The umbra whose k-th moment is a_k^n (componentwise moment power).
    No series route differs from the moment formula, so registration
    compares the sequence with itself."""
    if n >= 0:
        moments = [m ** n for m in alpha.moments]
    else:
        moments = []
        for k, m in enumerate(alpha.moments):
            q = rational(m)
            if not q:
                raise ZeroMomentReciprocal(
                    f"moment {k} of {alpha.name} has no reciprocal")
            moments.append(Fraction(q) ** n)
    return ws._register(f"{wrap_name(alpha.name)}^.{n}", moments,
                        Series.from_moments(moments))


# -- inverse ----------------------------------------------------------------------


def inverse_umbra(ws: Workspace, alpha: Atom) -> Atom:
    """The additive inverse: alpha + inverse(alpha) is similar to the
    augmentation, so the generating function is 1/f.  It is the point
    multiple (-1).alpha, so its moments come from the same Bell expansion."""
    return _scalar_multiple(ws, -1, alpha, f"inv({alpha.name})")


# -- Bell umbrae ---------------------------------------------------------------------


def _partition(ws: Workspace, alpha: Atom, c, name: str) -> Atom:
    """The c-scaled partition umbra of alpha: moments sum_k c^k B_{n,k}(a),
    generating function exp(c (f - 1))."""
    n = ws.order
    weights = [c ** i for i in range(n + 1)]
    egf = (alpha.egf - Series.one(n)).scalar_mul(c).exp()
    return ws._register(name, bell_transform(weights, alpha.moments[1:], n), egf)


def bell_umbra(ws: Workspace, scale=None) -> Atom:
    """The Bell scalar umbra, the partition umbra of u (moments = Bell
    numbers sum_k S(n,k), since S(n,k) = B_{n,k}(1, 1, ...); all
    falling-factorial moments 1), or its scaled polynomial form with moments
    sum_k S(n,k) c^k and generating function exp(c (e^t - 1))."""
    if scale is None:
        return _partition(ws, ws.u, 1, "bell")
    c = _scale_arg(ws, scale)
    return _partition(ws, ws.u, c, f"bell({c})")


def partition_umbra(ws: Workspace, alpha: Atom, scale=None) -> Atom:
    """The partition umbra of alpha: moments are the complete Bell
    (partition) polynomials of alpha's moments and the generating function
    is exp(f - 1); the scaled form weights B_{n,k} by c^k under
    exp(c (f - 1)).  :func:`bell_umbra` is this umbra of u."""
    if scale is None:
        return _partition(ws, alpha, 1, f"part({alpha.name})")
    c = _scale_arg(ws, scale)
    return _partition(ws, alpha, c, f"{_scale_name(c)}.part({alpha.name})")


def composition_umbra(ws: Workspace, gamma: Atom, alpha: Atom) -> Atom:
    """The composition umbra of gamma and alpha: moments
    sum_k g_k B_{n,k}(a), generating function g(f - 1)."""
    n = ws.order
    egf = gamma.egf.compose(alpha.egf - Series.one(n))
    return ws._register(f"comp({gamma.name},{alpha.name})",
                        bell_transform(gamma.moments, alpha.moments[1:], n), egf)


# -- the shifted-moment umbra -----------------------------------------------------------


def a1_reciprocal(alpha: Atom) -> Fraction:
    """1/a_1, or ``NonUnitLinearMoment`` when the first moment of alpha is
    zero, carries an indeterminate or lies beyond the order."""
    a1 = rational(alpha.moments[1]) if len(alpha.moments) > 1 else None
    if not a1:
        raise NonUnitLinearMoment(
            f"first moment of {alpha.name} has no reciprocal")
    return 1 / Fraction(a1)


def alpha_bar(ws: Workspace, alpha: Atom) -> Atom:
    """The umbra encoding (f(t) - 1)/(a_1 t): its n-th moment is
    a_{n+1} / (a_1 (n+1)).

    The generating function is read off alpha's series, not the moments:
    (f - 1)/(a_1 t) has coefficient c_{n+1}/a_1 at t^n.  The top moment
    would need a moment of alpha beyond the truncation order; it is fixed
    to zero by convention and nothing at order <= N consumes it (the
    generating-function identity f - 1 = a_1 t e^{bar t} only reads
    coefficients 0..N-1 of the result).
    """
    inv_a1 = a1_reciprocal(alpha)
    moments = [1] + [m * (inv_a1 * Fraction(1, k))
                     for k, m in enumerate(alpha.moments[2:], 2)] + [0]
    egf = Series(ws.order, [c * inv_a1 for c in alpha.egf.coeffs[1:]] + [0])
    return ws._register(f"bar({alpha.name})", moments, egf)


# -- exponential umbral polynomials ------------------------------------------------------


def exponential_umbral_moment(alpha: Atom, n: int) -> Poly:
    """sum_k S(n,k) a_k, one Stirling row: the n-th moment of the
    randomized-Poisson umbra built on alpha."""
    if n >= len(alpha.moments):
        raise OrderExceeded(f"moment {n} beyond order {len(alpha.moments) - 1}")
    return Poly.coerce(stirling_sum("second", n, alpha.moments))


# -- scalar multiple --------------------------------------------------------------------


def scale_atom(ws: Workspace, c, alpha: Atom) -> Atom:
    """The umbra c*alpha with moments c^k a_k; its generating function is
    alpha's composed with ct, the substitution t -> ct."""
    powers = [c ** k for k in range(ws.order + 1)]
    return ws._register(f"({c})*{alpha.name}", [w * m for w, m in zip(powers, alpha.moments)],
                        alpha.egf.compose(Series.make([0, c], ws.order)))
