"""The route map: one fault per kernel of either route, and the registering
constructors (rows) they run against.

Registration compares a row's moments, built by ``combinatorics`` and
``ops``, with its series, built by ``series``, so it must catch each fault
the row reaches.  A fault stands in for its target in every ``umbral``
module and class namespace that holds it, as ``perfbench/tracer.py``
installs its wrappers, and records when it changes a value; each build
starts from an empty Bell-triangle cache.
"""

import sys
from contextlib import contextmanager
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from typing import NamedTuple

import pytest

from umbral import combinatorics, core, inversion, ops, poisson, series
from umbral.poly import Poly
from umbral.prng import Stream
from umbral.series import Series

ORDER, SEED = 8, 33
RINGS = ("scalar", "x-carrying")
CAUGHT = (True, "CoherenceError")  # a cell's (fired, outcome) when the check bites


# -- faults: each maps a target's result and arguments to a wrong result, and
# calls fire() when it changes a value


def one_up(out, args, fire):
    fire()
    return out + 1


def entry_off(i, corrupt=one_up):
    """A list result with entry i corrupted (one up), if it has one."""
    return lambda out, args, fire: out if len(out) <= i else [
        *out[:i], corrupt(out[i], args, fire), *out[i + 1:]]


def term_off(out, args, fire):
    """``_kronecker``'s (pack, unpack), unpack's first coefficient one up."""
    pack, unpack = out
    first_off = entry_off(0, lambda term, a, f: (term[0], one_up(term[1], a, f)))
    return pack, lambda v: first_off(unpack(v), args, fire)


def answer_off(out, args, fire):
    """``_matches``' answer negated at k >= 1: is_delta and is_unital compare k = 0."""
    if not args[2]:
        return out
    fire()
    return not out


FAULTS = {
    **{f"Series.{name}": lambda out, args, fire: Series(  # the t^2 coefficient
        out.order, entry_off(2)(out.coeffs, args, fire))
       for name in ("pow_int", "exp", "log", "compose", "revert")},
    **dict.fromkeys(["series.convolve", "series.miller", "series.compose", "series.revert",
                     "ops.falling_factorials"], entry_off(2)),
    # the lowest digit of each nonzero value: a zero, such as log's M_0, stays
    # zero, so compose still takes the delta series
    "series._unpack": lambda out, args, fire: (
        entry_off(0)(digits, args, fire) if x else digits for x, digits in zip(args[0], out)),
    "series._quotient": one_up,
    "series._matches": answer_off,
    "combinatorics._comtet": entry_off(3, entry_off(2)),
    "combinatorics._kronecker": term_off,
    "combinatorics.bell_sums": lambda out, args, fire: (one_up(v, args, fire) for v in out),
    **dict.fromkeys(["combinatorics._over", "combinatorics.stirling_sum"], one_up),
}
_OWNERS = {"Series": Series, "series": series, "combinatorics": combinatorics, "ops": ops}


def _swap(pairs):
    new = {id(old): w for old, w in pairs}
    modules = [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "umbral"]
    for ns in modules + [v for m in modules for v in vars(m).values()
                         if isinstance(v, type) and v.__module__.startswith("umbral")]:
        for attr, v in list(vars(ns).items()):
            if id(v) in new:
                setattr(ns, attr, new[id(v)])


@contextmanager
def swapped(pairs):
    """Each (old, new): new wherever an ``umbral`` module or class holds old,
    then old again."""
    _swap(pairs)
    try:
        yield
    finally:
        _swap([(new, old) for old, new in pairs])


@contextmanager
def installed(faults, corrupting=False):
    """The named faults' targets wrapped; yields the set of the names called,
    or, ``corrupting``, of the faults that fired."""
    hits = set()

    def wrapped(name):
        owner, attr = name.split(".")
        fn = vars(_OWNERS[owner])[attr]

        def wrapper(*args, **kw):
            out = fn(*args, **kw)
            if corrupting:
                return FAULTS[name](out, args, lambda: hits.add(name))
            hits.add(name)
            return out
        return fn, wrapper
    combinatorics._bell_triangle_cached.cache_clear()
    try:
        with swapped(list(map(wrapped, faults))):
            yield hits
    finally:
        combinatorics._bell_triangle_cached.cache_clear()


def operands(ring: str):
    """A workspace, atoms a and g and a scale c, every drawn moment nonzero and
    rational or all carrying x (c = 3/2 or x), and a2: a with a_1 = 2."""
    ws, q = core.Workspace(ORDER, ("x",)), Stream(SEED).nonzero_rational
    if ring == "scalar":
        a, g, c = [q() for _ in range(ORDER)], [q() for _ in range(ORDER)], Fraction(3, 2)
    else:
        c = Poly.var("x")
        a, g = [q() + q() * c for _ in range(ORDER)], [q() * c for _ in range(ORDER)]
    a = ws.define("a", [1] + a)
    return SimpleNamespace(ws=ws, a=a, g=ws.define("g", [1] + g), c=c,
                           a2=ws.define("a2", [1, 2] + list(a.moments[2:])))


ROWS = {
    "3.a": lambda o: ops.dot(o.ws, 3, o.a),
    "-2.a": lambda o: ops.dot(o.ws, -2, o.a),
    "x.a": lambda o: ops.dot(o.ws, "x", o.a),
    "g.a": lambda o: ops.dot(o.ws, o.g, o.a),
    "inv(a)": lambda o: ops.inverse_umbra(o.ws, o.a),
    "bell": lambda o: ops.bell_umbra(o.ws),
    "bell(c)": lambda o: ops.bell_umbra(o.ws, o.c),
    "part(a)": lambda o: ops.partition_umbra(o.ws, o.a),
    "c.part(a)": lambda o: ops.partition_umbra(o.ws, o.a, o.c),
    "comp(g,a)": lambda o: ops.composition_umbra(o.ws, o.g, o.a),
    "bar(a)": lambda o: ops.alpha_bar(o.ws, o.a2),
    "c*a": lambda o: ops.scale_atom(o.ws, o.c, o.a),
    # compose reads the held series of 3.a through its built moments: the one
    # row whose build scales a lift back (series._quotient) before registering
    "c*(3.a)": lambda o: ops.scale_atom(o.ws, o.c, ops.dot(o.ws, 3, o.a)),
    "lag(a)": lambda o: inversion.revert_umbral(o.ws, o.a2),
}
ROW_RINGS = [(row, ring) for row in ROWS for ring in RINGS]
# the four models of the Monte Carlo benchmark; exact_moments registers
# L.part(J) on rationals alone, so these rows run on the scalar ring
BENCH_JUMPS = poisson.DiscreteDist((1, 2), (Fraction(1, 2), Fraction(1, 2)))
BENCH_MODELS = [poisson.PoissonModel(1), poisson.CompoundModel(1, BENCH_JUMPS),
                poisson.RandomizedModel(BENCH_JUMPS),
                poisson.RandomizedCompoundModel(BENCH_JUMPS, BENCH_JUMPS)]
ROWS.update({m.describe(): lambda o, m=m: poisson.exact_moments(m, ORDER)
             for m in BENCH_MODELS})
ROW_RINGS += [(m.describe(), "scalar") for m in BENCH_MODELS]

# registering constructors left out: each compares a sequence with itself
EXEMPT = {
    (core.Workspace, "define"): "its series is built from the moments it is given",
    (core.Workspace, "clone"): "it registers the source's moments and series as they are",
    (core.Workspace, "atom_of"): "its series is built from the expression's moments",
    (ops, "point_power"): "its series is built from the powered moments",
    (inversion, "revert_oracle"): "its moments are read off the reversion series",
}


class Run(NamedTuple):
    registered: list  # the atoms the clean build registers
    reached: set      # the faults the clean build calls
    cells: dict       # fault -> (fired, outcome) of the build under it


@lru_cache(maxsize=None)
def run_row(row: str, ring: str) -> Run:
    """The clean build of a row under call counters, then its build under each
    fault it reaches; cached, so the matrix and the folded tests share it."""
    build, registered, register = ROWS[row], [], core.Workspace._register

    def recording(self, *args):
        registered.append(register(self, *args))
        return registered[-1]
    with installed(FAULTS) as reached, swapped([(register, recording)]):
        build(operands(ring))
    cells = {}
    for fault in filter(reached.__contains__, FAULTS):
        with installed([fault], corrupting=True) as fired:
            try:
                build(operands(ring))
                cells[fault] = bool(fired), "registered"
            except Exception as exc:
                cells[fault] = bool(fired), type(exc).__name__
    return Run(registered, reached, cells)


def grid(fault, rows, rings=RINGS):
    """Folded cases (row, fault, ring) under their old ids: ``rows`` lists each
    case's row, or (old id, row) where the two differ; the ring ends the id
    when there are two."""
    return [pytest.param(row, fault, ring, id=i + (f"-{ring}" if len(rings) > 1 else ""))
            for i, row in (r if isinstance(r, tuple) else (r, r) for r in rows) for ring in rings]


def folded_test(cases):
    """A test the matrix replaced, kept under its name and case ids: each
    case's cell must be reached, fire and be caught."""
    @pytest.mark.parametrize("row, fault, ring", cases)
    def test(row, fault, ring):
        assert run_row(row, ring).cells.get(fault) == CAUGHT
    return test
