"""The four benchmark workloads and their correctness oracles.

Each workload turns a seed into a fixed list of operations in ``__init__``
(the set-up that ``setup_s`` times).  A run executes that list a fixed
number of times, each pass a *batch*, and times every execution; an
operation's latency is the median of its executions, each scaled by the
workload's reference unit ``probe`` (see ``run.measure``).
``passes(seconds)`` is that number: the passes of ``pass_s`` seconds (one
pass on the reference host) that fill ``seconds``, and at least
``min_batches``.  It depends only on
``seconds``, never on how long the passes take.  An optional ``reset``
rebuilds the list between passes.

An operation is a zero-argument callable.  Its return value goes to the
operation's ``check``, which returns a list of failure strings (empty when
the output is correct), and to its ``fingerprint``, which must be the same
on every execution: the engine is deterministic.  Checks run outside the
timed region.

Why these four (each stresses different layers):

* ``catalog``   -- what users run to verify the paper; drives every exact
                   layer (poly, series, combinatorics, core, ops, inversion).
* ``construct`` -- the write path: series kernels, Bell triangles and the
                   registration coherence check at order 20, no normal-form
                   evaluation.
* ``eval``      -- the read path: normal-form expansion in ``core``; the
                   series layer is idle, so a series-kernel change should
                   leave it unchanged.
* ``mc``        -- the only workload on ``poisson``/numpy; the exact layers
                   idle.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb

from umbral import identities, inversion, ops, poisson
from umbral.cli import ExprContext
from umbral.core import Workspace
from umbral.poly import ONE, ZERO, Poly
from umbral.prng import Stream

Z_LIMIT = 8.0


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def _no_check(result) -> list:
    return []


class Workload:
    name: str
    min_batches: int
    pass_s: float
    probe = "exact"     # the reference unit in ``run.PROBES`` that scales times

    @classmethod
    def passes(cls, seconds: float) -> int:
        return max(cls.min_batches, round(seconds / cls.pass_s))


class Op:
    __slots__ = ("label", "fn", "check", "fingerprint")

    def __init__(self, label, fn, check=_no_check, fingerprint=None):
        self.label = label
        self.fn = fn
        self.check = check
        self.fingerprint = fingerprint


# -- catalog ------------------------------------------------------------------


class Catalog(Workload):
    """The 31-entry identity catalog as ``umbral check all`` runs it.

    One operation is one entry: ``check`` plus the JSON rendering the CLI
    prints.  Entry e gets the seed ``default(e) ^ seed``, so seed 0 is
    exactly ``umbral check all``.  Every pass starts with the engine's
    caches empty, as a fresh ``umbral check all`` does.
    """

    name = "catalog"
    min_batches = 3
    pass_s = 12.0

    def __init__(self, seed: int, size: str):
        overrides = {"n": 4, "trials": 1} if size == "min" else {}
        self.digests: dict = {}
        self.ops = [self._op(e, dict(overrides, seed=e["defaults"]["seed"] ^ seed))
                    for e in identities.list_identities()]

    def _op(self, entry, params):
        id_ = entry["id"]

        def run():
            case = identities.check(id_, params)
            return case, json.dumps(case.to_json(), indent=2, sort_keys=True)

        def check(result):
            case, text = result
            fails = []
            if not case.passed:
                fails.append(f"{id_}: verdict failed")
            if entry["designed_counterexample"] and not (
                    case.designed_counterexample and case.witness):
                fails.append(f"{id_}: designed counterexample not flagged")
            key = f"{id_}:{params['seed']}:{case.params['n']}:{case.params['trials']}"
            self.digests[key] = _digest(text.encode())
            return fails

        return Op(id_, run, check, fingerprint=lambda result: result[1])


# -- construct ----------------------------------------------------------------


def _random_moments(stream: Stream, order: int, with_x: bool) -> list:
    """m_0 = 1, then small random nonzero rationals (a zero moment makes
    the series sparser and the work smaller, which would vary the cost
    from seed to seed); with ``with_x`` every m_k (k >= 2) is a degree-1
    polynomial in x."""
    x = Poly.var("x")
    out = [ONE, Poly.const(stream.nonzero_rational())]
    for _ in range(2, order + 1):
        m = Poly.const(stream.nonzero_rational())
        if with_x:
            m = m + x * stream.nonzero_rational()
        out.append(m)
    return out


def _moments(atom):
    return atom.moments


class Construct(Workload):
    """Seeded random umbrae at order 20 through every constructor, each
    result registered with its coherence check.

    Two rounds: one umbra with scalar moments and one whose moments carry
    x.  A round takes its umbra a (with partner g) through the
    constructors below, one operation each; the scalar round also reverts
    both a and g.  The x-carrying rounds skip the reversions: at order 20
    with polynomial moments each takes 2-4 s, some ten times a whole
    scalar round, which would leave nothing else measurable in the run.
    A CoherenceError at registration raises, which fails the operation.
    """

    name = "construct"
    min_batches = 4
    pass_s = 3.0
    rounds = 2

    def __init__(self, seed: int, size: str):
        order = 6 if size == "min" else 20
        stream = Stream(seed ^ 0xC0)
        self.inputs = []
        for r in range(self.rounds):
            with_x = r % 2 == 1
            self.inputs.append((order, with_x, _random_moments(stream, order, with_x),
                                _random_moments(stream, order, with_x),
                                stream.nonzero_rational()))
        self.reset()

    def reset(self):
        """Fresh workspaces, so the atoms every pass registers do not pile up
        (and move ``peak_rss_mb`` with the number of passes)."""
        self.ops = []
        for order, with_x, a_moments, g_moments, c in self.inputs:
            ws = Workspace(order=order, indeterminates=("x",))
            a, g = ws.define("a", a_moments), ws.define("g", g_moments)
            self.ops += self._round_ops(ws, a, g, c, with_x)

    @staticmethod
    def _round_ops(ws, a, g, c, with_x) -> list:
        calls = [
            ("dot.3", lambda: ops.dot(ws, 3, a)),
            ("dot.-3", lambda: ops.dot(ws, -3, a)),
            ("dot.x", lambda: ops.dot(ws, "x", a)),
            ("dot.umbra", lambda: ops.dot(ws, g, a)),
            ("inverse_umbra", lambda: ops.inverse_umbra(ws, a)),
            ("bell_umbra", lambda: ops.bell_umbra(ws)),
            ("bell_umbra.x", lambda: ops.bell_umbra(ws, "x")),
            ("partition_umbra", lambda: ops.partition_umbra(ws, a)),
            ("partition_umbra.x", lambda: ops.partition_umbra(ws, a, "x")),
            ("composition_umbra", lambda: ops.composition_umbra(ws, g, a)),
            ("alpha_bar", lambda: ops.alpha_bar(ws, a)),
            ("point_power", lambda: ops.point_power(ws, a, 2)),
            ("scale_atom", lambda: ops.scale_atom(ws, c, a)),
        ]
        out = [Op(label, fn, fingerprint=_moments) for label, fn in calls]
        if not with_x:
            out += _reversion_pair(ws, a) + _reversion_pair(ws, g)
        return out


def _reversion_pair(ws, alpha) -> list:
    """Both reversions of one umbra; the umbral route must give the
    oracle's moments."""
    got = {}

    def same(result) -> list:
        oracle = got.get("oracle")
        if oracle is not None and oracle.moments != result.moments:
            return [f"revert_umbral({alpha.name}) moments differ from revert_oracle"]
        return []

    return [Op("revert_oracle", lambda: inversion.revert_oracle(ws, alpha),
               lambda result: got.update(oracle=result) or [], _moments),
            Op("revert_umbral", lambda: inversion.revert_umbral(ws, alpha),
               same, _moments)]


# -- eval ---------------------------------------------------------------------


# Expression templates: a list of terms, each a list of factors.  'S' is a
# clone of a scalar atom (a, b, c), 'X' a clone of an x-carrying atom (d, e),
# 'x' the indeterminate as a scalar factor.  Every symbol in one expression
# is distinct, so all its terms are uncorrelated.  Cost grows with the
# number of terms (about 4 ms, 45 ms and 300 ms for 2, 3 and 4 at order 16),
# so the fixed term counts (2, 2, 3, 3, 3, 4, 4, 4) keep the cost of a run
# steady across seeds.  Products bring sums up to five atoms.
_TEMPLATES = [
    [["S"], ["S"]],
    [["x", "S"], ["X"]],
    [["S"], ["S"], ["X"]],
    [["x", "S"], ["S"], ["X"]],
    [["S", "S"], ["S"], ["X"]],
    [["S"], ["S"], ["S"], ["X"]],
    [["S", "X"], ["S"], ["x", "S"], ["X"]],
    [["S", "S"], ["X"], ["S"], ["X"]],
]


class Eval(Workload):
    """Seeded expressions over five defined atoms at order 16, parsed with
    ``ExprContext.parse`` and evaluated with ``Workspace.moments_of``.  One
    operation is one expression: four seeded fillings of each template."""

    name = "eval"
    min_batches = 3
    pass_s = 6.0
    fillings = 4

    def __init__(self, seed: int, size: str):
        order = 6 if size == "min" else 16
        stream = Stream(seed ^ 0xE0)
        self.ws = Workspace(order=order, indeterminates=("x", "y"))
        x = Poly.var("x")
        self.moments = {}
        for name in "abcde":
            m = [ONE] + [Poly.const(stream.nonzero_rational()) for _ in range(order)]
            if name in "de":
                m = [ONE] + [v + x * stream.nonzero_rational() for v in m[1:]]
            self.moments[name] = self.ws.define(name, m).moments
        self.ctx = ExprContext(self.ws)
        self.ops = [self._op(*self._expr(stream, t))
                    for _ in range(self.fillings) for t in _TEMPLATES]

    @staticmethod
    def _expr(stream: Stream, template):
        pools = {"S": [n + "'" * p for p in range(3) for n in "abc"],
                 "X": [n + "'" * p for p in range(3) for n in "de"]}
        terms = []
        for factors in template:
            term = []
            for f in factors:
                if f == "x":
                    term.append("x")
                else:
                    pool = pools[f]
                    term.append(pool.pop(stream.next_u64() % len(pool)))
            terms.append(term)
        order = sorted(range(len(terms)), key=lambda _: stream.next_u64())
        terms = [terms[i] for i in order]
        return " + ".join("*".join(t) for t in terms), terms

    def _op(self, text, terms):
        ws, ctx = self.ws, self.ctx
        expected = []

        def run():
            return ws.moments_of(ctx.parse(text))

        def check(result):
            if not expected:
                expected.extend(self.oracle(terms))
            if result != expected:
                return [f"eval {text!r}: moments differ from the convolution oracle"]
            return []

        return Op(text, run, check, fingerprint=tuple)

    def oracle(self, terms) -> list:
        """Moments of a sum of uncorrelated terms by binomial convolution of
        the terms' moment lists; a term's k-th moment is the product of its
        factors' k-th moments (x contributes x^k).  No normal form."""
        n = self.ws.order
        x = Poly.var("x")
        total = [ONE] + [ZERO] * n
        for term in terms:
            mk = []
            for k in range(n + 1):
                v = ONE
                for f in term:
                    v = v * (x ** k if f == "x" else self.moments[f.rstrip("'")][k])
                mk.append(v)
            total = [sum((comb(k, i) * total[i] * mk[k - i] for i in range(k + 1)), ZERO)
                     for k in range(n + 1)]
        return total


# -- mc -----------------------------------------------------------------------


def _models():
    half = (Fraction(1, 2), Fraction(1, 2))
    jumps = poisson.DiscreteDist((1, 2), half)
    param = poisson.DiscreteDist((1, 2), half)
    return [
        poisson.PoissonModel(1),
        poisson.CompoundModel(1, jumps),
        poisson.RandomizedModel(param),
        poisson.RandomizedCompoundModel(param, jumps),
    ]


def _rows(result):
    return result.rows


class MonteCarlo(Workload):
    """The four Monte Carlo models through ``poisson.compare`` at a fixed
    draw count.  One operation is one ``compare`` call: ten seeded draw
    seeds for each model."""

    name = "mc"
    min_batches = 3
    pass_s = 3.5
    probe = "numpy"
    seeds_per_model = 10
    max_order = 4

    def __init__(self, seed: int, size: str):
        self.n = 1 << 16 if size == "min" else 500_000
        stream = Stream(seed ^ 0x3C)
        self.draws = [(model, stream.next_u64() >> 1)
                      for _ in range(self.seeds_per_model) for model in _models()]
        self.ops = [self._op(model, s) for model, s in self.draws]

    def _op(self, model, seed):
        def run():
            return poisson.compare(model, self.n, seed, self.max_order)

        def check(result):
            return [f"{result.model}: |z| = {abs(r['z']):.2f} > {Z_LIMIT} "
                    f"at order {r['order']}"
                    for r in result.rows if not abs(r["z"]) <= Z_LIMIT]

        return Op(model.describe(), run, check, fingerprint=_rows)

    def final_check(self, results: list) -> list:
        """For the first draw seed of each model: the draws must repeat for
        (model, n, seed) and give back the rows the timed ``compare``
        reported."""
        fails = []
        first = len(_models())
        for (model, seed), result in zip(self.draws[:first], results[:first]):
            values = poisson.sample(model, self.n, seed)
            digest = _digest(values.tobytes())
            exact = poisson.exact_moments(model, self.max_order)
            if result is None or \
                    poisson.empirical_rows(values, exact, self.max_order) != result.rows:
                fails.append(f"{model.describe()}: re-drawn rows differ")
            del values
            if _digest(poisson.sample(model, self.n, seed).tobytes()) != digest:
                fails.append(f"{model.describe()}: draws differ for one seed")
        return fails


WORKLOADS = {w.name: w for w in (Catalog, Construct, Eval, MonteCarlo)}
