"""Seeded Monte Carlo verification of the probabilistic moment formulas.

One model, the randomized compound Poisson variable
``RandomizedCompoundModel(param, jumps)``: a rate L drawn from ``param``, a
Poisson(L) count N, and the sum of N i.i.d. draws from ``jumps``.  It is
the umbra L.part(J), and ``exact_moments`` reads its moments, the Bell sum
E[X^k] = sum_j E[L^j] B_{k,j}(jump moments), off the engine, whose
registration checks them against the series route: a faulty kernel raises
``CoherenceError``.  Three named cases build it, with a one-point
``param`` for a fixed rate and the point mass at 1 for unit jumps, where
B_{k,j}(1, 1, ...) = S(k,j):

* ``PoissonModel(lam)``         -- both: sum_j S(k,j) lam^j, the Bell
  numbers at lam = 1;
* ``CompoundModel(lam, jumps)`` -- a fixed rate: sum_j lam^j B_{k,j};
* ``RandomizedModel(param)``    -- unit jumps: sum_j S(k,j) E[L^j].

``describe`` names the simplest case that the two distributions fit, so a
one-point ``param`` is labelled, drawn and checked as the fixed rate it is.

Randomness: SplitMix64 only (see :mod:`umbral.prng`).  The chunk of CHUNK
draws is the seeding unit: chunk c of a run seeded with s gets its own seed
``Stream(s).at(c)`` and draws from the substreams
``Stream(chunk_seed).derive(t)``.  A draw is
thinned by jump value: for jumps J = sum_i p_i delta_{v_i}, the generating
function exp(L (f_J(t) - 1)) is the product over i of
exp(L p_i (e^{v_i t} - 1)), so L.part(J) ~ sum_i v_i ((L p_i).beta), and a
draw is sum_i v_i N_i with N_i ~ Poisson(L p_i) independent given L.  The
rate's index, at a random rate, comes from t = 1; N_0 from t = 1 at a fixed
rate and t = 2 at a random one, so Poisson and one-point draws are counts
scaled; N_i for i >= 1 from t = 2 + i.  A draw is exact: with v_i = a_i / D
over the lcm D of the denominators, it is the int numerator sum_i a_i N_i
over D.  When D and sum_i |a_i| times the largest count of N_i's table are
below 2^53, the sum runs in int64, and otherwise in Python ints.  Only
``sample`` makes floats: it divides each numerator by D, rounding once,
and a draw no float holds raises ``OverflowError``.  The work per draw is
one uniform per count part, whatever the rate.  Each run builds one
``_Plan``: every CDF and bucket table, built once, and one buffer of BLOCK
uniforms.  The block is the work unit: draw i of a stream seeded s is
mix(s + (i+1) GOLDEN), so the block from draw b of a chunk reads each
substream at the seed s + b GOLDEN, and no draw depends on the block size.
Each draw is a 53-bit int w, the uniform w 2^-53, inverted against a CDF
through its bucket table: 2^10 buckets on w's top bits answer each draw
whose bucket no CDF value splits, and only the rest are searched.  At a
random rate, one table stacks a row per rate, and the split-bucket draws
are searched grouped by rate.  The Poisson CDF comes from the recurrence
p_{k+1} = p_k * lam/(k+1).  Its start, exp(-lam), loses precision above
lam = 708 and underflows above 745, so a rate above ``POISSON_PART`` is
split into equal parts whose counts are summed: Poisson additivity,
x.beta + y.beta' ~ (x + y).beta.  Everything downstream is a pure function
of (model, n, seed).

Empirical moments are the exact power sums S_j / D^j of the draws, rounded
once.  The blocks of every chunk fill one chunk buffer of the plan, int64
or object like the numerators.  ``compare`` tallies once per chunk: the
buffer is sorted in place and read at its run boundaries, and
``_power_sums`` merges the tallies of distinct values.  So ``compare`` holds
one chunk and the tally, never all n draws, and makes no float draw.  numpy
loads at the first draw, not at import.

Jump and parameter distributions are restricted to finite rational support
so every predicted moment is a finite exact sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING

from .core import Workspace
from .errors import InvalidDistribution
from .ops import dot, partition_umbra
from .prng import GOLDEN, MASK, MIX1, MIX2, Stream

if TYPE_CHECKING:
    import numpy as np

CHUNK = 1 << 16
BLOCK = 1 << 14
Z_TOLERANCE = 8.0
MAX_ORDER_CAP = 6
POISSON_PART = 500
BUCKET_BITS = 10
MAX_RATE = 100_000  # the sampler draws ceil(rate / POISSON_PART) uniforms per count


def _mix53(z: np.ndarray) -> np.ndarray:
    """The SplitMix64 finalizer on each word of the uint64 array ``z``, in
    place, keeping its top 53 bits: the uniform is w * 2^-53."""
    import numpy as np
    z ^= z >> np.uint64(30)
    z *= np.uint64(MIX1)
    z ^= z >> np.uint64(27)
    z *= np.uint64(MIX2)
    z ^= z >> np.uint64(31)
    z >>= np.uint64(11)
    return z


# -- distributions ----------------------------------------------------------------


@dataclass(frozen=True)
class DiscreteDist:
    """Finite discrete distribution with exact rational support and weights;
    equal support values are merged into one."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        values = tuple(Fraction(v) for v in self.values)
        probs = tuple(Fraction(p) for p in self.probs)
        if not values or len(values) != len(probs):
            raise InvalidDistribution("support and weights must align")
        if any(p <= 0 for p in probs):
            raise InvalidDistribution("weights must be positive")
        merged = {}  # a repeated value's weights add, at its first place
        for v, p in zip(values, probs):
            merged[v] = merged.get(v, 0) + p
        object.__setattr__(self, "values", tuple(merged))
        object.__setattr__(self, "probs", tuple(merged.values()))
        if sum(probs) != 1:
            raise InvalidDistribution(f"weights sum to {sum(probs)}, not 1")

    @staticmethod
    def point_mass(value) -> "DiscreteDist":
        return DiscreteDist((Fraction(value),), (Fraction(1),))

    def moment(self, j: int) -> Fraction:
        return sum(p * v ** j for v, p in zip(self.values, self.probs))

    def cdf_array(self) -> np.ndarray:
        import numpy as np
        return np.cumsum(np.array([float(p) for p in self.probs]))

    def spec(self) -> str:
        return ",".join(f"{v}:{p}" for v, p in zip(self.values, self.probs))


_UNIT_JUMPS = DiscreteDist.point_mass(1)


# -- the model -------------------------------------------------------------------------


@dataclass(frozen=True)
class RandomizedCompoundModel:
    """The randomized compound Poisson variable: a Poisson count with a
    random rate drawn from ``param``, summing that many i.i.d. ``jumps``."""

    param: DiscreteDist
    jumps: DiscreteDist

    def __post_init__(self):
        if len(self.param.values) == 1 and not 0 < self.param.values[0] <= MAX_RATE:
            raise InvalidDistribution(f"Poisson rate must lie in (0, {MAX_RATE}]")
        if not all(0 <= v <= MAX_RATE for v in self.param.values):
            raise InvalidDistribution(f"parameter values must lie in [0, {MAX_RATE}]")

    def describe(self) -> str:
        fixed = len(self.param.values) == 1
        rate = f"{self.param.values[0]}" if fixed else f"param {self.param.spec()}"
        if self.jumps == _UNIT_JUMPS:
            return f"{'poisson' if fixed else 'randomized'}({rate})"
        return (f"{'compound' if fixed else 'randomized_compound'}({rate}; "
                f"jumps {self.jumps.spec()})")


def PoissonModel(lam) -> RandomizedCompoundModel:
    return RandomizedCompoundModel(DiscreteDist.point_mass(lam), _UNIT_JUMPS)


def CompoundModel(lam, jumps: DiscreteDist) -> RandomizedCompoundModel:
    return RandomizedCompoundModel(DiscreteDist.point_mass(lam), jumps)


def RandomizedModel(param: DiscreteDist) -> RandomizedCompoundModel:
    return RandomizedCompoundModel(param, _UNIT_JUMPS)


# -- exact predictions -----------------------------------------------------------------


def exact_moments(model, max_order: int) -> list:
    """Exact rational moments E[X^k], k = 0..max_order, of the umbra L.part(J)
    (L the rate's and J the jumps' moments), registered in a workspace of its own."""
    ws = Workspace(max_order, indeterminates=())
    rate = ws.define("L", [model.param.moment(j) for j in range(max_order + 1)])
    jumps = ws.define("J", [model.jumps.moment(j) for j in range(max_order + 1)])
    return list(map(Fraction, dot(ws, rate, partition_umbra(ws, jumps)).moments))


# -- sampling ---------------------------------------------------------------------------


def _poisson_cdf(lam: float) -> np.ndarray:
    """CDF table for sequential inversion, built by the mass recurrence."""
    import numpy as np
    if lam == 0.0:
        return np.array([1.0])
    p = math.exp(-lam)
    cdf = [p]
    k = 0
    while cdf[-1] < 1.0 - 1e-15 and k < 2048:
        k += 1
        p *= lam / k
        cdf.append(cdf[-1] + p)
    return np.array(cdf)


def _bucket_table(cdf: np.ndarray) -> np.ndarray:
    """The index that ``np.searchsorted(cdf, u, side="right")`` gives every
    u in each of 2^BUCKET_BITS equal buckets of [0, 1), or -1 where a CDF
    value splits the bucket.  The split test reads the float just below the
    bucket's end, at or above its last draw."""
    import numpy as np
    starts = np.arange(1 << BUCKET_BITS) * 2.0 ** -BUCKET_BITS
    lo = np.searchsorted(cdf, starts, side="right")
    hi = np.searchsorted(cdf, np.nextafter(starts + 2.0 ** -BUCKET_BITS, 0), side="right")
    return np.where(hi == lo, lo, -1)


class _Inverse:
    """``np.searchsorted(cdfs[r], w * 2**-53, side="right")`` for 53-bit ints
    w, r each draw's row (0 when no rows are given), through the bucket
    tables of ``cdfs`` stacked once into one flat table: a draw whose bucket
    no CDF value splits reads its index, and only the rest, at most
    len(cdf) per row, are searched, grouped by row."""

    def __init__(self, cdfs: list):
        import numpy as np
        self.cdfs = cdfs
        self.table = np.concatenate([_bucket_table(cdf) for cdf in cdfs])

    def __call__(self, w: np.ndarray, rows=None) -> np.ndarray:
        import numpy as np
        col = (w >> np.uint64(53 - BUCKET_BITS)).view(np.int64)  # a uint64 index is cast
        if rows is not None:
            col += rows << BUCKET_BITS
        idx = self.table.take(col)
        split = np.flatnonzero(idx < 0)
        groups = [split] if rows is None else (split[rows[split] == i] for i in range(len(self.cdfs)))
        for cdf, at in zip(self.cdfs, groups):
            idx[at] = np.searchsorted(cdf, w[at] * 2.0 ** -53, side="right")
        return idx


class _Plan:
    """One run's sampler: every table the draws read, built once from the
    rates, the parameter's CDF (None at a fixed rate) and the jumps, one
    block-sized uint64 buffer that mixes each block of uniforms, and one
    chunk buffer for the numerators, int64 or object, that every chunk
    reuses."""

    def __init__(self, rates: tuple, param_cdf=None, jumps: DiscreteDist = _UNIT_JUMPS):
        import numpy as np
        self.d = math.lcm(*(v.denominator for v in jumps.values))
        self.nums = [int(v * self.d) for v in jumps.values]
        self.tables, bound = [], 0  # per jump value: its rates' parts, count table and most parts
        for a, p in zip(self.nums, jumps.probs):
            lams = [float(v * p) for v in rates]
            parts = np.array([max(1, math.ceil(lam / POISSON_PART)) for lam in lams])
            rows = _Inverse([_poisson_cdf(lam / k) for lam, k in zip(lams, parts)])
            self.tables.append((parts, rows, int(parts.max())))
            # a part counts at most its CDF's length, which bounds |sum_i a_i N_i|
            bound += abs(a) * max(int(k) * len(cdf) for k, cdf in zip(parts, rows.cdfs))
        self.int64 = max(bound, self.d) < 1 << 53
        self.param = None if param_cdf is None else _Inverse([param_cdf])
        self._base = np.arange(1, BLOCK + 1, dtype=np.uint64) * np.uint64(GOLDEN)
        self._w = np.empty(BLOCK, dtype=np.uint64)
        self._out = np.empty(CHUNK, np.int64 if self.int64 else object)

    def uniforms(self, seed: int, count: int) -> np.ndarray:
        """The first ``count`` (at most BLOCK) draws of the stream ``seed`` as
        53-bit ints, in the reused buffer: draw i is mix(s + (i+1) GOLDEN)."""
        import numpy as np
        return _mix53(np.add(self._base[:count], np.uint64(seed & MASK), out=self._w[:count]))

    def counts(self, stream: Stream, count: int, pidx=None, i: int = 0, start: int = 0) -> np.ndarray:
        """Poisson counts of draws start..start+count-1 of ``stream`` at the
        rate L p_i of jump value i, L the rate of row ``pidx`` for each draw
        (the one rate when ``pidx`` is None).  A rate above POISSON_PART
        is split into equal parts; part j >= 1 inverts the same positions of
        ``stream.derive(j)`` where the rate has it."""
        import numpy as np
        parts, rows, top = self.tables[i]
        counts = rows(self.uniforms(stream.seed + start * GOLDEN, count), pidx)
        split = None if pidx is None or top == 1 else parts.take(pidx)
        for j in range(1, top):
            w = self.uniforms(stream.derive(j).seed + start * GOLDEN, count)
            if split is None:
                counts += rows(w)
            else:
                at = np.flatnonzero(split > j)
                counts[at] += rows(w[at], pidx[at])
        return counts

    def chunk(self, chunk_seed: int, count: int) -> np.ndarray:
        """The ``count`` (at most CHUNK) draws of the chunk seeded
        ``chunk_seed`` as numerators sum_i a_i N_i over D, in the chunk
        buffer, which the next chunk overwrites.  They are worked a block of
        at most BLOCK at a time: the block from draw b reads each substream's
        draws b, b+1, ..., at the seed t + b GOLDEN of a substream seeded t."""
        import numpy as np
        out = self._out[:count]
        s = Stream(chunk_seed)
        first = s.derive(1 if self.param is None else 2)
        for start in range(0, count, BLOCK):
            size, pidx, num = min(BLOCK, count - start), None, None
            if self.param is not None:
                pidx = self.param(self.uniforms(s.derive(1).seed + start * GOLDEN, size))
                pidx.clip(max=len(self.param.cdfs[0]) - 1, out=pidx)
            for i, a in enumerate(self.nums):
                n = self.counts(s.derive(2 + i) if i else first, size, pidx, i, start)
                if not self.int64:
                    n = n.astype(object)
                if a != 1:
                    n *= a
                num = n if num is None else np.add(num, n, out=num)
            out[start:start + size] = num
        return out


def _chunks(model, n: int, seed: int):
    """``(d, chunks)``: the draws of ``sample(model, n, seed)`` as int
    numerators over d, one chunk at a time from one plan built for the run.
    Each chunk is the plan's chunk buffer, valid until the next is drawn."""
    if n < 1:
        raise ValueError("need at least one sample")
    param, master = model.param, Stream(seed)
    plan = _Plan(param.values, None if len(param.values) == 1 else param.cdf_array(), model.jumps)
    return plan.d, (plan.chunk(master.at(c), min(CHUNK, n - c * CHUNK))
                    for c in range((n + CHUNK - 1) // CHUNK))


def sample(model, n: int, seed: int) -> np.ndarray:
    """n i.i.d. draws from the model, each exact value rounded once to a
    float64 (or ``OverflowError``); deterministic in (model, n, seed).  Each
    chunk's numerators, worked in blocks in one reused buffer, are divided
    by D straight into the output."""
    import numpy as np
    d, chunks = _chunks(model, n, seed)
    out = np.empty(n)
    for c, num in enumerate(chunks):
        try:  # an int64 numerator and D are exact floats, and an int / int
            # rounds once, to a float that the cast to float64 keeps
            np.divide(num, d, out=out[c * CHUNK:c * CHUNK + len(num)], casting="unsafe")
        except OverflowError:
            raise OverflowError("a draw overflows a float") from None
    return out


def _tally(num: np.ndarray):
    """``(values, counts)`` of the distinct ints in ``num``, an int64 or
    object chunk, sorted in place and read at its run boundaries."""
    import numpy as np
    num.sort()
    ends = np.append(np.flatnonzero(num[1:] != num[:-1]), len(num) - 1)
    return num[ends], np.diff(ends, prepend=-1)


def _power_sums(tallies, top: int) -> list:
    """S_j, the exact sum of x^j over the ints x that ``tallies`` count, for
    j = 0..top.  Each tally, ``(values, counts)`` of distinct ints, merges
    into one running tally, so memory grows with the distinct values only."""
    import numpy as np
    values, counts = np.empty(0, np.int64), np.empty(0)
    for v, c in tallies:
        values, inv = np.unique(np.concatenate((values, v)), return_inverse=True)
        counts = np.bincount(inv, np.concatenate((counts, c)))  # exact below 2^53
    x, power, sums = values.astype(object), counts.astype(np.int64).astype(object), []
    for _ in range(top + 1):
        sums.append(int(power.sum()))
        power = power * x
    return sums


# -- moment comparison --------------------------------------------------------------------


@dataclass
class MomentComparison:
    """Exact predictions vs empirical moments with z-scores."""

    model: str
    n_samples: int
    seed: int
    max_order: int
    rows: list

    @property
    def passed(self) -> bool:
        return all(abs(r["z"]) <= Z_TOLERANCE for r in self.rows)

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "n_samples": self.n_samples,
            "seed": self.seed,
            "max_order": self.max_order,
            "tolerance": Z_TOLERANCE,
            "pass": self.passed,
            "rows": self.rows,
        }


def empirical_rows(values: np.ndarray, exact: list, max_order: int) -> list:
    """Comparison rows for a sample of floats, each distinct one read as the
    int numerator of its exact value over one D, as ``compare``'s rows for
    its draws.  ``OverflowError`` at an infinite draw, and when a row's mean,
    variance or stderr is not a finite float: such a row would pass untested."""
    import numpy as np
    v, counts = np.unique(values, return_counts=True)
    xs = [Fraction(x) for x in v.tolist()]
    d = math.lcm(*(x.denominator for x in xs))
    nums = np.array([x.numerator * (d // x.denominator) for x in xs], dtype=object)
    return _rows([(nums, counts)], d, exact, max_order)


def _rows(tallies, d: int, exact: list, max_order: int) -> list:
    sums = _power_sums(tallies, 2 * max_order)
    n = sums[0]
    rows = []
    for k in range(1, max_order + 1):
        try:
            emp = sums[k] / (n * d ** k)
            var = (n * sums[2 * k] - sums[k] ** 2) / (n * max(n - 1, 1) * d ** (2 * k))
        except OverflowError:
            raise OverflowError(f"order-{k} sample moments overflow a float") from None
        se = math.sqrt(var / n)
        pred = float(exact[k])
        if se == 0.0:
            z = 0.0 if emp == pred else math.inf
        else:
            z = (emp - pred) / se
        rows.append({
            "order": k,
            "exact": str(exact[k]),
            "exact_float": pred,
            "empirical": emp,
            "stderr": se,
            "z": z,
        })
    return rows


def compare(model, n: int, seed: int, max_order: int = 4) -> MomentComparison:
    """Sample the model and set empirical moments against the exact umbral
    predictions, one row per order: the mean of draw^k and its unbiased
    variance from exact power sums, each correctly rounded.  The draws are
    tallied once per chunk, in the plan's chunk buffer."""
    if max_order > MAX_ORDER_CAP:
        raise ValueError(f"max_order capped at {MAX_ORDER_CAP}")
    exact = exact_moments(model, max_order)
    d, chunks = _chunks(model, n, seed)
    rows = _rows(map(_tally, chunks), d, exact, max_order)
    return MomentComparison(
        model=model.describe(),
        n_samples=n,
        seed=seed,
        max_order=max_order,
        rows=rows,
    )
