"""Outside-in per-layer tracer for the umbral engine.

The tracer wraps the public entry points of each module from outside the
package: it replaces the original function in *every* namespace that holds
it (module globals, class dicts, the package ``__init__``, and aliases such
as ``Poly.__radd__ = __add__`` or ``cli``'s ``check as check_identity``),
because modules bind imported names at import time and a wrapper on the
defining module alone would silently miss those calls.  ``install`` then
asserts, through the garbage collector's referrer lists, that no namespace
still holds an original.

Spans (name, parent, start, end) are kept in memory and written out by
``write_spans`` at the end of the run.  A span's self time is its duration
minus the time its child spans cover, so recursive callers (``pow_int``,
``compose``) never count their children twice; the inclusive time of a
name counts only its outermost spans.  ``Poly`` arithmetic is count-only:
it runs millions of times per pass and a span per call would cost more
than the work it measures.
"""

from __future__ import annotations

import gc
import sys
import time
from array import array

import numpy as np

# (layer name, module, attribute path, how to wrap)
TARGETS = [
    ("poly.mul", "umbral.poly", "Poly.__mul__", "count"),
    ("poly.add", "umbral.poly", "Poly.__add__", "count"),
    ("series.mul", "umbral.series", "Series.__mul__", "span"),
    ("series.pow_int", "umbral.series", "Series.pow_int", "span"),
    ("series.exp", "umbral.series", "Series.exp", "span"),
    ("series.log", "umbral.series", "Series.log", "span"),
    ("series.compose", "umbral.series", "Series.compose", "span"),
    ("series.revert", "umbral.series", "Series.revert", "span"),
    ("combinatorics.bell_triangle", "umbral.combinatorics", "bell_triangle", "span"),
    ("core.register", "umbral.core", "Workspace._register", "span"),
    ("core.eval", "umbral.core", "Workspace.eval", "span"),
    ("core.moments_of", "umbral.core", "Workspace.moments_of", "span"),
    ("core.nf_mul", "umbral.core", "_nf_mul", "terms"),
    ("ops.dot", "umbral.ops", "dot", "span"),
    ("ops.inverse_umbra", "umbral.ops", "inverse_umbra", "span"),
    ("ops.bell_umbra", "umbral.ops", "bell_umbra", "span"),
    ("ops.partition_umbra", "umbral.ops", "partition_umbra", "span"),
    ("ops.composition_umbra", "umbral.ops", "composition_umbra", "span"),
    ("ops.alpha_bar", "umbral.ops", "alpha_bar", "span"),
    ("ops.point_power", "umbral.ops", "point_power", "span"),
    ("ops.scale_atom", "umbral.ops", "scale_atom", "span"),
    ("inversion.cross_check", "umbral.inversion", "cross_check", "span"),
    ("inversion.revert_oracle", "umbral.inversion", "revert_oracle", "span"),
    ("inversion.revert_umbral", "umbral.inversion", "revert_umbral", "span"),
    ("identities.check", "umbral.identities", "check", "by_id"),
    ("poisson.sample", "umbral.poisson", "sample", "draws"),
    ("poisson.empirical_rows", "umbral.poisson", "empirical_rows", "span"),
    ("poisson.exact_moments", "umbral.poisson", "exact_moments", "span"),
    ("cli.parse", "umbral.cli", "ExprContext.parse", "span"),
]


def _resolve(module: str, path: str):
    obj = sys.modules[module]
    for part in path.split("."):
        obj = vars(obj)[part]
    return obj


def _namespaces(extra_modules):
    """Every module and class namespace the engine (and the benchmark's own
    modules) could call a wrapped name through."""
    mods = [m for name, m in list(sys.modules.items())
            if name == "umbral" or name.startswith("umbral.")]
    mods += [m for m in extra_modules if m is not None]
    for m in mods:
        yield m
        for v in list(vars(m).values()):
            if isinstance(v, type) and v.__module__.startswith("umbral"):
                yield v


class Tracer:
    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("q")
        self.end = array("q")
        self.counts: dict = {}
        self.originals: list = []
        self._stack: list = []      # open spans of all wrapped names
        self._active: dict = {}     # name id -> nesting depth

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    # -- wrappers -------------------------------------------------------------

    def _counter(self, name, fn):
        cell = self.counts.setdefault(name + ".calls", [0])

        def wrapper(a, b):
            cell[0] += 1
            return fn(a, b)
        return wrapper

    def _span(self, name, fn, kind):
        calls = self.counts.setdefault(name + ".calls", [0])
        extra_key = {"terms": ".terms_out", "draws": ".draws"}.get(kind)
        extra = self.counts.setdefault(name + extra_key, [0]) if extra_key else None
        nid = self._id(name)
        ids, stack, active = self.name_id, self._stack, self._active
        parent, outer, start, end = self.parent, self.outer, self.start, self.end
        idof = self._id
        clock = time.perf_counter_ns

        def wrapper(*args, **kw):
            me = idof(f"{name}.{args[0]}") if kind == "by_id" else nid
            i = len(ids)
            ids.append(me)
            parent.append(stack[-1] if stack else -1)
            depth = active.get(me, 0)
            outer.append(depth == 0)
            active[me] = depth + 1
            start.append(0)
            end.append(0)
            stack.append(i)
            calls[0] += 1
            t0 = clock()
            try:
                result = fn(*args, **kw)
            finally:
                t1 = clock()
                stack.pop()
                active[me] = depth
                start[i] = t0
                end[i] = t1
            if kind == "terms":
                extra[0] += len(result)
            elif kind == "draws":
                extra[0] += args[1]
            return result
        return wrapper

    # -- install / verify -------------------------------------------------------

    def install(self, extra_modules=()):
        """Wrap every target in every namespace, then verify none is missed."""
        pairs = []
        for name, module, path, kind in TARGETS:
            fn = _resolve(module, path)
            if kind == "count":
                w = self._counter(name, fn)
            else:
                w = self._span(name, fn, kind)
            for attr in ("__name__", "__qualname__", "__doc__", "__module__"):
                setattr(w, attr, getattr(fn, attr, None))
            pairs.append((fn, w))
        self._pairs = pairs
        self.originals = [fn for fn, _ in pairs]
        self._swap({id(fn): w for fn, w in pairs}, extra_modules)
        missed = self.unwrapped()
        if missed:
            raise AssertionError(f"originals left unwrapped: {missed}")

    def uninstall(self, extra_modules=()):
        """Put every original back where its wrapper was."""
        self._swap({id(w): fn for fn, w in self._pairs}, extra_modules)

    def _swap(self, replacement: dict, extra_modules):
        for ns in _namespaces(extra_modules):
            for attr, v in list(vars(ns).items()):
                new = replacement.get(id(v))
                if new is not None:
                    setattr(ns, attr, new)

    def unwrapped(self) -> list:
        """Names through which an original is still reachable from a
        namespace dict (module globals or class dict)."""
        gc.collect()
        left = []
        for fn in self.originals:
            for ref in gc.get_referrers(fn):
                if isinstance(ref, dict):
                    keys = [k for k, v in ref.items() if v is fn]
                    left.append(f"{fn.__module__}.{fn.__qualname__} as {keys}")
        return left

    # -- results ------------------------------------------------------------------

    def count(self, key: str) -> int:
        return self.counts.get(key, [0])[0]

    def layer_times(self) -> dict:
        """{name: (self_s, incl_s)} from the recorded spans."""
        n = len(self.name_id)
        if not n:
            return {}
        ids = np.frombuffer(self.name_id, dtype=np.int32)
        par = np.frombuffer(self.parent, dtype=np.int32)
        dur = (np.frombuffer(self.end, dtype=np.int64)
               - np.frombuffer(self.start, dtype=np.int64)).astype(np.float64)
        has_parent = par >= 0
        covered = np.bincount(par[has_parent], weights=dur[has_parent], minlength=n)
        self_t = np.bincount(ids, weights=dur - covered, minlength=len(self.names))
        outer = np.frombuffer(self.outer, dtype=np.int8).astype(bool)
        incl_t = np.bincount(ids[outer], weights=dur[outer], minlength=len(self.names))
        return {nm: (self_t[i] * 1e-9, incl_t[i] * 1e-9)
                for i, nm in enumerate(self.names)}

    def write_spans(self, path):
        np.savez(path, names=np.array(self.names),
                 name_id=np.frombuffer(self.name_id, dtype=np.int32),
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 start_ns=np.frombuffer(self.start, dtype=np.int64),
                 end_ns=np.frombuffer(self.end, dtype=np.int64))
