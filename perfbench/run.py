"""Benchmark for the umbral engine: end-to-end metrics per workload, and a
separate traced run for per-layer metrics.

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the engine is imported from
``src/`` of that checkout, never from an installed copy.  Workloads are
``catalog``, ``construct``, ``eval`` and ``mc`` (see ``workloads.py``).

``--trace 0`` executes the workload's operations in a fixed number of
passes with tracing off (``Workload.passes(seconds)``: the passes that fill
``--seconds`` on the reference host, and at least the workload's minimum)
and prints every end-to-end metric.  Every execution runs beside a fixed
reference unit (``HostClock``), and its time is scaled to the reference
host's uncontended speed; an operation's latency is the median of its
scaled executions (see ``measure``).  ``--trace 1`` makes
one pass twice, untraced in a fresh process and traced here, so its
counts repeat exactly for a seed, and prints every per-layer metric plus
the tracing overhead.  Human-readable lines come first; the last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Every run appends its full record (environment and raw wall
times included) to ``perfbench/out/runs.jsonl``.
"""

from __future__ import annotations

import os

# one thread for every numeric library, before anything imports numpy
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"

END_TO_END = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
]


def _fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def _import_engine():
    if not (SRC / "umbral" / "__init__.py").is_file():
        _fail(f"no engine source at {SRC / 'umbral'}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import umbral
    if Path(umbral.__file__).resolve().parent != (SRC / "umbral").resolve():
        _fail(f"imported umbral from {umbral.__file__}, not from {SRC}")
    return umbral


# -- environment ----------------------------------------------------------------


def _commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# -- host speed -------------------------------------------------------------------
#
# The host this was built on shares its cores with other tenants, and they
# slowed the same pure-Python work by up to 2x for spells of seconds to
# minutes.  So every timed call is accompanied by executions of a fixed
# reference unit that does not touch the engine: contention slows the unit
# and the call alike, and the ratio cancels it.  "exact" is stdlib Fraction
# arithmetic like the engine's exact layers; "numpy" is SplitMix64-style
# uint64/float64 array work like the Monte Carlo sampler's, on arrays
# allocated once (2 MB) so that the unit never allocates.


def _exact_unit() -> None:
    acc = Fraction(0)
    for i in range(1, 151):
        acc += Fraction(1, i % 97 + 1)


_NUMPY_BUFFERS: list = []


def _numpy_unit() -> None:
    import numpy as np
    u = np.uint64
    if not _NUMPY_BUFFERS:
        idx = np.arange(1, 65_537, dtype=np.uint64)
        _NUMPY_BUFFERS.extend((idx, np.empty_like(idx), np.empty_like(idx),
                               np.empty(idx.shape)))
    idx, z, t, x = _NUMPY_BUFFERS
    np.multiply(idx, u(0x9E3779B97F4A7C15), out=z)
    for shift, mult in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        np.right_shift(z, u(shift), out=t)
        np.bitwise_xor(z, t, out=z)
        np.multiply(z, u(mult), out=z)
    np.right_shift(z, u(11), out=z)
    np.multiply(z, 2.0 ** -53, out=x)
    float(np.dot(x, x))


# name -> (unit, its time on the reference host, a 2-vCPU Xeon VM, when
# nothing else competes for the core)
UNITS = {"exact": (_exact_unit, 0.40e-3), "numpy": (_numpy_unit, 0.22e-3)}


class HostClock:
    """Times calls, and how fast the host ran while they ran.

    The unit runs ``BRACKET`` times right before and right after each call
    and, from a SIGALRM handler, once every ``EVERY`` seconds during it;
    the handler's time is taken out of the call's time.  ``call`` returns
    the result, the call's wall time, and that time scaled by the unit's
    reference time over the mean time of the unit around and during the
    call: the time the call would take on the reference host with no
    other tenant.  A slower engine takes longer beside the same units, so
    it still reads slower.  ``during=False`` leaves out the sampling
    during the call, for calls that wait on another process."""

    BRACKET = 5
    EVERY = 0.025

    def __init__(self, kind: str):
        self.unit, self.ref_s = UNITS[kind]
        self.samples: list = []     # unit times around and during the current call
        self.seen: list = []        # every unit time of the run
        self.stolen = 0.0
        self.t_end = 0.0

    def _sample(self):
        t0 = time.perf_counter()
        self.unit()
        self.samples.append(time.perf_counter() - t0)

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        if t0 >= self.t_end:        # fired after the call returned
            return
        self._sample()
        self.stolen += time.perf_counter() - t0

    def call(self, fn, during: bool = True) -> tuple:
        self.samples, self.stolen, self.t_end = [], 0.0, float("inf")
        for _ in range(self.BRACKET):
            self._sample()
        if during:
            old = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, self.EVERY, self.EVERY)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            self.t_end = time.perf_counter()
            if during:
                signal.setitimer(signal.ITIMER_REAL, 0)
                signal.signal(signal.SIGALRM, old)
        dt = self.t_end - t0 - self.stolen
        for _ in range(self.BRACKET):
            self._sample()
        self.seen += self.samples
        return result, dt, dt * self.ref_s / statistics.fmean(self.samples)

    def unit_ms(self) -> list:
        """Fastest and median time of the unit over the run, in ms."""
        return [min(self.seen) * 1e3, statistics.median(self.seen) * 1e3] if self.seen else []


def environment() -> dict:
    import numpy
    return {
        "commit": _commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "threads_pinned": {v: os.environ[v] for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")},
        "loadavg_start": list(os.getloadavg()),
    }


# -- measurement ------------------------------------------------------------------


def setup_probe(args, clock: HostClock) -> tuple:
    """Wall time of a fresh process that imports umbral, generates the
    seeded inputs and builds the workspaces, then exits; raw and scaled
    (the unit runs only around it: during it, it would compete with it)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    proc, dt, scaled = clock.call(lambda: subprocess.run(
        cmd, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True, timeout=170),
        during=False)
    if proc.returncode != 0:
        _fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return dt, scaled


class Caches:
    """Every ``lru_cache`` in the engine's modules.  Each batch starts with
    them empty, so no batch rides on what an earlier one computed and every
    catalog pass is a cold ``umbral check all``; hit and miss counts are
    summed across the clears."""

    def __init__(self):
        self.fns = {}
        for name, m in list(sys.modules.items()):
            if name == "umbral" or name.startswith("umbral."):
                for v in list(vars(m).values()):
                    if hasattr(v, "cache_clear") and hasattr(v, "cache_info"):
                        self.fns[f"{v.__module__}.{v.__qualname__}"] = v
        for f in self.fns.values():
            f.cache_clear()
        self.stats = {k: [0, 0] for k in self.fns}

    def clear(self):
        for k, f in self.fns.items():
            info = f.cache_info()
            self.stats[k][0] += info.hits
            self.stats[k][1] += info.misses
            f.cache_clear()

    def hit_ratio(self, key: str) -> float:
        hits, misses = self.stats.get(key, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0


def measure(wl, batches: int) -> dict:
    """Execute ``wl.ops`` in exactly ``batches`` passes.

    Only the operation calls are timed, each by a ``HostClock`` with the
    workload's reference unit, and an operation's latency is the median of
    its scaled executions.  The number of passes does not depend on how
    long they take.  Each call starts after a full garbage collection, so
    its collections do not depend on what ran before.  Every execution is
    checked, and must give the first execution's output."""
    clock = HostClock(wl.probe)
    caches = Caches()
    n = len(wl.ops)
    scaled, raw = [[] for _ in range(n)], [[] for _ in range(n)]
    first, prints = [None] * n, [None] * n
    failures, batch_s = [], []
    attempted = failed = 0
    t_start = time.perf_counter()
    reset = getattr(wl, "reset", None)
    for batch in range(batches):
        if reset is not None and batch:
            reset()
        caches.clear()
        busy = 0.0
        for i, op in enumerate(wl.ops):
            attempted += 1
            gc.collect()
            try:
                result, dt, dt_scaled = clock.call(op.fn)
            except Exception as exc:  # a raising operation is a failed one
                failed += 1
                failures.append(f"{op.label}: {type(exc).__name__}: {exc}")
                continue
            busy += dt
            raw[i].append(dt)
            scaled[i].append(dt_scaled)
            problems = op.check(result)
            fp = op.fingerprint(result) if op.fingerprint else None
            if first[i] is None:
                first[i], prints[i] = result, fp
            elif fp != prints[i]:
                problems = problems + [f"{op.label}: output differs between executions"]
            if problems:
                failed += 1
                failures.extend(problems)
        batch_s.append(busy)
    caches.clear()
    return {"lat": [statistics.median(t) for t in scaled if t],
            "raw_lat": [statistics.median(t) for t in raw if t],
            "attempted": attempted, "failed": failed, "failures": failures,
            "batch_s": batch_s, "first": first,
            "op_ms": [[op.label, statistics.median(t) * 1e3] for op, t in zip(wl.ops, scaled) if t],
            "wall_s": time.perf_counter() - t_start,
            "unit_ms": clock.unit_ms(),
            "peak_rss_mb": peak_rss_mb(),
            "bell_hit_ratio": caches.hit_ratio(
                "umbral.combinatorics._bell_triangle_cached")}


def final_checks(wl, run: dict) -> None:
    """The workload's checks that need the whole run (they allocate, so
    they come after peak RSS is read), then the catalog's comparison with
    the committed digests."""
    final = getattr(wl, "final_check", None)
    problems = final(run["first"]) if final is not None else []
    problems += check_golden(wl.name, getattr(wl, "digests", {}))
    run["failures"] += problems
    run["failed"] = min(run["attempted"], run["failed"] + len(problems))


def check_golden(workload: str, digests: dict) -> list:
    """Outputs must repeat across commits: compare each digest with the
    committed ``golden.json`` (the catalog's JSON output for seeds 0-10)."""
    golden = json.loads(GOLDEN.read_text()).get(workload, {})
    return [f"{key}: digest {d} differs from golden {golden[key]}"
            for key, d in sorted(digests.items())
            if key in golden and golden[key] != d]


def tail_percentile(values: list) -> tuple:
    """The highest percentile with at least ten samples beyond it, and its
    value.  Samples are per-operation latencies, one per operation of the
    workload, so the percentile is fixed for a workload."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    for p in range(99, 0, -1):
        if sum(1 for v in values if v > cuts[p - 1]) >= 10:
            return p, cuts[p - 1]
    return 50, statistics.median(values)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- per-layer metrics ------------------------------------------------------------


def per_layer_names() -> list:
    """Every per-layer metric, in BENCHMARK.json order, with its unit."""
    from umbral import identities
    out = [("poly.mul.calls", "count"), ("poly.add.calls", "count")]
    for s in ("mul", "pow_int", "exp", "log", "compose", "revert"):
        out += [(f"series.{s}.calls", "count"), (f"series.{s}.self_s", "s")]
    out += [("combinatorics.bell_triangle.calls", "count"),
            ("combinatorics.bell_triangle.self_s", "s"),
            ("combinatorics.bell_triangle.cache_hit_ratio", "ratio"),
            ("core.register.calls", "count"), ("core.register.self_s", "s"),
            ("core.eval.self_s", "s"), ("core.moments_of.self_s", "s"),
            ("core.nf_mul.calls", "count"), ("core.nf_mul.self_s", "s"),
            ("core.nf_mul.terms_out", "count"), ("core.atoms_live", "count")]
    for c in ("dot", "inverse_umbra", "bell_umbra", "partition_umbra",
              "composition_umbra", "alpha_bar", "point_power", "scale_atom"):
        out += [(f"ops.{c}.calls", "count"), (f"ops.{c}.self_s", "s")]
    for f in ("cross_check", "revert_oracle", "revert_umbral"):
        out.append((f"inversion.{f}.incl_s", "s"))
    for e in identities.list_identities():
        out.append((f"identities.check.{e['id']}.wall_s", "s"))
    out += [("poisson.sample.self_s", "s"), ("poisson.empirical_rows.self_s", "s"),
            ("poisson.exact_moments.self_s", "s"), ("poisson.draws", "count"),
            ("cli.parse.self_s", "s"),
            ("trace.wall_s", "s"), ("trace.overhead_ops_per_s", "1/s"),
            ("trace.overhead_share", "ratio")]
    return out


def layer_values(tracer, hit_ratio: float, atoms_live: int) -> dict:
    times = tracer.layer_times()
    values = {}
    for name, _unit in per_layer_names():
        layer, _, stat = name.rpartition(".")
        if stat in ("calls", "terms_out", "draws"):
            key = name if stat != "draws" else "poisson.sample.draws"
            values[name] = tracer.count(key)
        elif stat == "self_s":
            values[name] = times.get(layer, (0.0, 0.0))[0]
        elif stat in ("incl_s", "wall_s"):
            values[name] = times.get(layer, (0.0, 0.0))[1]
    values["combinatorics.bell_triangle.cache_hit_ratio"] = hit_ratio
    values["core.atoms_live"] = atoms_live
    return values


def _atoms_live() -> int:
    from umbral.core import Atom
    gc.collect()
    return sum(1 for o in gc.get_objects() if isinstance(o, Atom))


# -- runs ---------------------------------------------------------------------------


def _summary(run: dict) -> dict:
    lat, raw = run["lat"], run["raw_lat"]
    out = {"ops": len(lat), "batches": len(run["batch_s"]), "op_ms": run["op_ms"],
           "batch_s": run["batch_s"], "wall_s": run["wall_s"],
           "unit_ms_min_median": run["unit_ms"],
           "ops_per_s": len(lat) / sum(lat) if lat else 0.0,
           "raw_ops_per_s": len(raw) / sum(raw) if raw else 0.0}
    if len(lat) >= 2:
        pct, tail = tail_percentile(lat)
        out.update(latency_p50_ms=statistics.median(lat) * 1e3,
                   latency_tail_ms=tail * 1e3, tail_pct=pct,
                   tail_beyond=sum(1 for v in lat if v > tail),
                   raw_latency_p50_ms=statistics.median(raw) * 1e3,
                   raw_latency_tail_ms=tail_percentile(raw)[1] * 1e3)
    return out


def run_untraced(args, wl_cls) -> tuple:
    env = environment()
    setup_clock = HostClock("exact")
    probes = [setup_probe(args, setup_clock) for _ in range(args.setup_probes)]
    t0 = time.perf_counter()
    wl = wl_cls(args.seed, args.size)
    local_setup = time.perf_counter() - t0
    run = measure(wl, args.batches or wl.passes(args.seconds))
    final_checks(wl, run)
    s = _summary(run)
    scaled_setup = [p[1] for p in probes]
    metrics = {
        "setup_s": statistics.median(scaled_setup) if probes else local_setup,
        "ops_per_s": s["ops_per_s"],
        "latency_p50_ms": s.get("latency_p50_ms", 0.0),
        "latency_tail_ms": s.get("latency_tail_ms", 0.0),
        "peak_rss_mb": run["peak_rss_mb"],
    }
    env["loadavg_end"] = list(os.getloadavg())
    raw_setup = statistics.median(p[0] for p in probes) if probes else local_setup
    lines = [
        f"# times are scaled to the reference host by the {wl.probe!r} unit "
        f"(reference {UNITS[wl.probe][1] * 1e3:g} ms; here min "
        f"{s['unit_ms_min_median'][0]:.3f} ms, median {s['unit_ms_min_median'][1]:.3f} ms); "
        f"raw wall times in brackets",
        f"setup_s          {metrics['setup_s']:.4f} s    (median of {len(probes)} fresh "
        f"processes: {', '.join(f'{p[1]:.3f}' for p in probes)}) [raw {raw_setup:.4f}]",
        f"ops_per_s        {s['ops_per_s']:.4f} 1/s  ({s['ops']} operations, each "
        f"the median of {s['batches']} executions; {run['wall_s']:.1f} s wall) "
        f"[raw {s['raw_ops_per_s']:.4f}]",
        f"latency_p50_ms   {metrics['latency_p50_ms']:.3f} ms   (n={s['ops']}) "
        f"[raw {s.get('raw_latency_p50_ms', 0.0):.3f}]",
        f"latency_tail_ms  {metrics['latency_tail_ms']:.3f} ms   (p{s.get('tail_pct')}, the "
        f"highest percentile with >= 10 samples beyond: {s.get('tail_beyond', 0)}, "
        f"n={s['ops']}) [raw {s.get('raw_latency_tail_ms', 0.0):.3f}]",
        f"peak_rss_mb      {metrics['peak_rss_mb']:.1f} MB",
        f"error_rate       {run['failed'] / max(1, run['attempted']):.4f}    "
        f"({run['failed']} failed / {run['attempted']} attempted)",
    ]
    if wl.name == "mc":
        lines.append(f"draws_per_s      {s['ops_per_s'] * wl.n:.4e} 1/s  "
                     f"({wl.n} draws per op)")
    return run, metrics, lines, env, {"setup_probes": probes, "setup_raw_s": raw_setup, **s}


def run_traced(args, wl_cls) -> tuple:
    from tracer import Tracer
    import workloads
    env = environment()
    batches = args.batches or 1
    # untraced reference over the same batches, in a fresh process
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--trace", "0",
           "--size", args.size, "--setup-probes", "1", "--batches", str(batches)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        _fail(f"untraced reference run failed: {proc.stderr.strip()[-500:]}")
    ref = json.loads(proc.stdout.strip().splitlines()[-1])
    untraced = ref["metrics"]["ops_per_s"]["value"]

    wl = wl_cls(args.seed, args.size)
    tracer = Tracer()
    tracer.install(extra_modules=[workloads])
    run = measure(wl, batches)
    leftover = tracer.unwrapped()
    tracer.uninstall(extra_modules=[workloads])
    final_checks(wl, run)
    if leftover:
        run["failures"].append(f"tracer: originals left unwrapped {leftover}")
        run["failed"] += 1
    s = _summary(run)
    values = layer_values(tracer, run["bell_hit_ratio"], _atoms_live())
    values["trace.wall_s"] = sum(run["batch_s"])
    values["trace.overhead_ops_per_s"] = s["ops_per_s"] - untraced
    values["trace.overhead_share"] = (untraced - s["ops_per_s"]) / untraced if untraced else 0.0
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.npz")
    run["failed"] += ref["failed"]
    run["attempted"] += ref["attempted"]
    env["loadavg_end"] = list(os.getloadavg())
    lines = [f"traced {batches} batch(es) of {s['ops']} ops, {len(tracer.name_id)} spans; "
             f"untraced {untraced:.4f} ops/s, traced {s['ops_per_s']:.4f} ops/s, "
             f"overhead {values['trace.overhead_share'] * 100:.1f}%",
             "tracer: every original wrapped in every namespace" if not leftover
             else f"tracer: LEFT UNWRAPPED {leftover}"]
    width = max(len(n) for n, _ in per_layer_names())
    for name, unit in per_layer_names():
        lines.append(f"{name:<{width}}  {values[name]:.6g} {unit}")
    return run, values, lines, env, s


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "min"), default="full",
                    help="min: smallest inputs, for the smoke check")
    ap.add_argument("--setup-probes", type=int, default=5,
                    help="fresh processes timed for setup_s")
    ap.add_argument("--batches", type=int, default=None,
                    help="run exactly this many passes instead of those --seconds sets")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    _import_engine()
    import workloads
    wl_cls = workloads.WORKLOADS.get(args.workload)
    if wl_cls is None:
        _fail(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    if args.setup_probe:
        wl_cls(args.seed, args.size)
        return 0

    if args.trace:
        run, metrics, lines, env, summary = run_traced(args, wl_cls)
        units = dict(per_layer_names())
    else:
        run, metrics, lines, env, summary = run_untraced(args, wl_cls)
        units = dict(END_TO_END)
    print(f"# perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"size={args.size} seconds={args.seconds:g}")
    print("# env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    for f in run["failures"][:20]:
        print(f"FAIL {f}")
    correct = run["failed"] == 0 and not run["failures"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "size": args.size, "seconds": args.seconds, "env": env,
              "summary": summary, "correct": correct, "attempted": run["attempted"],
              "failed": run["failed"], "failures": run["failures"][:50],
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    with open(OUT / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record, sort_keys=True) + "\n")
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, run["attempted"]),
        "failed": run["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
