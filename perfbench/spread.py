"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads catalog,eval --seeds 1-10 --seconds 20
    python3 perfbench/spread.py --workloads eval --seeds 3,3,3,3,3

The second form repeats one seed, which separates run-to-run noise from
the variation between seeds' inputs.

For every workload and end-to-end metric it prints the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread
(IQR / median) next to the metric's bound from ``BENCHMARK.json``; a spread
above a third of the bound is flagged.  ``--out FILE`` also writes all runs
and the summary as JSON; ``baseline.json`` holds two such reports, made one
after the other, as ``first`` and ``second``.  Runs are
sequential, one process at a time, all untraced (``--trace 0``).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _seeds(text: str) -> list:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    env = json.loads(lines[1][len("# env "):])
    return {"seed": seed, "elapsed_s": elapsed, "env": env, "result": json.loads(lines[-1])}


def summarize(runs: list, bounds: dict) -> dict:
    out = {}
    for name in runs[0]["result"]["metrics"]:
        values = [r["result"]["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else float("inf"),
                     "bound": bounds.get(name),
                     "unit": runs[0]["result"]["metrics"][name]["unit"]}
    out["all_correct"] = all(r["result"]["correct"] for r in runs)
    out["elapsed_s_max"] = max(r["elapsed_s"] for r in runs)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", default="catalog,construct,eval,mc")
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=float, default=None,
                    help="default: run_seconds from BENCHMARK.json")
    ap.add_argument("--out", default=None)
    args = ap.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": seconds, "workloads": {}}
    for w in args.workloads.split(","):
        runs = []
        for seed in _seeds(args.seeds):
            runs.append(run_once(w, seed, seconds))
            print(f"{w} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.5g}" for k, v in runs[-1]["result"]["metrics"].items()),
                flush=True)
        summary = summarize(runs, bounds)
        report["workloads"][w] = {"runs": runs, "summary": summary}
        for name, s in summary.items():
            if name in ("all_correct", "elapsed_s_max"):
                print(f"  {w}: {name} = {s}")
                continue
            flag = ""
            if s["bound"] is not None and name != "setup_s" and s["spread"] > s["bound"] / 3:
                flag = "  <-- above bound/3"
            print(f"  {w} {name:<16} median {s['median']:.5g} {s['unit']:<5} "
                  f"q1 {s['q1']:.5g} q3 {s['q3']:.5g} spread {s['spread']:.3f} "
                  f"bound {s['bound']}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
