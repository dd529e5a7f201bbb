"""Smoke check: every workload at minimum size, untraced and traced, must
exit 0, report a correct result and print every metric BENCHMARK.json
names (end-to-end metrics untraced, per-layer metrics traced).

    python3 perfbench/smoke.py

Takes about a minute; stdlib only.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {0: [m["name"] for m in spec["end_to_end"]],
              1: [m["name"] for m in spec["per_layer"]]}
    problems = []
    for w in (x["name"] for x in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", w,
                   "--seed", "1", "--seconds", "0.5", "--trace", str(trace),
                   "--size", "min", "--setup-probes", "1"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=300)
            tag = f"{w} trace={trace}"
            if proc.returncode != 0:
                problems.append(f"{tag}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"]:
                problems.append(f"{tag}: not correct ({result['failed']} failed)")
            text = "\n".join(lines[:-1])
            for name in wanted[trace]:
                if name not in result["metrics"]:
                    problems.append(f"{tag}: {name} missing from the result")
                elif name not in text:
                    problems.append(f"{tag}: {name} not printed")
            extra = set(result["metrics"]) - set(wanted[trace])
            if extra:
                problems.append(f"{tag}: metrics not in BENCHMARK.json: {sorted(extra)}")
            print(f"{tag}: ok ({result['attempted']} attempted)" if not problems
                  else f"{tag}: {len(problems)} problem(s) so far", flush=True)
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
