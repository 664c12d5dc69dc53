"""Smoke test of the benchmark: a reduced-size run of every workload.

    python3 bench/smoke.py

Runs each workload for one second at small n_max and grid sizes, once
untraced and once traced.  Passes when every metric that BENCHMARK.json
names prints with its unit, the result line has exactly the contract's
keys, and no operation failed.  Exits 1 on the first failing run.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {0: spec["end_to_end"], 1: spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            cmd = [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload, "--seed", "1",
                   "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
            lines = proc.stdout.strip().splitlines()
            problems = []
            if proc.returncode != 0 or not lines:
                problems.append(f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}")
            else:
                result = json.loads(lines[-1])
                if set(result) != {"correct", "attempted", "failed", "metrics"}:
                    problems.append(f"result keys {sorted(result)}")
                if not result.get("correct") or result.get("failed") != 0 or result.get("attempted", 0) < 1:
                    problems.append(f"correct={result.get('correct')} failed={result.get('failed')}")
                if not any(line.startswith("fail_ratio: 0 ratio") for line in lines):
                    problems.append("no 'fail_ratio: 0 ratio' line")
                metrics = result.get("metrics", {})
                if set(metrics) != {m["name"] for m in expected[trace]}:
                    problems.append(f"metric names differ: {sorted(set(metrics) ^ {m['name'] for m in expected[trace]})}")
                for m in expected[trace]:
                    got = metrics.get(m["name"], {})
                    if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)):
                        problems.append(f"{m['name']}: {got}")
                    elif not any(line.startswith(f"{m['name']}: ") and line.endswith(f" {m['unit']}") for line in lines):
                        problems.append(f"{m['name']} not printed with its unit")
            status = "ok" if not problems else "FAIL"
            print(f"{status} {workload} trace={trace}")
            for p in problems:
                print(f"  {p}")
            if problems:
                return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
