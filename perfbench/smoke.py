"""Smoke check for the benchmark itself, and a one-command summary.

    python3 perfbench/smoke.py          # every workload at tiny size, about a minute
    python3 perfbench/smoke.py --full   # full size, run_seconds from BENCHMARK.json

Runs every workload of BENCHMARK.json untraced and traced, and fails (exit 1)
unless each run exits 0, reports correct outputs, and prints exactly the
metrics BENCHMARK.json names for that mode, each with its declared unit. It
then prints every workload's timings under their own names, with units and
sample counts.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _run(workload: str, trace: int, seconds: int, full: bool):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", "1", "--seconds", str(seconds), "--trace", str(trace)]
    if not full:
        cmd.append("--smoke")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        return None, None, [f"exit {proc.returncode}: {proc.stderr[-1500:]}"]
    return json.loads(lines[-2]), json.loads(lines[-1]), []


def _problems(result: dict, declared: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("outputs not correct")
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append(f"metric names differ: missing {sorted(set(want) - set(metrics))}, "
                        f"extra {sorted(set(metrics) - set(want))}")
    for name, unit in want.items():
        got = metrics.get(name, {})
        value = got.get("value")
        if got.get("unit") != unit:
            problems.append(f"{name}: unit {got.get('unit')!r}, declared {unit!r}")
        if isinstance(value, bool) or not isinstance(value, (int, float)) \
                or not math.isfinite(value):
            problems.append(f"{name}: value {value!r} is not a finite number")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/smoke.py")
    parser.add_argument("--full", action="store_true")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"] if args.full else 1
    failures = 0
    for w in bench["workloads"]:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            details, result, problems = _run(w["name"], trace, seconds, args.full)
            if result is not None:
                problems = _problems(result, declared)
            status = "ok" if not problems else "FAIL"
            print(f"{status:4}  {w['name']} --trace {trace}")
            for p in problems:
                print(f"      {p}")
            failures += bool(problems)
            if trace == 0 and details is not None:
                print(f"      outputs_sha256 {details['outputs_sha256']}")
                for name, m in sorted(details["named"].items()):
                    wall = f", wall {m['wall']:.6g} {m['unit']}" if "wall" in m else ""
                    print(f"      {name:28} {m['value']:.6g} {m['unit']} "
                          f"(n={m['n']}{wall})")
    print("smoke check", "passed" if not failures else f"failed ({failures} runs)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
