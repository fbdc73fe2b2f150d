#!/usr/bin/env python3
"""Smoke test of the benchmark itself, at minimal size (a minute or two).

    python3 perfbench/smoke.py

Checks the gate, not the program's speed:
  * every workload prints every end-to-end metric of BENCHMARK.json with
    its unit, and its traced run every per-layer metric;
  * the deterministic counts repeat exactly across two traced runs;
  * a planted wrong expected verdict makes the command fail.
Exits 0 when all hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DETERMINISTIC = ("prover.nodes", "smt.check_sat.calls", "smt.queries_distinct")


def bench(*args: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else None


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []

    def expect(cond: bool, what: str) -> None:
        print(f"{'ok  ' if cond else 'FAIL'} {what}")
        if not cond:
            problems.append(what)

    def check_metrics(out: dict | None, wanted: list[dict], what: str) -> None:
        got = out["metrics"] if out else {}
        units = {m["name"]: m["unit"] for m in wanted}
        expect(set(got) == set(units), f"{what}: metric names match BENCHMARK.json")
        expect(all(got[k]["unit"] == u for k, u in units.items() if k in got), f"{what}: units match")

    small = ("--seconds", "1", "--max-jobs", "1")
    for wl in spec["workloads"]:
        name = wl["name"]
        code, out = bench("--workload", name, "--seed", "5", "--trace", "0", *small)
        expect(code == 0 and out is not None and out["correct"], f"{name}: untraced run passes the gate")
        check_metrics(out, spec["end_to_end"], f"{name} untraced")
        code, out = bench("--workload", name, "--seed", "5", "--trace", "1", *small)
        expect(code == 0 and out is not None and out["correct"], f"{name}: traced run passes the gate")
        check_metrics(out, spec["per_layer"], f"{name} traced")

    runs = [bench("--workload", "corpus", "--seed", "7", "--trace", "1", "--seconds", "1", "--max-jobs", "3")[1]
            for _ in range(2)]
    for key in DETERMINISTIC:
        values = [r["metrics"][key]["value"] if r else None for r in runs]
        expect(values[0] is not None and values[0] > 0 and values[0] == values[1], f"{key} repeats exactly: {values}")

    code, out = bench("--workload", "corpus", "--seed", "5", "--trace", "0", "--seconds", "1", "--max-jobs", "2", "--plant-wrong")
    expect(code != 0 and out is not None and not out["correct"] and out["failed"] >= 1,
           f"planted wrong verdict fails the command (exit {code})")

    print(f"{len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
