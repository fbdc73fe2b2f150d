#!/usr/bin/env python3
"""Prove every system under systems/ and print a verdict/timing table.

    python scripts/run_corpus.py [--solver CMD] [--timeout-ms N] [--systems DIR]

Each spec is proved with the settings `coreach prove` would use (flag,
then the spec's options, then the default).  Exit codes as for
`coreach prove`: 0 all goals proved, 1 a goal failed, 2 otherwise
inconclusive (a solver unknown blocked a rule, or the solver could not run
or gave an unreadable answer).
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coreach.cli import search_config
from coreach.prover import FAILED, PROVED, Prover
from coreach.smt import resolve_solver
from coreach.specfile import parse_spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--solver", default=None)
    ap.add_argument("--timeout-ms", type=int, default=None)
    ap.add_argument("--systems", default="systems")
    args = ap.parse_args()

    print(f"solver: {' '.join(resolve_solver(args.solver).command)}")
    print(f"{'system':<18} {'goals':>5} {'proved':>6} {'time':>8}")
    failures = unproved = 0
    for path in sorted(Path(args.systems).glob("*.lrw")):
        spec = parse_spec(path.read_text())
        cfg = search_config(spec, args.solver, args.timeout_ms)
        prover = Prover(spec.system, spec.goal_set(), cfg)
        t0 = time.monotonic()
        result = prover.prove_all(spec.splits())
        dt = time.monotonic() - t0
        good = sum(1 for r in result.per_goal if r.status == PROVED)
        print(f"{path.stem:<18} {len(result.per_goal):>5} {good:>6} {dt:>7.2f}s")
        failures += sum(1 for r in result.per_goal if r.status == FAILED)
        unproved += len(result.per_goal) - good
    if failures:
        return 1
    return 2 if unproved else 0


if __name__ == "__main__":
    sys.exit(main())
