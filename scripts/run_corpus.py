#!/usr/bin/env python3
"""Prove every system under systems/ and print a verdict/timing table.

    python scripts/run_corpus.py [--solver CMD] [--timeout-ms N] [--systems DIR] [--cli]

Each spec is proved with the settings `coreach prove` would use (flag,
then the spec's options, then the default).  By default the specs are
proved in this interpreter and a row times parsing and proving one; with
--cli each spec is proved by its own `python -m coreach.cli prove FILE`
process and a row times that whole process, interpreter start included
(the measure for comparing `--solver builtin-subprocess` with `builtin`).
The last row is the total.  Exit codes as for `coreach prove`: 0 all goals
proved, 1 a goal failed, 2 otherwise inconclusive (a solver unknown blocked
a rule, or the solver could not run or gave an unreadable answer).
"""

import argparse
import os
import re
import subprocess
import sys
import time
from contextlib import closing
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from coreach.cli import search_config
from coreach.prover import FAILED, PROVED, Prover
from coreach.smt import resolve_solver
from coreach.specfile import parse_spec


def prove_here(path: Path, args) -> list[str]:
    """The goal statuses of one spec, proved in this interpreter."""
    spec = parse_spec(path.read_text())
    cfg = search_config(spec, args.solver, args.timeout_ms)
    with closing(cfg.solver.session):
        result = Prover(spec.system, spec.goal_set(), cfg).prove_all(spec.splits())
    return [r.status for r in result.per_goal]


def prove_in_cli(path: Path, args) -> list[str]:
    """The goal statuses of one spec, proved by a `coreach prove` process."""
    argv = [sys.executable, "-m", "coreach.cli", "prove", str(path)]
    if args.solver is not None:
        argv += ["--solver", args.solver]
    if args.timeout_ms is not None:
        argv += ["--timeout-ms", str(args.timeout_ms)]
    path_var = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(argv, capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path_var})
    if proc.returncode not in (0, 1, 2):
        sys.exit(f"{path}: {proc.stderr.strip()}")
    return re.findall(r"^\[(\w+)\]", proc.stdout, re.MULTILINE)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--solver", default=None)
    ap.add_argument("--timeout-ms", type=int, default=None)
    ap.add_argument("--systems", default="systems")
    ap.add_argument("--cli", action="store_true", help="time one `coreach prove` process per spec")
    args = ap.parse_args()

    prove = prove_in_cli if args.cli else prove_here
    print(f"solver: {' '.join(resolve_solver(args.solver).command)}")
    print(f"{'system':<18} {'goals':>5} {'proved':>6} {'time':>8}")
    statuses, total = [], 0.0
    for path in sorted(Path(args.systems).glob("*.lrw")):
        t0 = time.monotonic()
        got = prove(path, args)
        dt = time.monotonic() - t0
        print(f"{path.stem:<18} {len(got):>5} {got.count(PROVED):>6} {dt:>7.2f}s")
        statuses += got
        total += dt
    print(f"{'total':<18} {len(statuses):>5} {statuses.count(PROVED):>6} {total:>7.2f}s")
    if FAILED in statuses:
        return 1
    return 2 if statuses.count(PROVED) < len(statuses) else 0


if __name__ == "__main__":
    sys.exit(main())
