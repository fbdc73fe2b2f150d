#!/usr/bin/env python3
"""Sweep the one-step commutation check over the corpus: for sampled
constrained terms, the instances of the symbolic successors must equal the
ground one-step image on a bounded domain.

    python scripts/check_commutation.py [--bound B]
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from coreach.formulas import ConstrainedTerm, TRUE, free_vars
from coreach.oracle import Domain, check_derivative_theorem
from coreach.specfile import parse_spec


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bound", type=int, default=8)
    ap.add_argument("--systems", default="systems")
    args = ap.parse_args()

    bad = 0
    for path in sorted(Path(args.systems).glob("*.lrw")):
        spec = parse_spec(path.read_text())
        terms = [d.formula.lhs for d in spec.goals]
        terms += [ConstrainedTerm(r.lhs, r.guard) for r in spec.system.rules]
        n_vars = max((len(free_vars(ct)) for ct in terms), default=1)
        dom = Domain(min(args.bound, 4) if n_vars > 2 else args.bound)
        t0 = time.monotonic()
        failures = []
        for ct in terms:
            rep = check_derivative_theorem(spec.system, ct, dom)
            if not rep.ok:
                failures.append((ct, rep))
        dt = time.monotonic() - t0
        status = "ok" if not failures else f"{len(failures)} MISMATCHES"
        print(f"{path.stem:<18} bound={dom.bound} terms={len(terms):>3} {status} ({dt:.2f}s)")
        bad += len(failures)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
