"""Run the solver as a process that speaks SMT-LIB on stdin and stdout.

    python -m coreach.minismt [TIMEOUT_S]

Commands are read and run one at a time, as they arrive, and each output
line is flushed at once: a (check-sat) answers `sat`, `unsat` or `unknown`
on one line before the next command is read, so one process serves a whole
session of queries, as `smt.check_sat` uses it for `builtin-subprocess`.
(reset) forgets every declaration and assertion.  TIMEOUT_S (default 30)
is each check-sat's safety-net deadline.  The process ends at (exit) or at
the end of its input.  A command it cannot run is answered `(error "...")`
and ends the process with status 1.
"""

import sys

from .sexpr import read_forms
from .solver import run_commands


def main() -> int:
    timeout = float(sys.argv[1]) if len(sys.argv) > 1 else 30.0
    try:
        for line in run_commands(read_forms(sys.stdin), timeout):
            print(line, flush=True)
    except Exception as exc:  # a malformed command is the caller's bug
        print(f'(error "{exc}")', flush=True)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
