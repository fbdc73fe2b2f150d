#!/usr/bin/env python3
"""List the function-body lines of src/ that the tier-1 suite never runs.

    python scripts/never_run.py [PYTEST_ARG ...]

Runs `python -m pytest -q` from the repository root (tests/conftest.py
derandomizes the property tests, so the count repeats) with a line tracer
(`sys.settrace`) in the test process and in every Python process it
starts that inherits PYTHONPATH, such as the `coreach` CLI runs of the
tests: a generated `sitecustomize` on PYTHONPATH installs the tracer at
start-up.
Each process appends every src/ line it runs for the first time to a file
of its own as it goes, so a process that is killed still counts.

A function-body line is a line of a function's code object (lambdas and
comprehensions included, module and class bodies not) other than its
`def` line.  The report lists the lines no process ran, by file and
function, one block of consecutive lines to a row; a block whose last line
belongs to a `raise` statement is marked [raise].  The last lines give the
count of never-run lines and the line count of src/.  Arguments are passed
on to pytest.  The exit code is pytest's.
"""

import ast
import inspect
import os
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
FUNCTION_FLAGS = inspect.CO_OPTIMIZED | inspect.CO_NEWLOCALS  # set for functions, not module or class bodies

# Installed in every traced process.  The output directory and the source
# root are filled in as literals, so the tracer needs nothing from outside.
SITECUSTOMIZE = '''
import os, sys, threading

_root = {root!r}
_fd = os.open(os.path.join({out!r}, "lines.%d" % os.getpid()), os.O_WRONLY | os.O_CREAT | os.O_APPEND)
_seen = set()


def _local(frame, event, arg):
    if event == "line":
        key = (frame.f_code.co_filename, frame.f_lineno)
        if key not in _seen:
            _seen.add(key)
            os.write(_fd, ("%s:%d\\n" % key).encode())
    return _local


def _global(frame, event, arg):
    if frame.f_code.co_filename.startswith(_root):
        return _local(frame, event, arg)
    return None


sys.settrace(_global)
threading.settrace(_global)
'''


def executable_lines(path: Path) -> dict[tuple[str, int], str]:
    """(file, line) -> qualified function name for every function-body line."""
    code = compile(path.read_text(), str(path), "exec")
    out: dict[tuple[str, int], str] = {}

    def walk(co):
        for const in co.co_consts:
            if hasattr(const, "co_lines"):
                if const.co_flags & FUNCTION_FLAGS == FUNCTION_FLAGS:
                    lines = {ln for _, _, ln in const.co_lines() if ln is not None}
                    if len(lines) > 1:
                        lines.discard(const.co_firstlineno)
                    for ln in lines:
                        out.setdefault((str(path), ln), const.co_qualname)
                walk(const)

    walk(code)
    return out


def raise_lines(path: Path) -> set[int]:
    """The lines that belong to some `raise` statement."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            out.update(range(node.lineno, node.end_lineno + 1))
    return out


def main() -> int:
    files = sorted(SRC.rglob("*.py"))
    with tempfile.TemporaryDirectory() as tmp:
        site, out = Path(tmp, "site"), Path(tmp, "out")
        site.mkdir()
        out.mkdir()
        (site / "sitecustomize.py").write_text(SITECUSTOMIZE.format(root=str(SRC), out=str(out)))
        path_var = os.pathsep.join(filter(None, [str(site), str(SRC), os.environ.get("PYTHONPATH")]))
        env = {**os.environ, "PYTHONPATH": path_var}
        argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *sys.argv[1:]]
        code = subprocess.run(argv, cwd=ROOT, env=env).returncode
        ran = set()
        for f in out.iterdir():
            for row in f.read_text().splitlines():
                name, _, line = row.rpartition(":")
                ran.add((name, int(line)))

    never: dict[tuple[str, str], list[int]] = defaultdict(list)
    raises: dict[str, set[int]] = {}
    for path in files:
        for (name, line), func in sorted(executable_lines(path).items()):
            if (name, line) not in ran:
                never[(name, func)].append(line)
        raises[str(path)] = raise_lines(path)
    count = 0
    for (name, func), lines in never.items():
        blocks = [[lines[0]]]
        for ln in lines[1:]:
            if ln == blocks[-1][-1] + 1:
                blocks[-1].append(ln)
            else:
                blocks.append([ln])
        shown = []
        for b in blocks:
            span = str(b[0]) if len(b) == 1 else f"{b[0]}-{b[-1]}"
            shown.append(span + (" [raise]" if b[-1] in raises[name] else ""))
        count += len(lines)
        print(f"{Path(name).relative_to(ROOT)}:{func}: {', '.join(shown)}")
    total = sum(len(p.read_text().splitlines()) for p in files)
    print(f"never-run function-body lines: {count}")
    print(f"src/ lines: {total}")
    return code


if __name__ == "__main__":
    sys.exit(main())
