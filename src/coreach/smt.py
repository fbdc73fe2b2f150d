"""SMT backend: write constraints as SMT-LIB 2 queries and drive a solver.

`check_sat` is the only entry point: every query passes through it, and it
alone decides what an answer means.  The constants true and false are
answered without a solver.  Every other formula becomes one query, built
once as SMT-LIB forms (`query`).  The solver is an external executable (z3
by default) speaking SMT-LIB over stdin/stdout; the bundled pure-Python
solver serves as the fallback and runs either in-process (command
"builtin"), where it reads the query's forms and no text is written or
parsed, or as a real subprocess (command "builtin-subprocess").  Only a
solver process gets the query's text (`encode`).  An unknown answer is
always legal and never enables a proof rule.

A `SolverConfig` carries a solver session (`Session`): each prover run has
its own, and the oracle's derivative cross-check has one for the whole
process.  A session remembers the verdict of every query it got `sat` or
`unsat` for, keyed by the query's forms, and answers a repeated query
without a solver run; `unknown` is never remembered, so a query that got it
is sent again.  For "builtin-subprocess" the session keeps one solver
process that reads commands as they come and answers each query after a
`(reset)`; a process that died, or has not answered `timeout_ms` + 2 s
after the query was sent, answers that query unknown and is killed, and the
next query starts a new one.  Closing the session stops its process.  An
external solver gets one process per query and is read for the first line
of its output.
"""

from __future__ import annotations

import os
import select
import shlex
import shutil
import subprocess
import sys
import time
import weakref
from dataclasses import dataclass, field
from enum import Enum

from .errors import InvalidOption, MalformedSolverOutput, NonBuiltinResidue, SolverUnavailable
from .formulas import (
    BINDERS,
    And,
    Atom,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TrueF,
    atom_terms,
    children,
    free_vars,
)
from .minismt.sexpr import unparse
from .signature import Signature
from .terms import Lit, Term, Var

SOLVER_ENV_VAR = "RMT_SOLVER"
DEFAULT_TIMEOUT_MS = 5000


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SmtResult:
    verdict: Verdict


class Session:
    """The solver state of one run: the verdict of every query answered sat
    or unsat, and the run's solver process, if it keeps one."""

    def __init__(self):
        self.verdicts: dict[tuple, Verdict] = {}  # keyed by the query's forms
        self.proc: subprocess.Popen | None = None  # the latest process started
        self._stop = None  # stops `proc`, at the latest when the session is collected
        self._pending = b""  # what the process wrote past the last line read

    def ask(self, argv: list[str], script: str, timeout_s: float) -> str:
        """The first line the session's process answers to `script`, after a
        (reset); a process is started when the session has none that it has
        not stopped.  A process that has died or is silent for `timeout_s`
        answers unknown; it is stopped, as is one that answers anything but
        a verdict."""
        if self._stop is None or not self._stop.alive:
            try:
                self.proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
            except FileNotFoundError as exc:
                raise SolverUnavailable(f"cannot run {argv[0]}") from exc
            self._stop = weakref.finalize(self, _stop_process, self.proc)
            self._pending = b""
        try:
            self.proc.stdin.write(b"(reset)\n" + script.encode())
            self.proc.stdin.flush()
        except OSError:  # it died
            line = None
        else:
            line = self._read_line(time.monotonic() + timeout_s)
        if line not in ("sat", "unsat", "unknown"):
            self.close()
        return "unknown" if line is None else line

    def _read_line(self, deadline: float) -> str | None:
        """The next non-blank line of the process's output; None at its end
        or once `deadline` has passed."""
        fd = self.proc.stdout.fileno()
        while True:
            line, newline, rest = self._pending.partition(b"\n")
            if newline:
                self._pending = rest
                if line.strip():
                    return line.decode(errors="replace").strip()
                continue
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                return None
            chunk = os.read(fd, 1 << 16)
            if not chunk:
                return None
            self._pending += chunk

    def close(self) -> None:
        """Stop the session's process, if it has one; the memo stays."""
        if self._stop is not None:
            self._stop()


def _stop_process(proc: subprocess.Popen) -> None:
    proc.kill()
    proc.wait()
    proc.stdout.close()
    try:
        proc.stdin.close()
    except OSError:  # unflushed input to a process that is gone
        pass


@dataclass(frozen=True)
class SolverConfig:
    """A solver and its per-query timeout, with the session of the run that
    uses them.  The session is not an argument: every config, copies made by
    `dataclasses.replace` included, starts a fresh one."""

    command: tuple[str, ...] = ("builtin",)
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    session: Session = field(default_factory=Session, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.command or not self.command[0]:
            raise InvalidOption("empty solver command")
        if self.timeout_ms <= 0:
            raise InvalidOption(f"timeout must be positive, got {self.timeout_ms} ms")


def resolve_solver(spec: str | None = None, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> SolverConfig:
    """Pick the solver: explicit flag, then RMT_SOLVER, then z3 if present,
    then the bundled fallback.  A blank flag or variable counts as unset."""
    spec = (spec or "").strip() or os.environ.get(SOLVER_ENV_VAR, "").strip()
    if not spec:
        spec = "z3" if shutil.which("z3") else "builtin"
    if spec in ("builtin", "builtin-subprocess"):
        return SolverConfig(command=(spec,), timeout_ms=timeout_ms)
    argv = tuple(shlex.split(spec))
    if argv and os.path.basename(argv[0]) == "z3" and "-in" not in argv:
        argv = argv + ("-in",)
    return SolverConfig(command=argv, timeout_ms=timeout_ms)


# -- encoding ---------------------------------------------------------------------
#
# A query is built once as SMT-LIB forms (`minismt.sexpr`'s nested tuples of
# `str` and `int`); a negative literal is the form ("-", 5), as `(- 5)` reads.


def _enc_term(sig: Signature, t: Term):
    if isinstance(t, Var):
        if not t.sort.builtin:
            raise NonBuiltinResidue(f"variable {t.name} of sort {t.sort.name}")
        return t.name
    if isinstance(t, Lit):
        if isinstance(t.value, bool):
            return "true" if t.value else "false"
        return t.value if t.value >= 0 else ("-", -t.value)
    if not sig.is_builtin_symbol(t.symbol, len(t.args)):
        raise NonBuiltinResidue(f"constructor {t.symbol} survived reduction")
    return (t.symbol, *(_enc_term(sig, a) for a in t.args))


# The SMT-LIB operator of each connective; an And or Or without parts is
# written as its unit.
_SMT_OP = {Eq: "=", Not: "not", And: "and", Or: "or", Implies: "=>", Iff: "=", Exists: "exists", Forall: "forall"}


def _enc_formula(sig: Signature, f: Formula):
    if isinstance(f, Atom):
        (t,) = atom_terms(f)
        return _enc_term(sig, t)
    args = []
    if isinstance(f, BINDERS):
        for v in f.bound:
            if not v.sort.builtin:
                raise NonBuiltinResidue(f"quantifier over {v.sort.name}")
        args.append(tuple((v.name, v.sort.name) for v in f.bound))
    args += [_enc_term(sig, t) for t in atom_terms(f)]
    args += [_enc_formula(sig, k) for k in children(f)]
    if not args:
        return "true" if isinstance(f, (TrueF, And)) else "false"
    return (_SMT_OP[type(f)], *args)


def query(sig: Signature, f: Formula) -> tuple:
    """The deterministic SMT-LIB commands that ask for f: declarations, one
    assertion, check-sat."""
    body = _enc_formula(sig, f)
    forms = [("set-logic", "ALL")]
    for v in sorted(free_vars(f), key=lambda v: v.name):
        if not v.sort.builtin:
            raise NonBuiltinResidue(f"variable {v.name} of sort {v.sort.name}")
        forms.append(("declare-const", v.name, v.sort.name))
    forms.append(("assert", body))
    forms.append(("check-sat",))
    return tuple(forms)


def _script(forms: tuple) -> str:
    """The text of a query's forms, one command a line."""
    return "".join(unparse(form) + "\n" for form in forms)


def encode(sig: Signature, f: Formula) -> str:
    """The SMT-LIB 2 script of `query(sig, f)`."""
    return _script(query(sig, f))


# -- driving the solver -------------------------------------------------------------


def _builtin_argv(timeout_s: float) -> list[str]:
    """The bundled solver as a process that answers queries as they come."""
    return [sys.executable, "-m", "coreach.minismt", str(timeout_s)]


def _run_solver(forms: tuple, cfg: SolverConfig) -> str:
    """The solver's output for a query: the bundled solver in-process reads
    its forms, every other solver its text."""
    timeout_s = cfg.timeout_ms / 1000.0
    if cfg.command == ("builtin",):
        from .minismt import solver

        try:
            return "\n".join(solver.run_commands(forms, timeout_s))
        except Exception as exc:
            raise MalformedSolverOutput(str(exc)) from exc
    script = _script(forms)
    if cfg.command == ("builtin-subprocess",):
        return cfg.session.ask(_builtin_argv(timeout_s), script, timeout_s + 2.0)
    argv = list(cfg.command)
    try:
        proc = subprocess.run(
            argv,
            input=script,
            capture_output=True,
            text=True,
            timeout=timeout_s + 2.0,
        )
    except FileNotFoundError as exc:
        raise SolverUnavailable(f"cannot run {argv[0]}") from exc
    except subprocess.TimeoutExpired:
        return "unknown"
    return proc.stdout


def _parse_answer(output: str) -> Verdict:
    first = next((ln.strip() for ln in output.splitlines() if ln.strip()), None)
    if first is None:
        raise MalformedSolverOutput("empty solver output")
    if first == "sat":
        return Verdict.SAT
    if first == "unsat":
        return Verdict.UNSAT
    if first == "unknown" or first.startswith("(:reason-unknown"):
        return Verdict.UNKNOWN
    raise MalformedSolverOutput(f"unrecognized answer {first!r}")


def check_sat(sig: Signature, f: Formula, cfg: SolverConfig) -> SmtResult:
    """Satisfiability of f in the builtin model, the only solver entry point.
    True and false need no solver, nor does a query the session already
    got sat or unsat for.  A formula `query` cannot write and a timeout
    answer unknown; a solver that cannot start or whose answer is unreadable
    raises (SolverUnavailable, MalformedSolverOutput)."""
    if isinstance(f, TrueF):
        return SmtResult(Verdict.SAT)
    if isinstance(f, FalseF):
        return SmtResult(Verdict.UNSAT)
    try:
        forms = query(sig, f)
    except NonBuiltinResidue:
        return SmtResult(Verdict.UNKNOWN)
    verdicts = cfg.session.verdicts
    verdict = verdicts.get(forms)
    if verdict is None:
        verdict = _parse_answer(_run_solver(forms, cfg))
        if verdict != Verdict.UNKNOWN:
            verdicts[forms] = verdict
    return SmtResult(verdict)
