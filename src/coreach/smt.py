"""SMT backend: encode constraints to SMT-LIB 2 and drive an external solver.

`check_sat` is the only entry point: every query passes through it, and it
alone decides what an answer means.  One stateless solver run per query; the
constants true and false are answered without one.  The solver is an external
executable (z3 by default) speaking SMT-LIB over stdin/stdout; the bundled
pure-Python solver serves as the fallback and can run either in-process
(command "builtin") or as a real subprocess (command "builtin-subprocess").
An unknown answer is always legal and never enables a proof rule.
"""

from __future__ import annotations

import os
import shlex
import shutil
import subprocess
import sys
from dataclasses import dataclass
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
from .minismt.sexpr import symbol
from .signature import Signature
from .terms import Lit, Term, Var

SOLVER_ENV_VAR = "RMT_SOLVER"
DEFAULT_TIMEOUT_MS = 5000


class Verdict(Enum):
    SAT = "sat"
    UNSAT = "unsat"
    UNKNOWN = "unknown"


class Validity(Enum):
    VALID = "valid"
    INVALID = "invalid"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SmtResult:
    verdict: Verdict


@dataclass(frozen=True)
class SolverConfig:
    command: tuple[str, ...] = ("builtin",)
    timeout_ms: int = DEFAULT_TIMEOUT_MS

    def __post_init__(self):
        if self.timeout_ms <= 0:
            raise InvalidOption(f"timeout must be positive, got {self.timeout_ms} ms")


def resolve_solver(spec: str | None = None, timeout_ms: int = DEFAULT_TIMEOUT_MS) -> SolverConfig:
    """Pick the solver: explicit flag, then RMT_SOLVER, then z3 if present,
    then the bundled fallback."""
    spec = spec or os.environ.get(SOLVER_ENV_VAR)
    if spec is None:
        spec = "z3" if shutil.which("z3") else "builtin"
    if spec in ("builtin", "builtin-subprocess"):
        return SolverConfig(command=(spec,), timeout_ms=timeout_ms)
    argv = tuple(shlex.split(spec))
    if argv and os.path.basename(argv[0]) == "z3" and "-in" not in argv:
        argv = argv + ("-in",)
    return SolverConfig(command=argv, timeout_ms=timeout_ms)


# -- encoding ---------------------------------------------------------------------

def _enc_term(sig: Signature, t: Term) -> str:
    if isinstance(t, Var):
        if not t.sort.builtin:
            raise NonBuiltinResidue(f"variable {t.name} of sort {t.sort.name}")
        return symbol(t.name)
    if isinstance(t, Lit):
        if isinstance(t.value, bool):
            return "true" if t.value else "false"
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if not sig.is_builtin_symbol(t.symbol, len(t.args)):
        raise NonBuiltinResidue(f"constructor {t.symbol} survived reduction")
    args = " ".join(_enc_term(sig, a) for a in t.args)
    return f"({t.symbol} {args})"


# The SMT-LIB operator of each connective; an And or Or without parts is
# written as its unit.
_SMT_OP = {Eq: "=", Not: "not", And: "and", Or: "or", Implies: "=>", Iff: "=", Exists: "exists", Forall: "forall"}


def _enc_formula(sig: Signature, f: Formula) -> str:
    if isinstance(f, Atom):
        (t,) = atom_terms(f)
        return _enc_term(sig, t)
    args = []
    if isinstance(f, BINDERS):
        for v in f.bound:
            if not v.sort.builtin:
                raise NonBuiltinResidue(f"quantifier over {v.sort.name}")
        args.append("(" + " ".join(f"({symbol(v.name)} {v.sort.name})" for v in f.bound) + ")")
    args += [_enc_term(sig, t) for t in atom_terms(f)]
    args += [_enc_formula(sig, k) for k in children(f)]
    if not args:
        return "true" if isinstance(f, (TrueF, And)) else "false"
    return f"({_SMT_OP[type(f)]} {' '.join(args)})"


def encode(sig: Signature, f: Formula) -> str:
    """Deterministic SMT-LIB 2 script: declarations, one assertion, check-sat."""
    body = _enc_formula(sig, f)
    lines = ["(set-logic ALL)"]
    for v in sorted(free_vars(f), key=lambda v: v.name):
        if not v.sort.builtin:
            raise NonBuiltinResidue(f"variable {v.name} of sort {v.sort.name}")
        lines.append(f"(declare-const {symbol(v.name)} {v.sort.name})")
    lines.append(f"(assert {body})")
    lines.append("(check-sat)")
    return "\n".join(lines) + "\n"


# -- driving the solver -------------------------------------------------------------


def _run_solver(script: str, cfg: SolverConfig) -> str:
    timeout_s = cfg.timeout_ms / 1000.0
    if cfg.command == ("builtin",):
        from .minismt import run_script

        try:
            return "\n".join(run_script(script, timeout_s))
        except Exception as exc:
            raise MalformedSolverOutput(str(exc)) from exc
    if cfg.command == ("builtin-subprocess",):
        argv = [sys.executable, "-m", "coreach.minismt", str(timeout_s)]
    else:
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
    True and false need no solver.  A formula `encode` cannot write and a
    timeout answer unknown; a solver that cannot start or whose answer is
    unreadable raises (SolverUnavailable, MalformedSolverOutput)."""
    if isinstance(f, TrueF):
        return SmtResult(Verdict.SAT)
    if isinstance(f, FalseF):
        return SmtResult(Verdict.UNSAT)
    try:
        script = encode(sig, f)
    except NonBuiltinResidue:
        return SmtResult(Verdict.UNKNOWN)
    return SmtResult(_parse_answer(_run_solver(script, cfg)))


def check_valid(sig: Signature, f: Formula, cfg: SolverConfig) -> tuple[Validity, SmtResult]:
    """Validity via unsatisfiability of the negation; returns both views."""
    neg = Not(f)
    res = check_sat(sig, neg, cfg)
    if res.verdict == Verdict.UNSAT:
        return Validity.VALID, res
    if res.verdict == Verdict.SAT:
        return Validity.INVALID, res
    return Validity.UNKNOWN, res
