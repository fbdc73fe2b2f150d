"""Command-line driver.

    coreach prove FILE        run the prover on every goal in the file
    coreach derive FILE --term "t /\\ phi"   print the symbolic successors
    coreach oracle FILE       brute-force the goals on a finite domain
    coreach check-graph FILE  export the reachable transition graph
    coreach validate FILE     signature and spec checks only

Exit codes: 0 proved/valid, 1 failure, 2 inconclusive, 3 input error,
141 (128 + SIGPIPE) stdout closed by its reader, which claims no verdict.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from contextlib import closing, suppress

from .errors import CoreachError, DerivativeRefused, MalformedSolverOutput, SolverUnavailable
from .formulas import pretty_constrained, pretty_formula, pretty_term
from .prover import (
    AUDIT,
    FAILED,
    INCONCLUSIVE,
    PROVED,
    UNKNOWN,
    Prover,
    SearchConfig,
    render_json,
    render_text,
)
from .rewriting import derivatives
from .signature import Violation
from .smt import DEFAULT_TIMEOUT_MS, SolverConfig, resolve_solver
from .specfile import SpecFile, parse_spec, parse_cterm_in
from .terms import FreshCounter


# The default of each spec option, which the option overrides and the flag
# of the same name overrides in turn.
DEFAULTS = {
    "max-depth": SearchConfig.max_der_depth,
    "timeout-ms": DEFAULT_TIMEOUT_MS,
    "bound": 8,
    "steps": 10_000,
}


class _ArgumentParser(argparse.ArgumentParser):
    """Usage errors are input errors: they exit 3, not argparse's 2, which
    this CLI reserves for inconclusive runs."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(3, f"{self.prog}: error: {message}\n")


def _diagnostic(line: str) -> None:
    """Print a diagnostic on stderr.  A closed stderr drops it and leaves the
    exit code as it is: only a closed stdout exits 141."""
    with suppress(BrokenPipeError):
        print(line, file=sys.stderr)


def _solver_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--solver", default=None, help="solver command (default: $RMT_SOLVER, z3, or builtin)")
    p.add_argument("--timeout-ms", type=int, default=None, help="per-query solver timeout")


def _domain_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--bound", type=int, default=None, help=f"integer domain bound (default {DEFAULTS['bound']})")
    p.add_argument("--steps", type=int, default=None, help=f"graph expansion budget (default {DEFAULTS['steps']})")


@functools.cache
def build_arg_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one in the process: each `main` of a batch would otherwise rebuild
    the whole tree.  `set_defaults(run=cmd_*)` binds the command functions
    once, so patching one of them after the first `main` has no effect."""
    top = _ArgumentParser(prog="coreach", description=__doc__.splitlines()[0])
    sub = top.add_subparsers(dest="command", required=True)

    def command(name: str, run, help: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help)
        p.add_argument("file", help="specification file")
        p.set_defaults(run=run)
        return p

    p = command("prove", cmd_prove, "prove the reachability goals")
    _solver_flags(p)
    depth_help = f"derivative-step bound (default {DEFAULTS['max-depth']})"
    p.add_argument("--max-depth", type=int, default=None, help=depth_help)
    p.add_argument("--dump-proof", choices=["text", "json"], default=None)

    p = command("derive", cmd_derive, "print the symbolic successors of a constrained term")
    _solver_flags(p)
    p.add_argument("--term", required=True, help='constrained term, e.g. "init(n) /\\ n > 0"')

    _domain_flags(command("oracle", cmd_oracle, "check the goals by brute force on a finite domain"))

    p = command("check-graph", cmd_check_graph, "build and export the reachable transition graph")
    _domain_flags(p)
    p.add_argument("--dot", default=None, help="write a DOT document to this path")

    command("validate", None, "parse and check the specification only")
    return top


def _load(path: str) -> tuple[SpecFile, list[Violation]]:
    """The spec in `path` and its signature's violations, each reported on
    stderr: `validate` counts them, and every other command refuses the
    spec (exit 3)."""
    with open(path, encoding="utf-8") as handle:
        spec = parse_spec(handle.read())
    violations = spec.signature.validate()
    for v in violations:
        _diagnostic(f"violation: {v}")
    return spec, violations


def _solver_config(spec: SpecFile, solver: str | None, timeout_ms: int | None) -> SolverConfig:
    return resolve_solver(solver, timeout_ms=_pick(timeout_ms, spec, "timeout-ms"))


def _pick(cli_value, spec: SpecFile, key: str):
    if cli_value is not None:
        return cli_value
    return spec.options.get(key, DEFAULTS[key])


def search_config(
    spec: SpecFile,
    solver: str | None = None,
    timeout_ms: int | None = None,
    max_depth: int | None = None,
) -> SearchConfig:
    """The prover's settings for a spec, shared with scripts/run_corpus.py:
    a flag wins over the spec's option, which wins over the default."""
    return SearchConfig(
        max_der_depth=_pick(max_depth, spec, "max-depth"),
        solver=_solver_config(spec, solver, timeout_ms),
    )


def cmd_prove(args, spec: SpecFile) -> int:
    cfg = search_config(spec, args.solver, args.timeout_ms, args.max_depth)
    with closing(cfg.solver.session):
        result = Prover(spec.system, spec.goal_set(), cfg).prove_all(spec.splits())
    had_failure = False
    inconclusive = False
    for decl, res in zip(spec.goals, result.per_goal):
        label = f"{decl.kind} {pretty_constrained(decl.formula.lhs)} => {pretty_constrained(decl.formula.rhs)}"
        print(f"[{res.status}] {label}")
        if res.status == PROVED:
            if args.dump_proof == "text":
                print(render_text(res.tree, indent=1))
            elif args.dump_proof == "json":
                print(render_json(res.tree))
        elif res.status in (FAILED, INCONCLUSIVE):
            had_failure = had_failure or res.status == FAILED
            inconclusive = inconclusive or res.status == INCONCLUSIVE
            for og in res.frontier:
                reason = f"{og.reason} {og.role}" if og.reason == UNKNOWN else og.reason
                _diagnostic(f"  open [{reason}]: {pretty_constrained(og.formula.lhs)}")
                if og.reason == UNKNOWN:
                    _diagnostic(f"    query: {pretty_formula(og.query)}")
                elif og.detail:
                    _diagnostic(f"    {'defect' if og.reason == AUDIT else 'refused'}: {og.detail}")
        else:
            inconclusive = True
            _diagnostic(f"  aborted: {res.detail}")
    if had_failure:
        return 1
    if inconclusive:
        return 2
    return 0


def cmd_derive(args, spec: SpecFile) -> int:
    ct = parse_cterm_in(spec, args.term)
    cfg = _solver_config(spec, args.solver, args.timeout_ms)
    try:
        with closing(cfg.session):
            successors = derivatives(spec.system, ct, FreshCounter(), cfg)
    except (SolverUnavailable, MalformedSolverOutput) as exc:
        _diagnostic(f"aborted: {exc}")  # a solver failure, not an input error
        return 2
    except DerivativeRefused as exc:
        _diagnostic(f"refused: {exc}")  # successors could be missing
        return 2
    for d in successors:
        print(pretty_constrained(d))
    return 0


def cmd_oracle(args, spec: SpecFile) -> int:
    from .oracle import Domain, build_graph, check_dvp, goal_instances

    dom = Domain(_pick(args.bound, spec, "bound"))
    steps = _pick(args.steps, spec, "steps")
    worst = 0  # 0 valid, 1 inconclusive, 2 invalid
    for decl in spec.goals:
        verdicts = []
        for p, q in goal_instances(spec.signature, decl.formula, dom):
            if not p:
                continue
            graph = build_graph(spec.system, p, dom, steps)
            verdicts.append(check_dvp(graph, p, q))
        invalid = next((v for v in verdicts if v.kind == "invalid"), None)
        inconclusive = next((v for v in verdicts if v.kind == "inconclusive"), None)
        if invalid is not None:
            worst = max(worst, 2)
            path = " -> ".join(pretty_term(t) for t in invalid.path)
            print(f"[invalid] {decl.kind} goal: counterexample {path}")
        elif inconclusive is not None:
            worst = max(worst, 1)
            print(f"[inconclusive] {decl.kind} goal: frontier at {pretty_term(inconclusive.witness)}")
        else:
            print(f"[valid] {decl.kind} goal ({len(verdicts)} instantiations)")
    return {0: 0, 1: 2, 2: 1}[worst]


def cmd_check_graph(args, spec: SpecFile) -> int:
    from .oracle import Domain, build_graph, edge_list, enumerate_instances, to_dot

    dom = Domain(_pick(args.bound, spec, "bound"))
    steps = _pick(args.steps, spec, "steps")
    seeds = set()
    for decl in spec.goals:
        seeds |= enumerate_instances(spec.signature, decl.formula.lhs, dom)
    graph = build_graph(spec.system, frozenset(seeds), dom, steps)
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as handle:
            handle.write(to_dot(graph))
        print(f"wrote {args.dot} ({len(graph.nodes)} nodes)")
    else:
        print(edge_list(graph))
    _diagnostic(
        f"# {len(graph.nodes)} nodes, {sum(len(s) for s in graph.edges.values())} edges, "
        f"{len(graph.frontier_exceeded)} frontier"
    )
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_arg_parser().parse_args(argv)
    try:
        spec, violations = _load(args.file)
        if args.command == "validate":
            print(f"{args.file}: {len(spec.system.rules)} rules, {len(spec.goals)} goals, {len(violations)} violations")
            code = 1 if violations else 0
        else:
            code = 3 if violations else args.run(args, spec)
        sys.stdout.flush()  # a closed stdout raises here, not in the flush at exit
        return code
    except BrokenPipeError:
        # stdout now writes to devnull, so the flush at exit cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (FileNotFoundError, CoreachError) as exc:
        _diagnostic(f"error: {exc}")
        return 3


if __name__ == "__main__":
    sys.exit(main())
