"""Outside-in tracing: spans around calls into coreach's public functions.

The wrappers are installed from the benchmark's own files at the names the
callers use (modules import by name, so ``coreach.prover.check_sat`` and
``coreach.smt.check_sat`` are separate bindings of one function).  Nothing
under ``src/`` changes.  Spans stay in memory; the worker hands them to the
benchmark, which writes them out when the run ends.

A span is ``[name, start, end, parent, job, attrs]`` with ``parent`` the
index of the enclosing span (-1 at top level).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import time
from collections import Counter, defaultdict

# nearest enclosing span -> side-condition role of a check_sat call
ROLE_OF = {
    "prover.axiom": "lhs-unsat",
    "prover.subs": "inclusion-sat",
    "prover.circ": "circ-sat",
    "rewriting.derivatives": "derivative",
    "prover.der": "totality",
    "prover.disj": "split",
}
ROLES = ("lhs-unsat", "inclusion-sat", "circ-sat", "totality", "derivative", "split")
RULES = ("axiom", "subs", "circ", "der")
ORACLE_FNS = ("enumerate_instances", "ground_step", "build_graph", "check_dvp", "check_derivative_theorem")
VERDICTS = ("sat", "unsat", "unknown")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: str | None = None
        self.paused = False

    def wrap(self, name, fn, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else -1
            span = [name, 0.0, 0.0, parent, tracer.job, None]
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span[2] = time.perf_counter()
                tracer.stack.pop()
                span[5] = {"raised": True}
                raise
            span[2] = time.perf_counter()
            tracer.stack.pop()
            if attrs is not None:
                span[5] = attrs(result, args)
            return result

        return traced


def _out_len(result, _args):
    return {"out": len(result)}


def _verdict(result, _args):
    return {"verdict": result.verdict.value}


def _script(result, _args):
    return {"script": hashlib.sha1(result.encode()).hexdigest()}


def _applied(result, _args):
    return {"applied": result is not None}


def _nodes(_result, args):
    return {"nodes": args[0].nodes}


def _graph_nodes(result, _args):
    return {"nodes": len(result.nodes)}


# (span name, binding sites "module:attr" or "module:Class.method", attrs)
BINDINGS = (
    ("specfile.parse_spec", ("coreach.specfile:parse_spec", "coreach.cli:parse_spec"), None),
    ("constraints.unify", ("coreach.rewriting:unify_modulo_builtins",), None),
    (
        "constraints.simplify",
        ("coreach.prover:simplify", "coreach.prover:simplify_constrained", "coreach.rewriting:simplify_constrained"),
        None,
    ),
    ("rewriting.derivatives", ("coreach.prover:derivatives_detailed", "coreach.rewriting:derivatives_detailed"), _out_len),
    ("smt.encode", ("coreach.smt:encode",), _script),
    ("smt.check_sat", ("coreach.smt:check_sat", "coreach.prover:check_sat", "coreach.rewriting:check_sat"), _verdict),
    ("minismt.run_script", ("coreach.minismt:run_script",), None),
    ("prover.axiom", ("coreach.prover:Prover.apply_axiom",), _applied),
    ("prover.subs", ("coreach.prover:Prover.apply_subs",), _applied),
    ("prover.circ", ("coreach.prover:Prover.apply_circ",), _applied),
    ("prover.der", ("coreach.prover:Prover.apply_der",), _applied),
    ("prover.disj", ("coreach.prover:Prover.apply_disj",), None),
    ("prover.prove_goal", ("coreach.prover:Prover.prove_goal",), _nodes),
    ("oracle.enumerate_instances", ("coreach.oracle:enumerate_instances",), _out_len),
    ("oracle.ground_step", ("coreach.oracle:ground_step",), None),
    ("oracle.build_graph", ("coreach.oracle:build_graph",), _graph_nodes),
    ("oracle.check_dvp", ("coreach.oracle:check_dvp",), None),
    ("oracle.check_derivative_theorem", ("coreach.oracle:check_derivative_theorem",), None),
)


def install(tracer: Tracer) -> None:
    """Replace every binding site with a traced wrapper of the original."""
    for name, sites, attrs in BINDINGS:
        for site in sites:
            module_name, _, path = site.partition(":")
            owner = importlib.import_module(module_name)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), attrs))


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer counts and times of one pass's spans."""
    calls: Counter = Counter()
    total: defaultdict = defaultdict(float)
    child_time: defaultdict = defaultdict(float)
    for s in spans:
        calls[s[0]] += 1
        total[s[0]] += s[2] - s[1]
        if s[3] >= 0:
            child_time[s[3]] += s[2] - s[1]

    m: dict[str, float] = {}

    def timed(key, name):
        m[f"{key}.calls"] = calls[name]
        m[f"{key}.s"] = total[name]

    timed("specfile.parse_spec", "specfile.parse_spec")
    timed("constraints.unify", "constraints.unify")
    timed("constraints.simplify", "constraints.simplify")
    m["rewriting.derivatives.calls"] = calls["rewriting.derivatives"]
    m["rewriting.derivatives.self_s"] = sum(
        s[2] - s[1] - child_time[i] for i, s in enumerate(spans) if s[0] == "rewriting.derivatives"
    )
    m["rewriting.derivatives.out"] = sum(
        s[5]["out"] for s in spans if s[0] == "rewriting.derivatives" and s[5] and "out" in s[5]
    )
    timed("smt.encode", "smt.encode")
    timed("smt.check_sat", "smt.check_sat")
    encode_in_check = sum(
        s[2] - s[1] for s in spans if s[0] == "smt.encode" and s[3] >= 0 and spans[s[3]][0] == "smt.check_sat"
    )
    m["smt.solver_s"] = total["smt.check_sat"] - encode_in_check
    scripts = [s[5]["script"] for s in spans if s[0] == "smt.encode" and s[5] and "script" in s[5]]
    m["smt.queries_distinct"] = len(set(scripts))
    m["smt.distinct_ratio"] = len(set(scripts)) / calls["smt.check_sat"] if calls["smt.check_sat"] else 0.0
    verdicts = Counter(s[5]["verdict"] for s in spans if s[0] == "smt.check_sat" and s[5] and "verdict" in s[5])
    for v in VERDICTS:
        m[f"smt.verdict.{v}"] = verdicts[v]

    role_calls: Counter = Counter()
    role_time: defaultdict = defaultdict(float)
    for s in spans:
        if s[0] != "smt.check_sat":
            continue
        parent = s[3]
        while parent >= 0 and spans[parent][0] not in ROLE_OF:
            parent = spans[parent][3]
        if parent >= 0:
            role = ROLE_OF[spans[parent][0]]
            role_calls[role] += 1
            role_time[role] += s[2] - s[1]
    for r in ROLES:
        m[f"smt.role.{r}.calls"] = role_calls[r]
        m[f"smt.role.{r}.s"] = role_time[r]

    for rule in RULES:
        name = f"prover.{rule}"
        m[f"{name}.tried"] = calls[name]
        m[f"{name}.applied"] = sum(1 for s in spans if s[0] == name and s[5] and s[5].get("applied"))
        m[f"{name}.s"] = total[name]
    m["prover.nodes"] = sum(s[5]["nodes"] for s in spans if s[0] == "prover.prove_goal" and s[5] and "nodes" in s[5])

    timed("minismt.run_script", "minismt.run_script")
    for fn in ORACLE_FNS:
        timed(f"oracle.{fn}", f"oracle.{fn}")
    m["oracle.enumerate_instances.out"] = sum(
        s[5]["out"] for s in spans if s[0] == "oracle.enumerate_instances" and s[5] and "out" in s[5]
    )
    m["oracle.build_graph.nodes"] = sum(
        s[5]["nodes"] for s in spans if s[0] == "oracle.build_graph" and s[5] and "nodes" in s[5]
    )
    m["trace.spans"] = len(spans)
    return m
