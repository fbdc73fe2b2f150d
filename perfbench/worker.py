"""One pass of one workload in a fresh interpreter.

    python perfbench/worker.py PLAN.json

Reads the plan the benchmark wrote, imports coreach, parses the pass's
specs (set-up ends here), builds any derived inputs, then runs the jobs one
after another.  Only job bodies are timed; the correctness gate runs between
them with the clock stopped.  Writes ``PLAN.result.json`` beside the plan.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import resource
import sys
import time
import traceback


def _cpu() -> float:
    """CPU seconds of this process and its waited-for children (solvers)."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


class Recorder:
    """Keeps every Prover the CLI creates, with what prove_all returned."""

    def __init__(self):
        self.runs = []

    def install(self):
        import coreach.cli
        from coreach.prover import Prover

        recorder = self

        class RecordingProver(Prover):
            def prove_all(self, splits=None):
                result = super().prove_all(splits)
                recorder.runs.append((self, result))
                return result

        coreach.cli.Prover = RecordingProver


# -- jobs -------------------------------------------------------------------------


def prove_job(job, plan, recorder, tracer):
    """`coreach prove FILE` in-process: (seconds, CPU seconds, gate), where
    calling gate() checks the verdict with the clock stopped."""
    from coreach import cli

    recorder.runs.clear()
    argv = ["prove", job["path"], "--solver", plan["solver"], "--timeout-ms", str(plan["timeout_ms"])]
    out, err = io.StringIO(), io.StringIO()
    t0, c0 = time.perf_counter(), _cpu()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    elapsed, cpu = time.perf_counter() - t0, _cpu() - c0
    return elapsed, cpu, lambda: gate_prove(job, code, recorder, tracer)


def gate_prove(job, code, recorder, tracer):
    from coreach.prover import PROVED, audit_structure, check_guarded, reverify

    if code != job["exit_code"]:
        return False, f"exit {code}, expected {job['exit_code']}"
    if len(recorder.runs) != 1:
        return False, f"{len(recorder.runs)} prover runs"
    prover, result = recorder.runs[0]
    statuses = [r.status for r in result.per_goal]
    if len(statuses) != job["goals"]:
        return False, f"{len(statuses)} goals, expected {job['goals']}"
    if prover.unknowns:
        return False, f"{prover.unknowns} solver unknowns"
    if statuses != [job["expected"]] * len(statuses):
        return False, f"statuses {statuses}"
    if job["expected"] == PROVED:
        for r in result.per_goal:
            if not check_guarded(r.tree):
                return False, "tree not guarded"
            problems = audit_structure(r.tree)
            if problems:
                return False, f"audit: {problems[0]}"
            if tracer is not None:
                tracer.paused = True
                try:
                    bad = reverify(prover.sig, r.tree, prover.cfg.solver)
                finally:
                    tracer.paused = False
                if bad:
                    return False, f"reverify: {bad[0]}"
    return True, ""


def gcd_gate(spec, name):
    """The gcd files state reference results; they must be math.gcd."""
    for decl in spec.goals:
        u, v = (a.value for a in decl.formula.lhs.term.args)
        if decl.formula.rhs.term.args[0].value != math.gcd(u, v):
            return f"{name}: {decl.formula.rhs.term} is not gcd({u}, {v})"
    return ""


# -- oracle inputs ------------------------------------------------------------------

SWEEP_GROUND_STATES = 8
SWEEP_VARIANT_BOUNDS = (3,)
SWEEP_BOUNDS = (4, 2)  # domain bound for goals with at most two variables, and for the rest
DVP_BOUND = 12
DVP_SAMPLES = 3
# instantiation pools on which every run stays inside DVP_BOUND
DVP_POOLS = {
    "sum": [{"n": v} for v in range(0, 5)],
    "sum_squares": [{"n": v} for v in range(0, 3)],
    "mul": [{"m": a, "n": b} for a in range(0, 4) for b in range(-4, 5)],
}


def sweep_terms(spec, rng):
    """Constrained terms for the one-step commutation check, built as the
    acceptance suite's criterion 4 builds them: goal sides, their symbolic
    successors, seeded ground states, rule sides, and bound-tightened
    variants (one bound instead of four, to keep a pass short enough to
    repeat several times in a run)."""
    from coreach.formulas import TRUE, Atom, ConstrainedTerm, conj, free_vars
    from coreach.oracle import Domain, build_graph, enumerate_instances
    from coreach.rewriting import derivatives
    from coreach.smt import SolverConfig
    from coreach.terms import INT, FreshCounter, Lit

    sig = spec.signature
    solver = SolverConfig(command=("builtin",), timeout_ms=60_000)
    base = [d.formula.lhs for d in spec.goals]
    out = list(base)
    ctr = FreshCounter(start=rng.randrange(100_000, 900_000))
    for ct in base:
        out.extend(derivatives(spec.system, ct, ctr, solver)[:2])
    dom = Domain(3)
    seeds = set()
    for ct in base:
        seeds |= enumerate_instances(sig, ct, dom)
    graph = build_graph(spec.system, frozenset(seeds), dom, 40)
    nodes = sorted(graph.nodes, key=repr)
    ground = rng.sample(nodes, min(SWEEP_GROUND_STATES, len(nodes)))
    for rule in spec.system.rules:
        out.append(ConstrainedTerm(rule.lhs, TRUE))
        out.append(ConstrainedTerm(rule.lhs, rule.guard))
    mk = sig.make_app
    extra = []
    for ct in out:
        vs = [v for v in sorted(free_vars(ct), key=lambda v: v.name) if v.sort == INT]
        if not vs:
            continue
        for bound in SWEEP_VARIANT_BOUNDS:
            extra.append(ConstrainedTerm(ct.term, conj([ct.constraint] + [Atom(mk("<=", (v, Lit(bound)))) for v in vs])))
            extra.append(ConstrainedTerm(ct.term, conj([ct.constraint] + [Atom(mk("<=", (Lit(-bound), v))) for v in vs])))
    return out + [ConstrainedTerm(g, TRUE) for g in ground] + extra


def oracle_jobs(specs, seed):
    """(job id, kind, spec name, payload) for one pass of the oracle workload."""
    from coreach.formulas import free_vars

    rng = random.Random(f"oracle-{seed}")
    jobs = []
    for name, spec in specs.items():
        n_vars = max((len(free_vars(d.formula.lhs)) for d in spec.goals), default=1)
        bound = SWEEP_BOUNDS[0] if n_vars <= 2 else SWEEP_BOUNDS[1]
        for j, ct in enumerate(sweep_terms(spec, rng)):
            jobs.append((f"sweep:{name}:{j}", "sweep", name, (ct, bound)))
        for g, decl in enumerate(spec.goals):
            pool = DVP_POOLS.get(name, [{}])
            for sample in rng.sample(pool, min(DVP_SAMPLES, len(pool))):
                jobs.append((f"dvp:{name}:{g}:{sample}", "dvp", name, (decl, sample)))
    rng.shuffle(jobs)
    return jobs


def run_oracle_job(kind, name, spec, payload):
    """One oracle check, timed: (seconds, CPU seconds, gate)."""
    from coreach import oracle
    from coreach.formulas import subst_constrained
    from coreach.terms import Lit, Substitution

    t0, c0 = time.perf_counter(), _cpu()
    if kind == "sweep":
        ct, bound = payload
        rep = oracle.check_derivative_theorem(spec.system, ct, oracle.Domain(bound))
        elapsed, cpu = time.perf_counter() - t0, _cpu() - c0
        return elapsed, cpu, lambda: (rep.ok, "" if rep.ok else "symbolic and ground successors differ")
    decl, sample = payload
    rf = decl.formula
    dom = oracle.Domain(DVP_BOUND)
    sigma = Substitution({v: Lit(sample[v.name]) for v in rf.shared_vars() if v.name in sample})
    p = oracle.enumerate_instances(spec.signature, subst_constrained(sigma, rf.lhs), dom)
    q = oracle.enumerate_instances(spec.signature, subst_constrained(sigma, rf.rhs), dom)
    graph = oracle.build_graph(spec.system, p, dom, 20_000)
    verdict = oracle.check_dvp(graph, p, q)
    elapsed, cpu = time.perf_counter() - t0, _cpu() - c0

    def gate():
        if not p:
            return False, "instantiation has no instances"
        if verdict.kind == "invalid":
            return False, "DVP invalid"
        if name == "compositeness" and (verdict.kind != "valid" or graph.frontier_exceeded):
            return False, f"compositeness DVP {verdict.kind}, {len(graph.frontier_exceeded)} truncated"
        return True, ""

    return elapsed, cpu, gate


# -- the pass -------------------------------------------------------------------------


def main(plan_path: str) -> int:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, os.path.join(plan["root"], "src"))
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import coreach.cli  # noqa: F401  (the CLI's imports are part of set-up)
    import coreach.oracle  # noqa: F401
    from coreach import specfile

    tracer = None
    if plan["trace"]:
        import tracing

        tracer = tracing.Tracer()
        tracer.job = "setup"
        tracing.install(tracer)
    recorder = Recorder()
    recorder.install()
    specs = {}
    for name, path in plan["specs"].items():
        with open(path, encoding="utf-8") as fh:
            specs[name] = specfile.parse_spec(fh.read())
    ready = time.monotonic()
    result = {"ready": ready, "jobs": []}
    if plan.get("setup_only"):
        return _write(plan_path, result)

    if tracer is not None:
        tracer.paused = True
    if plan["workload"] == "oracle":
        jobs = oracle_jobs(specs, plan["seed"])[: plan.get("max_jobs") or None]
    else:
        jobs = [(j["id"], "prove", j["spec"], j) for j in plan["jobs"]]
    if tracer is not None:
        tracer.paused = False

    wall = cpu = 0.0
    for job_id, kind, name, payload in jobs:
        if tracer is not None:
            tracer.job = job_id
        try:
            if kind == "prove":
                elapsed, used, gate = prove_job(payload, plan, recorder, tracer)
            else:
                elapsed, used, gate = run_oracle_job(kind, name, specs[name], payload)
            wall += elapsed
            cpu += used
            ok, detail = gate()
            if ok and kind == "prove" and name.startswith("gcd"):
                detail = gcd_gate(specs[name], name)
                ok = not detail
        except Exception:  # a crashing job is a failed job, not a crashed pass
            elapsed, used, ok, detail = 0.0, 0.0, False, traceback.format_exc(limit=3)
        result["jobs"].append({"id": job_id, "ms": elapsed * 1000.0, "cpu_ms": used * 1000.0, "ok": ok, "detail": detail})

    result["wall_s"] = wall
    result["cpu_s"] = cpu
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result["spans"] = tracer.spans
    return _write(plan_path, result)


def _write(plan_path: str, result: dict) -> int:
    with open(plan_path + ".result.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
