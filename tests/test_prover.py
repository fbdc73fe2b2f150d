"""Rule applications, guardedness, search behavior, and proof audits."""

import pytest

from coreach.errors import GuardednessViolation, InvalidSplit
from coreach.formulas import (
    Atom,
    ConstrainedTerm,
    Eq,
    FALSE,
    FalseF,
    Not,
    TRUE,
    conj,
    pretty_constrained,
)
from coreach.prover import (
    AXIOM,
    CIRC,
    DER,
    DISJ,
    FAILED,
    INCONCLUSIVE,
    UNKNOWN,
    Goal,
    OPEN,
    PROVED,
    ProofNode,
    Prover,
    SUBS,
    SearchConfig,
    SideCondition,
    audit_structure,
    check_guarded,
    render_json,
    render_text,
    reverify,
    to_json_dict,
    _match_onto,
)
from coreach.rewriting import ReachabilityFormula
from coreach.smt import SmtResult, Verdict
from coreach.specfile import parse_cterm_in, parse_spec
from coreach.terms import INT, Lit, Var

n, i, x, y = Var("n", INT), Var("i", INT), Var("x", INT), Var("y", INT)


@pytest.fixture()
def prover(comp_system, comp_goals, solver_cfg):
    return Prover(comp_system, comp_goals, SearchConfig(max_der_depth=10, solver=solver_cfg))


def goal_of(rf, **kw):
    return Goal(rf, **kw)


def test_axiom_closes_false_constraint(prover, comp_sig, comp_goals):
    mk = comp_sig.make_app
    rf = ReachabilityFormula(ConstrainedTerm(mk("comp", ()), FALSE), comp_goals[0].rhs)
    node = prover.apply_axiom(goal_of(rf))
    assert node is not None and node.kind == AXIOM and not node.children


def test_axiom_closes_unsatisfiable_residual(prover, comp_sig, comp_goals):
    # divisor in [i, n) but none in [i+1, n) while i itself does not divide n
    from coreach.formulas import Exists

    mk = comp_sig.make_app
    k = Var("k", INT)
    psi_i = comp_goals[1].lhs.constraint
    psi_b = Not(Exists((k,), conj([Atom(mk(">", (k, Lit(1)))), Eq(n, mk("*", (i, k)))])))
    u = Var("u", INT)
    psi_c = conj(
        [
            Atom(mk("<=", (Lit(2), mk("+", (i, Lit(1)))))),
            Exists(
                (u,),
                conj(
                    [
                        Atom(mk("<=", (mk("+", (i, Lit(1))), u))),
                        Atom(mk("<", (u, n))),
                        Eq(mk("mod", (n, u)), Lit(0)),
                    ]
                ),
            ),
        ]
    )
    rf = ReachabilityFormula(
        ConstrainedTerm(mk("loop", (n, mk("+", (i, Lit(1))))), conj([psi_i, psi_b, Not(psi_c)])),
        comp_goals[1].rhs,
    )
    node = prover.apply_axiom(goal_of(rf))
    assert node is not None and node.kind == AXIOM


def test_axiom_skips_satisfiable(prover, comp_goals):
    assert prover.apply_axiom(goal_of(comp_goals[0])) is None


def test_subs_residual_empties_on_matching_target(prover, comp_sig, comp_goals):
    mk = comp_sig.make_app
    lhs = ConstrainedTerm(mk("comp", ()), TRUE)
    rf = ReachabilityFormula(lhs, ConstrainedTerm(mk("comp", ()), TRUE))
    hit = prover.apply_subs(goal_of(rf))
    assert hit is not None and hit.kind == SUBS
    (child,) = hit.children
    assert isinstance(child.formula.lhs.constraint, FalseF)


def test_subs_skips_constructor_clash(prover, comp_sig, comp_goals):
    mk = comp_sig.make_app
    rf = ReachabilityFormula(ConstrainedTerm(mk("init", (n,)), TRUE), ConstrainedTerm(mk("comp", ()), TRUE))
    assert prover.apply_subs(goal_of(rf)) is None


def test_subs_residual_interval(comp_system, solver_cfg, comp_sig):
    # x > 0 into y > 5 leaves exactly 0 < x <= 5
    mk = comp_sig.make_app
    lhs = ConstrainedTerm(mk("init", (x,)), Atom(mk(">", (x, Lit(0)))))
    rhs = ConstrainedTerm(mk("init", (y,)), Atom(mk(">", (y, Lit(5)))))
    prover = Prover(comp_system, [], SearchConfig(solver=solver_cfg))
    hit = prover.apply_subs(goal_of(ReachabilityFormula(lhs, rhs)))
    assert hit is not None
    (child,) = hit.children
    from coreach.oracle import Domain, enumerate_instances

    got = enumerate_instances(comp_sig, child.formula.lhs, Domain(10))
    assert got == frozenset(mk("init", (Lit(v),)) for v in range(1, 6))


def test_circ_requires_der_ancestor(prover, comp_goals):
    with pytest.raises(GuardednessViolation):
        prover.apply_circ(goal_of(comp_goals[1]), 1)


def test_circ_builds_both_children(prover, comp_sig, comp_goals):
    mk = comp_sig.make_app
    psi1 = comp_goals[0].lhs.constraint
    g = goal_of(
        ReachabilityFormula(ConstrainedTerm(mk("loop", (n, Lit(2))), psi1), comp_goals[0].rhs),
        depth=1,
    )
    hit = prover.apply_circ(g, 1)
    assert hit is not None
    assert hit.kind == CIRC and hit.circularity_used == 1
    cont, residual = hit.children
    assert cont.formula.lhs.term == mk("comp", ())
    assert residual.formula.lhs.term == mk("loop", (n, Lit(2)))


def test_circ_skips_unmatched_lhs(prover, comp_sig, comp_goals):
    mk = comp_sig.make_app
    g = goal_of(
        ReachabilityFormula(ConstrainedTerm(mk("init", (n,)), TRUE), comp_goals[0].rhs),
        depth=1,
    )
    # circularity 1 has lhs loop(...); unifying with init(n) clashes
    assert prover.apply_circ(g, 1) is None


def test_der_children_and_depth(prover, comp_goals):
    hit = prover.apply_der(goal_of(comp_goals[0]))
    assert hit is not None
    children = hit.children
    assert len(children) == 1 and hit.conditions[0].role == "totality"
    assert children[0].depth == 1


def test_der_not_applicable_on_final(prover, comp_sig, comp_goals):
    mk = comp_sig.make_app
    rf = ReachabilityFormula(ConstrainedTerm(mk("comp", ()), TRUE), comp_goals[0].rhs)
    assert prover.apply_der(goal_of(rf)) is None


def test_disj_split_and_rejection(comp_system, comp_sig, solver_cfg, comp_goals):
    mk = comp_sig.make_app
    chi = Atom(mk("<", (n, Lit(0))))
    phi = Atom(mk("<", (n, Lit(10))))
    rf = ReachabilityFormula(ConstrainedTerm(mk("init", (n,)), phi), comp_goals[0].rhs)
    prover = Prover(comp_system, [], SearchConfig(solver=solver_cfg))
    g1, g2 = prover.apply_disj(goal_of(rf), (conj([phi, chi]), conj([phi, Not(chi)]))).children
    assert g1.formula.lhs.constraint == conj([phi, chi])
    # idempotent split is accepted
    prover.apply_disj(goal_of(rf), (phi, phi))
    with pytest.raises(InvalidSplit):
        prover.apply_disj(goal_of(rf), (conj([phi, chi]), conj([phi, chi])))


def test_prove_both_circularities(prover):
    result = prover.prove_all()
    assert [r.status for r in result.per_goal] == [PROVED, PROVED]
    for r in result.per_goal:
        assert check_guarded(r.tree)
        assert audit_structure(r.tree) == []


def test_prove_trivial_false_goal(comp_system, comp_sig, solver_cfg):
    mk = comp_sig.make_app
    rf = ReachabilityFormula(ConstrainedTerm(mk("init", (n,)), FALSE), ConstrainedTerm(mk("comp", ()), TRUE))
    prover = Prover(comp_system, [rf], SearchConfig(solver=solver_cfg))
    (res,) = prover.prove_all().per_goal
    assert res.status == PROVED
    assert res.tree.kind == AXIOM


def test_prove_fails_without_loop_circularity(comp_system, comp_goals, solver_cfg):
    prover = Prover(comp_system, [comp_goals[0]], SearchConfig(max_der_depth=3, solver=solver_cfg))
    (res,) = prover.prove_all().per_goal
    assert res.status == FAILED
    assert res.frontier
    assert all(og.reason == "depth" for og in res.frontier)


def test_search_is_deterministic(comp_system, comp_goals, solver_cfg):
    def run():
        p = Prover(comp_system, comp_goals, SearchConfig(max_der_depth=10, solver=solver_cfg))
        return [render_json(r.tree) for r in p.prove_all().per_goal]

    assert run() == run()


def test_no_stacked_subsumptions(prover):
    for r in prover.prove_all().per_goal:
        for node in r.tree.walk():
            if node.kind == SUBS:
                assert node.children[0].kind != SUBS


def test_reverify_accepts_fresh_run(prover, comp_sig, solver_cfg):
    result = prover.prove_all()
    for r in result.per_goal:
        assert reverify(comp_sig, r.tree, solver_cfg) == []


AUDIT_DEFECTS = {
    "axiom node with children": lambda g: ProofNode(AXIOM, g, children=(ProofNode(AXIOM, g),)),
    "subsumption node without exactly one child": lambda g: ProofNode(SUBS, g),
    "subsumption chained on its own residual": lambda g: ProofNode(
        SUBS, g, children=(ProofNode(SUBS, g, children=(ProofNode(AXIOM, g),)),)
    ),
    "circ node without exactly two children": lambda g: ProofNode(CIRC, g, children=(ProofNode(AXIOM, g),)),
    "disj node without exactly two children": lambda g: ProofNode(DISJ, g),
    "derivative node with no children": lambda g: ProofNode(DER, g),
    "open leaf in a closed tree": lambda g: ProofNode(DER, g, children=(ProofNode(OPEN, g),)),
}


@pytest.mark.parametrize("problem", sorted(AUDIT_DEFECTS))
def test_audit_structure_names_each_defect(problem, comp_goals):
    assert audit_structure(AUDIT_DEFECTS[problem](comp_goals[0])) == [problem]


# A tree only the guardedness check rejects: its circularity has no
# derivative step above it.
AUDIT_FAILURES = {
    **AUDIT_DEFECTS,
    "circularity without a derivative step above it": lambda g: ProofNode(
        CIRC, g, children=(ProofNode(AXIOM, g), ProofNode(AXIOM, g))
    ),
}


@pytest.mark.parametrize("problem", sorted(AUDIT_FAILURES))
def test_a_tree_that_fails_the_audit_is_never_proved(problem, monkeypatch, capsys):
    from coreach import cli

    monkeypatch.setattr(Prover, "_search", lambda self, goal: (AUDIT_FAILURES[problem](goal.formula), []))
    assert cli.main(["prove", "systems/compositeness.lrw", "--solver", "builtin", "--dump-proof", "json"]) == 2
    out, err = capsys.readouterr()
    assert "[proved]" not in out and out.count("[inconclusive]") == 2
    assert err.count("  open [") == err.count("  open [audit]: ") == err.count("    defect: ") >= 2
    assert err.count(f"    defect: {problem}\n") == 2


def test_reverify_skips_a_condition_recorded_unknown(comp_sig, comp_goals, solver_cfg):
    # `true` is sat, so only the condition recorded unsat disagrees
    node = ProofNode(
        AXIOM,
        comp_goals[0],
        (SideCondition("lhs-unsat", TRUE, Verdict.UNKNOWN), SideCondition("lhs-unsat", TRUE, Verdict.UNSAT)),
    )
    assert reverify(comp_sig, node, solver_cfg) == ["axiom/lhs-unsat: recorded unsat, got sat"]


def test_an_exhausted_node_budget_fails_the_goal(monkeypatch, capsys):
    from coreach import cli, prover

    monkeypatch.setattr(prover, "NODE_BUDGET", 1)
    assert cli.main(["prove", "systems/sum.lrw", "--solver", "builtin"]) == 1
    out, err = capsys.readouterr()
    assert "[failed]" in out and "open [budget]" in err


def test_check_guarded_examples(prover, comp_goals):
    result = prover.prove_all()
    assert all(check_guarded(r.tree) for r in result.per_goal)
    bare_circ = ProofNode(CIRC, comp_goals[0])
    assert not check_guarded(bare_circ)
    nested = ProofNode(DER, comp_goals[0], children=(ProofNode(SUBS, comp_goals[0], children=(bare_circ,)),))
    assert check_guarded(nested)


def test_render_text_and_json(prover):
    result = prover.prove_all()
    text = render_text(result.per_goal[0].tree)
    assert "[der]" in text and "lhs-unsat" in text
    blob = to_json_dict(result.per_goal[1].tree)
    assert blob["rule"] == "der"
    assert {c["rule"] for c in blob["children"]} == {"subs", "circ"}


def test_first_circularity_tree_shape(prover):
    # derivative step, then reuse of the loop goal; the continuation closes
    # through subsumption and the negated-reuse residual closes outright
    result = prover.prove_all()
    tree = result.per_goal[0].tree
    assert tree.kind == DER and len(tree.children) == 1
    circ = tree.children[0]
    assert circ.kind == CIRC and circ.circularity_used == 1
    cont, residual = circ.children
    assert cont.kind == SUBS and cont.children[0].kind == AXIOM
    assert residual.kind == AXIOM


def test_unknowns_that_touch_a_failed_search_make_it_inconclusive(monkeypatch, solver_cfg):
    # The sum goal without its circularity fails at depth 3 after 13 queries.
    # Turn each one of them in turn into an unknown: the goal is then
    # inconclusive, with the role and the exact query in its frontier,
    # unless the node whose rule the unknown blocked was closed another way.
    import coreach.prover as prover_mod

    with open("systems/sum.lrw", encoding="utf-8") as fh:
        spec = parse_spec(fh.read())
    cfg = SearchConfig(max_der_depth=3, solver=solver_cfg)

    def run():
        return Prover(spec.system, [spec.goals[0].formula], cfg).prove_all().per_goal[0]

    res = run()
    assert res.status == FAILED and {og.reason for og in res.frontier} == {"depth"}
    real_check_sat = prover_mod.check_sat
    queries = []

    def counting(sig, f, solver):
        queries.append(f)
        return real_check_sat(sig, f, solver)

    monkeypatch.setattr(prover_mod, "check_sat", counting)
    run()
    assert len(queries) == 13
    statuses = []
    for k in range(len(queries)):
        calls = []

        def unknown_at_k(sig, f, solver):
            calls.append(f)
            if len(calls) - 1 == k:
                return SmtResult(Verdict.UNKNOWN)
            return real_check_sat(sig, f, solver)

        monkeypatch.setattr(prover_mod, "check_sat", unknown_at_k)
        res = run()
        statuses.append(res.status)
        blocked = [og for og in res.frontier if og.reason == UNKNOWN]
        if res.status == FAILED:
            assert not blocked and {og.reason for og in res.frontier} == {"depth"}, k
            continue
        assert res.status == INCONCLUSIVE, k
        assert [og.query for og in blocked] == [calls[k]], k
        assert blocked[0].role in ("lhs-unsat", "inclusion-sat", "circ-sat", "totality")
    # Only queries 7 and 10 are harmless: each asks about the satisfiable
    # left constraint of a leaf that subsumption then closes.
    expected = [INCONCLUSIVE] * len(queries)
    expected[7] = expected[10] = FAILED
    assert statuses == expected


def test_unknowns_do_not_touch_a_proof(monkeypatch, prover):
    # The root's axiom query is satisfiable anyway: an unknown there changes
    # nothing, and a proved goal stays proved.
    import coreach.prover as prover_mod

    real_check_sat = prover_mod.check_sat
    calls = []

    def first_unknown(sig, f, solver):
        calls.append(f)
        return SmtResult(Verdict.UNKNOWN) if len(calls) == 1 else real_check_sat(sig, f, solver)

    monkeypatch.setattr(prover_mod, "check_sat", first_unknown)
    result = prover.prove_all()
    assert prover.unknowns == 1
    assert [r.status for r in result.per_goal] == [PROVED, PROVED]


RENAMING_SPEC = (
    "sorts Cfg;\nsymbols init : Int -> Cfg;\nvars x : Int, y : Int, z : Int, w : Int;\n"
    "prove init(x) /\\ true => init(x) /\\ true;"
)


BINDER_PATTERN = "init(x) /\\ x > 0 /\\ (exists x : Int . x = 1) /\\ x < 5"


@pytest.mark.parametrize(
    "pattern, target, expected",
    [
        # the shadowing binder must not end x's outer binding to y
        (BINDER_PATTERN, "init(y) /\\ y > 0 /\\ (exists y : Int . y = 1) /\\ z < 5", None),
        (BINDER_PATTERN, "init(y) /\\ y > 0 /\\ (exists y : Int . y = 1) /\\ y < 5", {"x": "y"}),
        (BINDER_PATTERN, "init(y) /\\ y > 0 /\\ (exists z : Int . z = 1) /\\ y < 5", {"x": "y"}),
        (BINDER_PATTERN, "init(1) /\\ 1 > 0 /\\ (exists y : Int . y = 1) /\\ 1 < 5", None),
        (BINDER_PATTERN, "init(y) /\\ y > 0 /\\ (forall y : Int . y = 1) /\\ y < 5", None),
        (BINDER_PATTERN, "init(y) /\\ y > 0 /\\ (exists y : Bool . y) /\\ y < 5", None),
        # a binder's variables pair up by position, not by use
        ("init(x) /\\ (exists y : Int, z : Int . y < z)", "init(x) /\\ (exists z : Int, y : Int . y < z)", None),
    ],
    ids=[
        "rebound-elsewhere",
        "restored",
        "renamed-binder",
        "literal",
        "other-binder",
        "other-binder-sort",
        "swapped-binder-variables",
    ],
)
def test_match_onto_is_a_renaming_across_binders(pattern, target, expected):
    spec = parse_spec(RENAMING_SPEC)
    ren = _match_onto(parse_cterm_in(spec, pattern), parse_cterm_in(spec, target))
    if expected is None:
        assert ren is None
    else:
        assert {v.name: t.name for v, t in ren.mapping.items()} == expected


def test_match_onto_rejects_a_variable_captured_by_the_target_binder():
    # x -> y outside, but inside the target's binder y is the bound variable
    spec = parse_spec(RENAMING_SPEC)
    pattern = parse_cterm_in(spec, "init(x) /\\ (exists w : Int . w = x)")
    target = parse_cterm_in(spec, "init(y) /\\ (exists y : Int . y = y)")
    assert _match_onto(pattern, target) is None


def test_rule_attempts_on_the_corpus_are_pinned(monkeypatch):
    # The order in which search tries the rules fixes how often each is
    # tried and applied on the six systems.  The rules are counted from
    # outside, through the class attributes the search looks up at call
    # time, as the benchmark's tracer counts them.
    from pathlib import Path

    from coreach.cli import search_config

    counts = {rule: [0, 0] for rule in ("axiom", "subs", "circ", "der", "disj")}

    def counting(rule, apply):
        def wrapper(*args):
            step = apply(*args)
            counts[rule][0] += 1
            counts[rule][1] += step is not None
            return step

        return wrapper

    for rule in counts:
        monkeypatch.setattr(Prover, f"apply_{rule}", counting(rule, getattr(Prover, f"apply_{rule}")))
    nodes = 0
    for path in sorted(Path("systems").glob("*.lrw")):
        spec = parse_spec(path.read_text())
        prover = Prover(spec.system, spec.goal_set(), search_config(spec, "builtin"))
        for index, rf in enumerate(spec.goal_set()):
            assert prover.prove_goal(rf, spec.splits().get(index)).status == PROVED, path
            nodes += prover.nodes
    assert counts == {"axiom": [98, 28], "subs": [70, 20], "circ": [120, 8], "der": [42, 42], "disj": [0, 0]}
    assert nodes == 98


def test_a_failed_case_split_reports_the_open_goals_of_both_cases(solver_cfg):
    # no rule is tried after a case split, so the search goes on after the
    # first case fails and reports the whole frontier
    spec = parse_spec(
        "sorts Cfg;\nsymbols a : -> Cfg; b : -> Cfg; c : -> Cfg;\nvars n : Int;\n"
        "rules a => b if true;\nprove a /\\ n >= 0 => c /\\ true cases n = 0, n > 0;\n"
    )
    prover = Prover(spec.system, spec.goal_set(), SearchConfig(solver=solver_cfg))
    (res,) = prover.prove_all(spec.splits()).per_goal
    assert res.status == FAILED
    assert [(og.reason, pretty_constrained(og.formula.lhs)) for og in res.frontier] == [
        ("no-rule", "b /\\ n = 0"),
        ("no-rule", "b /\\ n > 0"),
    ]
