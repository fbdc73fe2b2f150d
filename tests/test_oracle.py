"""Finite-domain semantics: instance sets, transition graphs, validity checking."""

import gc
import random
import weakref

import pytest

from coreach.errors import UnsupportedQuantifier
from coreach.formulas import And, Atom, ConstrainedTerm, Eq, Exists, FALSE, Forall, Or, TRUE, conj, subst_constrained
from coreach.oracle import (
    Domain,
    TransitionGraph,
    build_graph,
    check_derivative_theorem,
    check_dvp,
    edge_list,
    enumerate_instances,
    eval_formula,
    ground_step,
    in_domain,
    to_dot,
)
from coreach.rewriting import Lctrs, RewriteRule
from coreach.signature import Signature
from coreach.specfile import parse_spec
from coreach.terms import App, BOOL, INT, Lit, Substitution, Var
from test_acceptance import AUDIT_SAMPLES

n, i, u = Var("n", INT), Var("i", INT), Var("u", INT)


def psi(mk):
    return Exists(
        (u,),
        conj([Atom(mk("<", (Lit(1), u))), Atom(mk("<", (u, n))), Eq(mk("mod", (n, u)), Lit(0))]),
    )


def test_enumerate_composites_up_to_twelve(comp_sig):
    mk = comp_sig.make_app
    got = enumerate_instances(comp_sig, ConstrainedTerm(mk("init", (n,)), psi(mk)), Domain(12))
    assert got == frozenset(mk("init", (Lit(v),)) for v in (4, 6, 8, 9, 10, 12))


def test_enumerate_ground_and_empty(comp_sig):
    mk = comp_sig.make_app
    assert enumerate_instances(comp_sig, ConstrainedTerm(mk("comp", ()), TRUE), Domain(3)) == frozenset(
        {mk("comp", ())}
    )
    assert enumerate_instances(comp_sig, ConstrainedTerm(mk("init", (n,)), FALSE), Domain(3)) == frozenset()


def test_enumerate_rejects_recursive_sorts():
    sig = Signature()
    tree = sig.add_sort("Tree")
    sig.add_operation("leaf", [], tree)
    sig.add_operation("node", [tree], tree)
    with pytest.raises(UnsupportedQuantifier):
        enumerate_instances(sig, ConstrainedTerm(Var("t", tree), TRUE), Domain(2))


def test_enumerate_builtin_conventions(comp_sig):
    mk = comp_sig.make_app
    split = ConstrainedTerm(mk("loop", (mk("div", (n, Lit(0))), mk("mod", (n, Lit(0))))), TRUE)
    assert enumerate_instances(comp_sig, split, Domain(2)) == frozenset(
        mk("loop", (Lit(0), Lit(v))) for v in range(-2, 3)
    )
    neg = ConstrainedTerm(mk("init", (mk("-", (n,)),)), Eq(mk("-", (n,)), Lit(2)))
    assert enumerate_instances(comp_sig, neg, Domain(3)) == frozenset({mk("init", (Lit(2),))})


def test_quantifier_shadows_free_variable(comp_sig):
    mk = comp_sig.make_app
    # inside the quantifier n is the bound variable; outside it is the free one
    shadow = conj([Atom(mk("<=", (Lit(1), n))), Exists((n,), Eq(n, Lit(-1)))])
    got = enumerate_instances(comp_sig, ConstrainedTerm(mk("init", (n,)), shadow), Domain(3))
    assert got == frozenset(mk("init", (Lit(v),)) for v in (1, 2, 3))
    dom = Domain(3)
    assert eval_formula(comp_sig, Exists((n,), Eq(n, Lit(2))), {n: 5}, dom)
    assert not eval_formula(comp_sig, Forall((n,), Eq(n, Lit(5))), {n: 5}, dom)
    assert eval_formula(comp_sig, conj([Exists((n,), Eq(n, Lit(0))), Eq(n, Lit(5))]), {n: 5}, dom)


def test_unsupported_quantifier_raises_only_when_evaluated(comp_sig):
    tree = comp_sig.add_sort("Tree")
    comp_sig.add_operation("leaf", [], tree)
    comp_sig.add_operation("node", [tree], tree)
    t = Var("t", tree)
    every_tree = Forall((t,), Eq(t, t))
    init_n = comp_sig.make_app("init", (n,))
    dom = Domain(2)
    assert enumerate_instances(comp_sig, ConstrainedTerm(init_n, And((FALSE, every_tree))), dom) == frozenset()
    assert len(enumerate_instances(comp_sig, ConstrainedTerm(init_n, Or((TRUE, every_tree))), dom)) == 5
    with pytest.raises(UnsupportedQuantifier):
        enumerate_instances(comp_sig, ConstrainedTerm(init_n, And((TRUE, every_tree))), dom)


def test_ground_step_nonlinear_and_builtin_patterns(comp_sig):
    mk = comp_sig.make_app
    dom = Domain(5)
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("loop", (n, n)), mk("comp", ()), TRUE))  # repeated variable
    system.add_rule(RewriteRule(mk("init", (mk("+", (n, Lit(1))),)), mk("loop", (n, n)), TRUE))  # n + 1 = value
    system.add_rule(RewriteRule(mk("loop", (mk("*", (i, Lit(2))), i)), mk("init", (i,)), TRUE))  # both at once
    assert ground_step(system, mk("loop", (Lit(3), Lit(3))), dom) == frozenset({mk("comp", ())})
    assert ground_step(system, mk("loop", (Lit(3), Lit(4))), dom) == frozenset()
    assert ground_step(system, mk("init", (Lit(4),)), dom) == frozenset({mk("loop", (Lit(3), Lit(3)))})
    assert ground_step(system, mk("loop", (Lit(4), Lit(2))), dom) == frozenset({mk("init", (Lit(2),))})
    assert ground_step(system, mk("loop", (Lit(4), Lit(3))), dom) == frozenset()
    assert ground_step(system, mk("loop", (Lit(0), Lit(0))), dom) == frozenset(
        {mk("comp", ()), mk("init", (Lit(0),))}
    )


def test_ground_step_folds_a_caller_supplied_state(comp_sig):
    # Successors are folded even when the given state is not: the builtin
    # subterm 2 + 3 outside the redex comes back as 5, and the one inside a
    # redex is folded before matching.
    mk = comp_sig.make_app
    cfg = comp_sig.sorts["Cfg"]
    comp_sig.add_operation("pair", [cfg, cfg], cfg)
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("init", (n,)), mk("loop", (n, Lit(2))), TRUE))
    five = mk("+", (Lit(2), Lit(3)))
    state = mk("pair", (mk("init", (Lit(4),)), mk("init", (five,))))
    assert ground_step(system, state, Domain(6)) == frozenset(
        {
            mk("pair", (mk("loop", (Lit(4), Lit(2))), mk("init", (Lit(5),)))),
            mk("pair", (mk("init", (Lit(4),)), mk("loop", (Lit(5), Lit(2))))),
        }
    )


def test_ground_step_follows_later_rules_and_constructors(comp_sig):
    mk = comp_sig.make_app
    cfg = comp_sig.sorts["Cfg"]
    w = Var("w", cfg)
    dom = Domain(0)
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("comp", ()), w, TRUE))  # the environment picks any Cfg
    everything = {mk("init", (Lit(0),)), mk("loop", (Lit(0), Lit(0))), mk("comp", ())}
    assert ground_step(system, mk("comp", ()), dom) == frozenset(everything)
    done = comp_sig.add_operation("done", [], cfg)
    assert ground_step(system, mk("comp", ()), dom) == frozenset(everything | {App("done", (), done.result)})
    system.add_rule(RewriteRule(mk("init", (n,)), mk("comp", ()), TRUE))
    assert ground_step(system, mk("init", (Lit(0),)), dom) == frozenset({mk("comp", ())})


def test_each_domain_has_its_own_successors(comp_sig):
    # The right-hand side's unbound u ranges over the domain, so the same
    # state has a different successor set at each bound.
    mk = comp_sig.make_app
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("init", (n,)), mk("loop", (n, u)), TRUE))
    state = mk("init", (Lit(0),))
    for bound in (1, 0, 1):
        expected = {mk("loop", (Lit(0), Lit(v))) for v in range(-bound, bound + 1)}
        assert ground_step(system, state, Domain(bound)) == frozenset(expected)


def test_compiled_rules_do_not_keep_the_system_alive(comp_sig):
    mk = comp_sig.make_app
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("init", (n,)), mk("loop", (n, Lit(2))), TRUE))
    assert ground_step(system, mk("init", (Lit(4),)), Domain(6)) == frozenset({mk("loop", (Lit(4), Lit(2)))})
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


@pytest.mark.parametrize("name", sorted(AUDIT_SAMPLES))
def test_successor_table_agrees_with_a_cold_one(name):
    # The graphs of the soundness audit (acceptance criterion 7) fill the
    # system's successor table; a freshly parsed copy of the system starts
    # with an empty one, and each node is asked of it once, so each of its
    # answers is stepped from scratch.
    with open(f"systems/{name}.lrw", encoding="utf-8") as handle:
        text = handle.read()
    spec, cold = parse_spec(text), parse_spec(text).system
    dom = Domain(12)
    nodes = set()
    for decl in spec.goals:
        rf = decl.formula
        for sample in AUDIT_SAMPLES[name]:
            sigma = Substitution({v: Lit(sample[v.name]) for v in rf.shared_vars() if v.name in sample})
            p = enumerate_instances(spec.signature, subst_constrained(sigma, rf.lhs), dom)
            nodes |= build_graph(spec.system, p, dom, 20_000).nodes
    assert nodes
    for node in sorted(nodes, key=repr):
        assert ground_step(spec.system, node, dom) == ground_step(cold, node, dom), node


def test_bool_literals_are_inside_every_domain():
    assert in_domain(Lit(True), Domain(0)) and in_domain(Lit(False), Domain(0))
    assert not in_domain(Lit(1), Domain(0))
    sig = Signature()
    flag = sig.add_sort("Flag")
    sig.add_operation("st", [BOOL], flag)
    b = Var("b", BOOL)
    system = Lctrs(sig)
    system.add_rule(RewriteRule(sig.make_app("st", (b,)), sig.make_app("st", (sig.make_app("not", (b,)),)), TRUE))
    g = build_graph(system, frozenset({sig.make_app("st", (Lit(True),))}), Domain(0), 10)
    assert len(g.nodes) == 2 and not g.frontier_exceeded


def test_ground_step_examples(comp_sig, comp_system):
    mk = comp_sig.make_app
    dom = Domain(12)
    assert ground_step(comp_system, mk("init", (Lit(4),)), dom) == frozenset({mk("loop", (Lit(4), Lit(2)))})
    assert ground_step(comp_system, mk("loop", (Lit(4), Lit(2))), dom) == frozenset({mk("comp", ())})
    assert ground_step(comp_system, mk("comp", ()), dom) == frozenset()


def test_ground_step_increment_branch(comp_sig, comp_system):
    mk = comp_sig.make_app
    got = ground_step(comp_system, mk("loop", (Lit(9), Lit(2))), Domain(12))
    assert got == frozenset({mk("loop", (Lit(9), Lit(3)))})


def test_build_graph_reaches_target(comp_sig, comp_system):
    mk = comp_sig.make_app
    g = build_graph(comp_system, frozenset({mk("init", (Lit(4),))}), Domain(12), 10)
    assert mk("comp", ()) in g.nodes
    assert not g.frontier_exceeded


def test_build_graph_empty_seeds(comp_system):
    g = build_graph(comp_system, frozenset(), Domain(5), 10)
    assert not g.nodes and not g.edges


def test_build_graph_records_cut_frontier(comp_sig, comp_system):
    mk = comp_sig.make_app
    g = build_graph(comp_system, frozenset({mk("init", (Lit(5),))}), Domain(12), 3)
    expected = {mk("init", (Lit(5),))} | {mk("loop", (Lit(5), Lit(j))) for j in (2, 3, 4)}
    assert g.nodes == expected
    assert g.frontier_exceeded == {mk("loop", (Lit(5), Lit(4)))}


def _graph(edges, frontier=()):
    g = TransitionGraph()
    for a, bs in edges.items():
        g.nodes.add(a)
        for b in bs:
            g.nodes.add(b)
    for a in g.nodes:
        g.edges[a] = frozenset(edges.get(a, ()))
    g.frontier_exceeded = set(frontier)
    return g


def node(j):
    return App("node", (Lit(j),), Sort_NODE)


from coreach.terms import Sort

Sort_NODE = Sort("Node")


def test_check_dvp_subsumption_only():
    g = _graph({node(1): []})
    assert check_dvp(g, frozenset({node(1)}), frozenset({node(1)})).is_valid


def test_check_dvp_stuck_state_invalid():
    g = _graph({node(1): []})
    res = check_dvp(g, frozenset({node(1)}), frozenset({node(2)}))
    assert res.kind == "invalid"
    assert res.witness == node(1)
    assert res.path == (node(1),)


def test_check_dvp_composite_runs_reach_target(comp_sig, comp_system):
    mk = comp_sig.make_app
    dom = Domain(12)
    p = enumerate_instances(comp_sig, ConstrainedTerm(mk("init", (n,)), psi(mk)), dom)
    g = build_graph(comp_system, p, dom, 10_000)
    res = check_dvp(g, p, frozenset({mk("comp", ())}))
    assert res.is_valid
    assert not g.frontier_exceeded


def test_check_dvp_inconclusive_on_frontier():
    g = _graph({node(1): [node(2)], node(2): []}, frontier={node(2)})
    res = check_dvp(g, frozenset({node(1)}), frozenset({node(9)}))
    assert res.kind == "inconclusive"
    assert res.witness == node(2)


def test_delta_image_agreement_examples(comp_sig, comp_system):
    mk = comp_sig.make_app
    assert check_derivative_theorem(comp_system, ConstrainedTerm(mk("init", (n,)), psi(mk)), Domain(6)).ok
    assert check_derivative_theorem(comp_system, ConstrainedTerm(mk("comp", ()), TRUE), Domain(6)).ok
    mid = ConstrainedTerm(
        mk("loop", (n, i)),
        conj([Atom(mk("<=", (Lit(2), i))), Atom(mk("<=", (i, n))), Atom(mk("<=", (n, Lit(6))))]),
    )
    assert check_derivative_theorem(comp_system, mid, Domain(6)).ok


# -- randomized coherence ---------------------------------------------------------


def random_graph(rng, max_nodes=60):
    count = rng.randint(1, max_nodes)
    nodes = [node(j) for j in range(count)]
    edges = {}
    for a in nodes:
        succs = [b for b in nodes if rng.random() < 1.8 / count]
        edges[a] = succs
    return _graph(edges), nodes


def paths_verdict(g, p, q):
    """Independent acceptance check: every maximal run from p stays infinite
    or reaches q; forward DFS with lasso detection."""
    memo = {}

    def ok(nd, stack):
        if nd in q:
            return True
        if nd in memo:
            return memo[nd]
        if nd in stack:
            return True  # a cycle: the run can be extended forever
        if g.is_irreducible(nd):
            return False
        stack.add(nd)
        verdictt = all(ok(s, stack) for s in g.successors(nd))
        stack.remove(nd)
        memo[nd] = verdictt
        return verdictt

    return all(ok(s, set()) for s in p)


def test_dvp_agrees_with_path_semantics_on_random_graphs():
    rng = random.Random(20260808)
    for _ in range(40):
        g, nodes = random_graph(rng)
        p = frozenset(x for x in nodes if rng.random() < 0.3)
        q = frozenset(x for x in nodes if rng.random() < 0.2)
        res = check_dvp(g, p, q)
        assert res.kind in ("valid", "invalid")
        assert res.is_valid == paths_verdict(g, p, q)


def test_dvp_helper_closure_properties():
    rng = random.Random(77)
    for _ in range(40):
        g, nodes = random_graph(rng, max_nodes=40)
        q = frozenset(x for x in nodes if rng.random() < 0.25)
        p1 = frozenset(x for x in nodes if rng.random() < 0.25)
        p2 = frozenset(x for x in nodes if rng.random() < 0.25)
        v1, v2 = check_dvp(g, p1, q).is_valid, check_dvp(g, p2, q).is_valid
        if v1 and v2:
            assert check_dvp(g, p1 | p2, q).is_valid  # union
        if v1:
            sub = frozenset(x for x in p1 if rng.random() < 0.5)
            assert check_dvp(g, sub, q).is_valid  # subset closure
        assert check_dvp(g, p1, q).is_valid == check_dvp(g, p1 - q, q).is_valid  # reduction
        if v1 and not (p1 & q):
            assert all(g.successors(x) for x in p1)  # runnability


def test_graph_exports(comp_sig, comp_system):
    mk = comp_sig.make_app
    g = build_graph(comp_system, frozenset({mk("init", (Lit(4),))}), Domain(12), 10)
    text = edge_list(g)
    assert "init(4) -> [loop(4, 2)]" in text
    dot = to_dot(g, q=frozenset({mk("comp", ())}))
    assert dot.startswith("digraph") and "doublecircle" in dot
