"""Finite-domain semantics: instance sets, transition graphs, validity checking."""

import gc
import random
import weakref
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from coreach import cli, oracle
from coreach.constraints import fold_term
from coreach.errors import DerivativeRefused, UnsupportedQuantifier
from coreach.formulas import (
    And,
    Atom,
    ConstrainedTerm,
    Eq,
    Exists,
    FALSE,
    Forall,
    Implies,
    Not,
    Or,
    TRUE,
    conj,
    free_vars,
)
from coreach.minismt import solver
from coreach.oracle import (
    Domain,
    TransitionGraph,
    build_graph,
    check_derivative_theorem,
    check_dvp,
    edge_list,
    enumerate_instances,
    eval_formula,
    goal_instances,
    ground_step,
    in_domain,
    sort_values,
    to_dot,
)
from coreach.rewriting import Lctrs, RewriteRule
from coreach.signature import Signature
from coreach.smt import SolverConfig
from coreach.specfile import parse_cterm_in, parse_spec
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
    # An earlier conjunct that no value of n satisfies still stops the
    # quantifier, though the quantifier mentions no variable and the earlier
    # conjunct is checked only once n has a value; in the other order the
    # quantifier is evaluated first and raises.
    never = Atom(comp_sig.make_app(">", (n, Lit(5))))
    assert enumerate_instances(comp_sig, ConstrainedTerm(init_n, And((never, every_tree))), dom) == frozenset()
    with pytest.raises(UnsupportedQuantifier):
        enumerate_instances(comp_sig, ConstrainedTerm(init_n, And((every_tree, never))), dom)
    # Nor may a later conjunct, though its last variable comes first, keep
    # the quantifier from being evaluated: i is given a value before n.
    loop_n_i = comp_sig.make_app("loop", (n, i))
    always = Atom(comp_sig.make_app(">=", (n, Lit(-2))))
    never_i = Atom(comp_sig.make_app(">", (i, Lit(5))))
    with pytest.raises(UnsupportedQuantifier):
        enumerate_instances(comp_sig, ConstrainedTerm(loop_n_i, And((always, every_tree, never_i))), dom)
    assert enumerate_instances(comp_sig, ConstrainedTerm(loop_n_i, And((always, never_i, every_tree))), dom) == frozenset()


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
    # The cross-check's reports, and its solver session, hold nothing of it either.
    assert check_derivative_theorem(system, ConstrainedTerm(mk("init", (n,)), psi(mk)), Domain(6)).ok
    ref = weakref.ref(system)
    del system
    gc.collect()
    assert ref() is None


def test_intern_tables_do_not_keep_the_signature_alive():
    gc.collect()
    before = len(oracle._TERMS)
    sig = Signature()
    sig.add_operation("init", [INT], sig.add_sort("Cfg"))
    assert len(enumerate_instances(sig, ConstrainedTerm(sig.make_app("init", (n,)), TRUE), Domain(2))) == 5
    assert sig in oracle._TERMS and len(oracle._TERMS) == before + 1
    ref = weakref.ref(sig)
    del sig
    gc.collect()
    assert ref() is None
    assert len(oracle._TERMS) == before


def test_an_overload_at_a_smaller_sort_lists_its_terms_once():
    # f : A -> C and f : B -> D with D < C both build f(b) for the values
    # of C: one term, so one value and one interned node.
    with open("tests/specs/overload_subsort.lrw", encoding="utf-8") as handle:
        sig = parse_spec(handle.read()).signature
    values = sort_values(sig, sig.sorts["C"], Domain(1))
    assert [repr(v) for v in values] == ["f(b)", "g(b)"]
    (low,) = sort_values(sig, sig.sorts["D"], Domain(1))
    assert low is values[0]
    assert set(oracle._terms(sig).apps) == {"b", "f", "g"}  # one table per symbol


def test_enumerated_states_are_the_successors_ground_step_returns(comp_sig):
    # Instances and rule right-hand sides come from the same intern tables,
    # so an equal successor is the very same object.
    mk = comp_sig.make_app
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("init", (n,)), mk("loop", (n, Lit(2))), TRUE))
    system.add_rule(RewriteRule(mk("loop", (n, i)), mk("loop", (i, mk("+", (n, Lit(1))))), TRUE))
    dom = Domain(3)
    loops = enumerate_instances(comp_sig, ConstrainedTerm(mk("loop", (n, i)), TRUE), dom)
    same = {s: s for s in loops}
    inits = enumerate_instances(comp_sig, ConstrainedTerm(mk("init", (n,)), TRUE), dom)
    checked = 0
    for state in sorted(loops | inits, key=repr):
        for succ in ground_step(system, state, dom):
            if succ in same:
                assert same[succ] is succ, succ
                checked += 1
    assert checked == len(inits) + len(loops) - 7  # loop(3, i) steps to loop(i, 4), outside the domain


@pytest.mark.parametrize("bools_first", [False, True])
def test_true_and_one_in_the_same_slot_stay_apart(bools_first):
    sig = Signature()
    cfg = sig.add_sort("Cfg")
    sig.add_operation("f", [INT], cfg)
    sig.add_operation("f", [BOOL], cfg)
    x, b = Var("x", INT), Var("b", BOOL)
    dom = Domain(1)
    sides = [ConstrainedTerm(sig.make_app("f", (x,)), TRUE), ConstrainedTerm(sig.make_app("f", (b,)), TRUE)]
    if bools_first:
        sides.reverse()
    got = [enumerate_instances(sig, ct, dom) for ct in sides]
    assert got[0] | got[1] == frozenset(App("f", (Lit(v),), cfg) for v in (-1, 0, 1, False, True))


# -- level-wise enumeration against the flat product --------------------------------


def _flat_product(sig, ct, dom):
    """The reference: the whole constraint decided on every valuation of one
    flat product of the variables' value pools."""
    vs = sorted(free_vars(ct), key=lambda v: v.name)
    out = set()
    for combo in product(*(sort_values(sig, v.sort, dom) for v in vs)):
        if eval_formula(sig, ct.constraint, dict(zip(vs, combo)), dom):
            sigma = Substitution({v: Lit(c) if isinstance(c, (bool, int)) else c for v, c in zip(vs, combo)})
            out.add(fold_term(sigma.apply(ct.term)))
    return frozenset(out)


def _outcome(enumerate_fn, sig, ct, dom):
    try:
        return enumerate_fn(sig, ct, dom)
    except UnsupportedQuantifier:
        return "unsupported"


def _prop_sig():
    sig = Signature()
    cfg = sig.add_sort("Cfg")
    sig.add_operation("st", [INT, BOOL], cfg)
    sig.add_operation("pr", [INT, INT], cfg)
    sig.add_operation("c0", [], cfg)
    sig.add_operation("wrap", [cfg], sig.add_sort("Box"))
    tree = sig.add_sort("Tree")
    sig.add_operation("leaf", [], tree)
    sig.add_operation("node", [tree], tree)
    return sig


PROP_SIG = _prop_sig()
X, Y, Z, W = (Var(name, INT) for name in "xyzw")
B, C = Var("b", BOOL), Var("c", PROP_SIG.sorts["Cfg"])


@st.composite
def _int_term(draw, names):
    mk = PROP_SIG.make_app
    a = draw(st.sampled_from(names + [Lit(draw(st.integers(-3, 3)))]))  # some beyond the domain
    op = draw(st.sampled_from([None, "+", "-", "*", "mod"]))
    return a if op is None else mk(op, (a, draw(st.sampled_from(names + [Lit(draw(st.integers(1, 2)))]))))


@st.composite
def _formula(draw, names, depth):
    mk = PROP_SIG.make_app
    kinds = ["cmp", "cmp", "bool", "cfg", "const"] + (["and", "or", "not", "implies", "exists", "forall"] if depth else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "cmp":
        op = draw(st.sampled_from(["<", "<=", "=", ">="]))
        a, b = draw(_int_term(names)), draw(_int_term(names))
        return Eq(a, b) if op == "=" else Atom(mk(op, (a, b)))
    if kind == "bool":
        return draw(st.sampled_from([Atom(B), Atom(mk("not", (B,))), Eq(B, Lit(True))]))
    if kind == "cfg":
        return Eq(C, draw(st.sampled_from([mk("c0", ()), mk("st", (draw(_int_term(names)), B))])))
    if kind == "const":
        return draw(st.sampled_from([TRUE, FALSE]))
    if kind in ("and", "or"):
        parts = draw(st.lists(_formula(names, depth - 1), min_size=2, max_size=3))
        return And(tuple(parts)) if kind == "and" else Or(tuple(parts))
    if kind == "not":
        return Not(draw(_formula(names, depth - 1)))
    if kind == "implies":
        return Implies(draw(_formula(names, depth - 1)), draw(_formula(names, depth - 1)))
    body = draw(_formula(names + [W], depth - 1))
    return Exists((W,), body) if kind == "exists" else Forall((W,), body)


@st.composite
def _constrained_term(draw):
    mk = PROP_SIG.make_app
    term = draw(
        st.sampled_from(
            [
                mk("pr", (X, Y)),
                mk("st", (mk("+", (X, Lit(1))), B)),
                mk("st", (Z, mk("not", (B,)))),
                mk("pr", (mk("*", (X, Y)), Lit(2))),
                mk("wrap", (C,)),
                mk("c0", ()),
            ]
        )
    )
    names = draw(st.sampled_from([[X], [X, Y], [Y, Z]]))
    parts = draw(st.lists(_formula(names, 2), min_size=1, max_size=4))
    if draw(st.booleans()):  # a quantifier over a sort the oracle cannot enumerate
        t = Var("t", PROP_SIG.sorts["Tree"])
        parts.insert(draw(st.integers(0, len(parts))), Forall((t,), Eq(t, t)))
    if len(parts) > 2 and draw(st.booleans()):
        parts[1:3] = [And((parts[1], parts[2]))]  # nested conjunction
    return ConstrainedTerm(term, And(tuple(parts)))


@settings(max_examples=120, deadline=None)
@given(_constrained_term())
def test_level_wise_enumeration_matches_the_flat_product(ct):
    dom = Domain(1)
    assert _outcome(enumerate_instances, PROP_SIG, ct, dom) == _outcome(_flat_product, PROP_SIG, ct, dom)


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
        for p, _ in goal_instances(spec.signature, decl.formula, dom, AUDIT_SAMPLES[name]):
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


# -- the cross-check answers each question once -------------------------------------


@pytest.fixture()
def counted(monkeypatch):
    """Counts of the cross-check's `derivatives` calls and of bundled-solver
    runs, starting from an empty cross-check session."""
    calls = {"derivatives": 0, "solver": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(oracle, "_SOLVER", SolverConfig())
    monkeypatch.setattr(oracle, "derivatives", counting("derivatives", oracle.derivatives))
    monkeypatch.setattr(solver, "run_commands", counting("solver", solver.run_commands))
    return calls


def _composite_init(mk):
    return ConstrainedTerm(mk("init", (n,)), psi(mk))


def test_a_repeated_check_runs_no_derivatives_and_no_solver(comp_sig, comp_system, counted):
    mk = comp_sig.make_app
    first = check_derivative_theorem(comp_system, _composite_init(mk), Domain(6))
    assert counted == {"derivatives": 1, "solver": 1}
    again = check_derivative_theorem(comp_system, _composite_init(mk), Domain(6))  # an equal, new term
    assert again is first and first.ok
    assert counted == {"derivatives": 1, "solver": 1}
    check_derivative_theorem(comp_system, _composite_init(mk), Domain(5))  # another domain: its own report
    assert counted == {"derivatives": 2, "solver": 1}


def test_a_second_system_with_the_same_scripts_sends_none(comp_sig, comp_system, counted):
    mk = comp_sig.make_app
    twin = Lctrs(comp_sig)
    for rule in comp_system.rules:
        twin.add_rule(rule)
    assert check_derivative_theorem(comp_system, _composite_init(mk), Domain(6)).ok
    assert counted == {"derivatives": 1, "solver": 1}
    assert check_derivative_theorem(twin, _composite_init(mk), Domain(6)).ok
    assert counted == {"derivatives": 2, "solver": 1}


def test_a_new_rule_changes_the_next_report(counted):
    # Once cnt terms can step, a Cfg variable could hold a redex, so the
    # symbolic step of wrap(c) is refused: the report made before the rule
    # must not answer.
    spec = parse_spec(
        "sorts Top, Cfg; symbols wrap : Cfg -> Top; done : Cfg -> Top; cnt : Int -> Cfg;"
        " vars n : Int, c : Cfg; rules wrap(c) => done(c) if true;"
    )
    ct = parse_cterm_in(spec, "wrap(c) /\\ true")
    dom = Domain(1)
    for _ in range(2):
        assert check_derivative_theorem(spec.system, ct, dom).ok
    assert counted["derivatives"] == 1
    mk = spec.signature.make_app
    spec.system.add_rule(RewriteRule(mk("cnt", (n,)), mk("cnt", (mk("-", (n, Lit(1))),)), TRUE))
    with pytest.raises(DerivativeRefused, match="a redex could sit inside c : Cfg"):
        check_derivative_theorem(spec.system, ct, dom)
    assert counted["derivatives"] == 2


def test_a_refused_term_raises_on_every_call(counted):
    with open("tests/specs/narrow_subsort.lrw", encoding="utf-8") as handle:
        spec = parse_spec(handle.read())
    ct = parse_cterm_in(spec, "wrap(c) /\\ true")
    dom = Domain(1)
    for _ in range(2):
        with pytest.raises(DerivativeRefused, match="b : Busy would narrow c : Cfg"):
            check_derivative_theorem(spec.system, ct, dom)
    assert counted["derivatives"] == 2
    assert not oracle._stepper(spec.system, dom).reports


def test_fresh_names_start_past_the_subjects_own(comp_sig, monkeypatch):
    mk = comp_sig.make_app
    m, x7 = Var("m", INT), Var("x#7", INT)
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("init", (n,)), mk("loop", (n, m)), TRUE))  # m is unbound
    seen, real = [], oracle.derivatives

    def spy(*args):
        out = real(*args)
        seen.extend(out)
        return out

    monkeypatch.setattr(oracle, "derivatives", spy)
    assert check_derivative_theorem(system, ConstrainedTerm(mk("init", (x7,)), TRUE), Domain(2)).ok
    assert seen == [ConstrainedTerm(mk("loop", (x7, Var("m#8", INT))), TRUE)]


def test_each_prove_run_keeps_its_own_session(counted, capsys):
    runs = []
    for _ in range(2):
        assert cli.main(["prove", "systems/sum.lrw", "--solver", "builtin"]) == 0
        runs.append(counted["solver"] - sum(runs))
    capsys.readouterr()
    assert runs[0] == runs[1] > 0


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
    dot = to_dot(g)
    assert dot.startswith("digraph") and 'label="init(4)"' in dot and " -> " in dot
    assert "style=dashed" not in dot
    cut = build_graph(comp_system, frozenset({mk("init", (Lit(4),))}), Domain(12), 1)
    assert cut.frontier_exceeded and "style=dashed" in to_dot(cut)
