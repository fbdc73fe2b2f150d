"""Symbolic derivatives against the worked examples and the ground image."""

from coreach.formulas import (
    Atom,
    ConstrainedTerm,
    Eq,
    Exists,
    FALSE,
    Implies,
    Not,
    TRUE,
    conj,
    free_vars,
    pretty_term,
)
import re

import pytest

from coreach.errors import DerivativeRefused
from coreach.oracle import Domain, check_derivative_theorem, enumerate_instances, ground_step
from coreach.rewriting import (
    derivatives,
    derivatives_detailed,
    totality_condition,
)
from coreach.specfile import parse_cterm_in, parse_spec
from coreach.smt import Verdict, check_sat
from coreach.terms import FRESH_SEP, FreshCounter, INT, Lit, Var

n, i, k, u = (Var(x, INT) for x in "niku")


def psi(mk):
    return Exists(
        (u,),
        conj([Atom(mk("<", (Lit(1), u))), Atom(mk("<", (u, n))), Eq(mk("mod", (n, u)), Lit(0))]),
    )


def test_derivatives_of_start_state(comp_sig, comp_system, solver_cfg):
    mk = comp_sig.make_app
    ct = ConstrainedTerm(mk("init", (n,)), psi(mk))
    ds = derivatives(comp_system, ct, FreshCounter(), solver_cfg)
    assert ds == [ConstrainedTerm(mk("loop", (n, Lit(2))), psi(mk))]


def test_no_derivatives_for_final_state(comp_sig, comp_system, solver_cfg):
    mk = comp_sig.make_app
    assert derivatives(comp_system, ConstrainedTerm(mk("comp", ()), TRUE), FreshCounter(), solver_cfg) == []


def test_false_constraint_kills_all_derivatives(comp_sig, comp_system, solver_cfg):
    mk = comp_sig.make_app
    ct = ConstrainedTerm(mk("init", (n,)), FALSE)
    assert derivatives(comp_system, ct, FreshCounter(), solver_cfg) == []


def test_loop_state_has_both_branches(comp_sig, comp_system, solver_cfg):
    mk = comp_sig.make_app
    psi_i = conj(
        [
            Atom(mk("<=", (Lit(2), i))),
            Exists((u,), conj([Atom(mk("<=", (i, u))), Atom(mk("<", (u, n))), Eq(mk("mod", (n, u)), Lit(0))])),
        ]
    )
    ct = ConstrainedTerm(mk("loop", (n, i)), psi_i)
    ds = derivatives_detailed(comp_system, ct, FreshCounter(), solver_cfg)
    assert [d.ct.term.symbol for d in ds] == ["comp", "loop"]  # rules 1 and 2
    tot = totality_condition(ct, [d.ct for d in ds])
    from coreach.constraints import simplify

    assert check_sat(comp_sig, Not(simplify(comp_sig, tot)), solver_cfg).verdict == Verdict.UNSAT


def test_totality_of_empty_derivative_set(comp_sig):
    mk = comp_sig.make_app
    ct = ConstrainedTerm(mk("comp", ()), Atom(mk("<", (n, Lit(0)))))
    tot = totality_condition(ct, [])
    assert tot == Implies(ct.constraint, FALSE)


def test_only_unmatched_rule_variables_get_fresh_names(comp_sig, comp_system, solver_cfg):
    # Every rule spends one index per variable, in name order: init(n) takes
    # 0, loop(i * k, i) takes 1 and 2, loop(n, i) takes 3 and 4.  Matching
    # binds n and i; only k, inside a builtin application, is renamed.
    mk = comp_sig.make_app
    ct = ConstrainedTerm(mk("loop", (n, i)), TRUE)
    ctr = FreshCounter()
    ds = derivatives_detailed(comp_system, ct, ctr, solver_cfg)
    fresh = [sorted(v.name for v in free_vars(d.ct) if FRESH_SEP in v.name) for d in ds]
    assert fresh == [["k#2"], []]
    assert ctr.next_index == 5


def test_derivatives_free_of_rule_variable_capture(comp_sig, comp_system, solver_cfg):
    mk = comp_sig.make_app
    ct = ConstrainedTerm(mk("loop", (n, i)), Atom(mk("<=", (Lit(2), i))))
    rule_vars = set()
    for r in comp_system.rules:
        rule_vars |= {v.name for v in r.variables()}
    for d in derivatives(comp_system, ct, FreshCounter(), solver_cfg):
        fresh_parts = {v.name for v in free_vars(d) if FRESH_SEP in v.name}
        assert not (fresh_parts & rule_vars)


def test_derivative_instances_shrink_under_stronger_constraint(comp_sig, comp_system, solver_cfg):
    # instance-wise monotonicity on the bounded domain
    mk = comp_sig.make_app
    dom = Domain(4)
    base = ConstrainedTerm(mk("loop", (n, i)), Atom(mk("<=", (Lit(2), i))))
    strength = conj([Atom(mk("<=", (Lit(2), i))), Atom(mk("<=", (n, Lit(3))))])
    stronger = ConstrainedTerm(base.term, strength)

    def instances_of_derivatives(ct):
        out = set()
        for d in derivatives(comp_system, ct, FreshCounter(), solver_cfg):
            out |= enumerate_instances(comp_sig, d, dom)
        return out

    assert instances_of_derivatives(stronger) <= instances_of_derivatives(base)


def test_symbolic_matches_ground_one_step_image(comp_sig, comp_system, solver_cfg):
    mk = comp_sig.make_app
    dom = Domain(4)
    ct = ConstrainedTerm(mk("loop", (n, i)), conj([Atom(mk("<=", (Lit(1), i))), Atom(mk("<=", (i, n)))]))
    sym = set()
    for d in derivatives(comp_system, ct, FreshCounter(), solver_cfg):
        sym |= enumerate_instances(comp_sig, d, dom)
    ground = set()
    for inst in enumerate_instances(comp_sig, ct, dom):
        ground |= ground_step(comp_system, inst, dom)
    assert sym == ground


def test_open_system_right_hand_side_only_variables(comp_sig, solver_cfg):
    # a rule may introduce variables on the right: the environment chooses
    from coreach.rewriting import Lctrs, RewriteRule
    from coreach.oracle import Domain, ground_step

    mk = comp_sig.make_app
    x = Var("x", INT)
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("comp", ()), mk("init", (x,)), TRUE))
    dom = Domain(2)
    got = ground_step(system, mk("comp", ()), dom)
    assert got == frozenset(mk("init", (Lit(v),)) for v in range(-2, 3))
    ds = derivatives(system, ConstrainedTerm(mk("comp", ()), TRUE), FreshCounter(), solver_cfg)
    assert len(ds) == 1
    assert isinstance(ds[0].term.args[0], Var)  # stays symbolic: any value


def test_solved_form_residuals_are_builtin_only(comp_sig, comp_system):
    from coreach.constraints import unify_modulo_builtins
    from coreach.formulas import Eq as EqF

    mk = comp_sig.make_app
    pairs = [
        (mk("loop", (n, Lit(2))), mk("loop", (mk("*", (i, k)), i))),
        (mk("init", (mk("+", (n, Lit(1))),)), mk("init", (i,))),
    ]
    for t1, t2 in pairs:
        sf = unify_modulo_builtins(comp_sig, t1, t2)
        for res in sf.residual:
            assert isinstance(res, EqF)
            assert comp_sig.least_sort(res.lhs).builtin
            assert comp_sig.least_sort(res.rhs).builtin


def test_unknown_constraints_keep_the_derivative(comp_sig, solver_cfg):
    # a guard the solver cannot settle leaves the successor in place, flagged
    from coreach.rewriting import Lctrs, RewriteRule, derivatives_detailed

    mk = comp_sig.make_app
    system = Lctrs(comp_sig)
    system.add_rule(
        RewriteRule(
            mk("init", (n,)),
            mk("comp", ()),
            Atom(mk(">", (mk("*", (n, n)), Lit(10_000_000)))),
        )
    )
    ds = derivatives_detailed(system, ConstrainedTerm(mk("init", (n,)), TRUE), FreshCounter(), solver_cfg)
    assert len(ds) == 1
    assert ds[0].verdict == Verdict.UNKNOWN


def _gcd_sub():
    from coreach.specfile import parse_spec

    with open("systems/gcd_sub.lrw", encoding="utf-8") as handle:
        return parse_spec(handle.read())


def test_derivatives_rename_rules_apart_from_fresh_subject_names():
    # The subject carries names a renamed rule would take from a counter
    # started below them; the rules must be renamed past them.
    spec = _gcd_sub()
    mk = spec.signature.make_app
    ct = ConstrainedTerm(mk("gloop", (Var("v#5000003", INT), Var("u#5000002", INT))), TRUE)
    assert check_derivative_theorem(spec.system, ct, Domain(2)).ok
    ctr = FreshCounter(start=5_000_000)
    derivatives(spec.system, ct, ctr)
    assert ctr.next_index == 5_000_004 + sum(len(r.variables()) for r in spec.system.rules)


def test_skipped_rule_keeps_later_fresh_names(comp_sig, comp_system, solver_cfg):
    # `init` heads no position of a `loop` subject, so rule 0 is never
    # matched, yet it spends index 7 and the product rule's k is k#9.
    mk = comp_sig.make_app
    ctr = FreshCounter(start=7)
    ct = ConstrainedTerm(mk("loop", (n, i)), TRUE)
    ds = derivatives_detailed(comp_system, ct, ctr, solver_cfg)
    assert comp_system.rules[0].lhs.symbol == "init"
    (comp,) = [d.ct for d in ds if d.ct.term == mk("comp", ())]
    assert {v.name for v in free_vars(comp)} == {"n", "i", "k#9"}
    assert ctr.next_index == 7 + sum(len(r.variables()) for r in comp_system.rules)


def test_non_linear_left_hand_side_keeps_its_equation(comp_sig, solver_cfg):
    from coreach.rewriting import Lctrs, RewriteRule

    mk = comp_sig.make_app
    system = Lctrs(comp_sig)
    system.add_rule(RewriteRule(mk("loop", (k, k)), mk("init", (k,)), TRUE))
    ct = ConstrainedTerm(mk("loop", (n, i)), TRUE)
    (d,) = derivatives(system, ct, FreshCounter(), solver_cfg)
    assert d == ConstrainedTerm(mk("init", (n,)), Eq(i, n))
    assert check_derivative_theorem(system, ct, Domain(2)).ok


def test_composite_step_solves_i_and_keeps_the_product(comp_sig, comp_system, solver_cfg):
    # loop(i * k, i) against loop(n, i): the rule's i is bound to the
    # subject's, and n = i * k#N stays for the solver.
    mk = comp_sig.make_app
    ct = ConstrainedTerm(mk("loop", (n, i)), TRUE)
    ctr = FreshCounter()
    ds = derivatives_detailed(comp_system, ct, ctr, solver_cfg)
    (comp,) = [d.ct for d in ds if d.ct.term == mk("comp", ())]
    (k_fresh,) = [v for v in free_vars(comp) if v.name.startswith("k" + FRESH_SEP)]
    assert comp.term == mk("comp", ())
    assert Eq(n, mk("*", (i, k_fresh))) in comp.constraint.parts
    assert {v.name for v in free_vars(comp)} == {"n", "i", k_fresh.name}


def test_matching_never_substitutes_into_the_subject(comp_sig, comp_system, solver_cfg):
    # The subject uses the rule's names the other way round: the rule's n is
    # the subject's i and its i the subject's n, and the subject's own
    # constraint n > i keeps its meaning.
    mk = comp_sig.make_app
    ct = ConstrainedTerm(mk("loop", (i, n)), Atom(mk(">", (n, i))))
    ds = derivatives_detailed(comp_system, ct, FreshCounter(), solver_cfg)
    (step,) = [d.ct for d in ds if d.ct.term.symbol == "loop"]
    assert step.term == mk("loop", (i, mk("+", (n, Lit(1)))))
    assert step.constraint.parts[0] == Atom(mk(">", (n, i)))
    assert check_derivative_theorem(comp_system, ct, Domain(3)).ok


def test_a_fresh_named_subject_variable_is_bound_without_an_equation(comp_sig, comp_system, solver_cfg):
    mk = comp_sig.make_app
    n0 = Var("n#0", INT)
    ds = derivatives(comp_system, ConstrainedTerm(mk("init", (n0,)), TRUE), FreshCounter(), solver_cfg)
    assert ds == [ConstrainedTerm(mk("loop", (n0, Lit(2))), TRUE)]


TWIN = """
sorts Top, Cfg;
symbols two : Cfg Cfg -> Top; same : Cfg -> Top; box : Int -> Cfg;
vars x : Cfg, c : Cfg, d : Cfg, n : Int, m : Int;
rules two(x, x) => same(x) if true;
"""


def test_repeated_variable_images_leave_their_equation(solver_cfg):
    spec = parse_spec(TWIN)
    mk = spec.signature.make_app
    cfg = spec.signature.sorts["Cfg"]
    m, c = Var("m", INT), Var("c", cfg)
    ct = ConstrainedTerm(mk("two", (mk("box", (n,)), mk("box", (m,)))), TRUE)
    assert derivatives(spec.system, ct, FreshCounter(), solver_cfg) == [
        ConstrainedTerm(mk("same", (mk("box", (n,)),)), Eq(m, n))
    ]
    assert check_derivative_theorem(spec.system, ct, Domain(2)).ok
    same = ConstrainedTerm(mk("two", (c, c)), TRUE)
    assert derivatives(spec.system, same, FreshCounter(), solver_cfg) == [ConstrainedTerm(mk("same", (c,)), TRUE)]


def test_images_that_unify_only_by_binding_a_subject_variable_are_refused(solver_cfg):
    spec = parse_spec(TWIN)
    mk = spec.signature.make_app
    cfg = spec.signature.sorts["Cfg"]
    c, d = Var("c", cfg), Var("d", cfg)
    for term in (mk("two", (c, d)), mk("two", (mk("box", (n,)), c))):
        with pytest.raises(DerivativeRefused, match="the two images of x would narrow"):
            derivatives(spec.system, ConstrainedTerm(term, TRUE), FreshCounter(), solver_cfg)


def _spec(name):
    with open(f"tests/specs/{name}.lrw", encoding="utf-8") as handle:
        return parse_spec(handle.read())


@pytest.mark.parametrize(
    "name, why",
    [
        ("narrow_totality", "fin(n) would narrow c : Cfg"),
        ("narrow_subsort", "b : Busy would narrow c : Cfg"),
        ("redex_under_variable", "a redex could sit inside c : Cfg"),
    ],
)
def test_a_step_that_would_narrow_is_refused(name, why, solver_cfg):
    spec = _spec(name)
    lhs = spec.goals[0].formula.lhs
    with pytest.raises(DerivativeRefused, match=re.escape(why)):
        derivatives_detailed(spec.system, lhs, FreshCounter(), solver_cfg)


def test_sorts_that_can_hold_a_redex(solver_cfg):
    # cnt-terms step, and they are Busy, so Busy and Cfg can hold a redex,
    # and Top through pair's Cfg arguments; Idle cannot, nor can Int.
    from coreach.rewriting import _facts

    spec = _spec("redex_under_variable")
    assert _facts(spec.system).redex_sorts == {"Busy", "Cfg", "Top"}
    mk = spec.signature.make_app
    idle = Var("e", spec.signature.sorts["Idle"])
    ct = ConstrainedTerm(mk("pair", (idle, mk("cnt", (n,)))), Atom(mk(">", (n, Lit(0)))))
    (d,) = derivatives(spec.system, ct, FreshCounter(), solver_cfg)
    assert d.term == mk("pair", (idle, mk("cnt", (mk("-", (n, Lit(1))),))))
    # Every corpus system keeps Int subjects out of it.
    assert "Int" not in _facts(_gcd_sub().system).redex_sorts


def test_a_subject_term_whose_instances_can_have_a_smaller_sort_is_refused(solver_cfg):
    # f(c) has sort Top, but f(cnt(k)) has sort Done, which the rule's x needs.
    spec = parse_spec(
        """
        sorts Top, Done, Cfg, Busy;
        subsort Done < Top;
        subsort Busy < Cfg;
        symbols f : Cfg -> Top; f : Busy -> Done; g : Top -> Top; h : Done -> Top;
                cnt : Int -> Busy; fin : Int -> Cfg;
        vars x : Done, c : Cfg, n : Int;
        rules g(x) => h(x) if true;
        """
    )
    mk = spec.signature.make_app
    c = Var("c", spec.signature.sorts["Cfg"])
    with pytest.raises(DerivativeRefused, match=re.escape("x : Done would narrow f(c)")):
        derivatives(spec.system, ConstrainedTerm(mk("g", (mk("f", (c,)),)), TRUE), FreshCounter(), solver_cfg)
    ground = ConstrainedTerm(mk("g", (mk("f", (mk("fin", (n,)),)),)), TRUE)
    assert derivatives(spec.system, ground, FreshCounter(), solver_cfg) == []


MATCH_SPEC = """
sorts S, Top, Cfg, Busy, Idle;
subsort Busy < Cfg;
subsort Idle < Cfg;
symbols
  k : Int -> S;
  k : Cfg -> S;
  r : Int -> S;
  r : Idle -> Top;
  g : Int Int -> S;
  m : Cfg Cfg -> S;
  m : Cfg Top -> S;
  done : Int -> S;
  h : Cfg Cfg -> Top;
  wrap : Cfg -> Top;
  top : -> Top;
  cnt : Int -> Busy;
  fin : Int -> Idle;
vars x : Int, y : Int, c : Cfg, d : Cfg, b : Busy;
rules
  k(0) => done(0) if true;
  k(c) => done(1) if true;
  r(0) => done(3) if true;
  g(x, x) => done(x) if true;
  m(c, c) => done(2) if true;
  h(c, c) => wrap(c) if true;
  wrap(fin(x)) => wrap(cnt(x)) if true;
"""


@pytest.mark.parametrize(
    "subject, successors",
    [
        ("k(0)", ["done(0)"]),  # a literal argument matches itself; k(c) takes no Int
        ("k(1)", []),  # and no other literal
        ("k(c)", ["done(1)"]),  # k(0) takes no Cfg
        ("g(1, 2)", []),  # a repeated variable's two literal images differ
        ("g(y, y)", ["done(y)"]),  # or are one term
        ("m(d, top)", []),  # its two images have unrelated sorts
        ("h(fin(y), cnt(y))", []),  # or clash
        ("wrap(cnt(y))", []),  # a constructor mismatch below the root
        ("wrap(b)", []),  # no Busy value is a fin term
        ("r(fin(y))", []),  # r(0) is an S, r(fin(y)) a Top
    ],
)
def test_match_mismatches_leave_no_successor(subject, successors, solver_cfg):
    spec = parse_spec(MATCH_SPEC)
    ct = parse_cterm_in(spec, subject + " /\\ true")
    ds = derivatives(spec.system, ct, FreshCounter(), solver_cfg)
    assert [pretty_term(d.term) for d in ds] == successors
    assert all(d.constraint == TRUE for d in ds)
    assert check_derivative_theorem(spec.system, ct, Domain(2)).ok
