"""Unification, simplification, and the inclusion condition, cross-checked
against exhaustive evaluation on a small integer domain."""

from itertools import product

import pytest

from coreach.constraints import (
    _elimination,
    fold_term,
    semantic_inclusion_condition,
    simplify,
    simplify_constrained,
    unify_modulo_builtins,
)
from coreach.formulas import (
    Atom,
    ConstrainedTerm,
    Eq,
    Exists,
    FALSE,
    Forall,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    atom_terms,
    children,
    conj,
    free_vars,
    pretty_constrained,
    rebuild,
    subst_formula,
)
from coreach.oracle import Domain, enumerate_instances, eval_formula
from coreach.terms import INT, App, Lit, Substitution, Var

n, i, k, u, s = (Var(x, INT) for x in "nikus")


@pytest.fixture()
def mk(comp_sig):
    return comp_sig.make_app


def test_unify_variable_against_variable(comp_sig, mk):
    sf = unify_modulo_builtins(comp_sig, mk("init", (Var("n#0", INT),)), mk("init", (n,)))
    assert sf.residual == (Eq(Var("n#0", INT), n),)
    assert not sf.subst


def test_unify_builtin_application_stays_residual(comp_sig, mk):
    lhs = mk("loop", (n, Lit(2)))
    rhs = mk("loop", (mk("*", (i, k)), i))
    sf = unify_modulo_builtins(comp_sig, lhs, rhs)
    assert set(sf.residual) == {Eq(n, mk("*", (i, k))), Eq(Lit(2), i)}


def test_unify_constructor_clash(comp_sig, mk):
    assert unify_modulo_builtins(comp_sig, mk("comp", ()), mk("loop", (n, i))) is None


def test_unify_ground_equivalence_exhaustive(comp_sig, mk):
    # The solved form must hold for exactly the valuations that make the
    # two terms equal (no solved form for none), by brute force on [-B, B].
    dom = Domain(2)
    pairs = [
        (mk("init", (n,)), mk("init", (mk("+", (i, Lit(1))),))),
        (mk("loop", (n, i)), mk("loop", (mk("*", (i, k)), i))),
        (mk("loop", (n, Lit(2))), mk("loop", (i, k))),
        (mk("init", (n,)), mk("comp", ())),
        (mk("loop", (n, i)), mk("loop", (k, k))),
        (mk("loop", (mk("+", (n, Lit(1))), n)), mk("loop", (k, mk("-", (k, Lit(1)))))),
    ]
    for t1, t2 in pairs:
        sf = unify_modulo_builtins(comp_sig, t1, t2)
        vs = sorted(free_vars(t1) | free_vars(t2), key=lambda v: v.name)
        for combo in product(dom.ints(), repeat=len(vs)):
            val = dict(zip(vs, combo))
            lhs_eq = eval_formula(comp_sig, Eq(t1, t2), val, dom)
            by_forms = sf is not None and eval_formula(comp_sig, sf.as_formula(), val, dom)
            assert lhs_eq == by_forms, (pretty_constrained(ConstrainedTerm(t1, TRUE)), val)


def test_unify_binds_the_larger_sorted_variable():
    # c : Cfg against b#1 : Busy with Busy < Cfg: only c := b#1 keeps the
    # sort order, fresh name or not; a user name wins only within one sort.
    from coreach.specfile import parse_spec

    with open("tests/specs/narrow_subsort.lrw", encoding="utf-8") as handle:
        sig = parse_spec(handle.read()).signature
    c, b1 = Var("c", sig.sorts["Cfg"]), Var("b#1", sig.sorts["Busy"])
    for t1, t2 in ((c, b1), (b1, c)):
        sf = unify_modulo_builtins(sig, t1, t2)
        assert sf.subst.mapping == {c: b1} and sf.residual == ()
    c1 = Var("c#1", sig.sorts["Cfg"])
    sf = unify_modulo_builtins(sig, c, c1)
    assert sf.subst.mapping == {c1: c}


NAT_SPEC = """
sorts Nat, Pos, Zero, Other;
subsort Pos < Nat;
subsort Zero < Nat;
symbols
  z : -> Zero;
  o : -> Other;
  s : Nat -> Pos;
  h : Nat -> Nat;
vars x : Nat, y : Nat, p : Pos, q : Zero;
"""


@pytest.mark.parametrize(
    "left, right, bound",
    [
        ("s(x)", "y", {"y": "s(x)"}),  # a term against a variable binds the variable
        ("p", "q", None),  # no value is both Pos and Zero
        ("x", "s(x)", None),  # occurs check: no cyclic values
        ("p", "h(x)", None),  # a Nat term need not be a Pos
        ("x", "o", None),  # Nat and Other share no supersort
    ],
)
def test_unify_constructor_sorted_cases(left, right, bound):
    from coreach.specfile import parse_cterm_in, parse_spec

    spec = parse_spec(NAT_SPEC)
    term = lambda text: parse_cterm_in(spec, text + " /\\ true").term
    sf = unify_modulo_builtins(spec.signature, term(left), term(right))
    if bound is None:
        assert sf is None
    else:
        assert sf.residual == ()
        assert sf.subst.mapping == {term(v): term(t) for v, t in bound.items()}


def psi_formula(mk):
    return Exists(
        (u,),
        conj([Atom(mk("<", (Lit(1), u))), Atom(mk("<", (u, n))), Eq(mk("mod", (n, u)), Lit(0))]),
    )


def test_simplify_collapses_refuted_subsumption(comp_sig, mk):
    psi = psi_formula(mk)
    comp = mk("comp", ())
    f = conj([psi, Not(conj([Eq(comp, comp), TRUE]))])
    assert simplify(comp_sig, f) == FALSE


def test_simplify_constrained_propagates_fresh_binding(comp_sig, mk):
    psi = psi_formula(mk)
    np = Var("n#0", INT)
    ct = ConstrainedTerm(
        mk("loop", (np, Lit(2))),
        conj([TRUE, Eq(mk("init", (np,)), mk("init", (n,))), psi]),
    )
    out = simplify_constrained(comp_sig, ct, protected=frozenset({"n"}))
    assert out.term == mk("loop", (n, Lit(2)))
    assert out.constraint == psi


def test_simplify_pushes_a_fresh_variable_out_for_a_user_one(comp_sig, mk):
    # m = m#1 keeps the user-named m in view: the sibling is rewritten to
    # speak of m, not the other way round.
    m, m1, i1 = Var("m", INT), Var("m#1", INT), Var("i#1", INT)
    f = conj([Eq(m, m1), Atom(mk("<", (i1, m1)))])
    assert simplify(comp_sig, f) == conj([Eq(m, m1), Atom(mk("<", (i1, m)))])


def test_simplify_constrained_eliminates_chained_fresh_bindings_at_once(comp_sig, mk):
    # n#1 = n#2 and n#2 = n chain into n#1 := n, n#2 := n; k#1 = 3 binds a
    # literal.  All go in one substitution; the protected n stays.
    n1, n2, k1 = Var("n#1", INT), Var("n#2", INT), Var("k#1", INT)
    ct = ConstrainedTerm(
        mk("loop", (n1, k1)),
        conj([Eq(n1, n2), Atom(mk("<", (n2, k1))), Eq(n2, n), Eq(k1, Lit(3))]),
    )
    out = simplify_constrained(comp_sig, ct, protected=frozenset({"n"}))
    assert out == ConstrainedTerm(mk("loop", (n, Lit(3))), Atom(mk("<", (n, Lit(3)))))
    # `simplify` already flattens such chains; the composition must too
    sigma, rest = _elimination(list(children(ct.constraint)), frozenset({"n"}))
    assert sigma.mapping == {n1: n, n2: n, k1: Lit(3)}
    assert rest == [Atom(mk("<", (n2, k1)))]


def test_simplify_drops_true_conjunct(comp_sig, mk):
    f = conj([Atom(mk("<", (n, i))), TRUE])
    assert simplify(comp_sig, f) == Atom(mk("<", (n, i)))


def test_simplify_folds_ground_arithmetic(comp_sig, mk):
    f = Eq(mk("+", (Lit(2), Lit(3))), Lit(5))
    assert simplify(comp_sig, f) == TRUE
    f2 = Atom(mk("<", (Lit(5), Lit(3))))
    assert simplify(comp_sig, f2) == FALSE


def test_simplify_folds_a_term_compared_with_itself(comp_sig, mk):
    assert simplify(comp_sig, Atom(mk(">", (u, u)))) == FALSE
    assert simplify(comp_sig, Atom(mk("<=", (u, u)))) == TRUE
    # sound for any term, division by zero included
    t = mk("div", (n, mk("mod", (i, n))))
    dom = Domain(2)
    for op, folded in (("<", FALSE), (">", FALSE), ("<=", TRUE), (">=", TRUE)):
        f = Atom(mk(op, (t, t)))
        assert simplify(comp_sig, f) == folded
        for val in product(dom.ints(), repeat=2):
            assert eval_formula(comp_sig, f, dict(zip((n, i), val)), dom) == (folded == TRUE)


def _formula_pool(mk):
    lt = lambda a, b: Atom(mk("<", (a, b)))
    le = lambda a, b: Atom(mk("<=", (a, b)))
    return [
        conj([lt(Lit(0), n), le(n, Lit(2))]),
        Or((Eq(n, i), lt(i, n))),
        conj([Eq(n, mk("+", (i, Lit(1)))), lt(i, Lit(2))]),
        Not(conj([lt(Lit(0), n), lt(n, i)])),
        Implies(lt(n, i), lt(n, mk("+", (i, Lit(1))))),
        Exists((k,), conj([Eq(n, mk("*", (i, k))), lt(Lit(0), k)])),
        conj([Eq(i, Lit(2)), Eq(n, mk("*", (i, i)))]),
        Eq(mk("init", (n,)), mk("init", (mk("+", (i, Lit(1))),))),
    ]


def test_simplify_preserves_valuation_semantics(comp_sig, mk):
    dom = Domain(2)
    for f in _formula_pool(mk):
        g = simplify(comp_sig, f)
        vs = sorted(free_vars(f) | free_vars(g), key=lambda v: v.name)
        for combo in product(dom.ints(), repeat=len(vs)):
            val = dict(zip(vs, combo))
            assert eval_formula(comp_sig, f, val, dom) == eval_formula(comp_sig, g, val, dom), f


def test_inclusion_reflexive_is_valid_shape(comp_sig, mk):
    ct = ConstrainedTerm(mk("init", (n,)), Atom(mk("<", (Lit(0), n))))
    cond = semantic_inclusion_condition(comp_sig, ct, ct)
    assert isinstance(cond, Implies)
    assert simplify(comp_sig, cond) == TRUE


def test_inclusion_into_unconstrained_target(comp_sig, mk):
    psi = psi_formula(mk)
    comp = mk("comp", ())
    cond = semantic_inclusion_condition(
        comp_sig, ConstrainedTerm(comp, psi), ConstrainedTerm(comp, TRUE)
    )
    assert simplify(comp_sig, cond) == TRUE


def test_inclusion_constructor_clash_is_unsatisfiable_consequent(comp_sig, mk):
    cond = semantic_inclusion_condition(
        comp_sig,
        ConstrainedTerm(mk("init", (n,)), TRUE),
        ConstrainedTerm(mk("comp", ()), TRUE),
    )
    # premise true, consequent false: the implication simplifies away entirely
    assert simplify(comp_sig, cond) == FALSE


def test_inclusion_agrees_with_bruteforce_on_shared_instances(comp_sig, mk):
    # Prop-style desk check: the condition is valid exactly when instance
    # sets are included for every shared valuation.
    from coreach.smt import SolverConfig, Verdict, check_sat

    dom = Domain(3)
    cfgs = SolverConfig()
    lt = lambda a, b: Atom(mk("<", (a, b)))
    cases = [
        (ConstrainedTerm(mk("init", (n,)), lt(Lit(0), n)), ConstrainedTerm(mk("init", (n,)), lt(Lit(-1), n))),
        (ConstrainedTerm(mk("init", (n,)), lt(Lit(-1), n)), ConstrainedTerm(mk("init", (n,)), lt(Lit(0), n))),
        (ConstrainedTerm(mk("loop", (n, i)), Eq(n, i)), ConstrainedTerm(mk("loop", (n, n)), TRUE)),
        (ConstrainedTerm(mk("loop", (n, Lit(2))), TRUE), ConstrainedTerm(mk("loop", (i, k)), TRUE)),
    ]
    for ct1, ct2 in cases:
        cond = simplify(comp_sig, semantic_inclusion_condition(comp_sig, ct1, ct2))
        verdict = check_sat(comp_sig, Not(cond), cfgs).verdict
        shared = sorted(free_vars(ct1) & free_vars(ct2), key=lambda v: v.name)
        brute = True
        for combo in product(dom.ints(), repeat=len(shared)):
            from coreach.terms import Substitution
            from coreach.formulas import subst_constrained

            sigma = Substitution({v: Lit(c) for v, c in zip(shared, combo)})
            p = enumerate_instances(comp_sig, subst_constrained(sigma, ct1), dom)
            q = enumerate_instances(comp_sig, subst_constrained(sigma, ct2), dom)
            if not p <= q:
                brute = False
                break
        if verdict == Verdict.UNSAT:
            # the solver speaks about all integers; the bounded check must agree
            assert brute
        elif verdict == Verdict.SAT and brute:
            # counterexample must lie outside the small domain; tolerated only
            # for unconstrained targets, not expected in this fixed case list
            pytest.fail(f"solver invalid but bounded inclusion holds: {pretty_constrained(ct1)}")


from hypothesis import given, settings, strategies as st


def _hyp_formulas(mk, binders=False):
    """Random formulas over n and i; with `binders`, also Iff and quantifiers
    over n or i (whose bounded semantics `simplify` does not preserve)."""
    lits = st.integers(-2, 2).map(Lit)
    vars_ = st.sampled_from([n, i])
    atoms_terms = st.one_of(lits, vars_)

    def small_term(children):
        return st.one_of(
            atoms_terms,
            st.tuples(st.sampled_from(["+", "-", "*"]), children, children).map(
                lambda t: mk(t[0], (t[1], t[2]))
            ),
        )

    terms = st.recursive(atoms_terms, small_term, max_leaves=4)
    atom = st.one_of(
        st.tuples(st.sampled_from(["<", "<="]), terms, terms).map(lambda t: Atom(mk(t[0], (t[1], t[2])))),
        st.tuples(terms, terms).map(lambda t: Eq(t[0], t[1])),
    )

    def compound(children):
        options = [
            st.tuples(children, children).map(lambda t: conj([t[0], t[1]])),
            st.tuples(children, children).map(lambda t: Or((t[0], t[1]))),
            children.map(Not),
            st.tuples(children, children).map(lambda t: Implies(t[0], t[1])),
        ]
        if binders:
            options += [
                st.tuples(children, children).map(lambda t: Iff(t[0], t[1])),
                st.tuples(vars_, children).map(lambda t: Exists((t[0],), t[1])),
                st.tuples(vars_, children).map(lambda t: Forall((t[0],), t[1])),
            ]
        return st.one_of(*options)

    return st.recursive(atom, compound, max_leaves=5)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_simplify_preserves_truth_everywhere(data):
    from coreach.signature import Signature
    from coreach.terms import INT

    comp_sig = Signature()
    cfg = comp_sig.add_sort("Cfg")
    comp_sig.add_operation("init", [INT], cfg)
    mk = comp_sig.make_app
    f = data.draw(_hyp_formulas(mk))
    g = simplify(comp_sig, f)
    dom = Domain(2)
    vs = sorted(free_vars(f) | free_vars(g), key=lambda v: v.name)
    for combo in product(dom.ints(), repeat=len(vs)):
        val = dict(zip(vs, combo))
        assert eval_formula(comp_sig, f, val, dom) == eval_formula(comp_sig, g, val, dom)


def test_subst_formula_renames_a_capturing_binder(mk):
    # n := k under a binder of k: the binder becomes k!1, and n's image stays free
    f = Exists((k,), Eq(n, mk("*", (i, k))))
    g = subst_formula(Substitution({n: k}), f)
    k1 = Var("k!1", INT)
    assert g == Exists((k1,), Eq(k, mk("*", (i, k1))))
    assert free_vars(g) == {k, i}


def test_subst_formula_leaves_a_shadowed_variable_alone(mk):
    bound = Exists((k,), Eq(n, mk("*", (i, k))))
    f = conj([Atom(mk("<", (k, n))), bound])
    g = subst_formula(Substitution({k: Lit(2)}), f)
    assert g == conj([Atom(mk("<", (Lit(2), n))), bound])


def test_fold_term_returns_a_folded_term_itself(mk):
    t = mk("loop", (mk("+", (n, Lit(1))), Lit(3)))
    assert fold_term(t) is t
    folded = fold_term(mk("loop", (mk("+", (Lit(2), Lit(1))), t.args[0])))
    assert folded == mk("loop", (Lit(3), t.args[0])) and folded.args[1] is t.args[0]
    assert fold_term(folded) is folded


def test_subst_formula_missing_every_free_variable_returns_the_formula(mk):
    f = conj([Atom(mk("<", (i, n))), Exists((k,), Eq(n, mk("*", (i, k))))])
    assert subst_formula(Substitution({u: Lit(1)}), f) is f
    assert subst_formula(Substitution({k: Lit(1)}), f) is f  # k is bound where it occurs
    untouched = Atom(mk("<", (n, k)))
    g = subst_formula(Substitution({i: Lit(1)}), Implies(Atom(mk("<", (i, n))), untouched))
    assert g == Implies(Atom(mk("<", (Lit(1), n))), untouched) and children(g)[1] is untouched


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_simplify_returns_a_normal_form_itself(data):
    from coreach.signature import Signature

    sig = Signature()
    g = simplify(sig, data.draw(_hyp_formulas(sig.make_app, binders=True)))
    assert simplify(sig, g) is g
    assert subst_formula(Substitution({u: Lit(1)}), g) is g


def _rebuilt(f):
    """A structurally equal copy of `f` that shares no node with it, so it
    carries none of the facts `f`'s nodes keep."""

    def term(t):
        return App(t.symbol, tuple(map(term, t.args)), t.sort) if isinstance(t, App) else t

    if f in (TRUE, FALSE):
        return type(f)()
    return rebuild(f, [term(t) for t in atom_terms(f)], [_rebuilt(k) for k in children(f)])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_cached_facts_match_a_fresh_copy(data):
    # Free variables and simplification passes are kept on the nodes; a
    # warmed formula answers what a fresh copy of it computes from scratch.
    from coreach.signature import Signature

    sig = Signature()
    f = data.draw(_hyp_formulas(sig.make_app, binders=True))
    fv, g = free_vars(f), simplify(sig, f)
    copy = _rebuilt(f)
    assert copy == f and not any(a is b for a, b in zip(children(copy), children(f)))
    assert free_vars(copy) == fv and simplify(sig, copy) == g
    assert free_vars(f) == fv and simplify(sig, f) is g


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_a_pass_kept_under_one_signature_is_not_reused_under_another(data):
    # Two signatures of the same sizes that disagree on x : A = y : B: a
    # sort clash in the first, a binding in the second.
    from coreach.signature import Signature

    first, second = Signature(), Signature()
    for sig, sub in ((first, "C"), (second, "B")):
        for name in "ABC":
            sig.add_sort(name)
        sig.add_subsort(sub, "A")
    x, y = Var("x", first.sorts["A"]), Var("y", first.sorts["B"])
    f = conj([Eq(x, y), data.draw(_hyp_formulas(first.make_app, binders=True))])
    simplify(first, f)
    assert simplify(second, f) == simplify(second, _rebuilt(f))


def test_a_pass_kept_before_the_signature_grows_is_not_reused(comp_sig):
    # x : A = y : B clashes while A and B are unrelated and binds x once B
    # is declared a subsort of A: the kept result must follow the signature.
    a, b = comp_sig.add_sort("A"), comp_sig.add_sort("B")
    x, y = Var("x", a), Var("y", b)
    f = conj([Eq(x, y), Atom(comp_sig.make_app("<", (n, i)))])
    assert simplify(comp_sig, f) == FALSE
    comp_sig.add_subsort("B", "A")
    assert simplify(comp_sig, f) == simplify(comp_sig, _rebuilt(f)) == f


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_subst_formula_keeps_quantified_truth(data):
    # substituting a literal commutes with evaluation, binders and shadowing included
    from coreach.signature import Signature

    comp_sig = Signature()
    mk = comp_sig.make_app
    f = data.draw(_hyp_formulas(mk, binders=True))
    v, c = data.draw(st.sampled_from([n, i])), data.draw(st.integers(-2, 2))
    g = subst_formula(Substitution({v: Lit(c)}), f)
    dom = Domain(2)
    rest = sorted(free_vars(f) - {v}, key=lambda x: x.name)
    assert free_vars(g) == set(rest)
    for combo in product(dom.ints(), repeat=len(rest)):
        val = dict(zip(rest, combo))
        assert eval_formula(comp_sig, g, val, dom) == eval_formula(comp_sig, f, {**val, v: c}, dom)


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_rebuild_inverts_atom_terms_and_children(data):
    from coreach.signature import Signature

    f = data.draw(_hyp_formulas(Signature().make_app, binders=True))
    assert rebuild(f, atom_terms(f), children(f)) == f
    for g in (TRUE, FALSE, conj([]), Or(())):
        assert rebuild(g, atom_terms(g), children(g)) == g
