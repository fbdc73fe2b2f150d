import pytest

from coreach.errors import IllTyped, UnknownSort
from coreach.signature import Signature
from coreach.terms import BOOL, INT, Lit, Sort, Var


def test_example_signature_is_admitted(comp_sig):
    assert comp_sig.validate() == []


def test_builtin_overlap_is_reported():
    sig = Signature()
    cfg = sig.add_sort("Cfg")
    sig.add_operation("+", [INT, INT], cfg)
    kinds = {v.kind for v in sig.validate()}
    assert "builtin-overlap" in kinds


def test_monotonicity_violation_with_subsort():
    sig = Signature()
    cfg = sig.add_sort("Cfg")
    nat = sig.add_sort("Nat")
    sig.add_subsort("Nat", "Int")
    sig.add_operation("f", [nat], cfg)
    sig.add_operation("f", [INT], BOOL)
    kinds = {v.kind for v in sig.validate()}
    assert "monotonicity" in kinds


def test_uninhabited_sort_is_reported():
    sig = Signature()
    sig.add_sort("Empty")
    kinds = {v.kind for v in sig.validate()}
    assert "uninhabited" in kinds


def test_constructor_into_builtin_sort_is_reported():
    sig = Signature()
    sig.add_sort("Cfg")
    sig.add_operation("weird", [], INT)
    kinds = {v.kind for v in sig.validate()}
    assert "builtin-result" in kinds


def test_constructor_below_a_builtin_sort_names_both_sorts():
    sig = Signature()
    a = sig.add_sort("A")
    sig.add_subsort("A", "Int")
    sig.add_operation("a", [], a)
    sig.add_operation("w", [], INT)
    found = [str(v) for v in sig.validate() if v.kind == "builtin-result"]
    assert found == [
        "builtin-result: a constructs into A, below builtin Int",
        "builtin-result: w constructs into builtin sort Int",
    ]


def test_each_subsort_cycle_is_one_violation():
    # The subsort order must be a partial order; a cycle names its sorts.
    sig = Signature()
    for name in "ABCDE":
        sig.add_sort(name)
        sig.add_operation(name.lower(), [], sig.sorts[name])
    for sub, sup in [("A", "B"), ("B", "C"), ("C", "A"), ("D", "E"), ("E", "D"), ("C", "D")]:
        sig.add_subsort(sub, sup)
    assert [str(v) for v in sig.validate()] == [
        "subsort-cycle: the subsort order loops through A, B, C",
        "subsort-cycle: the subsort order loops through D, E",
    ]
    sig = Signature()
    sig.add_sort("A")
    sig.add_subsort("A", "Int")
    sig.add_subsort("Int", "A")
    assert "subsort-cycle: the subsort order loops through A, Int" in [str(v) for v in sig.validate()]


def test_least_sort_examples(comp_sig):
    mk = comp_sig.make_app
    assert comp_sig.least_sort(mk("init", (Lit(3),))).name == "Cfg"
    assert comp_sig.least_sort(Lit(3)) == INT


def test_least_sort_picks_smaller_overload():
    sig = Signature()
    nat = sig.add_sort("Nat")
    sig.add_subsort("Nat", "Int")
    sig.add_operation("zero", [], nat)
    sig.add_operation("succ", [nat], nat)
    sig.add_operation("succ", [INT], INT)
    # ls(succ(x:Nat)) refines through the Nat overload
    x = Var("x", nat)
    assert sig.least_sort(sig.make_app("succ", (x,))) == nat
    assert sig.least_sort(sig.make_app("succ", (Lit(1),))) == INT


def test_least_sort_rejects_unknown_application(comp_sig):
    with pytest.raises(IllTyped):
        comp_sig.make_app("init", (comp_sig.make_app("comp", ()),))


def test_is_subsort_reflexive_and_declared():
    sig = Signature()
    nat = sig.add_sort("Nat")
    sig.add_subsort("Nat", "Int")
    assert sig.is_subsort(INT, INT)
    assert sig.is_subsort(nat, INT)
    assert not sig.is_subsort(INT, nat)


def test_is_subsort_empty_relation(comp_sig):
    cfg = comp_sig.sorts["Cfg"]
    assert not comp_sig.is_subsort(cfg, INT)
    assert not comp_sig.is_subsort(INT, cfg)


def test_is_subsort_transitive():
    sig = Signature()
    a, b, c = (sig.add_sort(x) for x in "ABC")
    sig.add_subsort("A", "B")
    sig.add_subsort("B", "C")
    sig.add_operation("mkA", [], a)
    assert sig.is_subsort(a, c)
    assert not sig.is_subsort(c, a)  # antisymmetry on distinct sorts
    # the closure holds whatever order the pairs are declared in
    d, e = sig.add_sort("D"), sig.add_sort("E")
    sig.add_subsort("D", "E")
    sig.add_subsort("C", "D")
    assert all(sig.is_subsort(x, e) for x in (a, b, c, d))
    assert not sig.is_subsort(e, a)
    rebuilt = Signature(sorts=dict(sig.sorts), subsort_pairs=set(sig.subsort_pairs))
    assert rebuilt.is_subsort(a, e) and not rebuilt.is_subsort(e, a)


def test_connected_sorts():
    sig = Signature()
    a, b, c, d = (sig.add_sort(x) for x in "ABCD")
    sig.add_subsort("A", "C")
    sig.add_subsort("B", "C")
    assert sig.connected(a, b) and sig.connected(b, a)  # only through C
    assert not sig.connected(a, d) and not sig.connected(d, c)
    assert sig.connected(d, d)
    sig.add_subsort("D", "B")  # after the lookups above
    assert sig.connected(a, d) and sig.connected(d, c)
    assert not sig.connected(a, INT)


def test_is_subsort_unknown_sort_raises(comp_sig):
    with pytest.raises(UnknownSort):
        comp_sig.is_subsort(Sort("Ghost"), INT)


def test_corpus_signatures_validate():
    from pathlib import Path

    from coreach.specfile import parse_spec

    for path in sorted(Path("systems").glob("*.lrw")):
        spec = parse_spec(path.read_text())
        assert spec.signature.validate() == [], path.name


def test_least_sort_is_minimal_over_memberships():
    # independent membership: t inhabits sort s iff some overload chain fits
    sig = Signature()
    nat = sig.add_sort("Nat")
    cfg = sig.add_sort("Cfg")
    sig.add_subsort("Nat", "Int")
    sig.add_operation("zero", [], nat)
    sig.add_operation("succ", [nat], nat)
    sig.add_operation("succ", [INT], INT)
    sig.add_operation("box", [INT], cfg)

    def member(t, s):
        if isinstance(t, (Var, Lit)):
            return sig.is_subsort(t.sort, s)
        return any(
            sig.is_subsort(op.result, s)
            and len(op.arg_sorts) == len(t.args)
            and all(member(a, w) for a, w in zip(t.args, op.arg_sorts))
            for op in sig.overloads(t.symbol)
        )

    x = Var("x", nat)
    terms = [Lit(1), x, sig.make_app("zero", ())]
    for _ in range(2):  # grow to depth 3
        terms += [sig.make_app("succ", (t,)) for t in terms if sig.least_sort(t).name in ("Nat", "Int")]
    terms += [sig.make_app("box", (t,)) for t in terms if sig.least_sort(t).name in ("Nat", "Int")]
    for t in terms:
        ls = sig.least_sort(t)
        for s in sig.sorts.values():
            if member(t, s):
                assert sig.is_subsort(ls, s), (t, s)
        assert member(t, ls)


def test_preregularity_violation_names_the_first_word():
    # D < C, C < A and C < B.  At (C, A) both overloads of g apply and their
    # results A and B have no least one; the words before it in name order
    # have one overload or none.
    sig = Signature()
    a, b, c, d = (sig.add_sort(n) for n in "ABCD")
    sig.add_subsort("D", "C")
    sig.add_subsort("C", "A")
    sig.add_subsort("C", "B")
    sig.add_operation("d0", [], d)
    sig.add_operation("g", [a, a], a)
    sig.add_operation("g", [b, a], b)
    found = [str(v) for v in sig.validate()]
    assert found == ["preregularity: g at ('C', 'A') has no least result sort"]


def test_preregularity_visits_only_words_below_an_overload(monkeypatch):
    # Position i of a word ranges over the sorts below some overload's i-th
    # argument sort, not over every sort: no word of k holds B, Int or
    # Bool, and no builtin's word holds a user sort.  Only a name declared
    # twice at one arity is checked, so k has a second overload.
    import coreach.signature as signature

    visited = []
    product = signature.product

    def recording(*pools, **kwargs):
        for word in product(*pools, **kwargs):
            visited.append(tuple(s.name for s in word))
            yield word

    monkeypatch.setattr(signature, "product", recording)
    sig = Signature()
    a, b, c = (sig.add_sort(n) for n in "ABC")
    sig.add_subsort("C", "A")
    sig.add_operation("c0", [], c)
    sig.add_operation("b0", [], b)
    sig.add_operation("k", [a, a], a)
    sig.add_operation("k", [c, c], c)
    assert sig.validate() == []
    user_words = [w for w in visited if set(w) - {"Int", "Bool"}]
    assert user_words == [("A", "A"), ("A", "C"), ("C", "A"), ("C", "C")]
