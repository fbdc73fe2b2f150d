import pytest
from hypothesis import given, strategies as st

from coreach.errors import InvalidPosition
from coreach.signature import Signature
from coreach.terms import (
    INT,
    App,
    Sort,
    FreshCounter,
    Lit,
    Substitution,
    Var,
    renaming_for,
    replace_at,
    subterm_at,
    subterms,
    term_vars,
)

sig = Signature()
CFG = sig.add_sort("Cfg")
sig.add_operation("init", [INT], CFG)
sig.add_operation("loop", [INT, INT], CFG)
sig.add_operation("comp", [], CFG)

n, i, k = Var("n", INT), Var("i", INT), Var("k", INT)
mk = sig.make_app


def ints(lo=-5, hi=5):
    return st.integers(lo, hi).map(Lit)


def leaves():
    return st.one_of(ints(), st.sampled_from([n, i, k]))


def int_terms(depth=3):
    base = leaves()
    if depth == 0:
        return base
    sub = int_terms(depth - 1)
    return st.one_of(
        base,
        st.tuples(st.sampled_from(["+", "-", "*"]), sub, sub).map(lambda t: mk(t[0], (t[1], t[2]))),
    )


def cfg_terms():
    return st.one_of(
        int_terms(2).map(lambda t: mk("init", (t,))),
        st.tuples(int_terms(2), int_terms(2)).map(lambda t: mk("loop", t)),
        st.just(mk("comp", ())),
    )


def test_apply_substitution_binds_and_leaves_rest():
    s = Substitution({n: Lit(4)})
    assert s.apply(mk("loop", (n, Lit(2)))) == mk("loop", (Lit(4), Lit(2)))
    t = mk("loop", (i, k))
    assert s.apply(t) == t


def test_identity_substitution_is_identity():
    t = mk("init", (mk("*", (i, k)),))
    assert Substitution({}).apply(t) is t


def test_rewriters_return_unchanged_nodes_themselves():
    inner = mk("*", (i, k))
    t = mk("loop", (inner, n))
    assert Substitution({Var("z", INT): Lit(1)}).apply(t) is t
    moved = Substitution({n: Lit(4)}).apply(t)
    assert moved == mk("loop", (inner, Lit(4))) and moved.args[0] is inner
    assert replace_at(t, (2,), n) is t
    assert replace_at(t, (2,), Lit(4)).args[0] is inner


def test_substitution_into_term():
    s = Substitution({n: mk("*", (i, k))})
    assert s.apply(mk("init", (n,))) == mk("init", (mk("*", (i, k)),))


def _compose(outer: Substitution, inner: Substitution) -> Substitution:
    """outer∘inner: apply `inner` first, then `outer`."""
    out = {v: outer.apply(t) for v, t in inner.mapping.items()}
    for v, t in outer.mapping.items():
        out.setdefault(v, t)
    return Substitution({v: t for v, t in out.items() if t != v})


@given(cfg_terms(), int_terms(2), int_terms(2))
def test_substitution_composition(t, a, b):
    tau = Substitution({n: a})
    sigma = Substitution({i: b})
    assert _compose(sigma, tau).apply(t) == sigma.apply(tau.apply(t))


def _non_variable_positions(t):
    return [p for p, s in subterms(t) if not isinstance(s, Var)]


def test_non_variable_positions_examples():
    assert _non_variable_positions(mk("loop", (n, Lit(2)))) == [(), (2,)]
    assert _non_variable_positions(mk("comp", ())) == [()]
    t = mk("loop", (mk("*", (i, k)), i))
    assert _non_variable_positions(t) == [(), (1,)]
    assert list(subterms(t)) == [((), t), ((1,), t.args[0]), ((1, 1), i), ((1, 2), k), ((2,), i)]


def test_replace_at_top_and_child():
    assert replace_at(mk("init", (n,)), (), mk("loop", (n, Lit(2)))) == mk("loop", (n, Lit(2)))
    got = replace_at(mk("loop", (n, Lit(2))), (2,), mk("+", (i, Lit(1))))
    assert got == mk("loop", (n, mk("+", (i, Lit(1)))))


def test_replace_at_invalid_position():
    with pytest.raises(InvalidPosition):
        replace_at(mk("comp", ()), (1,), n)


@given(cfg_terms())
def test_replace_at_roundtrip(t):
    # The walk yields every position of `t` once, in preorder (which on
    # positions is lexicographic order), with the subterm `subterm_at`
    # finds there.
    walk = list(subterms(t))
    ps = [p for p, _ in walk]
    assert ps[0] == () and ps == sorted(set(ps))
    for p, s in walk:
        assert subterm_at(t, p) is s
        if isinstance(s, App):
            assert all((*p, j) in ps for j in range(1, len(s.args) + 1))
        assert replace_at(t, p, s) == t


def test_rename_fresh_disjoint_and_shape_preserving():
    ctr = FreshCounter()
    t = mk("loop", (n, i))
    r1 = renaming_for(term_vars(t), ctr)
    r2 = renaming_for(term_vars(t), ctr)
    t1, t2 = r1.apply(t), r2.apply(t)
    assert term_vars(t1) & term_vars(t2) == set()
    assert term_vars(t1) & term_vars(t) == set()
    assert sig.least_sort(t1) == sig.least_sort(t)
    # renaming is a bijection: distinct images, same count
    assert len(term_vars(t1)) == len(term_vars(t))


def test_rename_fresh_no_variables_advances_nothing():
    ctr = FreshCounter()
    r = renaming_for(set(), ctr)
    assert not r.mapping
    assert ctr.next_index == 0


@given(cfg_terms(), int_terms(2))
def test_free_vars_of_substituted_term(t, a):
    sigma = Substitution({n: a})
    expected = (term_vars(t) - {n}) | (term_vars(a) if n in term_vars(t) else set())
    assert term_vars(sigma.apply(t)) == expected


def test_bool_and_int_literals_are_different_terms():
    assert Lit(True) != Lit(1) and Lit(False) != Lit(0)
    assert Lit(1) == Lit(1) and hash(Lit(1)) == hash(Lit(1))
    assert Lit(True).sort != Lit(1).sort
    wrapped_bool = App("loop", (Lit(True), Lit(0)), CFG)
    wrapped_int = App("loop", (Lit(1), Lit(0)), CFG)
    assert wrapped_bool != wrapped_int
    assert len({Lit(True), Lit(1), Lit(False), Lit(0)}) == 4
    assert len({wrapped_bool, wrapped_int}) == 2
    table = {wrapped_bool: "true", wrapped_int: "1"}
    assert table[App("loop", (Lit(True), Lit(0)), CFG)] == "true"
    assert table[App("loop", (Lit(1), Lit(0)), CFG)] == "1"
    assert App("f", (Lit(1),), CFG) != App("f", (Lit(True),), CFG)


def test_small_int_literals_hash_apart():
    # CPython has hash(-1) == hash(-2); unequal states should not share a hash
    hashes = {hash(Lit(v)) for v in range(-1000, 1001)}
    assert len(hashes) == 2001 and not hashes & {hash(Lit(True)), hash(Lit(False))}
    assert hash(Lit(-1)) != hash(Lit(-2))
    assert hash(mk("loop", (Lit(-1), Lit(0)))) != hash(mk("loop", (Lit(-2), Lit(0))))


def _copy(t):
    return App(t.symbol, tuple(_copy(a) for a in t.args), t.sort) if isinstance(t, App) else t


@given(int_terms())
def test_equal_apps_hash_equal_and_stably(t):
    wrapped = mk("loop", (t, Lit(0)))
    twin = _copy(wrapped)
    assert twin is not wrapped and twin == wrapped
    assert hash(twin) == hash(wrapped) == hash(wrapped)
    assert len({wrapped, twin}) == 1


def test_a_term_is_its_symbol_and_arguments_not_the_sort_it_was_built_at():
    # f(x) with x : A is built at C; putting b : B under it leaves that sort,
    # while building f(b) afresh picks the smaller overload, D.
    over = Signature()
    a, b_sort, c, d = (over.add_sort(s) for s in "ABCD")
    over.add_subsort("B", "A")
    over.add_subsort("D", "C")
    over.add_operation("b", [], b_sort)
    over.add_operation("f", [a], c)
    over.add_operation("f", [b_sort], d)
    b = over.make_app("b", ())
    substituted = Substitution({Var("x", a): b}).apply(over.make_app("f", (Var("x", a),)))
    built = over.make_app("f", (b,))
    assert (substituted.sort, built.sort) == (c, d)
    assert substituted == built and hash(substituted) == hash(built)
    assert len({substituted, built}) == 1
    assert over.least_sort(substituted) == over.least_sort(built) == d
    assert App("f", (b,), Sort("E")) == built  # whatever sort it carries
