"""First-order constraint formulas over the full signature, and constrained terms.

Equality is structural.  Every walker takes a formula apart with
`atom_terms` and `children` and puts it back together with `rebuild`.
`subst_formula` is capture-avoiding: binders are alpha-renamed on the fly
when a replacement term would be captured.

Formula nodes are frozen, so they keep two pure facts about themselves,
each in a slot set on first use: their free variables (`free_vars`), and
the result of one simplification pass under a given signature (kept by
`constraints._simp`).  `subst_formula` returns a formula at once when no
variable it moves is free there.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

from .terms import NO_VARS, App, Lit, Substitution, Term, Var, term_vars


class _Node:
    """The slots a formula node fills on first use: `_vars`, its free
    variables, and `_simp`, one simplification pass's result (see
    `constraints._simp`).  Equality and hashing ignore both."""

    __slots__ = ("_vars", "_simp")


_put = object.__setattr__  # fills a slot of a frozen node


@dataclass(frozen=True, slots=True)
class TrueF(_Node):
    def __repr__(self):
        return "true"


@dataclass(frozen=True, slots=True)
class FalseF(_Node):
    def __repr__(self):
        return "false"


@dataclass(frozen=True, slots=True)
class Eq(_Node):
    lhs: Term
    rhs: Term


@dataclass(frozen=True, slots=True)
class Atom(_Node):
    """A Bool-sorted term used as an atomic formula."""

    term: Term


@dataclass(frozen=True, slots=True)
class Not(_Node):
    body: "Formula"


@dataclass(frozen=True, slots=True)
class And(_Node):
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Or(_Node):
    parts: tuple["Formula", ...]


@dataclass(frozen=True, slots=True)
class Implies(_Node):
    premise: "Formula"
    conclusion: "Formula"


@dataclass(frozen=True, slots=True)
class Iff(_Node):
    lhs: "Formula"
    rhs: "Formula"


@dataclass(frozen=True, slots=True)
class Exists(_Node):
    bound: tuple[Var, ...]
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Forall(_Node):
    bound: tuple[Var, ...]
    body: "Formula"


Formula = Union[TrueF, FalseF, Eq, Atom, Not, And, Or, Implies, Iff, Exists, Forall]
BINDERS = (Exists, Forall)

TRUE = TrueF()
FALSE = FalseF()


# -- structure ----------------------------------------------------------------
#
# The one way to take a formula apart and put it back together.  Per class:
# its atom terms, its subformulas, and the rebuild from new ones; binders
# keep their `bound` tuple.


def _none(f) -> tuple:
    return ()


def _same(f, terms, kids) -> Formula:
    return f


_SHAPES: dict[type, tuple[Callable, Callable, Callable]] = {
    TrueF: (_none, _none, _same),
    FalseF: (_none, _none, _same),
    Eq: (lambda f: (f.lhs, f.rhs), _none, lambda f, terms, kids: Eq(*terms)),
    Atom: (lambda f: (f.term,), _none, lambda f, terms, kids: Atom(*terms)),
    Not: (_none, lambda f: (f.body,), lambda f, terms, kids: Not(*kids)),
    And: (_none, lambda f: f.parts, lambda f, terms, kids: And(tuple(kids))),
    Or: (_none, lambda f: f.parts, lambda f, terms, kids: Or(tuple(kids))),
    Implies: (_none, lambda f: (f.premise, f.conclusion), lambda f, terms, kids: Implies(*kids)),
    Iff: (_none, lambda f: (f.lhs, f.rhs), lambda f, terms, kids: Iff(*kids)),
    Exists: (_none, lambda f: (f.body,), lambda f, terms, kids: Exists(f.bound, *kids)),
    Forall: (_none, lambda f: (f.body,), lambda f, terms, kids: Forall(f.bound, *kids)),
}


def atom_terms(f: Formula) -> tuple[Term, ...]:
    """The terms of an atomic formula (`Eq`, `Atom`); () for any other."""
    return _SHAPES[type(f)][0](f)


def children(f: Formula) -> tuple[Formula, ...]:
    """The immediate subformulas of `f` in order; a binder's is its body."""
    return _SHAPES[type(f)][1](f)


def rebuild(f: Formula, terms, kids) -> Formula:
    """A formula of `f`'s class over new atom terms and subformulas, so that
    `rebuild(f, atom_terms(f), children(f)) == f`; binders keep `f.bound`."""
    return _SHAPES[type(f)][2](f, terms, kids)


# The unit and the absorbing element of each junction.
JUNCTIONS = {And: (TRUE, FALSE), Or: (FALSE, TRUE)}


def junction(cls: type, parts) -> Formula:
    """`cls` (And or Or) of `parts`, with nested `cls` parts flattened and
    units dropped; no parts give the unit, one part stands alone."""
    unit = JUNCTIONS[cls][0]
    flat: list[Formula] = []
    for p in parts:
        if type(p) is cls:
            flat.extend(children(p))
        elif type(p) is not type(unit):
            flat.append(p)
    if not flat:
        return unit
    if len(flat) == 1:
        return flat[0]
    return cls(tuple(flat))


def conj(parts) -> Formula:
    return junction(And, parts)


def conjuncts(f: Formula) -> list[Formula]:
    """The conjuncts of `f` in order, nested `And`s flattened and `true`
    dropped: `conj(conjuncts(f))` is `f` up to that flattening."""
    if type(f) is And:
        return [c for p in f.parts for c in conjuncts(p)]
    return [] if type(f) is TrueF else [f]


def disj(parts) -> Formula:
    return junction(Or, parts)


def exists(bound, body: Formula) -> Formula:
    bound = tuple(bound)
    return Exists(bound, body) if bound else body


@dataclass(frozen=True, slots=True)
class ConstrainedTerm:
    """A term with variables paired with a first-order constraint."""

    term: Term
    constraint: Formula


def free_vars(x) -> frozenset[Var]:
    """Free variables of a term, formula, or constrained term; a formula
    node computes them once and keeps them."""
    if isinstance(x, (Var, Lit, App)):
        return term_vars(x)
    if isinstance(x, ConstrainedTerm):
        return term_vars(x.term) | free_vars(x.constraint)
    try:
        return x._vars
    except AttributeError:
        pass
    out = NO_VARS.union(*map(term_vars, atom_terms(x)), *map(free_vars, children(x)))
    if isinstance(x, BINDERS):
        out = out.difference(x.bound)
    out = out or NO_VARS
    _put(x, "_vars", out)
    return out


def subst_formula(sigma: Substitution, f: Formula) -> Formula:
    """`f` under `sigma`; `f` itself where no free variable moves."""
    if sigma.mapping.keys().isdisjoint(free_vars(f)):
        return f
    if isinstance(f, BINDERS):
        # some variable of sigma is free in f, so `relevant` is not empty
        relevant = {v: t for v, t in sigma.mapping.items() if v not in f.bound}
        sigma = Substitution(relevant)
        f = _rename_captured(f, set().union(*map(term_vars, relevant.values())))
    terms, kids = atom_terms(f), children(f)
    new_terms = [sigma.apply(t) for t in terms]
    new_kids = [subst_formula(sigma, k) for k in kids]
    if all(a is b for a, b in zip(new_terms, terms)) and all(a is b for a, b in zip(new_kids, kids)):
        return f
    return rebuild(f, new_terms, new_kids)


def _rename_captured(f: Exists | Forall, img_vars: set[Var]) -> Exists | Forall:
    """`f` with every binder in `img_vars` alpha-renamed to a name fresh for
    `img_vars` and `f`, so that substituting those variables under it
    captures nothing."""
    bound = list(f.bound)
    if not img_vars & set(bound):
        return f
    (body,) = children(f)
    taken = {v.name for v in img_vars | free_vars(body) | set(bound)}
    ren: dict[Var, Term] = {}
    for i, b in enumerate(bound):
        if b in img_vars:
            k = 1
            while f"{b.name}!{k}" in taken:
                k += 1
            nb = Var(f"{b.name}!{k}", b.sort)
            taken.add(nb.name)
            ren[b] = nb
            bound[i] = nb
    return type(f)(tuple(bound), subst_formula(Substitution(ren), body))


def subst_constrained(sigma: Substitution, ct: ConstrainedTerm) -> ConstrainedTerm:
    return ConstrainedTerm(sigma.apply(ct.term), subst_formula(sigma, ct.constraint))


# -- surface syntax ---------------------------------------------------------------
#
# The one definition of the infix term operators and comparisons: the printer
# below and the parser in `specfile` both read it.

TERM_PREC = {"+": 7, "-": 7, "*": 8, "div": 8, "mod": 8}  # left-associative
COMPARISONS = {"<", "<=", ">", ">=", "="}


def pretty_term(t: Term, prec: int = 0) -> str:
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Lit):
        if isinstance(t.value, bool):
            return "true" if t.value else "false"
        return str(t.value) if t.value >= 0 else f"(- {-t.value})" if prec >= 9 else str(t.value)
    if t.symbol in TERM_PREC and len(t.args) == 2:
        p = TERM_PREC[t.symbol]
        s = f"{pretty_term(t.args[0], p)} {t.symbol} {pretty_term(t.args[1], p + 1)}"
        return f"({s})" if prec > p else s
    if t.symbol == "-" and len(t.args) == 1:
        return f"-{pretty_term(t.args[0], 9)}"
    if (t.symbol in COMPARISONS or t.symbol in ("and", "or", "not")) and t.args:
        # Bool-sorted builtin application in term position.
        inner = ", ".join(pretty_term(a) for a in t.args)
        return f"{t.symbol}({inner})"
    if not t.args:
        return t.symbol
    return f"{t.symbol}({', '.join(pretty_term(a) for a in t.args)})"


# Infix connectives: (precedence, symbol, right-associative), read by this
# printer and by the parser in `specfile`.  Operands print one level tighter,
# except the last operand of a right-associative connective.  `~` is 5 and
# atoms 6.
INFIX = {And: (4, "/\\", False), Or: (3, "\\/", False), Implies: (2, "->", True), Iff: (1, "<->", False)}


def pretty_formula(f: Formula, prec: int = 0) -> str:
    infix = INFIX.get(type(f))
    if infix is not None:
        p, symbol, right = infix
        kids = children(f)
        last = len(kids) - 1
        s = f" {symbol} ".join(
            pretty_formula(k, p if right and j == last else p + 1) for j, k in enumerate(kids)
        )
        return f"({s})" if prec > p or len(kids) < 2 else s
    if isinstance(f, Not):
        return f"~{pretty_formula(children(f)[0], 5)}"
    if isinstance(f, BINDERS):
        kw = "exists" if isinstance(f, Exists) else "forall"
        head = ", ".join(f"{v.name} : {v.sort.name}" for v in f.bound)
        s = f"{kw} {head} . {pretty_formula(children(f)[0], 0)}"
        return f"({s})" if prec > 0 else s
    terms = atom_terms(f)
    if isinstance(f, Eq):
        return " = ".join(pretty_term(t, 7) for t in terms)
    if isinstance(f, Atom):
        (t,) = terms
        if isinstance(t, App) and t.symbol in COMPARISONS and len(t.args) == 2:
            return f"{pretty_term(t.args[0], 7)} {t.symbol} {pretty_term(t.args[1], 7)}"
        return pretty_term(t)
    return repr(f)  # true, false


def pretty_constrained(ct: ConstrainedTerm) -> str:
    return f"{pretty_term(ct.term, 5)} /\\ {pretty_formula(ct.constraint, 5)}"
