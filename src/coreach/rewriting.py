"""Rewrite rules and symbolic successors of constrained terms.

A derivative is one symbolic step: for every rule and every
constructor-sorted non-variable position of the subject whose root symbol
and sort fit the rule's left-hand side, the left-hand side is matched onto
the subterm there.  Matching binds the rule's variables to the subject's
subterms and never substitutes into the subject.  A builtin position
leaves the equation (subject term = rule term), unless it is the first
occurrence of a rule variable, which it binds; a repeated rule variable
whose two images differ leaves what unifying the images leaves.  Only the
rule variables the match does not bind get fresh names, the names a
renaming of the whole rule past the subject's own would give them.  The
equations join the guard and the subject's constraint.  A rule whose root
symbol heads no such position is skipped.  Candidates whose constraint the
solver refutes are dropped; unknown keeps them, flagged, which errs on the
side of more successors.

A step that could miss successors is refused (`DerivativeRefused`): one
that would have to bind a user-sorted subject variable, which a constructor
pattern or a rule variable of a smaller sort against it asks for, or two
images of a repeated rule variable that unify only so ("narrowing"); and
one whose subject has a variable of a sort that can hold a redex, which a
step at the subject's own positions never reaches.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from typing import NamedTuple

from .constraints import simplify_constrained, unify_modulo_builtins
from .errors import DerivativeRefused, SortMismatch
from .formulas import (
    ConstrainedTerm,
    Eq,
    FalseF,
    Formula,
    Implies,
    conj,
    disj,
    exists,
    free_vars,
    pretty_term,
    subst_formula,
)
from .signature import Signature
from .smt import SolverConfig, Verdict, check_sat
from .terms import (
    App,
    Lit,
    FreshCounter,
    Position,
    Sort,
    Substitution,
    Term,
    Var,
    fresh_variant,
    replace_at,
    subterms,
    term_vars,
)


@dataclass(frozen=True)
class RewriteRule:
    lhs: Term
    rhs: Term
    guard: Formula

    def variables(self) -> set[Var]:
        return free_vars(self.lhs) | free_vars(self.rhs) | free_vars(self.guard)


@dataclass(frozen=True)
class ReachabilityFormula:
    lhs: ConstrainedTerm
    rhs: ConstrainedTerm

    def shared_vars(self) -> set[Var]:
        return free_vars(self.lhs) & free_vars(self.rhs)


@dataclass(eq=False)
class Lctrs:
    signature: Signature
    rules: list[RewriteRule] = field(default_factory=list)

    def add_rule(self, rule: RewriteRule) -> None:
        ls, rs = rule.lhs.sort, rule.rhs.sort
        if not self.signature.connected(ls, rs):
            raise SortMismatch(f"rule sides have unrelated sorts {ls} and {rs}")
        self.rules.append(rule)

    @property
    def stamp(self) -> tuple:
        """The key of a cache of facts derived from this system: its rules
        and its signature's stamp."""
        return (tuple(self.rules), self.signature.stamp)


@dataclass(frozen=True)
class Derivative:
    """One symbolic successor plus the verdict that kept it."""

    ct: ConstrainedTerm
    verdict: Verdict


class _Facts(NamedTuple):
    """What matching needs of one system, computed once."""

    stamp: tuple
    # Per rule, its variables in name order; the i-th is renamed with the
    # rule's first fresh index + i.
    fresh: list[list[Var]]
    redex_sorts: frozenset[str]  # names of the sorts that can hold a redex


# One entry per system; the keys are weak, so it lives as long as the system.
_FACTS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _facts(system: Lctrs) -> _Facts:
    stamp = system.stamp
    hit = _FACTS.get(system)
    if hit is None or hit.stamp != stamp:
        fresh = [sorted(r.variables(), key=lambda v: v.name) for r in system.rules]
        hit = _FACTS[system] = _Facts(stamp, fresh, _redex_sorts(system))
    return hit


def _redex_sorts(system: Lctrs) -> frozenset[str]:
    """The user sorts that can hold a redex: some sort at or below one is the
    result of an overload of a rule's root symbol (any sort at or below a
    bare-variable left-hand side's), or of a constructor with an argument
    sort that can hold one.  Builtin values are never rewritten, so Int and
    Bool never can."""
    sig = system.signature
    user = [s for s in sig.sorts.values() if not s.builtin]

    def above(low: Sort) -> set[str]:
        return {s.name for s in user if sig.is_subsort(low, s)}

    holds: set[str] = set()
    for rule in system.rules:
        lhs = rule.lhs
        if isinstance(lhs, App):
            lows = [op.result for op in sig.overloads(lhs.symbol) if op.arity == len(lhs.args)]
        else:
            lows = [s for s in user if sig.is_subsort(s, lhs.sort)]
        for low in lows:
            holds |= above(low)
    grew = True
    while grew:
        grew = False
        for op in sig.operations:
            if op.builtin or not any(a.name in holds for a in op.arg_sorts):
                continue
            new = above(op.result) - holds
            if new:
                holds |= new
                grew = True
    return frozenset(holds)


def _meets(sig: Signature, a: Sort, b: Sort) -> bool:
    """Whether some sort lies at or below both."""
    return any(sig.is_subsort(s, a) and sig.is_subsort(s, b) for s in sig.sorts.values())


def _match(sig: Signature, subject: Term, pattern: Term):
    """Match a rule's left-hand side `pattern` onto the subject subterm
    `subject`: the bindings of the pattern's variables, the (subject term,
    pattern term) equations of the builtin positions in breadth-first order,
    and the equations between the images of repeated variables; or None
    when no instance of `subject` is an instance of `pattern`.  Raises
    `DerivativeRefused` where covering every instance would bind a
    user-sorted variable of the subject."""
    binds: dict[Var, Term] = {}
    eqs: list[tuple[Term, Term]] = []
    images: list[Formula] = []
    work = [(subject, pattern)]
    for s, p in work:  # the list grows while it is read: breadth-first
        if p.sort.builtin:
            if not s.sort.builtin:
                return None
            if type(p) is Var:
                img = binds.get(p)
                if img is None:
                    binds[p] = s
                    continue
                if img == s:
                    continue
                if type(img) is Lit and type(s) is Lit:
                    return None
            elif type(p) is Lit and type(s) is Lit:
                if p != s:
                    return None
                continue
            eqs.append((s, p))
        elif s.sort.builtin:
            return None
        elif type(p) is Var:
            img = binds.get(p)
            if img is None:
                if not sig.is_subsort(sig.least_sort(s), p.sort):
                    # A subject term with a user-sorted variable may have
                    # instances of a smaller sort.
                    if any(not v.sort.builtin for v in term_vars(s)) and _meets(sig, sig.least_sort(s), p.sort):
                        shown = f"{s.name} : {s.sort.name}" if type(s) is Var else pretty_term(s)
                        raise DerivativeRefused(f"{p.name} : {p.sort.name} would narrow {shown}")
                    return None
                binds[p] = s
            elif img != s:
                sf = unify_modulo_builtins(sig, s, img)
                if sf is None:
                    return None
                if sf.subst:
                    names = ", ".join(sorted(v.name for v in sf.subst.mapping))
                    raise DerivativeRefused(f"the two images of {p.name} would narrow {names}")
                images.extend(sf.residual)
        elif type(s) is Var:
            if _meets(sig, s.sort, p.sort):
                raise DerivativeRefused(f"{pretty_term(p)} would narrow {s.name} : {s.sort.name}")
            return None
        elif s.symbol != p.symbol or len(s.args) != len(p.args):
            return None
        else:
            work.extend(zip(s.args, p.args))
    return binds, eqs, images


def derivatives_detailed(
    system: Lctrs,
    ct: ConstrainedTerm,
    ctr: FreshCounter,
    cfg: SolverConfig,
    protected: frozenset[str] | None = None,
) -> list[Derivative]:
    """The symbolic successors of `ct`, with the rule and verdict of each;
    raises `DerivativeRefused` where they could miss one."""
    sig = system.signature
    facts = _facts(system)
    held = [v for v in term_vars(ct.term) if v.sort.name in facts.redex_sorts]
    if held:
        v = min(held, key=lambda v: v.name)
        raise DerivativeRefused(f"a redex could sit inside {v.name} : {v.sort.name}")
    subject_vars = free_vars(ct)
    if protected is None:
        protected = frozenset(v.name for v in subject_vars)
    ctr.skip_past(subject_vars)  # fresh names stay apart from the subject's own
    out: list[Derivative] = []
    # The constructor-sorted non-variable positions in preorder, and by root
    # symbol; builtin values are computed, never rewritten.
    every: list[tuple[Position, App]] = [
        (pos, sub) for pos, sub in subterms(ct.term) if type(sub) is App and not sub.sort.builtin
    ]
    sites: dict[str, list[tuple[Position, App]]] = {}
    for site in every:
        sites.setdefault(site[1].symbol, []).append(site)
    for rule, fresh in zip(system.rules, facts.fresh):
        # Every rule spends one fresh index per variable, matched or not, so
        # each fresh name is the one a renaming of every rule would give.
        start = ctr.next_index
        ctr.next_index += len(fresh)
        cands = sites.get(rule.lhs.symbol, ()) if isinstance(rule.lhs, App) else every
        for pos, sub in cands:
            if not sig.connected(sub.sort, rule.lhs.sort):
                continue
            found = _match(sig, sub, rule.lhs)
            if found is None:
                continue
            binds, eqs, images = found
            mapping = dict(binds)
            for i, v in enumerate(fresh):
                if v not in binds:
                    mapping[v] = fresh_variant(v, start + i)
            # Rule-side terms only: the subject may use the rule's own names.
            theta = Substitution(mapping)
            new_term = replace_at(ct.term, pos, theta.apply(rule.rhs))
            residual = [Eq(s, t) for s, p in eqs if (t := theta.apply(p)) != s]
            constraint = conj([ct.constraint, *residual, *images, subst_formula(theta, rule.guard)])
            cand = simplify_constrained(sig, ConstrainedTerm(new_term, constraint), protected)
            if isinstance(cand.constraint, FalseF):
                continue
            verdict = check_sat(sig, cand.constraint, cfg).verdict
            if verdict != Verdict.UNSAT:
                out.append(Derivative(cand, verdict))
    return out


def derivatives(
    system: Lctrs,
    ct: ConstrainedTerm,
    ctr: FreshCounter,
    cfg: SolverConfig | None = None,
) -> list[ConstrainedTerm]:
    """The set of one-step symbolic successors of `ct` under the system."""
    cfg = cfg or SolverConfig()
    return [d.ct for d in derivatives_detailed(system, ct, ctr, cfg)]


def totality_condition(ct: ConstrainedTerm, ds: list[ConstrainedTerm]) -> Formula:
    """The one-step totality claim: every instance of `ct` has a successor
    among the derivatives, stated as an implication into a disjunction of
    existentially closed derivative constraints."""
    base = {v.name for v in free_vars(ct)}
    disjuncts = []
    for d in ds:
        extra = sorted((v for v in free_vars(d) if v.name not in base), key=lambda v: v.name)
        disjuncts.append(exists(extra, d.constraint))
    return Implies(ct.constraint, disj(disjuncts))
