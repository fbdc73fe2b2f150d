"""Rewrite rules and symbolic successors of constrained terms.

A derivative is one symbolic step: for every rule, renamed apart from the
subject, and every constructor-sorted non-variable position of the subject
whose root symbol and sort fit the rule's left-hand side, unification binds
the renamed rule's variables, builtin ones included, and the builtin
equations left over join the guard and the subject's constraint.  A rule
whose root symbol heads no such position is skipped before it is renamed.
Candidates whose constraint the solver refutes are dropped; unknown keeps
them, flagged, which errs on the side of more successors.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .constraints import simplify_constrained, unify_modulo_builtins
from .errors import SortMismatch
from .formulas import (
    ConstrainedTerm,
    FalseF,
    Formula,
    Implies,
    conj,
    disj,
    exists,
    free_vars,
    subst_formula,
)
from .signature import Signature
from .smt import SolverConfig, Verdict, check_sat
from .terms import (
    App,
    FreshCounter,
    Position,
    Sort,
    Term,
    Var,
    non_variable_positions,
    renaming_for,
    replace_at,
    subterm_at,
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
        ls, rs = self.signature.least_sort(rule.lhs), self.signature.least_sort(rule.rhs)
        if not (
            self.signature.is_subsort(ls, rs)
            or self.signature.is_subsort(rs, ls)
            or self.signature.connected(ls, rs)
        ):
            raise SortMismatch(f"rule sides have unrelated sorts {ls} and {rs}")
        self.rules.append(rule)


def rename_rule_fresh(rule: RewriteRule, ctr: FreshCounter) -> RewriteRule:
    ren = renaming_for(rule.variables(), ctr)
    return RewriteRule(ren.apply(rule.lhs), ren.apply(rule.rhs), subst_formula(ren, rule.guard))


@dataclass(frozen=True)
class Derivative:
    """One symbolic successor plus the verdict that kept it."""

    ct: ConstrainedTerm
    rule_index: int
    verdict: Verdict


def derivatives_detailed(
    system: Lctrs,
    ct: ConstrainedTerm,
    ctr: FreshCounter,
    cfg: SolverConfig,
    protected: frozenset[str] | None = None,
) -> list[Derivative]:
    sig = system.signature
    subject_vars = free_vars(ct)
    if protected is None:
        protected = frozenset(v.name for v in subject_vars)
    ctr.skip_past(subject_vars)  # rename rules apart from the subject's fresh names too
    out: list[Derivative] = []
    # The constructor-sorted non-variable positions in preorder, and by root
    # symbol; builtin values are computed, never rewritten.
    every: list[tuple[Position, App, Sort]] = []
    for pos in non_variable_positions(ct.term):
        sub = subterm_at(ct.term, pos)
        sub_sort = sig.least_sort(sub)
        if not sub_sort.builtin:
            every.append((pos, sub, sub_sort))
    sites: dict[str, list[tuple[Position, App, Sort]]] = {}
    for site in every:
        sites.setdefault(site[1].symbol, []).append(site)
    for idx, rule in enumerate(system.rules):
        cands = sites.get(rule.lhs.symbol) if isinstance(rule.lhs, App) else every
        if cands is None:
            # No position can match: skip the renaming but not its fresh
            # indices, so every later fresh name stays the same.
            ctr.next_index += len(rule.variables())
            continue
        fresh = rename_rule_fresh(rule, ctr)
        bindable = fresh.variables()
        lhs_sort = sig.least_sort(fresh.lhs)
        for pos, sub, sub_sort in cands:
            if not (
                sig.connected(sub_sort, lhs_sort)
                or sig.is_subsort(sub_sort, lhs_sort)
                or sig.is_subsort(lhs_sort, sub_sort)
            ):
                continue
            try:
                forms = unify_modulo_builtins(sig, sub, fresh.lhs, bindable)
            except SortMismatch:
                continue
            for sf in forms:
                sigma = sf.subst
                new_term = sigma.apply(replace_at(ct.term, pos, sigma.apply(fresh.rhs)))
                constraint = conj(
                    [subst_formula(sigma, ct.constraint)]
                    + list(sf.residual)
                    + [subst_formula(sigma, fresh.guard)]
                )
                cand = simplify_constrained(sig, ConstrainedTerm(new_term, constraint), protected)
                if isinstance(cand.constraint, FalseF):
                    continue
                verdict = check_sat(sig, cand.constraint, cfg).verdict
                if verdict != Verdict.UNSAT:
                    out.append(Derivative(cand, idx, verdict))
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
