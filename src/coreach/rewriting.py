"""Rewrite rules and symbolic successors of constrained terms.

A derivative is one symbolic step: for every rule (renamed apart) and every
non-variable position of the subject whose sort fits, the matching equation
is reduced to builtin constraints and folded into the subject's constraint.
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
    FreshCounter,
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
    if protected is None:
        protected = frozenset(v.name for v in free_vars(ct))
    out: list[Derivative] = []
    subject_sort_of = {p: sig.least_sort(subterm_at(ct.term, p)) for p in non_variable_positions(ct.term)}
    for idx, rule in enumerate(system.rules):
        fresh = rename_rule_fresh(rule, ctr)
        lhs_sort = sig.least_sort(fresh.lhs)
        for pos, sub_sort in subject_sort_of.items():
            if sub_sort.builtin:
                continue  # builtin values are computed, never rewritten
            if not (
                sig.connected(sub_sort, lhs_sort)
                or sig.is_subsort(sub_sort, lhs_sort)
                or sig.is_subsort(lhs_sort, sub_sort)
            ):
                continue
            sub = subterm_at(ct.term, pos)
            try:
                forms = unify_modulo_builtins(sig, sub, fresh.lhs)
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
