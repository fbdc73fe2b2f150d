"""Coinductive proof search for reachability goals.

Four proof rules close goals ⟨t|φ⟩ ⇒ ⟨t'|φ'⟩: an unsatisfiable left
constraint (axiom), inclusion in the right-hand side (subsumption), reuse
of a goal from the goal set (circularity, only below a derivative step),
and a symbolic step over all derivatives (derivative).  An optional
case-split rule is available behind per-goal annotations.  Search applies
the rules in that order and backtracks; solver unknowns never enable a
rule.  Emitted trees carry every discharged side condition so they can be
re-verified independently.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .constraints import instance_condition, simplify, simplify_constrained
from .errors import GuardednessViolation, InvalidOption, InvalidSplit, MalformedSolverOutput, SolverUnavailable
from .formulas import (
    BINDERS,
    ConstrainedTerm,
    FalseF,
    Formula,
    Iff,
    Not,
    Or,
    atom_terms,
    children,
    conj,
    free_vars,
    pretty_constrained,
    pretty_formula,
    subst_constrained,
)
from .rewriting import (
    Lctrs,
    ReachabilityFormula,
    derivatives_detailed,
    totality_condition,
)
from .signature import Signature
from .smt import SolverConfig, Verdict, check_sat
from .terms import App, FreshCounter, Lit, Substitution, Term, Var, renaming_for

AXIOM, SUBS, DER, CIRC, DISJ, OPEN = "axiom", "subs", "der", "circ", "disj", "open"

NODE_BUDGET = 4096


@dataclass(frozen=True)
class Goal:
    formula: ReachabilityFormula
    depth: int = 0
    has_der_ancestor: bool = False
    last_rule: str | None = None


@dataclass(frozen=True)
class SideCondition:
    role: str  # lhs-unsat | inclusion-sat | circ-sat | totality | derivative | split
    formula: Formula  # exactly what was sent to the solver
    verdict: Verdict  # the verdict the rule application relied on


@dataclass(frozen=True)
class ProofNode:
    kind: str
    goal: ReachabilityFormula
    conditions: tuple[SideCondition, ...] = ()
    children: tuple["ProofNode", ...] = ()
    circularity_used: int | None = None

    def walk(self):
        yield self
        for c in self.children:
            yield from c.walk()


@dataclass(frozen=True)
class SearchConfig:
    max_der_depth: int = 20
    max_branching: int = 64
    solver: SolverConfig = field(default_factory=SolverConfig)
    enable_disj: bool = False

    def __post_init__(self):
        if self.max_der_depth <= 0 or self.max_branching <= 0:
            raise InvalidOption(
                f"search bounds must be positive (max depth {self.max_der_depth}, max branch {self.max_branching})"
            )


@dataclass(frozen=True)
class OpenGoal:
    formula: ReachabilityFormula
    reason: str  # depth | no-rule | budget | unknown
    role: str | None = None  # for `unknown`: the side condition that got the verdict
    query: Formula | None = None  # for `unknown`: exactly what was sent to the solver


# A goal is inconclusive when its search failed and an unknown verdict
# blocked a rule somewhere in it: that rule might have closed the goal.
PROVED, FAILED, INCONCLUSIVE, ABORTED = "proved", "failed", "inconclusive", "aborted"
UNKNOWN = "unknown"


@dataclass
class GoalResult:
    status: str
    tree: ProofNode | None = None
    frontier: list[OpenGoal] = field(default_factory=list)
    detail: str = ""


@dataclass
class ProveResult:
    per_goal: list[GoalResult]

    @property
    def all_proved(self) -> bool:
        return all(r.status == PROVED for r in self.per_goal)


class Prover:
    """Bounded backtracking search in the four-rule calculus over a fixed
    rewrite system and goal set."""

    def __init__(self, system: Lctrs, goals: list[ReachabilityFormula], cfg: SearchConfig):
        self.system = system
        self.sig = system.signature
        self.goals = goals
        self.cfg = cfg
        self.ctr = FreshCounter()
        self.nodes = 0
        self.unknowns = 0
        self._unknown: tuple[str, Formula] | None = None  # of the last rule application

    # -- solver wrappers -----------------------------------------------------------

    def _sat(self, role: str, f: Formula) -> Verdict:
        verdict = check_sat(self.sig, f, self.cfg.solver).verdict
        if verdict == Verdict.UNKNOWN:
            self.unknowns += 1
            self._unknown = (role, f)
        return verdict

    def _take_unknown(self, goal: Goal) -> list[OpenGoal]:
        """The unknown verdict that blocked the rule application just tried,
        as an open goal; each application sends at most one query."""
        hit, self._unknown = self._unknown, None
        if hit is None:
            return []
        return [OpenGoal(goal.formula, UNKNOWN, *hit)]

    # -- single rule applications -----------------------------------------------------

    def apply_axiom(self, goal: Goal) -> ProofNode | None:
        """Closes the goal when the left constraint is unsatisfiable."""
        lhs = goal.formula.lhs
        if isinstance(lhs.constraint, FalseF):
            cond = SideCondition("lhs-unsat", lhs.constraint, Verdict.UNSAT)
            return ProofNode(AXIOM, goal.formula, (cond,))
        if self._sat("lhs-unsat", lhs.constraint) != Verdict.UNSAT:
            return None
        return ProofNode(AXIOM, goal.formula, (SideCondition("lhs-unsat", lhs.constraint, Verdict.UNSAT),))

    def subsumption_constraint(self, rf: ReachabilityFormula) -> Formula:
        """∃(rhs-only vars). lhs-term = rhs-term ∧ rhs-constraint, reduced."""
        private = free_vars(rf.rhs) - free_vars(rf.lhs)
        return simplify(self.sig, instance_condition(self.sig, rf.lhs.term, rf.rhs, private))

    def apply_subs(self, goal: Goal) -> tuple[SideCondition, Goal] | None:
        """Splits off the part of the goal already inside the right-hand side."""
        rf = goal.formula
        phi = self.subsumption_constraint(rf)
        if isinstance(phi, FalseF):
            return None
        query = conj([rf.lhs.constraint, phi])
        if self._sat("inclusion-sat", query) != Verdict.SAT:
            return None
        protected = frozenset(v.name for v in free_vars(rf.rhs))
        residual = simplify_constrained(
            self.sig, ConstrainedTerm(rf.lhs.term, conj([rf.lhs.constraint, Not(phi)])), protected
        )
        child = Goal(
            ReachabilityFormula(residual, rf.rhs), goal.depth, goal.has_der_ancestor, last_rule=SUBS
        )
        return SideCondition("inclusion-sat", query, Verdict.SAT), child

    def apply_circ(self, goal: Goal, index: int) -> tuple[SideCondition, Goal, Goal] | None:
        """Uses goal `index` of the goal set as an axiom, guardedness required."""
        if not goal.has_der_ancestor:
            raise GuardednessViolation("circularity needs a derivative step above it")
        rf = goal.formula
        circ = self.goals[index]
        ren = _match_onto(self.sig, circ.rhs, rf.rhs)
        if ren is None:
            return None  # goals are only usable against their own right-hand side
        fresh = renaming_for(free_vars(circ.lhs) - free_vars(circ.rhs), self.ctr)
        circ_lhs = subst_constrained(Substitution({**ren.mapping, **fresh.mapping}), circ.lhs)
        phi = simplify(
            self.sig, instance_condition(self.sig, rf.lhs.term, circ_lhs, fresh.mapping.values())
        )
        if isinstance(phi, FalseF):
            return None
        query = conj([rf.lhs.constraint, phi])
        if self._sat("circ-sat", query) != Verdict.SAT:
            return None
        protected = frozenset(v.name for v in free_vars(rf.rhs))
        cont = simplify_constrained(
            self.sig,
            ConstrainedTerm(rf.rhs.term, conj([rf.lhs.constraint, phi, rf.rhs.constraint])),
            protected,
        )
        residual = simplify_constrained(
            self.sig, ConstrainedTerm(rf.lhs.term, conj([rf.lhs.constraint, Not(phi)])), protected
        )
        c1 = Goal(ReachabilityFormula(cont, rf.rhs), goal.depth, goal.has_der_ancestor, last_rule=CIRC)
        c2 = Goal(ReachabilityFormula(residual, rf.rhs), goal.depth, goal.has_der_ancestor, last_rule=CIRC)
        return SideCondition("circ-sat", query, Verdict.SAT), c1, c2

    def apply_der(self, goal: Goal) -> tuple[tuple[SideCondition, ...], list[Goal]] | None:
        """One symbolic step: all derivatives become children, provided every
        instance of the goal's left-hand side has a successor."""
        rf = goal.formula
        protected = frozenset(v.name for v in free_vars(rf.lhs) | free_vars(rf.rhs))
        ds = derivatives_detailed(self.system, rf.lhs, self.ctr, self.cfg.solver, protected)
        if not ds:
            return None
        if len(ds) > self.cfg.max_branching:
            return None
        total = simplify(self.sig, totality_condition(rf.lhs, [d.ct for d in ds]))
        neg = simplify(self.sig, Not(total))
        if self._sat("totality", neg) != Verdict.UNSAT:
            return None
        conds = [SideCondition("totality", neg, Verdict.UNSAT)]
        for d in ds:
            conds.append(SideCondition("derivative", d.ct.constraint, d.verdict))
        children = [
            Goal(ReachabilityFormula(d.ct, rf.rhs), goal.depth + 1, True, last_rule=DER) for d in ds
        ]
        return tuple(conds), children

    def apply_disj(self, goal: Goal, split: tuple[Formula, Formula]) -> tuple[SideCondition, Goal, Goal]:
        """Case split on the left constraint; the split must cover it exactly."""
        rf = goal.formula
        phi1, phi2 = split
        iff = Iff(rf.lhs.constraint, Or((phi1, phi2)))
        if self._sat("split", simplify(self.sig, Not(iff))) != Verdict.UNSAT:
            raise InvalidSplit(pretty_formula(iff))
        g1 = Goal(
            ReachabilityFormula(ConstrainedTerm(rf.lhs.term, phi1), rf.rhs),
            goal.depth,
            goal.has_der_ancestor,
            last_rule=DISJ,
        )
        g2 = Goal(
            ReachabilityFormula(ConstrainedTerm(rf.lhs.term, phi2), rf.rhs),
            goal.depth,
            goal.has_der_ancestor,
            last_rule=DISJ,
        )
        return SideCondition("split", Not(iff), Verdict.UNSAT), g1, g2

    # -- search --------------------------------------------------------------------

    def prove_goal(self, rf: ReachabilityFormula, split: tuple[Formula, Formula] | None = None) -> GoalResult:
        self.nodes = 0
        self._unknown = None
        protected = frozenset(v.name for v in free_vars(rf.rhs))
        lhs = simplify_constrained(self.sig, rf.lhs, protected)
        root = Goal(ReachabilityFormula(lhs, rf.rhs))
        try:
            if split is not None:
                if not self.cfg.enable_disj:
                    return GoalResult(ABORTED, detail="case split present but splitting is disabled")
                cond, g1, g2 = self.apply_disj(root, split)
                n1, f1 = self._search(g1)
                n2, f2 = self._search(g2)
                if n1 is not None and n2 is not None:
                    tree = ProofNode(DISJ, root.formula, (cond,), (n1, n2))
                    return GoalResult(PROVED, tree)
                node, frontier = None, f1 + f2
            else:
                node, frontier = self._search(root)
        except (SolverUnavailable, MalformedSolverOutput) as exc:
            return GoalResult(ABORTED, detail=str(exc))
        if node is not None:
            return GoalResult(PROVED, node)
        status = INCONCLUSIVE if any(og.reason == UNKNOWN for og in frontier) else FAILED
        return GoalResult(status, frontier=frontier)

    def prove_all(self, splits: dict[int, tuple[Formula, Formula]] | None = None) -> ProveResult:
        splits = splits or {}
        results = []
        for i, rf in enumerate(self.goals):
            results.append(self.prove_goal(rf, splits.get(i)))
        return ProveResult(results)

    def _search(self, goal: Goal) -> tuple[ProofNode | None, list[OpenGoal]]:
        """A proof of the goal, or the open goals of the failed search: its
        open leaves and, for every rule application at or below this node
        that an unknown verdict blocked, an `unknown` entry."""
        self.nodes += 1
        if self.nodes > NODE_BUDGET:
            return None, [OpenGoal(goal.formula, "budget")]

        node = self.apply_axiom(goal)
        if node is not None:
            return node, []
        unknown = self._take_unknown(goal)

        if goal.last_rule != SUBS:
            hit = self.apply_subs(goal)
            unknown += self._take_unknown(goal)
            if hit is not None:
                cond, child = hit
                sub, frontier = self._search(child)
                if sub is not None:
                    return ProofNode(SUBS, goal.formula, (cond,), (sub,)), []
                unknown += _unknown_only(frontier)

        if goal.has_der_ancestor:
            for index in range(len(self.goals)):
                hit = self.apply_circ(goal, index)
                unknown += self._take_unknown(goal)
                if hit is None:
                    continue
                cond, g1, g2 = hit
                n1, f1 = self._search(g1)
                if n1 is None:
                    unknown += _unknown_only(f1)
                    continue
                n2, f2 = self._search(g2)
                if n2 is None:
                    unknown += _unknown_only(f2)
                    continue
                return ProofNode(CIRC, goal.formula, (cond,), (n1, n2), circularity_used=index), []

        if goal.depth < self.cfg.max_der_depth:
            hit = self.apply_der(goal)
            unknown += self._take_unknown(goal)
            if hit is not None:
                conds, children = hit
                subs: list[ProofNode] = []
                frontier: list[OpenGoal] = []
                for child in children:
                    n, f = self._search(child)
                    if n is None:
                        frontier.extend(f)
                    else:
                        subs.append(n)
                if not frontier:
                    return ProofNode(DER, goal.formula, conds, tuple(subs)), []
                return None, frontier + unknown
            if unknown:
                return None, unknown  # the unknowns are why no rule applied
            return None, [OpenGoal(goal.formula, "no-rule")]
        return None, [OpenGoal(goal.formula, "depth")] + unknown


def _unknown_only(frontier: list[OpenGoal]) -> list[OpenGoal]:
    return [og for og in frontier if og.reason == UNKNOWN]


def _match_onto(sig: Signature, pattern: ConstrainedTerm, target: ConstrainedTerm) -> Substitution | None:
    """Variable renaming mapping `pattern` syntactically onto `target`, if any."""
    mapping: dict[Var, Term] = {}

    def terms(p: Term, t: Term) -> bool:
        if isinstance(p, Var):
            if not isinstance(t, Var) or p.sort != t.sort:
                return False
            if p in mapping:
                return mapping[p] == t
            if any(v == t for v in mapping.values()):
                return False  # keep the renaming injective
            mapping[p] = t
            return True
        if isinstance(p, Lit):
            return p == t
        if not isinstance(t, App) or not isinstance(p, App):
            return False
        return (
            p.symbol == t.symbol
            and len(p.args) == len(t.args)
            and all(terms(a, b) for a, b in zip(p.args, t.args))
        )

    def formulas(p: Formula, t: Formula) -> bool:
        kids = children(p), children(t)
        if type(p) is not type(t) or len(kids[0]) != len(kids[1]):
            return False
        if not all(map(terms, atom_terms(p), atom_terms(t))):
            return False
        if not isinstance(p, BINDERS):
            return all(map(formulas, *kids))
        if [a.sort for a in p.bound] != [b.sort for b in t.bound]:
            return False
        # Inside, the binders pair up, and an outer variable whose image the
        # target's binder shadows matches nothing; after, the outer mapping
        # holds again.
        outer = dict(mapping)
        mapping.update({v: None for v, img in outer.items() if img in t.bound})
        mapping.update(zip(p.bound, t.bound))
        ok = all(map(formulas, *kids))
        for a in p.bound:
            mapping.pop(a, None)
        mapping.update({v: img for v, img in outer.items() if v in p.bound or img in t.bound})
        return ok

    if not terms(pattern.term, target.term):
        return None
    if not formulas(pattern.constraint, target.constraint):
        return None
    return Substitution(dict(mapping))


# -- audits -------------------------------------------------------------------------


def check_guarded(tree: ProofNode) -> bool:
    """Every circularity node must have a derivative node above it."""

    def walk(node: ProofNode, under_der: bool) -> bool:
        if node.kind == CIRC and not under_der:
            return False
        below = under_der or node.kind == DER
        return all(walk(c, below) for c in node.children)

    return walk(tree, False)


def audit_structure(tree: ProofNode) -> list[str]:
    """Structural defects: bad child counts, stacked subsumptions, open leaves."""
    problems = []
    for node in tree.walk():
        if node.kind == AXIOM and node.children:
            problems.append("axiom node with children")
        if node.kind == SUBS:
            if len(node.children) != 1:
                problems.append("subsumption node without exactly one child")
            elif node.children[0].kind == SUBS:
                problems.append("subsumption chained on its own residual")
        if node.kind in (CIRC, DISJ) and len(node.children) != 2:
            problems.append(f"{node.kind} node without exactly two children")
        if node.kind == DER and not node.children:
            problems.append("derivative node with no children")
        if node.kind == OPEN:
            problems.append("open leaf in a closed tree")
    return problems


def reverify(sig: Signature, tree: ProofNode, cfg: SolverConfig) -> list[str]:
    """Re-run every recorded side condition with a fresh solver; returns
    descriptions of any disagreements."""
    bad = []
    for node in tree.walk():
        for cond in node.conditions:
            if cond.verdict == Verdict.UNKNOWN:
                continue  # recorded as unreliable to begin with
            res = check_sat(sig, cond.formula, cfg)
            if res.verdict != cond.verdict:
                bad.append(
                    f"{node.kind}/{cond.role}: recorded {cond.verdict.value}, got {res.verdict.value}"
                )
    return bad


# -- rendering ----------------------------------------------------------------------


def _goal_str(rf: ReachabilityFormula) -> str:
    return f"{pretty_constrained(rf.lhs)} => {pretty_constrained(rf.rhs)}"


def render_text(tree: ProofNode, indent: int = 0) -> str:
    pad = "  " * indent
    lines = [f"{pad}[{tree.kind}] {_goal_str(tree.goal)}"]
    if tree.circularity_used is not None:
        lines.append(f"{pad}  using goal #{tree.circularity_used + 1}")
    for cond in tree.conditions:
        lines.append(f"{pad}  {cond.role}: {cond.verdict.value}")
    for child in tree.children:
        lines.append(render_text(child, indent + 1))
    return "\n".join(lines)


def to_json_dict(tree: ProofNode) -> dict:
    out = {
        "goal": _goal_str(tree.goal),
        "rule": tree.kind,
        "conditions": [
            {"formula": pretty_formula(c.formula), "verdict": c.verdict.value} for c in tree.conditions
        ],
        "children": [to_json_dict(c) for c in tree.children],
    }
    if tree.circularity_used is not None:
        out["circularity"] = tree.circularity_used
    return out


def render_json(tree: ProofNode) -> str:
    return json.dumps(to_json_dict(tree), indent=2)
