"""Coinductive proof search for reachability goals.

Four proof rules close goals ⟨t|φ⟩ ⇒ ⟨t'|φ'⟩: an unsatisfiable left
constraint (axiom), inclusion in the right-hand side (subsumption), reuse
of a goal from the goal set (circularity, only below a derivative step),
and a symbolic step over all derivatives (derivative).  A goal annotated
with cases is first split on them (disjunction).  Every rule application
is a `Step`: its side conditions and the goals it leaves.  Search tries the
steps in the order above and backtracks; solver unknowns never enable a
rule, and neither does a derivative step that `rewriting` refuses.
Emitted trees carry every discharged side condition so they can be
re-verified independently.
"""

from __future__ import annotations

import json
from contextlib import closing
from dataclasses import dataclass, field, replace
from itertools import count

from .constraints import instance_condition, simplify, simplify_constrained
from .errors import (
    DerivativeRefused,
    GuardednessViolation,
    InvalidOption,
    InvalidSplit,
    MalformedSolverOutput,
    SolverUnavailable,
)
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
    rebuild,
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
from .terms import App, FreshCounter, Substitution, Term, Var, rebuild_app, renaming_for

AXIOM, SUBS, DER, CIRC, DISJ, OPEN = "axiom", "subs", "der", "circ", "disj", "open"

NODE_BUDGET = 4096


@dataclass(frozen=True)
class Goal:
    formula: ReachabilityFormula
    depth: int = 0  # derivative steps above the goal
    last_rule: str | None = None

    def child(self, lhs: ConstrainedTerm, rule: str) -> "Goal":
        """The goal `rule` leaves for `lhs` against the same right-hand side;
        a derivative step goes one level deeper."""
        rf = ReachabilityFormula(lhs, self.formula.rhs)
        return Goal(rf, self.depth + (rule == DER), rule)


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
class Step:
    """One rule application: the side conditions it discharged and the
    goals it leaves to prove."""

    kind: str
    conditions: tuple[SideCondition, ...]
    children: tuple[Goal, ...] = ()
    circularity_used: int | None = None


# No rule is tried after these, so a failed step of theirs searches every
# child and reports the whole frontier.
EXHAUSTIVE = (DER, DISJ)


@dataclass(frozen=True)
class SearchConfig:
    max_der_depth: int = 20
    solver: SolverConfig = field(default_factory=SolverConfig)

    def __post_init__(self):
        if self.max_der_depth <= 0:
            raise InvalidOption(f"the depth bound must be positive, not {self.max_der_depth}")


@dataclass(frozen=True)
class OpenGoal:
    formula: ReachabilityFormula
    reason: str  # depth | no-rule | budget | unknown | der-refused | audit
    role: str | None = None  # for `unknown`: the side condition that got the verdict
    query: Formula | None = None  # for `unknown`: exactly what was sent to the solver
    detail: str | None = None  # for `der-refused`: why the step was refused; for `audit`: the defect


# A goal is inconclusive when its search failed and an unknown verdict or a
# refused derivative step blocked a rule somewhere in it: that rule might
# have closed the goal.  It is inconclusive too when the search closed a
# tree that fails the audit.
PROVED, FAILED, INCONCLUSIVE, ABORTED = "proved", "failed", "inconclusive", "aborted"
UNKNOWN, DER_REFUSED, AUDIT = "unknown", "der-refused", "audit"
BLOCKED = (UNKNOWN, DER_REFUSED)


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
        self._blocked: tuple | None = None  # OpenGoal fields but the goal: what blocked the last rule

    # -- solver wrappers -----------------------------------------------------------

    def _sat(self, role: str, f: Formula) -> Verdict:
        verdict = check_sat(self.sig, f, self.cfg.solver).verdict
        if verdict == Verdict.UNKNOWN:
            self.unknowns += 1
            self._blocked = (UNKNOWN, role, f)
        return verdict

    def _take_blocked(self, goal: Goal) -> list[OpenGoal]:
        """The unknown verdict or refusal that blocked the rule application
        just tried, as an open goal; each application meets at most one."""
        hit, self._blocked = self._blocked, None
        if hit is None:
            return []
        return [OpenGoal(goal.formula, *hit)]

    # -- single rule applications -----------------------------------------------------

    def apply_axiom(self, goal: Goal) -> Step | None:
        """Closes the goal when the left constraint is unsatisfiable."""
        lhs = goal.formula.lhs
        if not isinstance(lhs.constraint, FalseF) and self._sat("lhs-unsat", lhs.constraint) != Verdict.UNSAT:
            return None
        return Step(AXIOM, (SideCondition("lhs-unsat", lhs.constraint, Verdict.UNSAT),))

    def _split_off(self, goal: Goal, role: str, phi: Formula) -> tuple[SideCondition, ConstrainedTerm] | None:
        """The satisfiable query lhs ∧ φ and the residual lhs ∧ ¬φ left over,
        or None when no instance of the left-hand side satisfies φ."""
        if isinstance(phi, FalseF):
            return None
        lhs = goal.formula.lhs
        query = conj([lhs.constraint, phi])
        if self._sat(role, query) != Verdict.SAT:
            return None
        residual = ConstrainedTerm(lhs.term, conj([lhs.constraint, Not(phi)]))
        residual = simplify_constrained(self.sig, residual, _rhs_names(goal.formula))
        return SideCondition(role, query, Verdict.SAT), residual

    def apply_subs(self, goal: Goal) -> Step | None:
        """Splits off the part of the goal already inside the right-hand side."""
        rf = goal.formula
        private = free_vars(rf.rhs) - free_vars(rf.lhs)
        phi = simplify(self.sig, instance_condition(self.sig, rf.lhs.term, rf.rhs, private))
        split = self._split_off(goal, "inclusion-sat", phi)
        if split is None:
            return None
        cond, residual = split
        return Step(SUBS, (cond,), (goal.child(residual, SUBS),))

    def apply_circ(self, goal: Goal, index: int) -> Step | None:
        """Uses goal `index` of the goal set as an axiom, guardedness required."""
        if not goal.depth:
            raise GuardednessViolation("circularity needs a derivative step above it")
        rf = goal.formula
        circ = self.goals[index]
        ren = _match_onto(circ.rhs, rf.rhs)
        if ren is None:
            return None  # goals are only usable against their own right-hand side
        fresh = renaming_for(free_vars(circ.lhs) - free_vars(circ.rhs), self.ctr)
        circ_lhs = subst_constrained(Substitution({**ren.mapping, **fresh.mapping}), circ.lhs)
        phi = simplify(
            self.sig, instance_condition(self.sig, rf.lhs.term, circ_lhs, fresh.mapping.values())
        )
        split = self._split_off(goal, "circ-sat", phi)
        if split is None:
            return None
        cond, residual = split
        cont = simplify_constrained(
            self.sig,
            ConstrainedTerm(rf.rhs.term, conj([rf.lhs.constraint, phi, rf.rhs.constraint])),
            _rhs_names(rf),
        )
        return Step(CIRC, (cond,), (goal.child(cont, CIRC), goal.child(residual, CIRC)), index)

    def apply_der(self, goal: Goal) -> Step | None:
        """One symbolic step: all derivatives become children, provided every
        instance of the goal's left-hand side has a successor.  A refused
        step blocks the rule."""
        rf = goal.formula
        protected = frozenset(v.name for v in free_vars(rf.lhs) | free_vars(rf.rhs))
        try:
            ds = derivatives_detailed(self.system, rf.lhs, self.ctr, self.cfg.solver, protected)
        except DerivativeRefused as exc:
            self._blocked = (DER_REFUSED, None, None, str(exc))
            return None
        if not ds:
            return None
        total = simplify(self.sig, totality_condition(rf.lhs, [d.ct for d in ds]))
        neg = simplify(self.sig, Not(total))
        if self._sat("totality", neg) != Verdict.UNSAT:
            return None
        conds = [SideCondition("totality", neg, Verdict.UNSAT)]
        conds += [SideCondition("derivative", d.ct.constraint, d.verdict) for d in ds]
        return Step(DER, tuple(conds), tuple(goal.child(d.ct, DER) for d in ds))

    def apply_disj(self, goal: Goal, split: tuple[Formula, Formula]) -> Step:
        """Case split on the left constraint; the split must cover it exactly."""
        lhs = goal.formula.lhs
        iff = Iff(lhs.constraint, Or(split))
        if self._sat("split", simplify(self.sig, Not(iff))) != Verdict.UNSAT:
            raise InvalidSplit(pretty_formula(iff))
        cases = tuple(goal.child(ConstrainedTerm(lhs.term, phi), DISJ) for phi in split)
        return Step(DISJ, (SideCondition("split", Not(iff), Verdict.UNSAT),), cases)

    # -- search --------------------------------------------------------------------

    def prove_goal(self, rf: ReachabilityFormula, split: tuple[Formula, Formula] | None = None) -> GoalResult:
        self.nodes = 0
        self._blocked = None
        lhs = simplify_constrained(self.sig, rf.lhs, _rhs_names(rf))
        root = Goal(ReachabilityFormula(lhs, rf.rhs))
        try:
            if split is None:
                node, frontier = self._search(root)
            else:
                node, frontier = self._close(root, self.apply_disj(root, split))
        except (SolverUnavailable, MalformedSolverOutput) as exc:
            return GoalResult(ABORTED, detail=str(exc))
        if node is not None:
            defects = audit(node)
            if not defects:
                return GoalResult(PROVED, node)
            return GoalResult(INCONCLUSIVE, frontier=[OpenGoal(node.goal, AUDIT, detail=d) for d in defects])
        status = INCONCLUSIVE if any(og.reason in BLOCKED for og in frontier) else FAILED
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
        that an unknown verdict or a refusal blocked, an entry saying so."""
        self.nodes += 1
        if self.nodes > NODE_BUDGET:
            return None, [OpenGoal(goal.formula, "budget")]
        blocked: list[OpenGoal] = []
        for step in self._steps(goal, blocked):
            node, frontier = self._close(goal, step)
            if node is not None:
                return node, []
            if step.kind in EXHAUSTIVE:
                return None, frontier + blocked
            blocked += [og for og in frontier if og.reason in BLOCKED]
        if goal.depth >= self.cfg.max_der_depth:
            return None, [OpenGoal(goal.formula, "depth")] + blocked
        return None, blocked or [OpenGoal(goal.formula, "no-rule")]  # why no rule applied

    def _steps(self, goal: Goal, blocked: list[OpenGoal]):
        """The rule applications that apply to the goal, in the calculus'
        order, tried one at a time; an unknown verdict or a refusal that
        blocked one of them goes to `blocked`."""
        attempts = [(self.apply_axiom,)]
        if goal.last_rule != SUBS:
            attempts.append((self.apply_subs,))
        if goal.depth:
            attempts += [(self.apply_circ, index) for index in range(len(self.goals))]
        if goal.depth < self.cfg.max_der_depth:
            attempts.append((self.apply_der,))
        for apply, *args in attempts:
            step = apply(goal, *args)
            blocked += self._take_blocked(goal)
            if step is not None:
                yield step

    def _close(self, goal: Goal, step: Step) -> tuple[ProofNode | None, list[OpenGoal]]:
        """The step's proof node if every child closes, else the open goals
        of its failed children, up to the first one unless the step is
        exhaustive."""
        proofs: list[ProofNode] = []
        frontier: list[OpenGoal] = []
        for child in step.children:
            node, open_goals = self._search(child)
            if node is not None:
                proofs.append(node)
                continue
            frontier += open_goals
            if step.kind not in EXHAUSTIVE:
                break
        if len(proofs) < len(step.children):
            return None, frontier
        return ProofNode(step.kind, goal.formula, step.conditions, tuple(proofs), step.circularity_used), []


def _rhs_names(rf: ReachabilityFormula) -> frozenset[str]:
    """The right-hand side's variables, which simplifying a left-hand side
    must not eliminate."""
    return frozenset(v.name for v in free_vars(rf.rhs))


def _canonical(ct: ConstrainedTerm) -> tuple[ConstrainedTerm, list[Var]]:
    """`ct` with its variables renamed to names the spec parser rejects, and
    its free variables in order of first occurrence.  The free variables
    become ?0, ?1, ... in that order (the term first, then the constraint
    in preorder); the variables of each binder become ?b0, ?b1, ... in
    preorder.  Two constrained terms are renamings of each other exactly
    when their canonical forms are equal."""
    free: dict[Var, Var] = {}
    bound = count()

    def term(t: Term, scope: dict[Var, Var]) -> Term:
        if type(t) is Var:
            img = scope.get(t) or free.get(t)
            if img is None:
                img = free[t] = Var(f"?{len(free)}", t.sort)
            return img
        return rebuild_app(t, [term(a, scope) for a in t.args]) if type(t) is App else t

    def formula(f: Formula, scope: dict[Var, Var]) -> Formula:
        if isinstance(f, BINDERS):
            inner = dict(scope)
            for v in f.bound:
                inner[v] = Var(f"?b{next(bound)}", v.sort)
            return type(f)(tuple(inner[v] for v in f.bound), formula(f.body, inner))
        return rebuild(f, [term(t, scope) for t in atom_terms(f)], [formula(k, scope) for k in children(f)])

    form = ConstrainedTerm(term(ct.term, {}), formula(ct.constraint, {}))
    return form, list(free)


def _match_onto(pattern: ConstrainedTerm, target: ConstrainedTerm) -> Substitution | None:
    """The variable renaming that maps `pattern` onto `target`, if any."""
    p, p_free = _canonical(pattern)
    t, t_free = _canonical(target)
    return Substitution(dict(zip(p_free, t_free))) if p == t else None


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


def audit(tree: ProofNode) -> list[str]:
    """The defects of a closed tree: an unguarded circularity, then each
    structural defect."""
    guarded = [] if check_guarded(tree) else ["circularity without a derivative step above it"]
    return guarded + audit_structure(tree)


def reverify(sig: Signature, tree: ProofNode, cfg: SolverConfig) -> list[str]:
    """Re-run every recorded side condition in a fresh session of `cfg`'s
    solver, so no verdict of the run that built the tree is reused; returns
    descriptions of any disagreements."""
    fresh = replace(cfg)
    bad = []
    with closing(fresh.session):
        for node in tree.walk():
            for cond in node.conditions:
                if cond.verdict == Verdict.UNKNOWN:
                    continue  # recorded as unreliable to begin with
                res = check_sat(sig, cond.formula, fresh)
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
