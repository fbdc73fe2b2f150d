"""Ground semantics on a finite integer domain: the brute-force cross-check.

Everything here is solver-free and deterministic.  Quantifiers in ground
formula evaluation range over the bounded domain [-B, B]; the documentation
and the test fixtures keep quantifier witnesses inside the bound.  Graph
construction marks every truncation (step budget, out-of-domain successors)
so validity checking can answer "inconclusive" instead of guessing.

Each ground state is stepped once per system and domain: `ground_step`
keeps a successor table (folded state -> its successors) beside the rules
compiled for that system and domain.  Graph building, the derivative
cross-check and every other caller read it through `ground_step`.  The table
is rebuilt with the compiled rules when the system gains a rule or its
signature an operation or subsort, and it dies with the system.
"""

from __future__ import annotations

import functools
import weakref
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .constraints import BUILTIN_SEMANTICS, fold_term
from .errors import InvalidOption, UnsupportedQuantifier
from .formulas import (
    BINDERS,
    And,
    Atom,
    ConstrainedTerm,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Implies,
    Not,
    Or,
    TrueF,
    atom_terms,
    children,
    free_vars,
)
from .rewriting import Lctrs, RewriteRule
from .signature import Signature
from .terms import BOOL, App, Lit, Term, Var, positions, replace_at, subterm_at

StatePredicate = frozenset  # of ground Terms


@dataclass(frozen=True)
class Domain:
    bound: int

    def __post_init__(self):
        if self.bound < 0:
            raise InvalidOption(f"domain bound must be nonnegative, got {self.bound}")

    def ints(self) -> range:
        return range(-self.bound, self.bound + 1)

    def contains_int(self, v: int) -> bool:
        return -self.bound <= v <= self.bound


@dataclass
class TransitionGraph:
    nodes: set[Term] = field(default_factory=set)
    edges: dict[Term, frozenset] = field(default_factory=dict)
    frontier_exceeded: set[Term] = field(default_factory=set)

    def is_irreducible(self, node: Term) -> bool:
        return not self.edges.get(node) and node not in self.frontier_exceeded

    def successors(self, node: Term) -> frozenset:
        return self.edges.get(node, frozenset())


def _key(t: Term) -> str:
    return repr(t)


# -- compiled ground evaluation ------------------------------------------------------
#
# Terms and formulas are compiled once into closures over a positional
# valuation `env`, a list in which every variable in scope (free, bound by a
# quantifier, or bound by matching a rule) owns one slot.

Code = Callable[[list], object]


def _const(v) -> Code:
    return lambda env: v


def _and(a: Code, b: Code) -> Code:
    return lambda env: a(env) and b(env)


def _or(a: Code, b: Code) -> Code:
    return lambda env: a(env) or b(env)


class _Compiler:
    """Compiles terms and formulas over one signature and domain.

    `slots` arguments map the variables in scope to their valuation slots;
    `size` is the length of a valuation list the compiled code may use.
    """

    def __init__(self, sig: Signature, dom: Domain):
        self.sig, self.dom, self.size = sig, dom, 0

    def new_slot(self) -> int:
        self.size += 1
        return self.size - 1

    def env(self, values=()) -> list:
        env = list(values)
        return env + [None] * (self.size - len(env))

    def values(self, sorts: list) -> Callable[[], list[tuple]]:
        """Every tuple of values of `sorts`, built on the first call: a sort
        the oracle cannot enumerate raises only if code needing it runs."""
        sig, dom = self.sig, self.dom

        @functools.cache
        def pool():
            return list(product(*(sort_values(sig, s, dom) for s in sorts)))

        return pool

    def _builtin(self, t: Term):
        if isinstance(t, App) and self.sig.is_builtin_symbol(t.symbol, len(t.args)):
            return BUILTIN_SEMANTICS[(t.symbol, len(t.args))]
        return None

    def value(self, t: Term, slots: dict[Var, int]) -> Code:
        """Code computing the value of `t`: an int, a bool, or a ground term."""
        if isinstance(t, Var):
            return itemgetter(slots[t])
        if isinstance(t, Lit):
            return _const(t.value)
        fn = self._builtin(t)
        if fn is None:
            return self.term(t, slots)
        args = [self.value(a, slots) for a in t.args]
        if len(args) == 1:
            (a,) = args
            return lambda env: fn(a(env))
        a, b = args
        return lambda env: fn(a(env), b(env))

    def term(self, t: Term, slots: dict[Var, int]) -> Code:
        """Code building the ground instance of `t`, builtin values as literals."""
        if isinstance(t, Var):
            i = slots[t]
            return (lambda env: Lit(env[i])) if t.sort.builtin else itemgetter(i)
        if isinstance(t, Lit) or not t.args:
            return _const(t)
        if self._builtin(t) is not None:
            v = self.value(t, slots)
            return lambda env: Lit(v(env))
        sym, sort = t.symbol, t.sort
        args = tuple(self.term(a, slots) for a in t.args)
        if len(args) == 1:
            (a,) = args
            return lambda env: App(sym, (a(env),), sort)
        if len(args) == 2:
            a, b = args
            return lambda env: App(sym, (a(env), b(env)), sort)
        return lambda env: App(sym, tuple([a(env) for a in args]), sort)

    def formula(self, f: Formula, slots: dict[Var, int]) -> Code:
        """Code deciding `f`; quantifiers range over the domain only."""
        if isinstance(f, BINDERS):
            return self._quantifier(f, slots)
        if isinstance(f, (TrueF, FalseF)):
            return _const(isinstance(f, TrueF))
        if isinstance(f, Atom):
            (t,) = atom_terms(f)
            return self.value(t, slots)
        if isinstance(f, Eq):
            lhs, rhs = (self.value(t, slots) for t in atom_terms(f))
            return lambda env: lhs(env) == rhs(env)
        kids = [self.formula(k, slots) for k in children(f)]
        if isinstance(f, Not):
            (body,) = kids
            return lambda env: not body(env)
        if isinstance(f, (And, Or)):
            if not kids:
                return _const(isinstance(f, And))
            join = _and if isinstance(f, And) else _or
            code = kids[-1]
            for p in reversed(kids[:-1]):
                code = join(p, code)
            return code
        if isinstance(f, Implies):
            premise, conclusion = kids
            return lambda env: not premise(env) or conclusion(env)
        lhs, rhs = kids  # Iff
        return lambda env: lhs(env) == rhs(env)

    def _quantifier(self, f: Exists | Forall, slots: dict[Var, int]) -> Code:
        # The bound variables get fresh slots, which shadow any free variable
        # of the same name inside the body only.
        (body,) = children(f)
        if not f.bound:
            return self.formula(body, slots)
        bound = [self.new_slot() for _ in f.bound]
        inner = dict(slots)
        inner.update(zip(f.bound, bound))
        body = self.formula(body, inner)
        lo, hi = bound[0], bound[-1] + 1
        pool = self.values([v.sort for v in f.bound])
        want = isinstance(f, Exists)

        def quantifier(env):
            for combo in pool():
                env[lo:hi] = combo
                if body(env) == want:
                    return want
            return not want

        return quantifier

    def matcher(self, pat: Term, slots: dict[Var, int], deferred: list):
        """Code matching a ground term against the rule pattern `pat`.

        The matcher writes the slot of each variable it binds (allocated here,
        in the order the match visits them) and compares repeated ones.  A
        builtin-operator subpattern matches any literal, whose value goes to a
        slot; `(pattern, slot)` is appended to `deferred`, to be checked once
        every rule variable has a value.
        """
        if isinstance(pat, Var):
            if pat in slots:
                i = slots[pat]
                return lambda g, env: env[i] == (g.value if type(g) is Lit else g)
            i = slots[pat] = self.new_slot()
            if pat.sort.builtin:
                is_bool = pat.sort == BOOL

                def bind_value(g, env):
                    if type(g) is not Lit or isinstance(g.value, bool) != is_bool:
                        return False
                    env[i] = g.value
                    return True

                return bind_value
            sig, sort = self.sig, pat.sort

            def bind_term(g, env):
                if type(g) is not App or not sig.is_subsort(sig.least_sort(g), sort):
                    return False
                env[i] = g
                return True

            return bind_term
        if isinstance(pat, Lit):
            return lambda g, env: g == pat
        if self._builtin(pat) is not None:
            i = self.new_slot()
            deferred.append((pat, i))

            def bind_literal(g, env):
                if type(g) is not Lit:
                    return False
                env[i] = g.value
                return True

            return bind_literal
        sym, arity = pat.symbol, len(pat.args)
        subs = [self.matcher(a, slots, deferred) for a in pat.args]

        def match_app(g, env):
            if type(g) is not App or g.symbol != sym or len(g.args) != arity:
                return False
            for m, a in zip(subs, g.args):
                if not m(a, env):
                    return False
            return True

        return match_app


def eval_formula(sig: Signature, f: Formula, val: dict[Var, object], dom: Domain) -> bool:
    """Truth under the bounded-domain semantics: quantifiers range over the
    domain only.  Sound for the fixtures, which keep witnesses in range."""
    comp = _Compiler(sig, dom)
    code = comp.formula(f, {v: comp.new_slot() for v in val})
    return code(comp.env(val.values()))


def _as_term(v) -> Term:
    if isinstance(v, (bool, int)):
        return Lit(v)
    return v


def sort_values(sig: Signature, sort, dom: Domain, _seen: frozenset = frozenset()):
    """All ground values of a sort with literals inside the domain."""
    if sort.builtin:
        if sort.name == "Bool":
            return [False, True]
        return list(dom.ints())
    if sort.name in _seen:
        raise UnsupportedQuantifier(f"sort {sort.name} is recursive")
    seen = _seen | {sort.name}
    out = []
    for op in sig.operations:
        if op.builtin or not sig.is_subsort(op.result, sort):
            continue
        pools = [sort_values(sig, a, dom, seen) for a in op.arg_sorts]
        for combo in product(*pools):
            out.append(App(op.name, tuple(_as_term(c) for c in combo), op.result))
    return out


# -- state predicates ---------------------------------------------------------------


def enumerate_instances(sig: Signature, ct: ConstrainedTerm, dom: Domain) -> StatePredicate:
    """All ground instances of the term whose valuation satisfies the constraint."""
    vs = sorted(free_vars(ct), key=lambda v: v.name)
    pools = [sort_values(sig, v.sort, dom) for v in vs]
    comp = _Compiler(sig, dom)
    slots = {v: comp.new_slot() for v in vs}
    holds, instance = comp.formula(ct.constraint, slots), comp.term(ct.term, slots)
    env, n = comp.env(), len(vs)
    out = set()
    for combo in product(*pools):
        env[:n] = combo
        if holds(env):
            out.add(instance(env))
    return frozenset(out)


def in_domain(t: Term, dom: Domain) -> bool:
    if isinstance(t, Lit):
        return isinstance(t.value, bool) or dom.contains_int(t.value)
    if isinstance(t, App):
        return all(in_domain(a, dom) for a in t.args)
    return True


# -- the transition relation ----------------------------------------------------------


class _RuleCode(NamedTuple):
    size: int  # valuation slots the rule's code uses
    match: Callable[[Term, list], bool]  # binds the variables the LHS pins down
    results: Callable[[list], Iterator[Term]]  # RHS instances over the remaining variables


def _equals_slot(code: Code, i: int) -> Code:
    return lambda env: code(env) == env[i]


def _compile_rule(sig: Signature, dom: Domain, rule: RewriteRule) -> _RuleCode:
    comp = _Compiler(sig, dom)
    slots: dict[Var, int] = {}
    deferred: list = []
    match = comp.matcher(rule.lhs, slots, deferred)
    rest = sorted((v for v in rule.variables() if v not in slots), key=lambda v: v.name)
    lo = comp.size
    for v in rest:
        slots[v] = comp.new_slot()
    hi = comp.size
    check = comp.formula(rule.guard, slots)
    for pat, i in reversed(deferred):
        check = _and(_equals_slot(comp.value(pat, slots), i), check)
    rhs = comp.term(rule.rhs, slots)
    pool = comp.values([v.sort for v in rest])

    def results(env):
        for combo in pool():
            env[lo:hi] = combo
            if check(env):
                yield rhs(env)

    return _RuleCode(comp.size, match, results)


class _Stepper(NamedTuple):
    """What stepping needs for one system and domain: the compiled rules and
    the successor table, folded ground state -> its one-step successors."""

    stamp: tuple
    rules: list[_RuleCode]
    successors: dict[Term, StatePredicate]


# One stepper per system, then per domain.  The keys are weak, so the code
# and the table live no longer than the system they were built for.
_STEPPERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _stepper(system: Lctrs, dom: Domain) -> _Stepper:
    sig = system.signature
    # The code and the table depend on the rules and, through the value pools
    # and least sorts, on the signature's operations and subsorts, which only
    # ever grow.  A changed stamp rebuilds both.
    stamp = (tuple(system.rules), sig, len(sig.operations), len(sig.subsort_pairs))
    per_domain = _STEPPERS.setdefault(system, {})
    hit = per_domain.get(dom)
    if hit is None or hit.stamp != stamp:
        rules = [_compile_rule(sig, dom, r) for r in system.rules]
        hit = per_domain[dom] = _Stepper(stamp, rules, {})
    return hit


def ground_step(system: Lctrs, gamma: Term, dom: Domain) -> StatePredicate:
    """All one-step successors of a ground term: any rule, any position, any
    rule-variable valuation over the domain that satisfies the guard.  Each
    state is stepped once per system and domain; later calls read the table."""
    stepper = _stepper(system, dom)
    table = stepper.successors
    out = table.get(gamma)  # the keys are folded, so only a folded state hits here
    if out is None:
        # Rule right-hand sides yield builtin values as literals, so
        # successors of a folded state need no folding of their own.
        gamma = fold_term(gamma)
        out = table.get(gamma)
        if out is None:
            out = table[gamma] = _step(system.signature, stepper.rules, gamma)
    return out


def _step(sig: Signature, rules: list[_RuleCode], gamma: Term) -> StatePredicate:
    out = set()
    for pos in positions(gamma):
        sub = subterm_at(gamma, pos)
        if isinstance(sub, Lit) or (isinstance(sub, App) and sig.least_sort(sub).builtin):
            continue  # builtin values are never rewritten
        for code in rules:
            env = [None] * code.size
            if code.match(sub, env):
                for rhs in code.results(env):
                    out.add(replace_at(gamma, pos, rhs))
    return frozenset(out)


def build_graph(system: Lctrs, seeds: StatePredicate, dom: Domain, step_bound: int) -> TransitionGraph:
    """Breadth-first closure of the step relation from the seeds; nodes whose
    expansion is cut off or whose successors leave the domain are recorded."""
    g = TransitionGraph()
    queue = deque(sorted(seeds, key=_key))
    g.nodes.update(seeds)
    expansions = 0
    while queue:
        node = queue.popleft()
        if node in g.edges:
            continue
        if expansions >= step_bound:
            g.frontier_exceeded.add(node)
            continue
        expansions += 1
        succs = ground_step(system, node, dom)
        kept = set()
        for s in sorted(succs, key=_key):
            if not in_domain(s, dom):
                g.frontier_exceeded.add(node)
                continue
            kept.add(s)
            if s not in g.nodes:
                g.nodes.add(s)
                queue.append(s)
        g.edges[node] = frozenset(kept)
    return g


# -- demonic validity ------------------------------------------------------------------


@dataclass(frozen=True)
class DvpResult:
    kind: str  # valid | invalid | inconclusive
    witness: Term | None = None
    path: tuple[Term, ...] = ()

    @property
    def is_valid(self) -> bool:
        return self.kind == "valid"


def check_dvp(g: TransitionGraph, p: StatePredicate, q: StatePredicate) -> DvpResult:
    """Greatest-fixed-point pruning: repeatedly remove states outside the
    target that are stuck or have a removed successor.  The predicate holds
    iff every starting state survives."""
    removed: dict[Term, object] = {}
    changed = True
    while changed:
        changed = False
        for node in sorted(g.nodes - set(removed), key=_key):
            if node in q:
                continue
            if g.is_irreducible(node):
                removed[node] = "stuck"
                changed = True
                continue
            bad = next((s for s in sorted(g.successors(node), key=_key) if s in removed), None)
            if bad is not None:
                removed[node] = bad
                changed = True
    for start in sorted(p, key=_key):
        if start in removed:
            path = [start]
            cur = start
            while removed.get(cur) != "stuck" and cur in removed:
                cur = removed[cur]
                path.append(cur)
            return DvpResult("invalid", start, tuple(path))
    # Every start survives; the verdict stands only if no run can reach a
    # truncated node before the target.
    seen = set()
    stack = [s for s in sorted(p, key=_key) if s not in q]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if node in g.frontier_exceeded:
            return DvpResult("inconclusive", node)
        for s in sorted(g.successors(node), key=_key):
            if s not in q and s not in seen:
                stack.append(s)
    return DvpResult("valid")


# -- cross-checks -----------------------------------------------------------------------


@dataclass(frozen=True)
class DeltaReport:
    symbolic_only: StatePredicate
    ground_only: StatePredicate

    @property
    def ok(self) -> bool:
        return not self.symbolic_only and not self.ground_only


def check_derivative_theorem(system: Lctrs, ct: ConstrainedTerm, dom: Domain) -> DeltaReport:
    """Instances of the symbolic successors against the one-step image of the
    instances: the two must coincide exactly."""
    from .rewriting import derivatives
    from .terms import FreshCounter

    sig = system.signature
    sym = set()
    for d in derivatives(system, ct, FreshCounter(start=5_000_000)):
        sym |= enumerate_instances(sig, d, dom)
    ground = set()
    for inst in enumerate_instances(sig, ct, dom):
        ground |= ground_step(system, inst, dom)
    return DeltaReport(frozenset(sym - ground), frozenset(ground - sym))


# -- exports ------------------------------------------------------------------------------


def edge_list(g: TransitionGraph) -> str:
    from .formulas import pretty_term

    lines = []
    for node in sorted(g.nodes, key=_key):
        mark = " !frontier" if node in g.frontier_exceeded else ""
        succs = ", ".join(pretty_term(s) for s in sorted(g.successors(node), key=_key))
        lines.append(f"{pretty_term(node)} -> [{succs}]{mark}")
    return "\n".join(lines)


def to_dot(g: TransitionGraph, p: StatePredicate = frozenset(), q: StatePredicate = frozenset()) -> str:
    from .formulas import pretty_term

    names = {node: f"n{i}" for i, node in enumerate(sorted(g.nodes, key=_key))}
    lines = ["digraph states {"]
    for node, name in names.items():
        attrs = [f'label="{pretty_term(node)}"']
        if node in g.frontier_exceeded:
            attrs.append("style=dashed")
        if node in q:
            attrs.append("shape=doublecircle")
        elif node in p:
            attrs.append("shape=box")
        lines.append(f"  {name} [{', '.join(attrs)}];")
    for node, name in names.items():
        for s in sorted(g.successors(node), key=_key):
            lines.append(f"  {name} -> {names[s]};")
    lines.append("}")
    return "\n".join(lines)
