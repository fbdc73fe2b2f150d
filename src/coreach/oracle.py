"""Ground semantics on a finite integer domain: the brute-force cross-check.

Everything here is deterministic, and everything but the symbolic half of
the derivative cross-check is solver-free.  Quantifiers in ground
formula evaluation range over the bounded domain [-B, B]; the documentation
and the test fixtures keep quantifier witnesses inside the bound.  Graph
construction marks every truncation (step budget, out-of-domain successors)
so validity checking can answer "inconclusive" instead of guessing.

Every ground term the oracle builds is hash-consed: one shared node per
ground term, from intern tables kept per signature (one per symbol, keyed by
the argument tuple, and one of integer literals).  A term is its symbol and
arguments, so a node asked for at two sorts, as overloads and rule
right-hand sides may ask, is still one node; it keeps the sort it was first
built at.  Instances, value pools and rule right-hand sides built for one
signature are then the same objects, so table lookups and set operations on
them succeed on identity.  The tables die with the signature.

Each ground state is stepped once per system and domain: `ground_step`
keeps a successor table (folded state -> its successors) beside the rules
compiled for that system and domain.  Graph building, the derivative
cross-check and every other caller read it through `ground_step`.  Beside
it, the derivative cross-check keeps one report per constrained term it
checked, so a term asked about again is answered from the table.  Both
tables are rebuilt with the compiled rules when the system gains a rule or
its signature an operation or subsort, and they die with the system.  The
cross-check's derivative filter runs in one solver session for the whole
process: the bundled solver's verdict depends on the script alone, as its
limits are step budgets, and the session never remembers `unknown`.
"""

from __future__ import annotations

import functools
import weakref
from collections import deque
from dataclasses import dataclass, field
from itertools import product
from operator import itemgetter
from typing import Callable, Iterator, NamedTuple

from .constraints import fold_term
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
    subst_constrained,
)
from .rewriting import Lctrs, ReachabilityFormula, RewriteRule, derivatives
from .signature import BUILTIN_FUNCTIONS, Signature
from .smt import SolverConfig
from .terms import BOOL, App, FreshCounter, Lit, Substitution, Term, Var, positions, replace_at, subterm_at

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


# -- interned ground terms -----------------------------------------------------------


class _Apps(dict):
    """The interned applications of one symbol, keyed by their argument
    tuple: a ground term is one node, whatever sort it is asked for at."""

    __slots__ = ("symbol",)

    def node(self, args: tuple, sort) -> App:
        """The node of `args`; a new one is built at `sort`."""
        node = self.get(args)
        if node is None:
            node = self[args] = App(self.symbol, args, sort)
        return node


class _Ints(dict):
    """The interned integer literals, keyed by value.  Only ints go in: as a
    key, True would find the literal 1."""

    def __missing__(self, v: int) -> Lit:
        node = self[v] = Lit(v)
        return node


BOOL_LITS = (Lit(False), Lit(True))  # indexed by the value


class _Terms:
    """The intern tables of one signature."""

    __slots__ = ("apps", "ints")

    def __init__(self):
        self.apps: dict[str, _Apps] = {}
        self.ints = _Ints()

    def table(self, symbol: str) -> _Apps:
        table = self.apps.get(symbol)
        if table is None:
            table = self.apps[symbol] = _Apps()
            table.symbol = symbol
        return table

    def of(self, v) -> Term:
        """The node of a value: a literal for a bool or an int, else the term."""
        if isinstance(v, bool):
            return BOOL_LITS[v]
        return self.ints[v] if isinstance(v, int) else v

    def replace_at(self, t: Term, pos, s: Term) -> Term:
        """`terms.replace_at` over interned nodes."""
        if not pos:
            return replace_at(t, pos, s)
        i = pos[0] - 1
        old = t.args[i]
        new = self.replace_at(old, pos[1:], s)
        if new is old:
            return t
        return self.table(t.symbol).node(t.args[:i] + (new,) + t.args[i + 1 :], t.sort)


# The keys are weak, so the tables live no longer than their signature.
_TERMS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _terms(sig: Signature) -> _Terms:
    terms = _TERMS.get(sig)
    if terms is None:
        terms = _TERMS[sig] = _Terms()
    return terms


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


def _junction(join: Callable[[Code, Code], Code], codes: list[Code], unit: bool) -> Code:
    """Code deciding `codes` joined by `_and` or `_or`, left to right."""
    if not codes:
        return _const(unit)
    code = codes[-1]
    for p in reversed(codes[:-1]):
        code = join(p, code)
    return code


def _builtin(t: App) -> Callable | None:
    """The function of a builtin application, else None."""
    return BUILTIN_FUNCTIONS.get((t.symbol, len(t.args)))


class _Compiler:
    """Compiles terms and formulas over one signature and domain.

    `slots` arguments map the variables in scope to their valuation slots;
    `size` is the length of a valuation list the compiled code may use.
    """

    def __init__(self, sig: Signature, dom: Domain):
        self.sig, self.dom, self.size = sig, dom, 0
        self.terms = _terms(sig)

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

    def value(self, t: Term, slots: dict[Var, int]) -> Code:
        """Code computing the value of `t`: an int, a bool, or a ground term."""
        if isinstance(t, Var):
            return itemgetter(slots[t])
        if isinstance(t, Lit):
            return _const(t.value)
        fn = _builtin(t)
        if fn is None:
            return self.term(t, slots)
        args = [self.value(a, slots) for a in t.args]
        if len(args) == 1:
            (a,) = args
            return lambda env: fn(a(env))
        a, b = args
        return lambda env: fn(a(env), b(env))

    def term(self, t: Term, slots: dict[Var, int]) -> Code:
        """Code building the interned ground instance of `t`, builtin values
        as literals."""
        terms = self.terms
        if isinstance(t, Var):
            i = slots[t]
            if not t.sort.builtin:
                return itemgetter(i)
            lits = BOOL_LITS if t.sort == BOOL else terms.ints
            return lambda env: lits[env[i]]
        if isinstance(t, Lit):
            return _const(terms.of(t.value))
        if t.args and _builtin(t) is not None:
            v, of = self.value(t, slots), terms.of
            return lambda env: of(v(env))
        node, sort = terms.table(t.symbol).node, t.sort
        if not t.args:
            return _const(node((), sort))
        args = tuple(self.term(a, slots) for a in t.args)
        if len(args) == 1:
            (a,) = args
            return lambda env: node((a(env),), sort)
        if len(args) == 2:
            a, b = args
            return lambda env: node((a(env), b(env)), sort)
        return lambda env: node(tuple([a(env) for a in args]), sort)

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
        if isinstance(f, And):
            return _junction(_and, kids, True)
        if isinstance(f, Or):
            return _junction(_or, kids, False)
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
        if _builtin(pat) is not None:
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


def sort_values(sig: Signature, sort, dom: Domain, _seen: frozenset = frozenset()):
    """All ground values of a sort with literals inside the domain, each
    once; terms are interned.  Overloads at a smaller sort build some terms
    again, and those are not listed twice."""
    if sort.builtin:
        if sort.name == "Bool":
            return [False, True]
        return list(dom.ints())
    if sort.name in _seen:
        raise UnsupportedQuantifier(f"sort {sort.name} is recursive")
    seen = _seen | {sort.name}
    terms = _terms(sig)
    out = {}
    for op in sig.operations:
        if op.builtin or not sig.is_subsort(op.result, sort):
            continue
        pools = [sort_values(sig, a, dom, seen) for a in op.arg_sorts]
        node = terms.table(op.name).node
        for combo in product(*pools):
            out[node(tuple(map(terms.of, combo)), op.result)] = None
    return list(out)


# -- state predicates ---------------------------------------------------------------


def _conjuncts(f: Formula) -> list[Formula]:
    """The top-level conjuncts of `f` in order, nested `And`s flattened and
    `true` dropped."""
    if isinstance(f, And):
        return [c for p in f.parts for c in _conjuncts(p)]
    return [] if isinstance(f, TrueF) else [f]


def _quantifies_a_user_sort(f: Formula) -> bool:
    if isinstance(f, BINDERS) and not all(v.sort.builtin for v in f.bound):
        return True
    return any(map(_quantifies_a_user_sort, children(f)))


def enumerate_instances(sig: Signature, ct: ConstrainedTerm, dom: Domain) -> StatePredicate:
    """All ground instances of the term whose valuation satisfies the constraint.

    Variables get values level by level, in name order.  Each top-level
    conjunct is checked once its last variable has a value, in the
    conjuncts' own order within a level, so a partial valuation that fails
    it is never extended; the variables between two checks are iterated as
    one product.  A conjunct quantifying over a user sort, which may raise
    `UnsupportedQuantifier` when evaluated, is checked no earlier than every
    conjunct before it and no later than every conjunct after it: it is
    evaluated exactly when checking the whole constraint, left to right, on
    each full valuation would evaluate it.
    """
    vs = sorted(free_vars(ct), key=lambda v: v.name)
    pools = [sort_values(sig, v.sort, dom) for v in vs]
    if not all(pools):
        return frozenset()
    comp = _Compiler(sig, dom)
    slots = {v: comp.new_slot() for v in vs}  # the slot of a variable is its index in `vs`
    checks: dict[int, list[Code]] = {}  # level (variables with a value) -> its checks in order
    top = floor = 0
    for c in _conjuncts(ct.constraint):
        at = max([slots[v] + 1 for v in free_vars(c)] + [floor])
        if _quantifies_a_user_sort(c):
            at = floor = max(at, top)
        top = max(top, at)
        checks.setdefault(at, []).append(comp.formula(c, slots))
    instance, env, out = comp.term(ct.term, slots), comp.env(), set()
    if 0 in checks and not _junction(_and, checks.pop(0), True)(env):
        return frozenset()
    cuts = sorted(set(checks) | {len(vs)})
    blocks = [(lo, hi, pools[lo:hi], _junction(_and, checks.get(hi, []), True)) for lo, hi in zip([0] + cuts, cuts)]
    last = len(blocks) - 1

    def extend(b: int) -> None:
        lo, hi, block_pools, check = blocks[b]
        for combo in product(*block_pools):
            env[lo:hi] = combo
            if check(env):
                if b == last:
                    out.add(instance(env))
                else:
                    extend(b + 1)

    extend(0)
    return frozenset(out)


def goal_instances(
    sig: Signature, goal: ReachabilityFormula, dom: Domain, samples: list[dict] | None = None
) -> Iterator[tuple[StatePredicate, StatePredicate]]:
    """The instance sets of a goal's two sides, one pair per valuation of its
    shared variables: every valuation over the domain by default, else one
    per partial valuation (variable name -> value) in `samples`, whose
    unnamed shared variables range freely on both sides."""
    shared = sorted(goal.shared_vars(), key=lambda v: v.name)
    if samples is None:
        pools = [sort_values(sig, v.sort, dom) for v in shared]
        samples = (dict(zip([v.name for v in shared], combo)) for combo in product(*pools))
    terms = _terms(sig)
    for sample in samples:
        sigma = Substitution({v: terms.of(sample[v.name]) for v in shared if v.name in sample})
        yield (
            enumerate_instances(sig, subst_constrained(sigma, goal.lhs), dom),
            enumerate_instances(sig, subst_constrained(sigma, goal.rhs), dom),
        )


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
    the successor table, folded ground state -> its one-step successors; and
    the derivative cross-check's reports, constrained term -> its report."""

    stamp: tuple
    rules: list[_RuleCode]
    successors: dict[Term, StatePredicate]
    reports: dict[ConstrainedTerm, DeltaReport]


# One stepper per system, then per domain.  The keys are weak, so the code
# and the table live no longer than the system they were built for.
_STEPPERS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def _stepper(system: Lctrs, dom: Domain) -> _Stepper:
    sig = system.signature
    # The code and the tables depend on the rules and, through the value
    # pools and least sorts, on the signature.  A changed stamp rebuilds
    # them all.
    stamp = system.stamp
    per_domain = _STEPPERS.setdefault(system, {})
    hit = per_domain.get(dom)
    if hit is None or hit.stamp != stamp:
        rules = [_compile_rule(sig, dom, r) for r in system.rules]
        hit = per_domain[dom] = _Stepper(stamp, rules, {}, {})
    return hit


def ground_step(system: Lctrs, gamma: Term, dom: Domain, stepper: _Stepper | None = None) -> StatePredicate:
    """All one-step successors of a ground term: any rule, any position, any
    rule-variable valuation over the domain that satisfies the guard.  Each
    state is stepped once per system and domain; later calls read the table.
    A caller stepping many states passes the `_stepper(system, dom)` it
    looked up once."""
    if stepper is None:
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
    terms = _terms(sig)
    out = set()
    for pos in positions(gamma):
        sub = subterm_at(gamma, pos)
        if isinstance(sub, Lit) or (isinstance(sub, App) and sub.sort.builtin):
            continue  # builtin values are never rewritten
        for code in rules:
            env = [None] * code.size
            if code.match(sub, env):
                for rhs in code.results(env):
                    out.add(terms.replace_at(gamma, pos, rhs))
    return frozenset(out)


def build_graph(system: Lctrs, seeds: StatePredicate, dom: Domain, step_bound: int) -> TransitionGraph:
    """Breadth-first closure of the step relation from the seeds; nodes whose
    expansion is cut off or whose successors leave the domain are recorded."""
    g = TransitionGraph()
    stepper = _stepper(system, dom)
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
        succs = ground_step(system, node, dom, stepper)
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


# The derivative cross-check's solver session, one for the process.
_SOLVER = SolverConfig()


def check_derivative_theorem(system: Lctrs, ct: ConstrainedTerm, dom: Domain) -> DeltaReport:
    """Instances of the symbolic successors against the one-step image of the
    instances: the two must coincide exactly.  Each term is checked once per
    system and domain; a term whose symbolic step is refused raises
    `DerivativeRefused`, on every call."""
    stepper = _stepper(system, dom)
    report = stepper.reports.get(ct)
    if report is None:
        sig = system.signature
        sym = set()
        for d in derivatives(system, ct, FreshCounter(), _SOLVER):
            sym |= enumerate_instances(sig, d, dom)
        ground = set()
        for inst in enumerate_instances(sig, ct, dom):
            ground |= ground_step(system, inst, dom, stepper)
        report = stepper.reports[ct] = DeltaReport(frozenset(sym - ground), frozenset(ground - sym))
    return report


# -- exports ------------------------------------------------------------------------------


def edge_list(g: TransitionGraph) -> str:
    from .formulas import pretty_term

    lines = []
    for node in sorted(g.nodes, key=_key):
        mark = " !frontier" if node in g.frontier_exceeded else ""
        succs = ", ".join(pretty_term(s) for s in sorted(g.successors(node), key=_key))
        lines.append(f"{pretty_term(node)} -> [{succs}]{mark}")
    return "\n".join(lines)


def to_dot(g: TransitionGraph) -> str:
    from .formulas import pretty_term

    names = {node: f"n{i}" for i, node in enumerate(sorted(g.nodes, key=_key))}
    lines = ["digraph states {"]
    for node, name in names.items():
        attrs = [f'label="{pretty_term(node)}"']
        if node in g.frontier_exceeded:
            attrs.append("style=dashed")
        lines.append(f"  {name} [{', '.join(attrs)}];")
    for node, name in names.items():
        for s in sorted(g.successors(node), key=_key):
            lines.append(f"  {name} -> {names[s]};")
    lines.append("}")
    return "\n".join(lines)
