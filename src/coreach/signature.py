"""Signatures over a fixed Int/Bool builtin core: sort order, overloading, validation."""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from itertools import product
from typing import Callable

from .errors import IllTyped, UnknownSort
from .minismt.arith import ARITH_OPS
from .terms import App, BOOL, INT, Lit, Sort, Term, Var

# The builtin subsignature: SMT-LIB core symbols over Int and Bool, each with
# the function it computes on ground values.  Constant folding and the ground
# oracle read it; its Int rows are the bundled solver's `ARITH_OPS`.  Builtin
# constants are integer/boolean literals and are never enumerated as symbols.
BUILTIN_OPS: tuple[tuple[str, tuple[Sort, ...], Sort, Callable], ...] = (
    *((name, (INT, INT), INT, fn) for name, fn in ARITH_OPS.items()),
    ("-", (INT,), INT, operator.neg),
    ("<", (INT, INT), BOOL, operator.lt),
    ("<=", (INT, INT), BOOL, operator.le),
    (">", (INT, INT), BOOL, operator.gt),
    (">=", (INT, INT), BOOL, operator.ge),
    ("=", (INT, INT), BOOL, operator.eq),
    ("=", (BOOL, BOOL), BOOL, operator.eq),
    ("and", (BOOL, BOOL), BOOL, lambda a, b: a and b),
    ("or", (BOOL, BOOL), BOOL, lambda a, b: a or b),
    ("not", (BOOL,), BOOL, operator.not_),
    ("true", (), BOOL, lambda: True),
    ("false", (), BOOL, lambda: False),
)

# The table's functions by (symbol, arity); the two rows of `=` share one.
BUILTIN_FUNCTIONS: dict[tuple[str, int], Callable] = {(name, len(args)): fn for name, args, _, fn in BUILTIN_OPS}


@dataclass(frozen=True, slots=True)
class Operation:
    name: str
    arg_sorts: tuple[Sort, ...]
    result: Sort
    builtin: bool = False

    @property
    def arity(self) -> int:
        return len(self.arg_sorts)


@dataclass
class Violation:
    kind: str  # subsort-cycle | builtin-overlap | builtin-result | monotonicity | preregularity | uninhabited
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


@dataclass(eq=False)
class Signature:
    """An order-sorted signature containing the Int/Bool builtin subsignature.

    Immutable by convention after `validate` admits it; shared read-only use
    is safe.  A signature compares and hashes by identity, as a system does,
    so caches can be kept per signature.
    """

    sorts: dict[str, Sort] = field(default_factory=dict)
    subsort_pairs: set[tuple[str, str]] = field(default_factory=set)  # (sub, super), declared
    operations: list[Operation] = field(default_factory=list)
    variables: dict[str, Sort] = field(default_factory=dict)
    # Indexes over `operations` and `subsort_pairs`, and resolved overloads,
    # kept current by the mutators below; the fields themselves are never
    # mutated elsewhere.
    _by_name: dict[str, list[Operation]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _above: dict[str, set[str]] = field(default_factory=dict, init=False, repr=False, compare=False)
    # Each sort in a subsort pair -> the one set of the sorts connected to it.
    _component: dict[str, set[str]] = field(default_factory=dict, init=False, repr=False, compare=False)
    _resolved: dict[tuple, Operation] = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if "Int" not in self.sorts:
            self.sorts["Int"] = INT
            self.sorts["Bool"] = BOOL
            for name, args, res, _fn in BUILTIN_OPS:
                self.operations.append(Operation(name, args, res, builtin=True))
        for op in self.operations:
            self._index(op)
        for sub, sup in self.subsort_pairs:
            self._close(sub, sup)

    def _index(self, op: Operation) -> None:
        self._resolved.clear()
        self._by_name.setdefault(op.name, []).append(op)

    def _close(self, sub: str, sup: str) -> None:
        """Extend the transitive closure `_above` and the components by the
        pair sub < sup."""
        self._resolved.clear()
        uppers = {sup} | self._above.get(sup, set())
        for s in [sub] + [s for s, ups in self._above.items() if sub in ups]:
            self._above.setdefault(s, set()).update(uppers)
        joined = self._component.get(sub, {sub}) | self._component.get(sup, {sup})
        for s in joined:
            self._component[s] = joined

    @property
    def stamp(self) -> tuple:
        """The key of a cache of facts derived from this signature: the
        signature itself and the sizes of its operations and subsorts, which
        only ever grow."""
        return (self, len(self.operations), len(self.subsort_pairs))

    # -- declaration helpers (used by the frontend and tests) ----------------

    def add_sort(self, name: str) -> Sort:
        if name in self.sorts:
            return self.sorts[name]
        s = Sort(name)
        self.sorts[name] = s
        return s

    def add_subsort(self, sub: str, sup: str) -> None:
        for n in (sub, sup):
            if n not in self.sorts:
                raise UnknownSort(n)
        self.subsort_pairs.add((sub, sup))
        self._close(sub, sup)

    def add_operation(self, name: str, arg_sorts: list[Sort], result: Sort) -> Operation:
        op = Operation(name, tuple(arg_sorts), result)
        self.operations.append(op)
        self._index(op)
        return op

    def add_variable(self, name: str, sort: Sort) -> Var:
        self.variables[name] = sort
        return Var(name, sort)

    # -- sort order -----------------------------------------------------------

    def is_subsort(self, s1: Sort, s2: Sort) -> bool:
        """Reflexive-transitive closure of the declared subsort pairs."""
        for s in (s1, s2):
            if self.sorts.get(s.name) != s:
                raise UnknownSort(s.name)
        return s1 == s2 or s2.name in self._above.get(s1.name, ())

    def leq_word(self, w1: tuple[Sort, ...], w2: tuple[Sort, ...]) -> bool:
        return len(w1) == len(w2) and all(self.is_subsort(a, b) for a, b in zip(w1, w2))

    def connected(self, s1: Sort, s2: Sort) -> bool:
        """Same component of the subsort order (symmetric-transitive closure)."""
        return s1 == s2 or s2.name in self._component.get(s1.name, ())

    # -- overload resolution ---------------------------------------------------

    def overloads(self, name: str) -> list[Operation]:
        return list(self._by_name.get(name, ()))

    def resolve(self, name: str, arg_sorts: tuple[Sort, ...]) -> Operation:
        """Least applicable overload for the given argument sorts."""
        op = self._resolved.get((name, arg_sorts))
        if op is None:
            op = self._resolved[(name, arg_sorts)] = self._least_overload(name, arg_sorts)
        return op

    def _least_overload(self, name: str, arg_sorts: tuple[Sort, ...]) -> Operation:
        applicable = [
            op
            for op in self._by_name.get(name, ())
            if op.arity == len(arg_sorts) and self.leq_word(arg_sorts, op.arg_sorts)
        ]
        if not applicable:
            raise IllTyped(f"no overload of {name} accepts {tuple(s.name for s in arg_sorts)}")
        least = applicable[0]
        for op in applicable[1:]:
            if self.is_subsort(op.result, least.result):
                least = op
        for op in applicable:
            if not self.is_subsort(least.result, op.result):
                raise IllTyped(f"{name} has no least result sort for {arg_sorts}")
        return least

    def make_app(self, name: str, args: tuple[Term, ...]) -> App:
        op = self.resolve(name, tuple(self.least_sort(a) for a in args))
        return App(name, args, op.result)

    def least_sort(self, t: Term) -> Sort:
        """Where `t` sits in the subsort order; the sort `t` was built at
        may lie above it (see `terms`)."""
        if isinstance(t, Var):
            return t.sort
        if isinstance(t, Lit):
            return t.sort
        return self.resolve(t.symbol, tuple(self.least_sort(a) for a in t.args)).result

    def is_builtin_symbol(self, name: str, arity: int) -> bool:
        return (name, arity) in BUILTIN_FUNCTIONS

    # -- validation --------------------------------------------------------------

    def validate(self) -> list[Violation]:
        """Every violated admission condition; empty iff the signature is admitted."""
        out = [
            Violation("subsort-cycle", f"the subsort order loops through {', '.join(cycle)}")
            for cycle in self._subsort_cycles()
        ]
        user_ops = [op for op in self.operations if not op.builtin]

        for op in user_ops:
            if self.is_builtin_symbol(op.name, op.arity):
                out.append(Violation("builtin-overlap", f"user symbol {op.name}/{op.arity} clashes with a builtin"))
            builtin = next((b for b in (INT, BOOL) if self.is_subsort(op.result, b)), None)
            if builtin == op.result:
                out.append(Violation("builtin-result", f"{op.name} constructs into builtin sort {builtin.name}"))
            elif builtin is not None:
                out.append(
                    Violation("builtin-result", f"{op.name} constructs into {op.result.name}, below builtin {builtin.name}")
                )

        by_name: dict[tuple[str, int], list[Operation]] = {}
        for op in self.operations:
            by_name.setdefault((op.name, op.arity), []).append(op)

        # A lone declaration is monotone and never has two applicable
        # overloads, so only a name declared twice at one arity is checked.
        for (name, _arity), ops in sorted(by_name.items()):
            if len(ops) < 2:
                continue
            for a in ops:
                for b in ops:
                    if a is not b and self.leq_word(a.arg_sorts, b.arg_sorts):
                        if not self.is_subsort(a.result, b.result):
                            out.append(
                                Violation(
                                    "monotonicity",
                                    f"{name}: {a.arg_sorts} -> {a.result} vs {b.arg_sorts} -> {b.result}",
                                )
                            )
            out.extend(self._preregularity(name, ops))

        inhabited = self._inhabited_sorts()
        for s in sorted(self.sorts.values(), key=lambda x: x.name):
            if not s.builtin and s.name not in inhabited:
                out.append(Violation("uninhabited", f"sort {s.name} has no ground constructor term"))
        return out

    def _subsort_cycles(self) -> list[list[str]]:
        """The sorts that lie strictly above themselves, grouped by cycle and
        in name order: the subsort order must be a partial order."""
        cycles = []
        for s in sorted(self._above):
            if s in self._above[s] and not any(s in c for c in cycles):
                cycles.append(sorted(t for t in self._above[s] if s in self._above[t]))
        return cycles

    def _preregularity(self, name: str, ops: list[Operation]) -> list[Violation]:
        # Bounded check over `ops`, the declarations of `name` at one arity:
        # for every argument-sort tuple, the set of applicable declarations
        # must admit a least result sort.  Only a word whose i-th sort lies
        # below some declaration's i-th argument sort has one applicable, so
        # position i ranges over those sorts, in name order.
        all_sorts = sorted(self.sorts.values(), key=lambda s: s.name)
        pools = [
            [s for s in all_sorts if any(self.is_subsort(s, op.arg_sorts[i]) for op in ops)]
            for i in range(ops[0].arity)
        ]
        for word in product(*pools):
            applicable = [op for op in ops if self.leq_word(word, op.arg_sorts)]
            if not applicable:
                continue
            results = [op.result for op in applicable]
            if not any(all(self.is_subsort(r, other) for other in results) for r in results):
                return [Violation("preregularity", f"{name} at {tuple(s.name for s in word)} has no least result sort")]
        return []

    def _inhabited_sorts(self) -> set[str]:
        done = set()
        for s in self.sorts.values():
            if any(self.is_subsort(b, s) for b in (INT, BOOL)):
                done.add(s.name)
        changed = True
        while changed:
            changed = False
            for op in self.operations:
                if op.builtin:
                    continue
                if all(a.name in done for a in op.arg_sorts):
                    for s in self.sorts.values():
                        if s.name not in done and self.is_subsort(op.result, s):
                            done.add(s.name)
                            changed = True
        return done

