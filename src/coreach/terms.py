"""Order-sorted terms: variables, builtin literals, applications.

Terms are immutable values.  A term is its symbol and its arguments: two
applications are the same term when those agree, whatever sort each was
built at.  By preregularity that is all a term's least sort depends on,
and `Signature.least_sort` alone answers where a term sits in the subsort
order.  An application still keeps the sort it was built at, so terms can
travel without a signature handle; substitution may put a smaller-sorted
argument under an overloaded symbol, so that sort can lie above the least
one, but it is exact in the two respects callers read off a term: whether
it is builtin, and its connected component of the subsort order
(substitution only shrinks argument sorts, and the monotonicity that
admission checks keeps the least sort inside that component).

Applications hash once, when built, and keep their variable set once
`term_vars` first asks for it (a slot set on first use, never in the
constructor, so building a term takes no longer).  The rewriters here
return their input node wherever nothing changed, and `Substitution.apply`
returns it at once when none of its variables is free there, so an
unchanged subterm is shared rather than copied or walked.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Union

from .errors import InvalidPosition, SortMismatch


@dataclass(frozen=True, slots=True)
class Sort:
    name: str
    builtin: bool = False

    def __repr__(self) -> str:
        return self.name


INT = Sort("Int", builtin=True)
BOOL = Sort("Bool", builtin=True)


@dataclass(frozen=True, slots=True)
class Var:
    name: str
    sort: Sort

    def __repr__(self) -> str:
        return f"{self.name}:{self.sort.name}"


@dataclass(frozen=True, slots=True)
class Lit:
    value: Union[int, bool]

    # The value's type takes part in equality and hashing: Python has
    # True == 1, but the literals `true` and `1` are different terms.
    # CPython hashes -1 like -2, so -1 gets a hash no small integer has.
    def __eq__(self, other) -> bool:
        return (
            type(other) is Lit and type(self.value) is type(other.value) and self.value == other.value
        )

    def __hash__(self) -> int:
        v = self.value
        if type(v) is bool:
            return hash((bool, v))
        return hash(v) if v != -1 else 2**61 - 2

    @property
    def sort(self) -> Sort:
        return BOOL if isinstance(self.value, bool) else INT

    def __repr__(self) -> str:
        return str(self.value).lower() if isinstance(self.value, bool) else str(self.value)


_put = object.__setattr__  # writes a field of a frozen node while it is built


@dataclass(frozen=True, slots=True, init=False)
class App:
    symbol: str
    args: tuple["Term", ...]
    sort: Sort
    _hash: int = field(init=False, repr=False, compare=False)
    _vars: frozenset = field(init=False, repr=False, compare=False)  # set by `term_vars`

    def __init__(self, symbol: str, args: tuple["Term", ...], sort: Sort):
        _put(self, "symbol", symbol)
        _put(self, "args", args)
        _put(self, "sort", sort)
        _put(self, "_hash", hash((symbol, args)))

    def __hash__(self) -> int:
        return self._hash

    # The symbol and the arguments, not the sort built at (see the module
    # docstring).  Arguments compare with their own equality, so `true` and
    # `1` stay apart inside an application too.
    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if type(other) is not App or self._hash != other._hash:
            return False
        return self.symbol == other.symbol and self.args == other.args

    def __repr__(self) -> str:
        if not self.args:
            return self.symbol
        return f"{self.symbol}({', '.join(map(repr, self.args))})"


Term = Union[Var, Lit, App]

# Child index sequence; () addresses the whole term.
Position = tuple[int, ...]


def rebuild_app(t: App, args) -> App:
    """`t` over new arguments: `t` itself when every argument is the old one."""
    for new, old in zip(args, t.args):
        if new is not old:
            return App(t.symbol, tuple(args), t.sort)
    return t


def subterm_at(t: Term, pos: Position) -> Term:
    for i in pos:
        if not isinstance(t, App) or i < 1 or i > len(t.args):
            raise InvalidPosition(f"no child {i} at {t!r}")
        t = t.args[i - 1]
    return t


def replace_at(t: Term, pos: Position, s: Term) -> Term:
    """Replace the subterm at `pos` by `s`; the new subterm must fit the slot sort."""
    if not pos:
        old = subterm_at(t, pos)
        if not _fits(s.sort, old.sort):
            raise SortMismatch(f"{s!r} of sort {s.sort} cannot replace {old!r}")
        return s
    if not isinstance(t, App) or pos[0] < 1 or pos[0] > len(t.args):
        raise InvalidPosition(f"no child {pos[0]} at {t!r}")
    i = pos[0] - 1
    new = replace_at(t.args[i], pos[1:], s)
    if new is t.args[i]:
        return t
    return App(t.symbol, t.args[:i] + (new,) + t.args[i + 1 :], t.sort)


def _fits(new: Sort, old: Sort) -> bool:
    # Without the signature we can only compare names; exact subsort checks
    # happen in signature-aware callers.  Builtin slots never accept user sorts.
    if new == old:
        return True
    return not (old.builtin and not new.builtin) and not (new.builtin and not old.builtin)


def subterms(t: Term) -> Iterator[tuple[Position, Term]]:
    """Each subterm of `t` with its position, in preorder."""
    yield (), t
    if type(t) is App:
        for i, a in enumerate(t.args, start=1):
            for p, s in subterms(a):
                yield (i, *p), s


NO_VARS: frozenset = frozenset()


def term_vars(t: Term) -> frozenset[Var]:
    """The variables of `t`; an application computes them once and keeps them."""
    if type(t) is App:
        try:
            return t._vars
        except AttributeError:
            out = NO_VARS.union(*map(term_vars, t.args)) or NO_VARS  # ground terms share one set
            _put(t, "_vars", out)
            return out
    return frozenset((t,)) if type(t) is Var else NO_VARS


@dataclass(frozen=True)
class Substitution:
    """Finite sort-respecting map from variables to terms; identity elsewhere."""

    mapping: dict[Var, Term]

    def __post_init__(self):
        for v, t in self.mapping.items():
            if v.sort.builtin and not t.sort.builtin:
                raise SortMismatch(f"{v!r} := {t!r} crosses the builtin boundary")

    def apply(self, t: Term) -> Term:
        """`t` under the substitution; `t` itself where no variable moves."""
        if isinstance(t, Var):
            return self.mapping.get(t, t)
        if isinstance(t, Lit) or self.mapping.keys().isdisjoint(term_vars(t)):
            return t
        return rebuild_app(t, [self.apply(a) for a in t.args])

    def __bool__(self) -> bool:
        return bool(self.mapping)


# A fresh variable is named by a stem, the name it renames up to and
# including FRESH_SEP, and an index: `k#3`.  No spec name contains FRESH_SEP.
FRESH_SEP = "#"


def is_fresh(v: Var) -> bool:
    return FRESH_SEP in v.name


def fresh_variant(v: Var, index: int) -> Var:
    """`v` renamed to its stem and `index`: `k#3` for `k` or `k#1` and 3."""
    return Var(v.name.split(FRESH_SEP, 1)[0] + FRESH_SEP + str(index), v.sort)


class FreshCounter:
    """Monotone index source for fresh variable names within one session."""

    __slots__ = ("next_index",)

    def __init__(self, start: int = 0):
        self.next_index = start

    def take(self) -> int:
        k = self.next_index
        self.next_index += 1
        return k

    def skip_past(self, vs) -> None:
        """Move past every fresh index that the name of a variable in `vs` carries."""
        for v in vs:
            _, sep, k = v.name.rpartition(FRESH_SEP)
            if sep and k.isascii() and k.isdigit():
                self.next_index = max(self.next_index, int(k) + 1)


def renaming_for(vs: set[Var], ctr: FreshCounter) -> Substitution:
    """Bijective fresh renaming of `vs`, deterministic in name order."""
    return Substitution({v: fresh_variant(v, ctr.take()) for v in sorted(vs, key=lambda x: x.name)})
