"""SMT-LIB script interpretation: model search for sat, refutation for unsat.

`check_formula` runs the two strategies in turns: each round continues the
model scan for one slice of visited values and restarts refutation with one
slice of steps, and both slices double every round.  Both budgets count
work, not time, so a verdict does not depend on the clock; the per-query
deadline is only a safety net, and `(get-info :reason-unknown)` tells an
unknown it cut ("timeout") from one the budgets gave ("incomplete").

Formulas are kept in negation normal form, and each comparison is read
straight into one atom p rel 0 over an `arith` polynomial p, with rel one
of LE0, EQ0 and NE0; both strategies work on these atoms.  Model search
compiles each top-level conjunct once per query into closures over a
positional valuation and enumerates the declared names level by level, in
a pinned order (integers, then booleans, each by name; values 0, 1, -1, 2,
...): a conjunct is checked at the level of the last name it mentions, and
p <= 0 and p = 0 conjuncts linear in their level's name bound it.
Candidates ruled out early are still charged to the candidate budget one
by one, so the first model and the budget cut-off are those of a plain
scan.  Refutation works on the tree itself and asserts an atom's
polynomial into a refutation core as it is; a refutation step is a
bounded amount of work (see `Budget`).  `Core.add` alone decides
whether a literal contradicts a branch's facts: a probe asserts literals
into a copy of the branch's core, and each case of a split refutes on a
copy of its own (`_every_case_closes`).  Quantifier evaluation during
model search derives finite candidate ranges from the atoms that bound the
quantified variable; when no finite range is implied the result degrades
to unknown, never to a wrong verdict.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from functools import lru_cache, reduce
from itertools import islice, product
from operator import itemgetter

from .arith import (
    ARITH_OPS,
    EQ0,
    LE0,
    NE0,
    Core,
    freeze,
    padd,
    pconst,
    pdivmod,
    pmul,
    pneg,
    poly_key_set,
    psub,
    pvar,
    subst_poly,
    thaw,
)
from .sexpr import parse_all, symbol

MAX_INST_ROUNDS = 3
MAX_SPLITS = 3
MODEL_BOUNDS = (1, 2, 3, 4, 6, 8, 12, 16, 24, 32)
MODEL_EVAL_BUDGET = 200_000  # candidates one model scan may charge
REFUTE_STEP_BUDGET = 4096  # steps of the largest refutation slice
# The first round's slices: values the scan visits, steps of refutation.
# The captured queries of the six systems/*.lrw are all decided in the first
# round (the costliest refutation needs 432 steps).
SCAN_SLICE = 256
REFUTE_SLICE = 512
QRANGE_WIDTH_CAP = 4096
WINDOW = 24

INT, BOOLS = "Int", "Bool"


class Budget:
    """The steps one refutation slice may spend.  A step is a bounded amount
    of work: one item taken off the agenda, one clause alternative probed,
    one quantifier instance tried, or one constraint or pair of constraints
    that saturation visits or combines.  Work is charged before it is done
    and is not done when the steps left cannot pay for it, so `used` never
    exceeds the slice.  The deadline is only a safety net."""

    def __init__(self, steps: int, deadline: float):
        self.steps = steps
        self.left = steps
        self.deadline = deadline
        self.timed_out = False

    def spend(self, n: int = 1) -> bool:
        """Charge n steps; True, with nothing charged, once they cannot be
        paid or the clock ran out."""
        if n > self.left:
            self.left = -1
            return True
        self.left -= n
        if time.monotonic() > self.deadline:
            self.timed_out = True
            return True
        return False

    @property
    def spent(self) -> bool:
        return self.left < 0 or self.timed_out

    @property
    def used(self) -> int:
        return self.steps - max(self.left, 0)


class SolveError(ValueError):
    pass


# -- polynomials and NNF formulas ------------------------------------------------
#
# An integer term is read straight into an `arith` polynomial (a dict from
# monomials to coefficients), and a comparison into one atom p rel 0 whose
# polynomial is frozen, so that formulas hash:
# nnf    := ("true",) | ("false",) | ("and", parts) | ("or", parts)
#         | ("cmp", LE0|EQ0|NE0, frozen p) | ("bvar", name, pol)
#         | ("exists"|"forall", ((name, sort), ...), body)

CMP_OPS = {"<", "<=", ">", ">=", "="}
_POLY_OPS = {"+": padd, "-": psub, "*": pmul}


def to_poly(sx, scope: dict):
    """The polynomial of an integer term."""
    if isinstance(sx, bool):
        raise SolveError("boolean in integer position")
    if isinstance(sx, int):
        return pconst(sx)
    if isinstance(sx, str):
        if scope.get(sx) != INT:
            raise SolveError(f"unknown integer symbol {sx}")
        return pvar(("v", sx))
    if isinstance(sx, tuple) and sx and sx[0] in ARITH_OPS:
        op, args = sx[0], [to_poly(a, scope) for a in sx[1:]]
        if op == "-" and len(args) == 1:
            return pneg(args[0])
        if len(args) != 2 and not (op in ("+", "*") and len(args) > 2):
            raise SolveError(f"bad arity for {op}")
        if op in ("div", "mod"):
            return pdivmod(op, *args)
        return reduce(_POLY_OPS[op], args)
    raise SolveError(f"cannot read term {sx!r}")


def _cmp(op: str, a, b, pol: bool):
    """The atom of `a op b` over Int under a polarity: a < b is a - b + 1 <= 0."""
    if op == "=":
        return ("cmp", EQ0 if pol else NE0, freeze(psub(a, b)))
    p = psub(a, b) if op in ("<", "<=") else psub(b, a)
    if op in ("<", ">"):
        p = padd(p, pconst(1))
    atom = ("cmp", LE0, freeze(p))
    return atom if pol else negate_nnf(atom)


def _sort_of(sx, scope: dict) -> str:
    if isinstance(sx, bool):
        return BOOLS
    if isinstance(sx, int):
        return INT
    if isinstance(sx, str):
        if sx in ("true", "false"):
            return BOOLS
        if sx in scope:
            return scope[sx]
        raise SolveError(f"unknown symbol {sx}")
    if isinstance(sx, tuple) and sx:
        if sx[0] in ARITH_OPS:
            return INT
        return BOOLS
    raise SolveError(f"cannot type {sx!r}")


def to_formula(sx, scope: dict, pol: bool):
    if sx is True or sx == "true":
        return ("true",) if pol else ("false",)
    if sx is False or sx == "false":
        return ("false",) if pol else ("true",)
    if isinstance(sx, str):
        if scope.get(sx) == BOOLS:
            return ("bvar", sx, pol)
        raise SolveError(f"unknown boolean symbol {sx}")
    if not isinstance(sx, tuple) or not sx:
        raise SolveError(f"cannot read formula {sx!r}")
    head = sx[0]
    if head == "not":
        return to_formula(sx[1], scope, not pol)
    if head in ("and", "or"):
        flip = (head == "and") == pol
        parts = tuple(to_formula(a, scope, pol) for a in sx[1:])
        return ("and" if flip else "or", parts)
    if head == "=>":
        a, b = sx[1], sx[2]
        if pol:
            return ("or", (to_formula(a, scope, False), to_formula(b, scope, True)))
        return ("and", (to_formula(a, scope, True), to_formula(b, scope, False)))
    if head in ("exists", "forall"):
        bound = tuple((b[0], b[1]) for b in sx[1])
        inner_scope = dict(scope)
        for name, srt in bound:
            if srt not in (INT, BOOLS):
                raise SolveError(f"unsupported sort {srt}")
            inner_scope[name] = srt
        body = to_formula(sx[2], inner_scope, pol)
        flip = (head == "exists") == pol
        return ("exists" if flip else "forall", bound, body)
    if head in CMP_OPS:
        if head == "=" and _sort_of(sx[1], scope) == BOOLS:
            a = to_formula(sx[1], scope, True)
            na = to_formula(sx[1], scope, False)
            b = to_formula(sx[2], scope, True)
            nb = to_formula(sx[2], scope, False)
            both = ("and", (a, b))
            neither = ("and", (na, nb))
            one = ("and", (a, nb))
            other = ("and", (na, b))
            return ("or", (both, neither)) if pol else ("or", (one, other))
        return _cmp(head, to_poly(sx[1], scope), to_poly(sx[2], scope), pol)
    raise SolveError(f"unsupported operator {head}")


def negate_nnf(node):
    tag = node[0]
    if tag == "true":
        return ("false",)
    if tag == "false":
        return ("true",)
    if tag == "and":
        return ("or", tuple(negate_nnf(p) for p in node[1]))
    if tag == "or":
        return ("and", tuple(negate_nnf(p) for p in node[1]))
    if tag == "bvar":
        return ("bvar", node[1], not node[2])
    if tag == "cmp":
        rel, fp = node[1], node[2]
        if rel == LE0:  # not p <= 0 is 1 - p <= 0
            return ("cmp", LE0, freeze(psub(pconst(1), thaw(fp))))
        return ("cmp", NE0 if rel == EQ0 else EQ0, fp)
    if tag == "exists":
        return ("forall", node[1], negate_nnf(node[2]))
    if tag == "forall":
        return ("exists", node[1], negate_nnf(node[2]))
    raise SolveError(tag)


def subst_nnf(node, name: str, by):
    """`node` with `name` replaced where it is free: an Int name by a frozen
    polynomial, a Bool name by a bool or by another name."""
    tag = node[0]
    if tag in ("true", "false"):
        return node
    if tag == "and" or tag == "or":
        return (tag, tuple(subst_nnf(p, name, by) for p in node[1]))
    if tag == "bvar":
        if node[1] != name:
            return node
        if isinstance(by, bool):
            return ("true",) if by == node[2] else ("false",)
        return ("bvar", by, node[2])
    if tag == "cmp":
        if name not in _names(node[2]):
            return node
        return ("cmp", node[1], freeze(subst_poly(thaw(node[2]), ("v", name), thaw(by))))
    if tag in ("exists", "forall"):
        if any(n == name for n, _ in node[1]):
            return node
        return (tag, node[1], subst_nnf(node[2], name, by))
    raise SolveError(tag)


def _numerals(forms) -> set[int]:
    """The integer literals of a sequence of s-expressions."""
    out, todo = set(), [forms]
    while todo:
        for sx in todo.pop():
            if type(sx) is tuple:
                todo.append(sx)
            elif type(sx) is int:  # not a bool
                out.add(sx)
    return out


# -- compiled model search -----------------------------------------------------
#
# Model search compiles the asserted conjuncts once per query into closures
# over a positional valuation `env`: one slot per declared constant (integers
# first, then booleans, each in name order) and a fresh slot for every
# quantifier-bound variable, so an inner binder shadows an outer name without
# copying the valuation.  A formula closure returns True, False, or None when a
# quantifier could not be decided; a polynomial closure returns an int.


def _const(v):
    return lambda env: v


def _poly_code(p, slots: dict):
    """Code giving the value of the polynomial `p`, a dict or frozen."""
    p = dict(p)
    c0 = p.pop((), 0)
    monos = [(c, [_key_code(k, slots) for k in m]) for m, c in p.items()]
    if not monos:
        return _const(c0)

    def value(env):
        total = c0
        for c, keys in monos:
            for k in keys:
                c *= k(env)
            total += c
        return total

    return value


def _key_code(k, slots: dict):
    if k[0] == "v":
        return itemgetter(slots[k[1]])
    op, a, b = ARITH_OPS[k[0]], _poly_code(k[1], slots), _poly_code(k[2], slots)
    return lambda env: op(a(env), b(env))


def _cmp_code(rel: str, fp, slots: dict):
    value = _poly_code(fp, slots)
    if rel == LE0:
        return lambda env: value(env) <= 0
    if rel == EQ0:
        return lambda env: value(env) == 0
    return lambda env: value(env) != 0


class _ModelCompiler:
    """Compiles NNF trees for model search; `size` is the valuation length
    the compiled code needs.  An unbounded quantified integer ranges over
    `window`: the values up to WINDOW apart from 0 and those next to one of
    the query's `numerals`."""

    def __init__(self, size: int, numerals: Iterable[int] = ()):
        self.size = size
        near = {k + d for k in numerals for d in (-1, 0, 1)}
        self.window = sorted(near.union(range(-WINDOW, WINDOW + 1)))

    def formula(self, node, slots: dict):
        """(code, may_be_none): only code under a quantifier can answer None."""
        tag = node[0]
        if tag in ("true", "false"):
            return _const(tag == "true"), False
        if tag == "bvar":
            i, pol = slots[node[1]], node[2]
            return (lambda env: env[i] is pol), False
        if tag == "cmp":
            return _cmp_code(node[1], node[2], slots), False
        if tag in ("and", "or"):
            return self._junction(tag, node[1], slots)
        if tag in ("exists", "forall"):
            return self._quantifier(node, slots), True
        raise SolveError(tag)

    def _junction(self, tag: str, parts, slots: dict):
        flat = []
        for p in parts:
            flat.extend(p[1] if p[0] == tag else (p,))  # and/or are associative
        compiled = [self.formula(p, slots) for p in flat]
        codes = [c for c, _ in compiled]
        if not codes:
            return _const(tag == "and"), False
        if len(codes) == 1:
            return compiled[0]
        decisive = tag == "or"  # the part value that settles the junction
        if not any(none for _, none in compiled):

            def settle(env):
                for c in codes:
                    if c(env) is decisive:
                        return decisive
                return not decisive

            return settle, False

        def junction(env):
            saw_none = False
            for c in codes:
                r = c(env)
                if r is decisive:
                    return decisive
                if r is None:
                    saw_none = True
            return None if saw_none else not decisive

        return junction, True

    def _quantifier(self, node, slots: dict):
        """Bound variables are tried one at a time, outermost first.  An Int
        variable ranges over candidates read off the matrix (the body for a
        witness, its negation for a counterexample); the candidate list is
        exhaustive when the matrix bounds the variable."""
        tag, bound, body = node
        want = tag == "exists"
        inner_slots = dict(slots)
        own = []
        for name, _srt in bound:
            own.append(self.size)
            inner_slots[name] = self.size
            self.size += 1
        code, _ = self.formula(body, inner_slots)
        matrix = body if want else negate_nnf(body)
        for k in range(len(bound) - 1, -1, -1):
            name, srt = bound[k]
            if srt == BOOLS:
                candidates = _const(([False, True], True))
            else:
                deeper = {n for n, _ in bound[k + 1 :]}
                candidates = _candidates_code(name, matrix, deeper, inner_slots, self.window)
            code = _level(own[k], candidates, code, want)
        return code


def _level(i: int, candidates, inner, want: bool):
    def quantifier(env):
        vals, exhaustive = candidates(env)
        saw_none = False
        for v in vals:
            env[i] = v
            r = inner(env)
            if r is want:
                return want
            if r is None:
                saw_none = True
        if exhaustive and not saw_none:
            return not want
        return None

    return quantifier


def _spine_atoms(node, skip: set[str]):
    """Atoms implied by the formula, ignoring anything under a variable in `skip`."""
    tag = node[0]
    if tag == "cmp":
        return [] if _names(node[2]) & skip else [node]
    if tag == "and":
        out = []
        for p in node[1]:
            out.extend(_spine_atoms(p, skip))
        return out
    if tag in ("exists", "forall"):
        return _spine_atoms(node[2], skip | {n for n, _ in node[1]})
    return []


def _names(fp) -> set[str]:
    """The names a frozen polynomial mentions, inside div/mod keys too."""
    return {k[1] for k in poly_key_set(thaw(fp)) if k[0] == "v"}


def _linear_bound(node, name: str, slots: dict):
    """The bound reader's (rel, code) pair for an atom p rel 0, rel LE0 or
    EQ0, that is linear in `name`: the code gives (a, c) with p = a*name + c
    under the valuation, and neither depends on `name`.  None for any other
    node, and when `name` occurs twice in a monomial or inside a div/mod key.
    The bounds decide such an atom on their own when it mentions `name`."""
    if node[0] != "cmp" or node[1] == NE0:
        return None
    key = ("v", name)
    a, c = {}, {}
    for m, coef in node[2]:
        if key in m:
            i = m.index(key)
            a[m[:i] + m[i + 1 :]] = coef
        else:
            c[m] = coef
    if key in poly_key_set(a) | poly_key_set(c):
        return None
    a_code, c_code = _poly_code(a, slots), _poly_code(c, slots)
    return node[1], lambda env: (a_code(env), c_code(env))


def _bounds_code(linear):
    """The bound reader shared by model search and quantifier evaluation.

    `linear` holds pairs (rel, code) for atoms `a*x + c rel 0` over an
    integer x, rel LE0 or EQ0, where the code gives (a, c) under the
    valuation.  The reader gives (lo, hi, eq), each None when there is no
    such bound (eq is a value x must equal), or None when no value of x
    satisfies the atoms."""

    def bounds(env):
        lo = hi = eq = None
        for rel, code in linear:
            a, c = code(env)  # the atom is (a*name + c) rel 0
            if rel == LE0:
                if a > 0:
                    b = (-c) // a  # floor(-c/a)
                    hi = b if hi is None else min(hi, b)
                elif a < 0:
                    b = -((-c) // (-a))  # ceil(c/|a|)
                    lo = b if lo is None else max(lo, b)
                elif c > 0:
                    return None
            elif a != 0:
                if (-c) % a:
                    return None
                v = (-c) // a
                if eq is not None and eq != v:
                    return None
                eq = v
            elif c != 0:
                return None
        return lo, hi, eq

    return bounds


def _candidates_code(name: str, matrix, deeper: set[str], slots: dict, window: list[int]):
    """Code giving the candidate values of a quantified integer variable and
    whether they are exhaustive, from the atoms that bound it linearly; with
    no bound on either side they are the `window`."""
    linear = (_linear_bound(atom, name, slots) for atom in _spine_atoms(matrix, deeper))
    bounds = _bounds_code([b for b in linear if b is not None])

    def candidates(env):
        found = bounds(env)
        if found is None:
            return [], True
        lo, hi, eq = found
        if eq is not None:
            return [eq], True
        if lo is not None and hi is not None:
            if hi - lo > QRANGE_WIDTH_CAP:
                return range(lo, lo + QRANGE_WIDTH_CAP + 1), False
            return range(lo, hi + 1), True
        if lo is not None:
            return sorted({v for v in window if v >= lo} | {lo, lo + 1}), False
        if hi is not None:
            return sorted({v for v in window if v <= hi} | {hi, hi - 1}), False
        return window, False

    return candidates


def _conjuncts(node, out: list) -> list:
    if node[0] == "and":
        for p in node[1]:
            _conjuncts(p, out)
    elif node[0] != "true":
        out.append(node)
    return out


def _last_slot(node, slots: dict) -> int:
    """The largest slot of a name the formula mentions freely, -1 for none."""
    tag = node[0]
    if tag == "cmp":
        return max((slots.get(n, -1) for n in _names(node[2])), default=-1)
    if tag == "bvar":
        return slots.get(node[1], -1)
    if tag in ("and", "or"):
        return max([_last_slot(p, slots) for p in node[1]], default=-1)
    if tag in ("exists", "forall"):
        bound = {n for n, _ in node[1]}
        return _last_slot(node[2], {n: i for n, i in slots.items() if n not in bound})
    return -1


class ModelCheck:
    """The asserted tree compiled for level-wise model search.

    `names` are the declared names, integers then booleans, each in sorted
    order; name k has valuation slot k and search level k.  A top-level
    conjunct belongs to the level of the last name it mentions freely;
    `tests[k]` decides the conjuncts of level k (None when it has none),
    cheap atoms before quantifiers, and for an integer level `bounds[k]`
    reads the bounds its linear p <= 0 and p = 0 conjuncts put on the name
    (None when it has none).  `root` decides the conjuncts that mention no
    declared name; `size` is the valuation length the code needs.
    `numerals` are the query's integer literals (see `_ModelCompiler`)."""

    def __init__(self, tree, decls: dict[str, str], numerals: Iterable[int] = ()):
        ints = sorted(n for n, s in decls.items() if s == INT)
        self.names = ints + sorted(n for n, s in decls.items() if s == BOOLS)
        self.n_ints = len(ints)
        slots = {n: i for i, n in enumerate(self.names)}
        comp = _ModelCompiler(len(self.names), numerals)
        per_level: list[list] = [[] for _ in range(len(self.names) + 1)]
        for part in _conjuncts(tree, []):
            per_level[_last_slot(part, slots) + 1].append(part)
        root = per_level.pop(0)
        self.root = comp.formula(("and", tuple(root)), slots)[0]
        self.tests, self.bounds = [], []
        for k, parts in enumerate(per_level):
            linear, rest = [], []
            for p in parts:
                bound = _linear_bound(p, self.names[k], slots) if k < self.n_ints else None
                if bound is None:
                    rest.append(p)
                else:
                    linear.append(bound)
            rest.sort(key=lambda p: p[0] not in ("cmp", "bvar"))  # atoms before the rest
            self.tests.append(comp.formula(("and", tuple(rest)), slots)[0] if rest else None)
            self.bounds.append(_bounds_code(linear) if linear else None)
        self.size = comp.size


class ModelScan:
    """The model search over `bounds_seq`, run in slices.

    Integer tuples are tried in lexicographic order of `_value_order(b)` for
    each bound b in turn, skipping tuples an earlier bound covered; each
    integer tuple is tried with every boolean tuple.  The search assigns one
    name per level and leaves a value out, with every candidate below it,
    as soon as the value lies outside the level's bounds or a conjunct of
    the level is not true there.  Each candidate is charged one unit of
    MODEL_EVAL_BUDGET whether it is tried or left out, so the first model,
    and a search that runs out of budget, are those of a plain scan over all
    candidates.  A slice counts the work done instead, one unit per value
    the search visits, whether its level rules it out or not:
    `run(visits, deadline)` continues the scan where the last slice
    stopped, for at most `visits` more values.  Slicing changes neither the
    candidates' order nor the first model.
    """

    def __init__(self, check: ModelCheck, bounds_seq=MODEL_BOUNDS):
        self.charged = 0  # candidates charged to MODEL_EVAL_BUDGET
        self.visited = 0  # values visited
        self.timed_out = False
        self.done = False  # a model was found or no candidate is left
        self.result = (None, None)
        self._steps = self._search(check, bounds_seq, MODEL_EVAL_BUDGET)
        next(self._steps)  # up to the point where it waits for its first slice

    def run(self, visits: float, deadline: float):
        """(True, model) once a model is found, (False, {}) when the tree
        mentions no name and is false, else (None, None)."""
        if not self.done:
            try:
                self._steps.send((visits, deadline))
            except StopIteration as stop:
                self.done, self.result = True, stop.value
        return self.result

    def _search(self, check: ModelCheck, bounds_seq, budget: int):
        """The scan as a generator.  It is sent (visits, deadline) for each
        slice and hands control back, without losing its place, when the
        slice's visits are used up or the clock passes the deadline; its
        return value is `run`'s result."""
        visits, deadline = yield
        env = [None] * check.size
        names, n_ints = check.names, check.n_ints
        if not names:
            return check.root(env), {}
        if check.root(env) is not True:
            return None, None
        n = len(names)
        tests, bounds = check.tests, check.bounds
        charged = visited = 0
        limit = visits
        # Per bound and level: the values tried, how many of them an earlier
        # bound covered, and the candidates below one value when a value at or
        # above its level is fresh (`full`) or when none is (`part`).
        domains: list = []
        n_old = 0
        full: list[int] = []
        part: list[int] = []

        def pause():
            nonlocal limit, deadline
            self.charged, self.visited = charged, visited
            visits, deadline = yield
            limit = visited + visits

        def visit(k: int, fresh: bool):
            """Search level k: True when a model fills env, False when the
            level holds none, None when the budget ran out."""
            nonlocal charged, visited
            domain, test = domains[k], tests[k]
            lo = hi = eq = None
            if bounds[k] is not None:
                lo, hi, eq = bounds[k](env) or (1, 0, None)  # no value at all: an empty range
            for idx, v in enumerate(domain):
                now_fresh = fresh or idx >= n_old
                below = full[k] if now_fresh else part[k]
                if not below:  # the whole integer tuple lies inside an earlier bound
                    continue
                while visited >= limit:
                    yield from pause()
                visited += 1
                if (lo is not None and v < lo) or (hi is not None and v > hi) or (eq is not None and v != eq):
                    skip = True
                else:
                    while time.monotonic() > deadline:
                        self.timed_out = True
                        yield from pause()
                    env[k] = v
                    skip = test is not None and test(env) is not True
                if skip or k == n - 1:
                    charged += below if skip else 1
                    if charged > budget:
                        return None
                    if not skip:
                        return True
                else:
                    found = yield from visit(k + 1, now_fresh)
                    if found is not False:
                        return found
            return False

        prev = -1
        for b in bounds_seq:
            vals = _value_order(b)
            n_old = min(2 * prev + 1, len(vals)) if prev >= 0 else 0
            prev = b
            if n_old and not n_ints:
                continue  # the one empty integer tuple was covered already
            domains = [vals] * n_ints + [(False, True)] * (n - n_ints)
            bool_tuples = 2 ** (n - n_ints)
            full = [len(vals) ** (n_ints - k - 1) * bool_tuples for k in range(n_ints)]
            part = [f - n_old ** (n_ints - k - 1) * bool_tuples for k, f in enumerate(full)]
            full += [2 ** (n - k - 1) for k in range(n_ints, n)]
            part += full[n_ints:]
            found = yield from visit(0, not n_old)
            self.charged, self.visited = charged, visited
            if found is None:
                return None, None
            if found:
                return True, dict(zip(names, env[:n]))
        return None, None


def _value_order(b: int) -> list[int]:
    out = [0]
    for k in range(1, b + 1):
        out.extend((k, -k))
    return out


# -- refutation -------------------------------------------------------------------


def _fact(node) -> tuple:
    """The (p, rel) fact of a comparison atom: p rel 0."""
    return thaw(node[2]), node[1]


def _candidate_terms(core: Core, numerals: set[int]) -> list:
    """Ground instantiation candidates, frozen: variables first, then
    numerals, then the opaque div/mod terms of the branch."""
    plain, opaque = [], []
    for key in sorted(core.all_keys(), key=repr):
        (plain if key[0] == "v" else opaque).append(freeze(pvar(key)))
    nums = [freeze(pconst(k)) for k in sorted(set(numerals) | {0, 1})]
    return (plain + nums[:8] + opaque)[:24]


def _literals(node):
    """The conjuncts of a conjunction of literals, or None when the node
    branches or quantifies."""
    parts = _conjuncts(node, [])
    return parts if all(p[0] in ("false", "cmp", "bvar") for p in parts) else None


def _probe_contradicts(core: Core, atoms) -> bool:
    """Whether the literals contradict the branch's facts: they are asserted
    into a copy of the core, which closes on a clash with its indexed facts.
    The copy is not saturated and no step is charged."""
    probe = core.clone()
    for a in atoms:
        if a[0] == "false":
            return True
        if a[0] == "bvar":
            probe.add_bool(a[1], a[2])
        else:
            probe.add(*_fact(a))
        if probe.closed:
            return True
    return False


def _definitely_true(core: Core, atoms) -> bool:
    """All atoms tautological under the core's definitions; such a clause
    constrains nothing and can be dropped."""
    return all(
        core.holds_bool(a[1], a[2]) if a[0] == "bvar" else a[0] == "cmp" and core.holds(*_fact(a)) for a in atoms
    )


@lru_cache(maxsize=4096)
def _solve_candidates(node) -> list:
    """Instantiation candidates, frozen, solved from the linear atoms of a
    quantified body: an atom a*x = t suggests x := t when a = ±1 and
    x := t div a otherwise (the usual equation trigger)."""
    bound_names = [nm for nm, srt in node[1] if srt == INT]
    out = []

    def scan(n):
        tag = n[0]
        if tag in ("and", "or"):
            for c in n[1]:
                scan(c)
        elif tag in ("exists", "forall"):
            scan(n[2])
        elif tag == "cmp":
            p, _ = _fact(n)
            for nm in bound_names:
                key = ("v", nm)
                if any(key in m and (len(m) > 1 or m.count(key) > 1) for m in p):
                    continue
                mono = (key,)
                if mono not in p:
                    continue
                a = p[mono]
                rest = {m: c for m, c in p.items() if m != mono}
                if all(c % a == 0 for c in rest.values()):
                    out.append(freeze({m: -(c // a) for m, c in rest.items()}))
                elif abs(a) > 1:
                    out.append(freeze(pdivmod("div", pneg(rest) if a > 0 else rest, pconst(abs(a)))))

    scan(node[2])
    seen = []
    for t in out:
        if t not in seen:
            seen.append(t)
    return seen[:4]


def _instances(u, pools, done: set | None = None) -> Iterator:
    """The instances of the universal `u`, one per combination of terms
    from `pools` (one pool per bound name), in product order.  With `done`,
    a combination in it is skipped and one instantiated is added to it."""
    bound, body = u[1], u[2]
    for combo in product(*pools):
        if done is not None:
            if (u, combo) in done:
                continue
            done.add((u, combo))
        inst = body
        for (nm, _), c in zip(bound, combo):
            inst = subst_nnf(inst, nm, c)
        yield inst


def _node_contradicts(core: Core, node, state, depth: int = 2) -> bool:
    """Definite refutation of a subformula against the core, without search:
    joint probing for literal conjunctions, all-disjuncts for or, and a
    single witnessing instance for universals (depth-capped)."""
    atoms = _literals(node)
    if atoms is not None:
        return _probe_contradicts(core, atoms)
    tag = node[0]
    if tag == "or":
        return all(_node_contradicts(core, c, state, depth) for c in node[1])
    if tag == "and":
        return any(_node_contradicts(core, c, state, depth) for c in node[1])
    if tag == "forall" and depth > 0:
        if any(srt == BOOLS for _, srt in node[1]):
            return False
        cands = _solve_candidates(node) + _candidate_terms(core, state["numerals"])[:12]
        for inst in _instances(node, [cands] * len(node[1])):
            if core.spend():
                return False
            if _node_contradicts(core, inst, state, depth - 1):
                return True
    return False


def _alive(core: Core, clause, state):
    """The alternatives of a disjunction that the core does not refute, or
    None when one of them holds already (the clause carries no information)."""
    alive = []
    for alt in clause[1]:
        atoms = _literals(alt)
        if atoms is not None and _definitely_true(core, atoms):
            return None
        if not _node_contradicts(core, alt, state):
            alive.append(alt)
    return alive


def _fork(state, splits: int) -> dict:
    """The state of one case of a split: its own set of the instances
    tried, and `splits` splits left."""
    return dict(state, done=set(state["done"]), splits=splits)


def _every_case_closes(cases, universals, budget: Budget, state, splits: int) -> bool:
    """Whether every case of a split closes.  `cases` yields (items, core)
    pairs, made one at a time: the items to refute, on the case's own copy
    of the branch's core and of its state."""
    return all(refute(items, sub, universals, budget, _fork(state, splits)) for items, sub in cases)


def refute(items, core: Core, universals, budget: Budget, state) -> bool:
    """True iff every branch closes; False means this engine cannot tell."""
    items = list(items)
    universals = list(universals)
    saturated = False  # the core is closed under `saturate` since its last atom
    while items:
        if budget.spend():
            return False
        # Units, quantifiers, and conjunctions first; disjunctions last.
        pick = next((i for i in range(len(items) - 1, -1, -1) if items[i][0] != "or"), None)
        node = items.pop() if pick is None else items.pop(pick)
        tag = node[0]
        if tag == "true":
            continue
        if tag == "false":
            return True
        if tag == "and":
            items.extend(node[1])
            continue
        if tag == "or":
            if budget.spend(len(node[1])):
                return False
            alive = _alive(core, node, state)
            if alive is None:
                continue
            if not alive:
                return True
            if len(alive) == 1:
                items.append(alive[0])
                continue
            # Only disjunctions are pending.  Before splitting, settle the
            # others against the core: units are asserted instead of split
            # on, and once none is left the core is saturated, so that the
            # branches inherit its closure, and the universals are probed
            # for an instance that closes the branch without a split.
            clauses, units = [(node, alive)], []
            for clause in items:
                if budget.spend(len(clause[1])):
                    return False
                alive = _alive(core, clause, state)
                if alive is None:
                    continue
                if not alive:
                    return True
                if len(alive) == 1:
                    units.append(alive[0])
                else:
                    clauses.append((clause, alive))
            items = [clause for clause, _ in clauses] + units
            if units:
                continue
            if not saturated:
                core.saturate()
                if core.closed:
                    return True
                saturated = True
                if any(_node_contradicts(core, u, state) for u in universals):
                    return True
                continue
            # Split on the narrowest clause.
            node, alive = min(clauses, key=lambda ca: len(ca[1]))
            items.remove(node)
            cases = ((items + [alt], core.clone()) for alt in alive)
            return _every_case_closes(cases, universals, budget, state, state["splits"])
        if tag == "exists":
            body = node[2]
            for nm, srt in node[1]:
                fresh = f"$sk{state['sk'][0]}"
                state["sk"][0] += 1
                body = subst_nnf(body, nm, fresh if srt == BOOLS else freeze(pvar(("v", fresh))))
            items.append(body)
            continue
        if tag == "forall":
            universals.append(node)
            continue
        if tag == "bvar":
            core.add_bool(node[1], node[2])
        elif tag == "cmp":
            core.add(*_fact(node))
        else:
            raise SolveError(tag)
        if core.closed:
            return True
        saturated = False

    core.saturate()
    if core.closed:
        return True

    # An asserted universal with a single contradicting instance closes the
    # branch outright; probe before any clause-level instantiation.
    for u in universals:
        if _node_contradicts(core, u, state):
            return True
    if budget.spent:
        return False

    # Heuristic quantifier instantiation with the branch's ground terms.
    if state["rounds"] > 0 and universals:
        cands = _candidate_terms(core, state["numerals"])
        insts = []
        for u in universals:
            u_cands = _solve_candidates(u) + cands
            pools = [[False, True] if srt == BOOLS else u_cands for _, srt in u[1]]
            # Up to 64 instances; a universal after the 64th still adds one.
            insts.extend(islice(_instances(u, pools, state["done"]), max(1, 64 - len(insts))))
        if insts:
            if budget.spend(len(insts)):
                return False
            state["rounds"] -= 1  # this call goes on as the next round
            return refute(insts, core, universals, budget, state)

    if state["splits"] > 0:
        splits = state["splits"] - 1
        # Case split on a product factor whose sign is undetermined.
        for facts in core.sign_splits():
            if _every_case_closes((([], core.branch(p, rel)) for p, rel in facts), universals, budget, state, splits):
                return True
        # Disequality split, last resort: p != 0 becomes p <= -1 or p >= 1.
        split = core.ne_split()
        if split is not None:
            ne, shifted = split
            cases = (([], core.branch(q, LE0, drop=ne)) for q in shifted)
            return _every_case_closes(cases, universals, budget, state, splits)
    return False


# -- script driver -----------------------------------------------------------------


def check_formula(assertions, decls: dict[str, str], timeout_s: float):
    """(verdict, model, reason), where reason says why a verdict is unknown.

    Model scan and refutation take turns in rounds.  Each round continues
    the scan for one slice of visited values and restarts refutation with
    one slice of steps; both slices double every round, a two-strategy
    schedule after Luby, Sinclair and Zuckerman (1993).  A strategy drops
    out once it is done: the scan when it has tried every candidate or
    charged MODEL_EVAL_BUDGET, refutation when a slice ends with steps to
    spare or a slice of REFUTE_STEP_BUDGET steps did not close it.  sat
    comes only from the scan and unsat only from a refutation, and both
    are decided by work counts alone: the verdict does not depend on the
    clock unless the safety-net deadline fires ("timeout").  Both
    strategies giving up is "incomplete"."""
    scope = dict(decls)
    tree = ("and", tuple(to_formula(a, scope, True) for a in assertions))
    deadline = time.monotonic() + timeout_s
    numerals = _numerals(assertions)
    scan = ModelScan(ModelCheck(tree, decls, numerals))
    scan_slice, refute_slice = SCAN_SLICE, REFUTE_SLICE
    refuting = True
    while True:
        verdict, model = scan.run(scan_slice, deadline)
        if verdict is not None:
            return ("sat", model, None) if verdict else ("unsat", None, None)
        if scan.timed_out:
            return "unknown", None, "timeout"
        if refuting:
            budget = Budget(refute_slice, deadline)
            state = {"sk": [0], "rounds": MAX_INST_ROUNDS, "splits": MAX_SPLITS, "done": set(), "numerals": numerals}
            if refute([tree], Core(budget), [], budget, state):
                return "unsat", None, None
            if budget.timed_out:
                return "unknown", None, "timeout"
            refuting = budget.spent and refute_slice < REFUTE_STEP_BUDGET
        if scan.done and not refuting:
            return "unknown", None, "incomplete"
        scan_slice *= 2
        refute_slice = min(2 * refute_slice, REFUTE_STEP_BUDGET)


def run_commands(forms: Iterable, timeout_s: float = 30.0) -> Iterator[str]:
    """The output of each SMT-LIB command in `forms` (`sexpr` forms, read
    from text or built in the process), yielded as soon as the command has
    run, so a reader of a stream can answer before the next command
    arrives.  (reset) forgets every declaration and assertion.  Each
    check-sat has its own `timeout_s`."""
    decls: dict[str, str] = {}
    assertions = []
    model: dict | None = None
    reason: str | None = None
    for form in forms:
        if not isinstance(form, tuple) or not form:
            raise SolveError(f"bad command {form!r}")
        cmd = form[0]
        if cmd in ("set-logic", "set-option", "set-info"):
            continue
        if cmd == "declare-const":
            decls[str(form[1])] = form[2]
        elif cmd == "declare-fun":
            if form[2] != ():
                raise SolveError("only constant declarations are supported")
            decls[str(form[1])] = form[3]
        elif cmd == "assert":
            assertions.append(form[1])
        elif cmd == "check-sat":
            verdict, model, reason = check_formula(assertions, decls, timeout_s)
            yield verdict
        elif cmd == "get-model":
            if model is None:
                yield "(error \"no model\")"
            else:
                rows = []
                for name in sorted(decls):
                    v = model.get(name, 0 if decls[name] == INT else False)
                    sv = str(v).lower() if decls[name] == BOOLS else (str(v) if v >= 0 else f"(- {-v})")
                    rows.append(f"  (define-fun {symbol(name)} () {decls[name]} {sv})")
                yield "(\n" + "\n".join(rows) + "\n)"
        elif cmd == "get-info":
            if form[1:] != (":reason-unknown",):
                yield "unsupported"
            elif reason is None:
                yield '(error "the last check-sat did not answer unknown")'
            else:
                yield f"(:reason-unknown {reason})"
        elif cmd == "reset":
            decls, assertions = {}, []
            model = reason = None
        elif cmd == "exit":
            return
        else:
            raise SolveError(f"unsupported command {cmd}")


def run_script(text: str, timeout_s: float = 30.0) -> list[str]:
    return list(run_commands(parse_all(text), timeout_s))
