"""Constraint algorithms: unification modulo builtins, simplification, inclusion.

Unification reduces a mixed equation over constructors and builtin operators
to constructor-variable bindings plus a residual conjunction of builtin
equations.  Builtin-sorted terms are opaque here: their equations ship to
the solver untouched, and no builtin variable is ever bound.  Between two
variables of one sort the binding keeps the user's name in view; between
sorts it binds the larger-sorted variable to the smaller-sorted one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .formulas import (
    JUNCTIONS,
    And,
    Atom,
    ConstrainedTerm,
    Eq,
    Exists,
    FALSE,
    FalseF,
    Formula,
    Iff,
    Implies,
    Not,
    Or,
    TRUE,
    TrueF,
    atom_terms,
    children,
    conj,
    exists,
    free_vars,
    junction,
    subst_formula,
)
from .signature import BUILTIN_FUNCTIONS, Signature
from .terms import App, FRESH_SEP, Lit, Substitution, Term, Var, rebuild_app, term_vars


@dataclass(frozen=True)
class SolvedForm:
    """A satisfiable unification result: bindings and builtin equations."""

    subst: Substitution
    residual: tuple[Formula, ...]

    def as_formula(self) -> Formula:
        eqs = [Eq(v, t) for v, t in sorted(self.subst.mapping.items(), key=lambda kv: kv[0].name)]
        return conj(eqs + list(self.residual))


def unify_modulo_builtins(sig: Signature, t1: Term, t2: Term) -> SolvedForm | None:
    """The solved form equivalent to t1 = t2 in the term model.

    None means the equation is unsatisfiable (sorts that share no
    supersort, a constructor clash or a cyclic constructor equation).  Every
    builtin equation stays residual.
    """
    if not sig.connected(t1.sort, t2.sort):
        return None

    work: list[tuple[Term, Term]] = [(t1, t2)]
    bindings: dict[Var, Term] = {}
    residual: list[Formula] = []

    def resolve(t: Term) -> Term:
        return Substitution(bindings).apply(t) if bindings else t

    while work:
        a, b = work.pop(0)
        a, b = resolve(a), resolve(b)
        if a == b:
            continue
        a_builtin, b_builtin = a.sort.builtin, b.sort.builtin
        if a_builtin and b_builtin:
            if isinstance(a, Lit) and isinstance(b, Lit):
                return None  # distinct literals
            residual.append(Eq(a, b))
            continue
        if a_builtin != b_builtin:
            return None  # builtin value vs constructor term
        # Both constructor-sorted.
        if isinstance(b, Var) and not isinstance(a, Var):
            a, b = b, a
        if isinstance(a, Var):
            if isinstance(b, Var):
                if sig.is_subsort(b.sort, a.sort):
                    pass  # bind a to the smaller-sorted b
                elif sig.is_subsort(a.sort, b.sort):
                    a, b = b, a
                else:
                    return None
                if a.sort == b.sort and FRESH_SEP in b.name and FRESH_SEP not in a.name:
                    a, b = b, a  # a renaming: keep the user's name
                bindings = _bind(bindings, a, b)
                continue
            if a in term_vars(b):
                return None  # occurs check: no cyclic constructor values
            if not sig.is_subsort(sig.least_sort(b), a.sort):
                return None
            bindings = _bind(bindings, a, b)
            continue
        assert isinstance(a, App) and isinstance(b, App)
        if a.symbol != b.symbol or len(a.args) != len(b.args):
            return None
        work.extend(zip(a.args, b.args))

    sigma = Substitution(bindings)
    residual = [Eq(sigma.apply(e.lhs), sigma.apply(e.rhs)) for e in residual]
    residual = [e for e in residual if e.lhs != e.rhs]
    return SolvedForm(sigma, tuple(residual))


def _bind(bindings: dict[Var, Term], v: Var, t: Term) -> dict[Var, Term]:
    one = Substitution({v: t})
    out = {w: one.apply(u) for w, u in bindings.items()}
    out[v] = t
    return {w: u for w, u in out.items() if w != u}


# -- term-level constant folding -------------------------------------------------


def fold_term(t: Term) -> Term:
    """`t` with builtin operations on literals evaluated; `t` itself if folded."""
    if not isinstance(t, App) or not t.args:
        return t
    t = rebuild_app(t, [fold_term(a) for a in t.args])
    args = t.args
    fn = BUILTIN_FUNCTIONS.get((t.symbol, len(args)))
    if fn is not None and all(isinstance(a, Lit) for a in args):
        return Lit(fn(*(a.value for a in args)))
    # Unit laws over Int, valid in the standard model.
    if t.symbol == "+" and len(args) == 2:
        if args[0] == Lit(0):
            return args[1]
        if args[1] == Lit(0):
            return args[0]
    if t.symbol == "-" and len(args) == 2 and args[1] == Lit(0):
        return args[0]
    if t.symbol == "*" and len(args) == 2:
        if Lit(0) in args:
            return Lit(0)
        if args[0] == Lit(1):
            return args[1]
        if args[1] == Lit(1):
            return args[0]
    # A term compared with itself; terms are total, div and mod by 0 included.
    if t.symbol in ("<", ">", "<=", ">=") and len(args) == 2 and args[0] == args[1]:
        return Lit(t.symbol in ("<=", ">="))
    return t


# -- formula simplification -------------------------------------------------------

SIMPLIFY_PASS_CAP = 10


def simplify(sig: Signature, f: Formula) -> Formula:
    """Equivalence-preserving simplification; keeps the satisfying valuations intact."""
    for _ in range(SIMPLIFY_PASS_CAP):
        nf = _simp(sig, f)
        if nf is f or nf == f:
            return nf
        f = nf
    import warnings

    warnings.warn(f"simplification stopped at the {SIMPLIFY_PASS_CAP}-pass cap", RuntimeWarning)
    return f


def _simp(sig: Signature, f: Formula) -> Formula:
    """One simplification pass; `f` itself where the pass changes nothing.

    The pass is pure in `f` and the signature, so `f` keeps its result,
    keyed by the signature's stamp.  Later passes over a formula that
    contains `f` then return at once where `f` did not change.
    """
    if isinstance(f, (TrueF, FalseF)):
        return f
    stamp = sig.stamp
    memo = getattr(f, "_simp", None)
    if memo is not None and memo[0] == stamp:
        return f if memo[1] is None else memo[1]
    nf = _simp_pass(sig, f)
    # `None` stands for `f` itself, so a normal form does not refer to itself.
    object.__setattr__(f, "_simp", (stamp, None if nf is f else nf))
    return nf


def _simp_pass(sig: Signature, f: Formula) -> Formula:
    if isinstance(f, (And, Or)):
        return _simp_junction(sig, f)
    if isinstance(f, Atom):
        (t,) = atom_terms(f)
        ft = fold_term(t)
        if isinstance(ft, Lit):
            return TRUE if ft.value else FALSE
        return f if ft is t else Atom(ft)
    if isinstance(f, Eq):
        lt, rt = map(fold_term, atom_terms(f))
        if lt == rt:
            return TRUE
        if isinstance(lt, Lit) and isinstance(rt, Lit):
            return TRUE if lt.value == rt.value else FALSE
        nf = reduced_equation(sig, lt, rt)
        return f if nf == f else nf
    kids = [_simp(sig, k) for k in children(f)]
    if isinstance(f, Not):
        (b,) = kids
        if isinstance(b, TrueF):
            return FALSE
        if isinstance(b, FalseF):
            return TRUE
        if isinstance(b, Not):
            return children(b)[0]
        return f if b is f.body else Not(b)
    if isinstance(f, Implies):
        a, b = kids
        if isinstance(a, TrueF):
            return b
        if isinstance(a, FalseF) or isinstance(b, TrueF):
            return TRUE
        if isinstance(b, FalseF):
            return _simp(sig, Not(a))
        if a == b:
            return TRUE
        return f if a is f.premise and b is f.conclusion else Implies(a, b)
    if isinstance(f, Iff):
        a, b = kids
        if a == b:
            return TRUE
        if isinstance(a, TrueF):
            return b
        if isinstance(b, TrueF):
            return a
        if isinstance(a, FalseF):
            return _simp(sig, Not(b))
        if isinstance(b, FalseF):
            return _simp(sig, Not(a))
        return f if a is f.lhs and b is f.rhs else Iff(a, b)
    (body,) = kids  # a binder
    cls = type(f)
    if isinstance(body, cls) and not (set(f.bound) & set(body.bound)):
        bound = f.bound + body.bound
        (body,) = children(body)
    else:
        bound = f.bound
    if isinstance(f, Exists):
        bound, body = _one_point(sig, bound, body)
    fv = free_vars(body)
    bound = tuple(v for v in bound if v in fv)
    if isinstance(body, (TrueF, FalseF)) or not bound:
        return body
    return f if body is f.body and bound == f.bound else cls(bound, body)


def _simp_junction(sig: Signature, f: And | Or) -> Formula:
    """An And or Or with its parts simplified, flattened and deduplicated;
    the absorbing element or a complementary pair of parts absorbs it."""
    cls = type(f)
    unit, absorbing = JUNCTIONS[cls]
    parts: list[Formula] = []
    for p in children(f):
        sp = _simp(sig, p)
        if type(sp) is type(absorbing):
            return absorbing
        if type(sp) is type(unit):
            continue
        if type(sp) is cls:
            parts.extend(children(sp))
        elif sp not in parts:
            parts.append(sp)
    if any(isinstance(p, Not) and children(p)[0] in parts for p in parts):
        return absorbing
    if cls is And:
        parts = _propagate_bindings(sig, parts)
    if len(parts) > 1 and len(parts) == len(f.parts) and all(p is q for p, q in zip(parts, f.parts)):
        return f
    return junction(cls, parts)


def _eligible_binding(p: Formula, candidates) -> tuple[Var, Term] | None:
    if not isinstance(p, Eq):
        return None
    for x, t in ((p.lhs, p.rhs), (p.rhs, p.lhs)):
        if isinstance(x, Var) and candidates(x) and x not in term_vars(t):
            return x, t
    return None


def _propagate_bindings(sig: Signature, parts: list[Formula]) -> list[Formula]:
    """Push x = t conjuncts into sibling conjuncts (the equation itself stays).

    Only variable/literal bindings propagate here; compound right-hand sides
    would bloat sibling formulas without eliminating anything.
    """
    for i, p in enumerate(parts):
        hit = _eligible_binding(p, lambda v: True)
        if hit is None:
            continue
        x, t = hit
        if not isinstance(t, (Var, Lit)):
            continue
        if isinstance(t, Var) and FRESH_SEP not in x.name and FRESH_SEP in t.name:
            x, t = t, x  # prefer to keep user-named variables in view
        sigma = Substitution({x: t})
        changed = False
        out = list(parts)
        for j, q in enumerate(parts):
            if j == i:
                continue
            nq = subst_formula(sigma, q)
            if nq != q:
                out[j] = _simp(sig, nq)
                changed = True
        if changed:
            return out
    return parts


def _one_point(sig: Signature, bound: tuple[Var, ...], body: Formula):
    """∃x.(x = t ∧ φ) collapses to φ[x := t] when x does not occur in t."""
    bound = list(bound)
    changed = True
    while changed and bound:
        changed = False
        parts = list(children(body)) if isinstance(body, And) else [body]
        for i, p in enumerate(parts):
            hit = _eligible_binding(p, lambda v: v in bound)
            if hit is None:
                continue
            x, t = hit
            rest = parts[:i] + parts[i + 1 :]
            body = _simp(sig, subst_formula(Substitution({x: t}), conj(rest)))
            bound.remove(x)
            changed = True
            break
    return tuple(bound), body


def simplify_constrained(
    sig: Signature, ct: ConstrainedTerm, protected: frozenset[str] = frozenset()
) -> ConstrainedTerm:
    """Simplify a constrained term; may eliminate unprotected free variables.

    Eliminating x via a conjunct x = t preserves the set of ground instances
    but changes the valuation set, so every variable that is shared with a
    surrounding goal must appear in `protected`.
    """
    term = fold_term(ct.term)
    constraint = simplify(sig, ct.constraint)
    for _ in range(SIMPLIFY_PASS_CAP):
        if isinstance(constraint, FalseF):
            return ConstrainedTerm(term, FALSE)
        parts = list(children(constraint)) if isinstance(constraint, And) else [constraint]
        sigma, rest = _elimination(parts, protected)
        if not sigma:
            return ConstrainedTerm(term, constraint)
        term = fold_term(sigma.apply(term))
        constraint = simplify(sig, subst_formula(sigma, conj(rest)))
    return ConstrainedTerm(term, constraint)


def _elimination(parts: list[Formula], protected: frozenset[str]) -> tuple[Substitution, list[Formula]]:
    """The next bindings to eliminate from the conjuncts `parts`, composed
    into one substitution, and the conjuncts left.

    Every binding of a fresh-named variable to a variable or a literal goes
    at once; failing those, one binding, of a fresh-named variable if any.
    """
    bindings: dict[Var, Term] = {}
    rest: list[Formula] = []
    hit = None
    for i, p in enumerate(parts):
        found = _eligible_binding(p, lambda v: v.name not in protected)
        if found is None:
            rest.append(p)
            continue
        x, t = found
        if isinstance(t, Var) and t.name not in protected:
            # Both ends disposable: drop the fresh-named one if we can.
            if FRESH_SEP in t.name and FRESH_SEP not in x.name:
                x, t = t, x
        if FRESH_SEP in x.name and isinstance(t, (Var, Lit)) and x not in bindings:
            t = bindings.get(t, t)
            if t != x:  # otherwise the conjunct reads x = x once bound
                bindings = {v: t if u == x else u for v, u in bindings.items()}
                bindings[x] = t
            continue
        rest.append(p)
        if hit is None or (FRESH_SEP in x.name and FRESH_SEP not in hit[0].name):
            hit = (x, t, i)
    if bindings or hit is None:
        return Substitution(bindings), rest
    x, t, i = hit
    return Substitution({x: t}), parts[:i] + parts[i + 1 :]


# -- semantic inclusion -----------------------------------------------------------


def reduced_equation(sig: Signature, t1: Term, t2: Term) -> Formula:
    """t1 = t2 as a constructor-free formula: its solved form, or false."""
    if t1.sort.builtin and t2.sort.builtin:
        return Eq(t1, t2)
    sf = unify_modulo_builtins(sig, t1, t2)
    return FALSE if sf is None else sf.as_formula()


def instance_condition(sig: Signature, t: Term, ct: ConstrainedTerm, private) -> Formula:
    """∃private.(t = t' ∧ φ') for ct = ⟨t' | φ'⟩ with the equation reduced:
    where it holds, `t` is an instance of `ct` that agrees with the caller
    on every variable not in `private`.  Callers simplify it themselves."""
    body = conj([reduced_equation(sig, t, ct.term), ct.constraint])
    return exists(sorted(private, key=lambda v: v.name), body)


def semantic_inclusion_condition(sig: Signature, ct1: ConstrainedTerm, ct2: ConstrainedTerm) -> Formula:
    """φ → ∃x̃.(t = t' ∧ φ') with x̃ the variables private to ct2.

    Validity of the result is equivalent to inclusion of the instance sets of
    ct1 in ct2 under every consistent instantiation of the shared variables.
    """
    private = free_vars(ct2) - free_vars(ct1)
    return Implies(ct1.constraint, instance_condition(sig, ct1.term, ct2, private))
