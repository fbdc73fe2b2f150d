"""Polynomial atoms over monomials and the linear refutation core.

A "key" is an integer-valued unknown: a variable, or an opaque div/mod term
whose arguments are frozen polynomials.  Monomials are sorted key tuples;
linear reasoning treats every distinct monomial as one dimension, and
McCormick-style envelopes plus factor case splits reconnect products to
their factors.  Coefficients are plain integers throughout: the only
division points are gcd tightening and unit-coefficient elimination, both
exact.  All derivations are sound over the integers; failure to close a
branch never asserts anything.
"""

from __future__ import annotations

import operator
from collections.abc import Iterator
from functools import lru_cache
from math import gcd

# Key: ("v", name) | ("mod", FP, FP) | ("div", FP, FP); FP freezes a Poly.
Key = tuple
Mono = tuple  # sorted tuple of Keys; () is the constant monomial
Poly = dict  # Mono -> int

EQ0, LE0, NE0 = "=0", "<=0", "!=0"


@lru_cache(maxsize=None)
def _rk(obj) -> str:
    """Deterministic sort key for nested frozen structures."""
    return repr(obj)


@lru_cache(maxsize=None)
def _key_closure(k) -> frozenset:
    """The key itself plus every key nested inside its opaque arguments."""
    if k[0] not in ("mod", "div"):
        return frozenset((k,))
    out = {k}
    for fp in (k[1], k[2]):
        for m, _ in fp:
            for kk in m:
                out |= _key_closure(kk)
    return frozenset(out)


def poly_key_set(p: Poly) -> frozenset:
    out: set = set()
    for m in p:
        for k in m:
            out |= _key_closure(k)
    return frozenset(out)


def pconst(c: int) -> Poly:
    return {(): c} if c else {}


def pvar(key: Key) -> Poly:
    return {(key,): 1}


def padd(p: Poly, q: Poly) -> Poly:
    out = dict(p)
    for m, c in q.items():
        nc = out.get(m, 0) + c
        if nc:
            out[m] = nc
        else:
            out.pop(m, None)
    return out


def pneg(p: Poly) -> Poly:
    return {m: -c for m, c in p.items()}


def psub(p: Poly, q: Poly) -> Poly:
    return padd(p, pneg(q))


def pscale(p: Poly, k: int) -> Poly:
    return {m: c * k for m, c in p.items()} if k else {}


def pmul(p: Poly, q: Poly) -> Poly:
    out: Poly = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            m = tuple(sorted(m1 + m2))
            nc = out.get(m, 0) + c1 * c2
            if nc:
                out[m] = nc
            else:
                out.pop(m, None)
    return out


def freeze(p: Poly) -> tuple:
    return tuple(sorted(p.items()))


def thaw(fp: tuple) -> Poly:
    return dict(fp)


def const_of(p: Poly) -> int:
    return p.get((), 0)


def is_const(p: Poly) -> bool:
    return all(m == () for m in p)


def subst_poly(p: Poly, key: Key, by: Poly) -> Poly:
    """Replace `key` by a polynomial everywhere: in products, and inside opaque
    div/mod arguments (which re-evaluate when they become constant)."""
    out: Poly = {}
    for m, c in p.items():
        acc: Poly = {(): c}
        for k in m:
            acc = pmul(acc, _key_value(k, key, by))
        out = padd(out, acc)
    return out


def _key_value(k: Key, key: Key, by: Poly) -> Poly:
    if k == key:
        return by
    if k[0] in ("mod", "div"):
        if key not in _key_closure(k):
            return pvar(k)
        return pdivmod(k[0], subst_poly(thaw(k[1]), key, by), subst_poly(thaw(k[2]), key, by))
    return pvar(k)


def pdivmod(op: str, a: Poly, b: Poly) -> Poly:
    """`a div b` or `a mod b`: a constant when both are, else an opaque key."""
    if is_const(a) and is_const(b):
        return pconst(ARITH_OPS[op](const_of(a), const_of(b)))
    return pvar((op, freeze(a), freeze(b)))


# SMT-LIB integer division: the remainder lies in [0, |b|).  By convention
# a div 0 = 0 and a mod 0 = a.


def euclid_div(a: int, b: int) -> int:
    if b == 0:
        return 0
    return a // b if b > 0 else -(a // -b)


def euclid_mod(a: int, b: int) -> int:
    if b == 0:
        return a
    return a - b * euclid_div(a, b)


# What the Int operators compute: the package's one definition.  The
# solver's model search and polynomials read it, and so do the frontend's
# builtin signature, constant folding and the ground oracle.
ARITH_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "div": euclid_div, "mod": euclid_mod}


def _floor_div(a: int, b: int) -> int:
    return a // b  # python floor division, b > 0 at all call sites


def _ceil_div(a: int, b: int) -> int:
    return -((-a) // b)  # b > 0 at all call sites


def normalize_le(p: Poly) -> Poly | None:
    """Canonical form of p <= 0 with gcd tightening; None if trivially true."""
    if not p:
        return None
    coeffs = [c for m, c in p.items() if m != ()]
    if not coeffs:
        return p if const_of(p) > 0 else None  # constant: contradiction marker or trivial
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    c0 = const_of(p)
    if g > 1:
        # sum(a_m * m) <= -c0 tightens to sum(a_m/g * m) <= floor(-c0/g)
        out = {m: c // g for m, c in p.items() if m != ()}
        bound = _floor_div(-c0, g)
        if bound:
            out[()] = -bound
        return out
    return p


def normalize_eq(p: Poly) -> tuple[Poly | None, bool]:
    """Canonical form of p = 0; returns (poly, unsat_flag)."""
    if not p:
        return None, False
    coeffs = [c for m, c in p.items() if m != ()]
    c0 = const_of(p)
    if not coeffs:
        return None, c0 != 0
    g = 0
    for c in coeffs:
        g = gcd(g, abs(c))
    if g and c0 % g != 0:
        return p, True  # gcd of the unknowns cannot divide the constant
    if g > 1:
        p = {m: c // g for m, c in p.items()}
    # Orient deterministically: leading coefficient positive.
    lead = min((m for m in p if m != ()), default=None)
    if lead is not None and p[lead] < 0:
        p = pneg(p)
    return p, False


class Core:
    """A conjunction of integer constraints with saturation-based refutation.

    `add` and `add_bool` assert a fact and close the core at once when it
    clashes with the indexed facts (p <= 0 against the largest constant
    kept for -p, p = 0 against p != 0, a boolean against its other value);
    the solver probes literals by asserting them into a `clone`.
    `saturate` derives more at a price in steps.  The indexes are read only
    here: the solver asks `holds`, and takes its case splits from
    `sign_splits` and `ne_split` as copies made by `branch`."""

    def __init__(self, budget=None):
        self.les: set[tuple] = set()  # frozen polys, p <= 0
        self.eqs: set[tuple] = set()  # frozen polys, p = 0
        self.nes: set[tuple] = set()  # frozen polys, p != 0
        self.bools: dict[str, bool] = {}
        self.defs: list[tuple[Key, tuple]] = []  # triangular: key := frozen poly
        self.le_best: dict[tuple, int] = {}  # nonconst part -> largest const
        self.closed = False
        self.axiomatized: set[Key] = set()
        self.budget = budget

    def clone(self) -> "Core":
        c = Core(self.budget)
        c.les = set(self.les)
        c.eqs = set(self.eqs)
        c.nes = set(self.nes)
        c.bools = dict(self.bools)
        c.defs = list(self.defs)
        c.le_best = dict(self.le_best)
        c.closed = self.closed
        c.axiomatized = set(self.axiomatized)
        return c

    def spend(self, n: int = 1) -> bool:
        return self.budget is not None and self.budget.spend(n)

    def stopped(self) -> bool:
        """Closed, or out of budget."""
        return self.closed or (self.budget is not None and self.budget.spent)

    # -- assertion ---------------------------------------------------------------

    def add_bool(self, name: str, value: bool):
        if self.bools.get(name, value) != value:
            self.closed = True
        self.bools[name] = value

    def apply_defs(self, p: Poly) -> Poly:
        keys = None
        for key, fby in self.defs:
            if keys is None:
                keys = poly_key_set(p)
            if key not in keys:
                continue
            p = subst_poly(p, key, thaw(fby))
            keys = None  # substitution may expose keys for later definitions
        return p

    def add(self, p: Poly, rel: str):
        if self.closed:
            return
        p = self.apply_defs(p)
        if rel == LE0:
            np = normalize_le(p)
            if np is None:
                return
            if is_const(np):
                if const_of(np) > 0:
                    self.closed = True
                return
            fp = freeze(np)
            if fp in self.les:
                return
            self.les.add(fp)
            if self._index_le({m: v for m, v in np.items() if m != ()}, const_of(np)):
                self.add(np, EQ0)
        elif rel == EQ0:
            np, bad = normalize_eq(p)
            if bad:
                self.closed = True
                return
            if np is None:
                return
            fp = freeze(np)
            if fp in self.nes:
                self.closed = True
                return
            self.eqs.add(fp)
            # p = 0 is p <= 0 and -p <= 0.
            nc = {m: v for m, v in np.items() if m != ()}
            self._index_le(nc, const_of(np))
            self._index_le(pneg(nc), -const_of(np))
        elif rel == NE0:
            np, bad = normalize_eq(p)
            if bad:
                return  # p = 0 has no integer solution
            if np is None:
                self.closed = True  # 0 != 0
                return
            fp = freeze(np)
            if fp in self.eqs:
                self.closed = True
                return
            self.nes.add(fp)
        else:
            raise ValueError(rel)

    def _index_le(self, nc: Poly, c0: int) -> bool:
        """Enters nc + c0 <= 0 into the complement index, which keeps the
        largest constant per non-constant part, and checks it against the
        complement -nc + c <= 0 kept there.  The two close the core when
        c0 + c > 0; when c0 + c = 0 they imply nc + c0 = 0, and the answer
        is True."""
        key = freeze(nc)
        if c0 > self.le_best.get(key, c0 - 1):
            self.le_best[key] = c0
        comp = self.le_best.get(freeze(pneg(nc)))
        if comp is None:
            return False
        if c0 + comp > 0:
            self.closed = True
        return c0 + comp == 0

    def holds(self, p: Poly, rel: str) -> bool:
        """Whether p rel 0 holds by the definitions alone."""
        p = self.apply_defs(p)
        if rel == LE0:
            return normalize_le(p) is None
        if rel == EQ0:
            return normalize_eq(p) == (None, False)
        return is_const(p) and const_of(p) != 0

    def holds_bool(self, name: str, value: bool) -> bool:
        return self.bools.get(name) == value

    # -- case splits ---------------------------------------------------------------

    def branch(self, p: Poly, rel: str, drop: tuple | None = None) -> "Core":
        """A copy of the core with p rel 0 asserted, without the disequality
        `drop` (frozen, as `ne_split` gives it)."""
        c = self.clone()
        c.nes.discard(drop)
        c.add(p, rel)
        return c

    def sign_splits(self) -> Iterator[list[tuple[Poly, str]]]:
        """For each factor k of a product whose sign the bounds leave open,
        in a pinned order, its cases k <= 0, k = 1 and k >= 2 as (p, rel)
        pairs."""
        bounds = self.bounds()
        for m in sorted(self._monos(), key=lambda x: (len(x), repr(x))):
            if len(m) < 2:
                continue
            for k in m:
                lo, hi = bounds.get((k,), (None, None))
                if lo is not None and (lo >= 2 or (lo >= 0 and hi is not None and hi <= 1)):
                    continue
                if hi is not None and hi <= 0:
                    continue
                kp = pvar(k)
                yield [(kp, LE0), (psub(kp, pconst(1)), EQ0), (psub(pconst(2), kp), LE0)]

    def ne_split(self) -> tuple[tuple, list[Poly]] | None:
        """The first disequality p != 0 in a pinned order, frozen, with the
        polynomials q of its cases q <= 0: p <= -1 and p >= 1.  None when
        there is none."""
        if not self.nes:
            return None
        ne = min(self.nes, key=repr)
        p = thaw(ne)
        return ne, [padd(p, pconst(1)), padd(pneg(p), pconst(1))]

    # -- saturation ----------------------------------------------------------------

    def saturate(self):
        """Closes the core under div/mod axioms, elimination, bounds,
        envelopes and Fourier-Motzkin, for at most six rounds.  Each phase
        is charged by the constraints it visits or the pairs it combines and
        stops once the budget is spent; stopping early only derives less."""
        for _ in range(6):
            if self.closed or self.spend(1 + len(self.les) + len(self.eqs) + len(self.nes)):
                return
            before = (len(self.les), len(self.eqs), len(self.nes))
            self._divmod_axioms(self.bounds())
            self._gauss()
            if self.stopped():
                return
            b = self.bounds()
            self._persist_bounds(b)
            self._envelopes(b)
            if self.stopped():
                return
            self._fourier_motzkin()
            if self.stopped():
                return
            if (len(self.les), len(self.eqs), len(self.nes)) == before:
                return

    def _persist_bounds(self, bounds: dict):
        # Derived interval bounds become indexed constraints so that cheap
        # probes see the transitive consequences.
        for m, (lo, hi) in sorted(bounds.items(), key=lambda kv: _rk(kv[0])):
            if self.closed:
                return
            if lo is not None:
                self.add({m: -1, (): lo}, LE0)
            if hi is not None:
                self.add({m: 1, (): -hi}, LE0)

    def all_keys(self) -> set:
        out: set = set()
        for fs in (self.les, self.eqs, self.nes):
            for fp in fs:
                out |= poly_key_set(thaw(fp))
        return out

    def _monos(self) -> set:
        out: set = set()
        for fs in (self.les, self.eqs, self.nes):
            for fp in fs:
                out |= {m for m, _ in fp if m != ()}
        return out

    def _eliminate(self, key: Key, by: Poly):
        self.defs.append((key, freeze(by)))
        self.le_best = {}
        for attr, rel in (("les", LE0), ("eqs", EQ0), ("nes", NE0)):
            olds = getattr(self, attr)
            setattr(self, attr, set())
            for fp in sorted(olds, key=_rk):
                self.add(subst_poly(thaw(fp), key, by), rel)
                if self.closed:
                    return

    def _gauss(self):
        # Solve equations for a key and eliminate it everywhere; the solved
        # definitions stay on a ledger so later assertions are rewritten too.
        for _ in range(24):
            if self.closed or self.spend():
                return
            done = False
            for fp in sorted(self.eqs, key=_rk):
                p = thaw(fp)
                for m in sorted((mm for mm in p if len(mm) == 1), key=_rk):
                    (key,) = m
                    if abs(p[m]) != 1:
                        continue  # fractional solutions would drop integrality
                    rest = {mm: c for mm, c in p.items() if mm != m}
                    if any(key in _deep_keys_of_mono(mm) for mm in rest):
                        continue  # the solution would mention the key itself
                    if self.spend(len(self.les) + len(self.eqs) + len(self.nes)):
                        return  # eliminating rewrites every constraint
                    by = pscale(rest, -p[m])
                    self.eqs.discard(fp)
                    self._eliminate(key, by)
                    done = True
                    break
                if done:
                    break
            if not done:
                return

    def bounds(self) -> dict:
        """Best derived [lo, hi] per monomial, with light interval propagation."""
        out: dict = {}

        def note(m, lo=None, hi=None):
            cl, ch = out.get(m, (None, None))
            changed = False
            if lo is not None and (cl is None or lo > cl):
                cl, changed = lo, True
            if hi is not None and (ch is None or hi < ch):
                ch, changed = hi, True
            out[m] = (cl, ch)
            return changed

        pairs = []
        for fp in sorted(self.les, key=_rk):
            p = thaw(fp)
            monos = [m for m in p if m != ()]
            if len(monos) == 1:
                m = monos[0]
                a, c = p[m], const_of(p)
                if a > 0:
                    note(m, hi=_floor_div(-c, a))
                else:
                    note(m, lo=_ceil_div(c, -a))
            elif len(monos) == 2:
                pairs.append((p, monos))
        for fp in sorted(self.eqs, key=_rk):
            p = thaw(fp)
            monos = [m for m in p if m != ()]
            if len(monos) == 1:
                m = monos[0]
                a, c = p[m], const_of(p)
                if c % a == 0:
                    v = -c // a
                    note(m, lo=v, hi=v)
                else:
                    self.closed = True
            elif len(monos) == 2:
                pairs.append((p, monos))
                pairs.append((pneg(p), monos))
        # Propagate through a*m1 + b*m2 + c <= 0 when one side has bounds.
        for _ in range(3):
            changed = False
            for p, monos in pairs:
                for m in monos:
                    (other,) = [x for x in monos if x != m]
                    a = p[m]
                    b = p[other]
                    olo, ohi = out.get(other, (None, None))
                    src = olo if b > 0 else ohi
                    if src is None:
                        continue
                    rhs_hi = -const_of(p) - b * src  # upper bound of a*m
                    if a > 0:
                        changed |= note(m, hi=_floor_div(rhs_hi, a))
                    else:
                        changed |= note(m, lo=_ceil_div(-rhs_hi, -a))
            if not changed:
                break
        # Interval products give bounds for composite monomials.
        for m in self._monos():
            if len(m) < 2:
                continue
            iv = _interval_mono(m, out)
            if iv != (None, None):
                note(m, lo=iv[0], hi=iv[1])
        for m, (lo, hi) in out.items():
            if lo is not None and hi is not None and lo > hi:
                self.closed = True
        return out

    def _divmod_axioms(self, bounds: dict):
        # Keys eliminated into definitions still carry their div/mod meaning:
        # the axiom instantiates through the definition when re-added.
        keys = self.all_keys()
        for k, fby in self.defs:
            keys.add(k)
            keys |= poly_key_set(thaw(fby))
        for key in sorted(keys, key=_rk):
            if key[0] not in ("mod", "div") or key in self.axiomatized:
                continue
            a, b = thaw(key[1]), thaw(key[2])
            blo, bhi = _poly_interval(b, bounds)
            if is_const(b):
                bc = const_of(b)
                if bc == 0:
                    continue
                blo = bhi = bc
            if not ((blo is not None and blo >= 1) or (bhi is not None and bhi <= -1)):
                continue  # divisor sign unknown: stay silent (mod/div at 0 is a free function)
            self.axiomatized.add(key)
            q = ("div", key[1], key[2])
            r = ("mod", key[1], key[2])
            qp, rp = pvar(q), pvar(r)
            self.add(psub(a, padd(pmul(b, qp), rp)), EQ0)  # a = b*q + r
            self.add(pneg(rp), LE0)  # 0 <= r
            babs = b if blo is not None and blo >= 1 else pneg(b)
            self.add(padd(psub(rp, babs), pconst(1)), LE0)  # r <= |b| - 1

    def _envelopes(self, bounds: dict):
        if self.closed:
            return
        for m in sorted(self._monos(), key=_rk):
            if len(m) < 2:
                continue
            if self.spend(len(m) - 1):
                return
            for cut in range(1, len(m)):
                x, y = m[:cut], m[cut:]
                xl, xu = bounds.get(x, (None, None))
                yl, yu = bounds.get(y, (None, None))
                if (xl, xu) == (None, None):
                    xl, xu = _interval_mono(x, bounds)
                if (yl, yu) == (None, None):
                    yl, yu = _interval_mono(y, bounds)
                mp, xp, yp = {m: 1}, {x: 1}, {y: 1}
                if xl is not None and yl is not None:
                    # (x - xl)(y - yl) >= 0
                    self.add(psub(padd(pscale(yp, xl), pscale(xp, yl)), padd(mp, pconst(xl * yl))), LE0)
                if xu is not None and yu is not None:
                    self.add(psub(padd(pscale(yp, xu), pscale(xp, yu)), padd(mp, pconst(xu * yu))), LE0)
                if xu is not None and yl is not None:
                    # (xu - x)(y - yl) >= 0  =>  m <= xu*y + yl*x - xu*yl
                    self.add(psub(padd(mp, pconst(xu * yl)), padd(pscale(yp, xu), pscale(xp, yl))), LE0)
                if xl is not None and yu is not None:
                    self.add(psub(padd(mp, pconst(xl * yu)), padd(pscale(yp, xl), pscale(xp, yu))), LE0)
            if self.closed:
                return

    def _fourier_motzkin(self):
        work = [thaw(fp) for fp in sorted(self.les, key=_rk)]
        for fp in sorted(self.eqs, key=_rk):
            p = thaw(fp)
            work.append(p)
            work.append(pneg(p))
        dims = set()
        for p in work:
            dims |= {m for m in p if m != ()}
        # Products go first: tightening while eliminating a product dimension is
        # where the integer-only contradictions surface.
        for dim in sorted(dims, key=lambda d: (-len(d), _rk(d))):
            uppers = [p for p in work if p.get(dim, 0) > 0]
            lowers = [p for p in work if p.get(dim, 0) < 0]
            rest = [p for p in work if dim not in p]
            pairs = len(uppers) * len(lowers)
            skip = pairs > 64 or len(rest) > 600
            if self.spend(1 if skip else 1 + pairs):
                return
            if skip:
                continue
            new = rest
            for up in uppers:
                for lo in lowers:
                    comb = padd(pscale(lo, up[dim]), pscale(up, -lo[dim]))
                    comb = normalize_le(comb)
                    if comb is None:
                        continue
                    if is_const(comb):
                        if const_of(comb) > 0:
                            self.closed = True
                            return
                        continue
                    new.append(comb)
                    # Persist small derived facts for the next saturation round.
                    if len([m for m in comb if m != ()]) <= 2:
                        self.add(comb, LE0)
            work = new
        for p in work:
            if is_const(p) and const_of(p) > 0:
                self.closed = True
                return


def _deep_keys_of_mono(m: Mono) -> set:
    out: set = set()
    for k in m:
        out |= _key_closure(k)
    return out


def _interval_mono(m: Mono, bounds: dict):
    iv = (1, 1)
    for k in m:
        kb = bounds.get((k,), (None, None))
        iv = _imul(iv, kb)
        if iv == (None, None):
            return iv
    return iv


def _poly_interval(p: Poly, bounds: dict):
    lo, hi = 0, 0
    for m, c in p.items():
        if m == ():
            lo = None if lo is None else lo + c
            hi = None if hi is None else hi + c
            continue
        ml, mh = bounds.get(m, _interval_mono(m, bounds))
        if c > 0:
            tl, th = ml, mh
        else:
            tl, th = mh, ml
        lo = None if (lo is None or tl is None) else lo + c * tl
        hi = None if (hi is None or th is None) else hi + c * th
    return lo, hi


def _imul(a, b):
    al, ah = a
    bl, bh = b
    if None not in (al, ah, bl, bh):
        cands = [al * bl, al * bh, ah * bl, ah * bh]
        return (min(cands), max(cands))
    # One-sided products survive only in sign-definite cases.
    if al is not None and al >= 0 and bl is not None and bl >= 0:
        hi = ah * bh if ah is not None and bh is not None else None
        return (al * bl, hi)
    if ah is not None and ah <= 0 and bh is not None and bh <= 0:
        return (ah * bh, None)
    return (None, None)
