"""Frontend for the rule-specification language.

A spec file declares sorts, symbols, and variables, the rewrite rules, and
the reachability goals.  Goals marked `prove` are the targets; `circ` goals
join them in the goal set usable by the circularity rule (and are proved
too).  An `options` section presets search parameters; command-line flags
override it.

    sorts Cfg;
    symbols
      init : Int -> Cfg;
      loop : Int Int -> Cfg;
      comp : -> Cfg;
    vars n : Int, i : Int, k : Int, u : Int;
    rules
      init(n) => loop(n, 2) if true;
      loop(i * k, i) => comp if 1 < k;
      loop(n, i) => loop(n, i + 1) if ~(exists k : Int . 1 < k /\\ n = i * k);
    prove init(n) /\\ (exists u : Int . 1 < u /\\ u < n /\\ n mod u = 0)
       => comp /\\ true;
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NamedTuple

from .errors import IllTyped, ParseError, ResolutionError, UnknownSort
from .formulas import (
    COMPARISONS,
    INFIX,
    JUNCTIONS,
    TERM_PREC,
    Atom,
    ConstrainedTerm,
    Eq,
    Exists,
    FalseF,
    Forall,
    Formula,
    Not,
    TRUE,
    pretty_constrained,
    pretty_formula,
    pretty_term,
)
from .rewriting import Lctrs, ReachabilityFormula, RewriteRule
from .signature import Signature
from .terms import App, BOOL, Lit, Sort, Term, Var

SECTION_KEYWORDS = {"sorts", "subsort", "symbols", "vars", "rules", "prove", "circ", "options"}
_LEVELS = sorted(set(TERM_PREC.values()))  # the infix precedences, loosest first
_CONNECTIVES = {symbol: (cls, prec, right) for cls, (prec, symbol, right) in INFIX.items()}

_TOKEN = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
      | (?P<int>\d+)
      | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op><->|->|=>|<=|>=|/\\|\\/|[-+*=<>~(),;:.])
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # int | ident | op | eof
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    """The tokens of `text` in one scan, closed by an `eof` token.  A column
    is the token's offset from the start of its line, so only whitespace and
    comments are searched for line ends."""
    out = []
    pos, line, line_start = 0, 1, 0
    for m in _TOKEN.finditer(text):
        start = m.start()
        if start != pos:
            break  # text[pos] starts no lexeme
        kind, lexeme = m.lastgroup, m.group()
        if kind == "ws":
            newline = lexeme.rfind("\n")
            if newline >= 0:
                line += lexeme.count("\n")
                line_start = start + newline + 1
        else:
            out.append(Token(kind, lexeme, line, start - line_start + 1))
        pos = m.end()
    if pos < len(text):
        raise ParseError(f"unexpected character {text[pos]!r}", line, pos - line_start + 1)
    out.append(Token("eof", "", line, pos - line_start + 1))
    return out


@dataclass(frozen=True)
class GoalDecl:
    kind: str  # prove | circ
    formula: ReachabilityFormula
    split: tuple[Formula, Formula] | None = None


@dataclass
class SpecFile:
    signature: Signature
    system: Lctrs
    goals: list[GoalDecl]
    options: dict[str, int]

    def goal_set(self) -> list[ReachabilityFormula]:
        return [g.formula for g in self.goals]

    def splits(self) -> dict[int, tuple[Formula, Formula]]:
        return {i: g.split for i, g in enumerate(self.goals) if g.split is not None}


OPTION_KEYS = {"max-depth", "timeout-ms", "bound", "steps"}


class Parser:
    def __init__(self, text: str, sig: Signature | None = None):
        self.tokens = tokenize(text)
        self.last = len(self.tokens) - 1  # the eof token, which every peek past the end sees
        self.pos = 0
        self.sig = sig or Signature()
        self.goals: list[GoalDecl] = []
        self.rules: list[RewriteRule] = []
        self.options: dict[str, int] = {}
        self.scopes: list[dict[str, Var]] = []

    # -- token helpers ---------------------------------------------------------

    def peek(self, ahead: int = 0) -> Token:
        i = self.pos + ahead
        return self.tokens[i if i < self.last else self.last]

    def next(self) -> Token:
        tok = self.peek()
        self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text  # only the eof token has empty text

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return tok

    def expect_ident(self) -> Token:
        tok = self.next()
        if tok.kind != "ident":
            raise ParseError(f"expected an identifier, found {tok.text!r}", tok.line, tok.column)
        return tok

    def fail(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.column)

    # -- sections -------------------------------------------------------------------

    def parse(self) -> SpecFile:
        if self.peek().kind == "eof":
            raise self.fail("empty specification")
        while self.peek().kind != "eof":
            tok = self.peek()
            if tok.text == "sorts":
                self._sorts()
            elif tok.text == "subsort":
                self._subsort()
            elif tok.text == "symbols":
                self._symbols()
            elif tok.text == "vars":
                self._vars()
            elif tok.text == "rules":
                self._rules()
            elif tok.text in ("prove", "circ"):
                self._goal()
            elif tok.text == "options":
                self._options()
            else:
                raise self.fail(f"expected a section keyword, found {tok.text!r}")
        system = Lctrs(self.sig)
        for r in self.rules:
            system.add_rule(r)
        return SpecFile(self.sig, system, self.goals, self.options)

    def _sorts(self):
        self.next()
        while True:
            tok = self.expect_ident()
            if tok.text in self.sig.sorts:
                raise ParseError(f"sort {tok.text} already exists", tok.line, tok.column)
            self.sig.add_sort(tok.text)
            if self.at(","):
                self.next()
                continue
            break
        self.expect(";")

    def _subsort(self):
        self.next()
        sub = self.expect_ident()
        self.expect("<")
        sup = self.expect_ident()
        self.expect(";")
        try:
            self.sig.add_subsort(sub.text, sup.text)
        except UnknownSort as exc:
            raise ParseError(f"unknown sort {exc}", sub.line, sub.column)

    def _sort_ref(self) -> Sort:
        tok = self.expect_ident()
        if tok.text not in self.sig.sorts:
            raise ResolutionError(f"unknown sort {tok.text}", tok.line, tok.column)
        return self.sig.sorts[tok.text]

    def _symbols(self):
        self.next()
        while self.peek().kind == "ident" and self.peek().text not in SECTION_KEYWORDS:
            name = self.expect_ident()
            self.expect(":")
            args = []
            while self.peek().kind == "ident":
                args.append(self._sort_ref())
            self.expect("->")
            result = self._sort_ref()
            self.expect(";")
            self.sig.add_operation(name.text, args, result)

    def _vars(self):
        self.next()
        while True:
            name = self.expect_ident()
            self.expect(":")
            sort = self._sort_ref()
            if name.text in self.sig.variables:
                raise ParseError(f"variable {name.text} already declared", name.line, name.column)
            self.sig.add_variable(name.text, sort)
            if self.at(","):
                self.next()
                continue
            break
        self.expect(";")

    def _rules(self):
        self.next()
        while True:
            lhs = self.parse_term()
            self.expect("=>")
            rhs = self.parse_term()
            self.expect("if")
            guard = self.parse_formula()
            self.expect(";")
            self.rules.append(RewriteRule(lhs, rhs, guard))
            nxt = self.peek()
            if nxt.kind == "eof" or nxt.text in SECTION_KEYWORDS:
                break

    def _goal(self):
        kind = self.next().text
        lhs = self.parse_cterm()
        self.expect("=>")
        rhs = self.parse_cterm()
        split = None
        if self.at("cases"):
            self.next()
            f1 = self.parse_formula()
            self.expect(",")
            f2 = self.parse_formula()
            split = (f1, f2)
        self.expect(";")
        self.goals.append(GoalDecl(kind, ReachabilityFormula(lhs, rhs), split))

    def _options(self):
        self.next()
        while True:
            key = self.expect_ident()
            name = key.text
            while self.at("-") and self.peek(1).kind == "ident":
                self.next()
                name += "-" + self.expect_ident().text
            if name not in OPTION_KEYS:
                raise ParseError(f"unknown option {name}", key.line, key.column)
            if name in self.options:
                raise ParseError(f"option {name} given twice", key.line, key.column)
            self.expect("=")
            tok = self.next()
            if tok.kind != "int":
                raise ParseError(f"bad option value {tok.text!r}", tok.line, tok.column)
            self.options[name] = int(tok.text)
            if self.at(","):
                self.next()
                continue
            break
        self.expect(";")

    # -- terms ------------------------------------------------------------------------

    def parse_cterm(self) -> ConstrainedTerm:
        term = self.parse_term()
        self.expect("/\\")
        formula = self.parse_formula()
        return ConstrainedTerm(term, formula)

    def parse_term(self, level: int = 0) -> Term:
        """A term whose infix operators bind at least as tightly as
        `_LEVELS[level]`; each level associates to the left."""
        if level == len(_LEVELS):
            return self._unary()
        t = self.parse_term(level + 1)
        while TERM_PREC.get(self.peek().text) == _LEVELS[level]:
            op = self.next().text
            rhs = self.parse_term(level + 1)
            t = self._mk(op, (t, rhs))
        return t

    def _unary(self) -> Term:
        if self.at("-"):
            tok = self.next()
            inner = self._unary()
            if isinstance(inner, Lit) and isinstance(inner.value, int):
                return Lit(-inner.value)
            return self._mk("-", (inner,), tok)
        return self._primary()

    def _primary(self) -> Term:
        tok = self.peek()
        if tok.kind == "int":
            self.next()
            return Lit(int(tok.text))
        if tok.text == "true":
            self.next()
            return Lit(True)
        if tok.text == "false":
            self.next()
            return Lit(False)
        if tok.text == "(":
            self.next()
            t = self.parse_term()
            self.expect(")")
            return t
        if tok.kind == "ident":
            self.next()
            if self.at("("):
                self.next()
                args = []
                if not self.at(")"):
                    args.append(self.parse_term())
                    while self.at(","):
                        self.next()
                        args.append(self.parse_term())
                self.expect(")")
                return self._mk(tok.text, tuple(args), tok)
            return self._name(tok)
        raise ParseError(f"expected a term, found {tok.text!r}", tok.line, tok.column)

    def _mk(self, name: str, args: tuple, tok: Token | None = None) -> Term:
        tok = tok or self.peek()
        try:
            return self.sig.make_app(name, args)
        except IllTyped as exc:
            raise ResolutionError(str(exc), tok.line, tok.column)

    def _name(self, tok: Token) -> Term:
        for scope in reversed(self.scopes):
            if tok.text in scope:
                return scope[tok.text]
        if tok.text in self.sig.variables:
            return Var(tok.text, self.sig.variables[tok.text])
        for op in self.sig.overloads(tok.text):
            if op.arity == 0:
                return App(tok.text, (), op.result)
        raise ResolutionError(f"unknown identifier {tok.text}", tok.line, tok.column)

    # -- formulas ----------------------------------------------------------------------

    def parse_formula(self, prec: int = 0) -> Formula:
        """A formula whose connectives bind at least as tightly as `prec`, at
        the precedences of `INFIX`: a run of `/\\` or of `\\/` is one
        junction, `->` nests to the right and `<->` to the left."""
        f = self._neg()
        while (infix := _CONNECTIVES.get(self.peek().text)) is not None and infix[1] >= prec:
            cls, p, right = infix
            symbol = self.next().text
            parts = [f, self.parse_formula(p if right else p + 1)]
            while cls in JUNCTIONS and self.at(symbol):
                self.next()
                parts.append(self.parse_formula(p + 1))
            f = cls(tuple(parts)) if cls in JUNCTIONS else cls(*parts)
        return f

    def _neg(self) -> Formula:
        if self.at("~"):
            self.next()
            return Not(self._neg())
        if self.peek().text in ("exists", "forall"):
            return self._quantifier()
        return self._atom()

    def _quantifier(self) -> Formula:
        kw = self.next().text
        bound = []
        names = set()
        while True:
            name = self.expect_ident()
            if name.text in names:
                raise ParseError(f"duplicate bound variable {name.text}", name.line, name.column)
            names.add(name.text)
            self.expect(":")
            sort = self._sort_ref()
            bound.append(Var(name.text, sort))
            if self.at(","):
                self.next()
                continue
            break
        self.expect(".")
        self.scopes.append({v.name: v for v in bound})
        try:
            body = self.parse_formula()
        finally:
            self.scopes.pop()
        cls = Exists if kw == "exists" else Forall
        return cls(tuple(bound), body)

    def _atom(self) -> Formula:
        tok = self.peek()
        if tok.text == "true" and self.peek(1).text not in COMPARISONS:
            self.next()
            return TRUE
        if tok.text == "false" and self.peek(1).text not in COMPARISONS:
            self.next()
            return FalseF()
        if tok.text == "(":
            # A parenthesis opens either a formula or an arithmetic term;
            # try the formula reading first and fall back on failure.
            saved = self.pos
            try:
                self.next()
                f = self.parse_formula()
                self.expect(")")
                if self.peek().text in TERM_PREC or self.peek().text in COMPARISONS:
                    raise self.fail("parenthesized term")
                return f
            except ParseError:
                self.pos = saved
        lhs = self.parse_term()
        op = self.peek().text
        if op in COMPARISONS:
            self.next()
            rhs = self.parse_term()
            if op == "=":
                ls, rs = lhs.sort, rhs.sort
                if ls.builtin != rs.builtin:
                    raise ParseError(f"equation between {ls.name} and {rs.name}", tok.line, tok.column)
                return Eq(lhs, rhs)
            return Atom(self._mk(op, (lhs, rhs), tok))
        if lhs.sort == BOOL:
            if isinstance(lhs, Lit):
                return TRUE if lhs.value else FalseF()
            return Atom(lhs)
        raise ParseError("expected a comparison or a boolean term", tok.line, tok.column)


def parse_spec(text: str) -> SpecFile:
    return Parser(text).parse()


def parse_cterm_in(spec: SpecFile, text: str) -> ConstrainedTerm:
    """Parse a constrained term against an already-loaded specification."""
    p = Parser(text, spec.signature)
    ct = p.parse_cterm()
    tok = p.peek()
    if tok.kind != "eof":
        raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.column)
    return ct


# -- printing -----------------------------------------------------------------------


def render_spec(spec: SpecFile) -> str:
    sig = spec.signature
    out = []
    sorts = [name for name, sort in sig.sorts.items() if not sort.builtin]
    if sorts:
        out.append("sorts " + ", ".join(sorts) + ";")
    for sub, sup in sorted(sig.subsort_pairs):
        out.append(f"subsort {sub} < {sup};")
    symbols = [op for op in sig.operations if not op.builtin]
    if symbols:
        out.append("symbols")
        for op in symbols:
            arglist = "".join(" " + a.name for a in op.arg_sorts)
            out.append(f"  {op.name} :{arglist} -> {op.result.name};")
    if sig.variables:
        out.append("vars " + ", ".join(f"{n} : {s.name}" for n, s in sig.variables.items()) + ";")
    if spec.system.rules:
        out.append("rules")
        for r in spec.system.rules:
            out.append(
                f"  {pretty_term(r.lhs)} => {pretty_term(r.rhs)} if {pretty_formula(r.guard)};"
            )
    for g in spec.goals:
        line = f"{g.kind} {pretty_constrained(g.formula.lhs)} => {pretty_constrained(g.formula.rhs)}"
        if g.split:
            line += f" cases {pretty_formula(g.split[0])}, {pretty_formula(g.split[1])}"
        out.append(line + ";")
    if spec.options:
        out.append(f"options {', '.join(f'{k} = {v}' for k, v in spec.options.items())};")
    return "\n".join(out) + "\n"
