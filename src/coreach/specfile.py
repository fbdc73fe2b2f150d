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

from .errors import IllTyped, ParseError, Redeclared, ResolutionError
from .formulas import (
    COMPARISONS,
    INFIX,
    JUNCTIONS,
    TERM_PREC,
    Atom,
    ConstrainedTerm,
    Eq,
    Exists,
    FALSE,
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

    def accept(self, text: str) -> bool:
        """Whether the next token is `text`, consumed if so."""
        if self.at(text):
            self.pos += 1
            return True
        return False

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

    def items(self, item, end: str) -> list:
        """`item, item, ... end`: one or more of what `item()` reads, `end` consumed."""
        out = [item()]
        while self.accept(","):
            out.append(item())
        self.expect(end)
        return out

    def _declare(self, add, name: Token, *args):
        """`add(name.text, *args)`, a declaration the signature refuses to
        repeat, with a refusal reported at `name`."""
        try:
            return add(name.text, *args)
        except Redeclared as exc:
            raise ParseError(str(exc), name.line, name.column) from None

    # -- sections -------------------------------------------------------------------

    def parse(self) -> SpecFile:
        if self.peek().kind == "eof":
            raise self.fail("empty specification")
        while self.peek().kind != "eof":
            section = SECTIONS.get(self.peek().text)
            if section is None:
                raise self.fail(f"expected a section keyword, found {self.peek().text!r}")
            section(self)
        system = Lctrs(self.sig)
        for r in self.rules:
            system.add_rule(r)
        return SpecFile(self.sig, system, self.goals, self.options)

    def _sorts(self):
        self.next()
        self.items(lambda: self._declare(self.sig.add_sort, self.expect_ident()), ";")

    def _subsort(self):
        self.next()
        sub = self._sort_ref()
        self.expect("<")
        sup = self._sort_ref()
        self.expect(";")
        self.sig.add_subsort(sub.name, sup.name)

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
            self._declare(self.sig.add_operation, name, args, result)

    def _binding(self) -> tuple[Token, Sort]:
        """`name : Sort`, a variable declaration or a quantifier binder."""
        name = self.expect_ident()
        self.expect(":")
        return name, self._sort_ref()

    def _vars(self):
        self.next()
        self.items(lambda: self._declare(self.sig.add_variable, *self._binding()), ";")

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
            if self.peek().kind == "eof" or self.peek().text in SECTION_KEYWORDS:
                break

    def _goal(self):
        kind = self.next().text
        lhs = self.parse_cterm()
        self.expect("=>")
        rhs = self.parse_cterm()
        split = None
        if self.accept("cases"):
            f1 = self.parse_formula()
            self.expect(",")
            split = (f1, self.parse_formula())
        self.expect(";")
        self.goals.append(GoalDecl(kind, ReachabilityFormula(lhs, rhs), split))

    def _options(self):
        self.next()
        self.items(self._option, ";")

    def _option(self):
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
        tok = self.next()
        if tok.kind == "int":
            return Lit(int(tok.text))
        if tok.text in ("true", "false"):
            return Lit(tok.text == "true")
        if tok.text == "(":
            t = self.parse_term()
            self.expect(")")
            return t
        if tok.kind == "ident":
            if self.accept("("):
                args = () if self.accept(")") else tuple(self.items(self.parse_term, ")"))
                return self._mk(tok.text, args, tok)
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
            while cls in JUNCTIONS and self.accept(symbol):
                parts.append(self.parse_formula(p + 1))
            f = cls(tuple(parts)) if cls in JUNCTIONS else cls(*parts)
        return f

    def _neg(self) -> Formula:
        if self.accept("~"):
            return Not(self._neg())
        if self.peek().text in ("exists", "forall"):
            return self._quantifier()
        return self._atom()

    def _quantifier(self) -> Formula:
        cls = Exists if self.next().text == "exists" else Forall
        scope: dict[str, Var] = {}

        def binder():
            name, sort = self._binding()
            if name.text in scope:
                raise ParseError(f"duplicate bound variable {name.text}", name.line, name.column)
            scope[name.text] = Var(name.text, sort)

        self.items(binder, ".")
        self.scopes.append(scope)
        try:
            body = self.parse_formula()
        finally:
            self.scopes.pop()
        return cls(tuple(scope.values()), body)

    def _atom(self) -> Formula:
        tok = self.peek()
        if tok.text in ("true", "false") and self.peek(1).text not in COMPARISONS:
            self.next()
            return TRUE if tok.text == "true" else FALSE
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
                return TRUE if lhs.value else FALSE
            return Atom(lhs)
        raise ParseError("expected a comparison or a boolean term", tok.line, tok.column)


# Each section keyword and the method that reads its section.
SECTIONS = {
    "sorts": Parser._sorts,
    "subsort": Parser._subsort,
    "symbols": Parser._symbols,
    "vars": Parser._vars,
    "rules": Parser._rules,
    "prove": Parser._goal,
    "circ": Parser._goal,
    "options": Parser._options,
}
SECTION_KEYWORDS = frozenset(SECTIONS)


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
        out.extend(f"  {op};" for op in symbols)
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
