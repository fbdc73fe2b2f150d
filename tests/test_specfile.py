"""Frontend: lexing, parsing, resolution, and the parse/print round trip."""

from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from coreach.errors import ParseError, ResolutionError
from coreach.formulas import And, Atom, Exists, Iff, Implies, Not, Or, TrueF, pretty_formula
from coreach.specfile import _TOKEN, parse_cterm_in, parse_spec, render_spec, tokenize
from coreach.terms import BOOL, Var

COMPOSITENESS = Path("systems/compositeness.lrw").read_text()
SPEC_PATHS = sorted(Path("systems").glob("*.lrw")) + sorted(Path("tests/specs").glob("*.lrw"))


def test_three_rules_with_expected_guards():
    spec = parse_spec(COMPOSITENESS)
    rules = spec.system.rules
    assert len(rules) == 3
    assert isinstance(rules[0].guard, TrueF)
    assert pretty_formula(rules[1].guard) == "1 < k"
    assert isinstance(rules[2].guard, Not)
    assert isinstance(rules[2].guard.body, Exists)


def test_goal_parses_to_reachability_formula():
    spec = parse_spec(COMPOSITENESS)
    goals = spec.goals
    assert [g.kind for g in goals] == ["prove", "circ"]
    lhs = goals[0].formula.lhs
    assert pretty_formula(lhs.constraint) == "exists u : Int . 1 < u /\\ u < n /\\ n mod u = 0"
    assert goals[0].formula.rhs.term.symbol == "comp"


def test_empty_file_is_an_error():
    with pytest.raises(ParseError):
        parse_spec("")


def test_unknown_identifier_is_resolution_error():
    text = "sorts Cfg;\nsymbols c : -> Cfg;\nrules c => mystery if true;\nprove c /\\ true => c /\\ true;"
    with pytest.raises(ResolutionError):
        parse_spec(text)


def test_fresh_suffix_is_unlexable():
    with pytest.raises(ParseError):
        parse_spec("sorts Cfg;\nvars n#1 : Int;")


def test_duplicate_variable_rejected():
    with pytest.raises(ParseError):
        parse_spec("sorts Cfg;\nvars n : Int, n : Int;")


def test_one_name_at_two_sorts_rejected():
    text = "sorts A, B;\nsymbols a : -> A;\nvars x : A, x : B;"
    with pytest.raises(ParseError):
        parse_spec(text)


def test_arith_precedence_and_parens():
    text = (
        "sorts Cfg;\nsymbols f : Int -> Cfg;\nvars a : Int, b : Int;\n"
        "rules f(a) => f(a + b * 2 - 1) if (a + 1) * 2 <= b;\n"
        "prove f(a) /\\ true => f(a) /\\ true;"
    )
    spec = parse_spec(text)
    rhs = spec.system.rules[0].rhs
    assert pretty_formula(spec.system.rules[0].guard) == "(a + 1) * 2 <= b"
    from coreach.formulas import pretty_term

    assert pretty_term(rhs) == "f(a + b * 2 - 1)"


def test_quantifier_body_extends_right():
    text = (
        "sorts Cfg;\nsymbols c : -> Cfg;\nvars n : Int;\n"
        "prove c /\\ (exists k : Int . k > 0 /\\ n = k) => c /\\ true;"
    )
    spec = parse_spec(text)
    constraint = spec.goals[0].formula.lhs.constraint
    assert isinstance(constraint, Exists)
    assert len(constraint.body.parts) == 2


def test_cases_annotation_and_options():
    text = (
        "sorts Cfg;\nsymbols c : -> Cfg;\nvars n : Int;\n"
        "prove c /\\ n >= 0 => c /\\ true cases n = 0, n > 0;\n"
        "options max-depth = 7;"
    )
    spec = parse_spec(text)
    assert spec.goals[0].split is not None
    assert spec.options == {"max-depth": 7}
    # a cases annotation is the opt-in; there is no switch for it
    with pytest.raises(ParseError, match="unknown option enable-disj"):
        parse_spec(text.replace("max-depth = 7", "max-depth = 7, enable-disj = on"))


@pytest.mark.parametrize(
    "options, line, column",
    [
        ("options max-depth = 3, max-depth = 4;", 3, 24),
        ("options max-depth = 3, bound = 2;\noptions steps = 9, max-depth = 4;", 4, 20),
    ],
    ids=["one-section", "across-sections"],
)
def test_an_option_key_is_given_once(options, line, column):
    # The second key is the error, as a second declaration of a sort or a
    # variable is; the last value does not silently win.
    with pytest.raises(ParseError, match="option max-depth given twice") as err:
        parse_spec("sorts Cfg;\nsymbols c : -> Cfg;\n" + options)
    assert (err.value.line, err.value.column) == (line, column)


def test_parse_cterm_in_context():
    spec = parse_spec(COMPOSITENESS)
    ct = parse_cterm_in(spec, "loop(n, 2) /\\ n > 0")
    assert ct.term.symbol == "loop"
    with pytest.raises(ParseError):
        parse_cterm_in(spec, "loop(n, 2) /\\ n > 0 trailing")


@pytest.mark.parametrize("path", SPEC_PATHS, ids=lambda p: p.stem)
def test_parse_print_roundtrip(path):
    spec = parse_spec(path.read_text())
    printed = render_spec(spec)
    again = parse_spec(printed)
    assert [(r.lhs, r.rhs, r.guard) for r in again.system.rules] == [
        (r.lhs, r.rhs, r.guard) for r in spec.system.rules
    ]
    assert [(g.kind, g.formula, g.split) for g in again.goals] == [
        (g.kind, g.formula, g.split) for g in spec.goals
    ]
    assert again.options == spec.options
    assert list(again.signature.sorts.items()) == list(spec.signature.sorts.items())
    assert again.signature.subsort_pairs == spec.signature.subsort_pairs
    assert again.signature.operations == spec.signature.operations
    assert list(again.signature.variables.items()) == list(spec.signature.variables.items())
    assert render_spec(again) == printed


CHAIN_SPEC = """
sorts S;
symbols st : -> S;
vars a : Bool, b : Bool, c : Bool;
prove st /\\ true => st /\\ true;
"""
A, B, C = (Atom(Var(name, BOOL)) for name in "abc")


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a -> b -> c", Implies(A, Implies(B, C))),
        ("a <-> b <-> c", Iff(Iff(A, B), C)),
        ("a /\\ b /\\ c", And((A, B, C))),
        ("a \\/ b /\\ c", Or((A, And((B, C))))),
        ("~a /\\ b", And((Not(A), B))),
        ("a \\/ b \\/ c -> a <-> b", Iff(Implies(Or((A, B, C)), A), B)),
    ],
    ids=["implies-right", "iff-left", "and-run", "and-under-or", "not-under-and", "mixed"],
)
def test_unparenthesized_chains_parse_as_documented(text, expected):
    spec = parse_spec(CHAIN_SPEC)
    assert parse_cterm_in(spec, f"st /\\ {text}").constraint == expected


ROUNDTRIP_SPEC = """
sorts S;
symbols st : Int Int -> S;
vars x : Int, y : Int, u : Int, b : Bool;
prove st(x, -3) /\\ true => st(x, y) /\\ true;
"""


def _roundtrip_formulas(mk):
    """Every connective in every operand position of every connective, over
    leaves with negative literals, unary minus and a Bool variable."""
    from coreach.formulas import Eq, Forall
    from coreach.terms import INT, Lit

    x, y, u, b = Var("x", INT), Var("y", INT), Var("u", INT), Var("b", BOOL)
    p = Atom(mk("<", (x, Lit(-3))))
    q = Eq(y, mk("-", (mk("-", (x,)), Lit(-2))))
    r = Atom(b)
    s = Atom(mk("<=", (mk("*", (Lit(-1), u)), mk("-", (mk("+", (x, u)),)))))
    unary = [Not, lambda f: Exists((u,), f), lambda f: Forall((u,), f)]
    binary = [
        lambda f, g: And((f, g)),
        lambda f, g: Or((f, g)),
        Implies,
        Iff,
        lambda f, g: And((p, f, g)),
        lambda f, g: Or((f, p, g)),
    ]
    inner = [op(s) for op in unary] + [op(q, r) for op in binary]
    out = [p, q, r, s]
    for f in inner:
        out += [op(f) for op in unary]
        out += [op(f, p) for op in binary] + [op(p, f) for op in binary]
    return out


def test_every_connective_roundtrips_through_the_printer():
    from coreach.formulas import ConstrainedTerm, pretty_constrained

    spec = parse_spec(ROUNDTRIP_SPEC)
    term = spec.goals[0].formula.lhs.term
    for f in _roundtrip_formulas(spec.signature.make_app):
        ct = ConstrainedTerm(term, f)
        text = pretty_constrained(ct)
        assert parse_cterm_in(spec, text) == ct, text


def _reference_tokenize(text):
    """One regex match per lexeme, counting lines and columns lexeme by
    lexeme: the tokenizer's specification."""
    out = []
    pos, line, col = 0, 1, 1
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        lexeme = m.group(0)
        if m.lastgroup != "ws":
            out.append((m.lastgroup, lexeme, line, col))
        newlines = lexeme.count("\n")
        if newlines:
            line += newlines
            col = len(lexeme) - lexeme.rfind("\n")
        else:
            col += len(lexeme)
        pos = m.end()
    out.append(("eof", "", line, col))
    return out


def _tokens_or_error(tokenizer, text):
    try:
        return [tuple(tok) for tok in tokenizer(text)]
    except ParseError as exc:
        return str(exc), exc.line, exc.column


TOKENIZER_TEXTS = {
    "crlf-tabs-trailing-comment": "sorts Cfg;\r\nsymbols\r\n\tc : -> Cfg;\r\n\t// no newline after this",
    "bad-character-after-comment": "sorts Cfg; // note\n\t  vars n#1 : Int;\n",
    "bad-character-first": "#",
    "bad-character-after-crlf": "sorts Cfg;\r\n  @",
    "comment-only": "// nothing here",
    "blank-lines": "\n\n  x\n\n",
    **{p.stem: p.read_text() for p in SPEC_PATHS},
}


@pytest.mark.parametrize("text", TOKENIZER_TEXTS.values(), ids=TOKENIZER_TEXTS.keys())
def test_tokens_and_errors_match_the_reference(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(_reference_tokenize, text)


@given(st.text(alphabet="ab1 \t\r\n/#(),;:.<>=-~\\", max_size=40))
def test_tokens_of_any_text_match_the_reference(text):
    assert _tokens_or_error(tokenize, text) == _tokens_or_error(_reference_tokenize, text)
