"""S-expressions of the SMT-LIB 2 subset this solver accepts.

A form is a symbol (`str`), a numeral (`int`) or a tuple of forms: the same
nested tuples whether `parse_all` read them from text or a caller built them
in the process.  A bar-quoted symbol reads without its bars, and `unparse`
puts them back where the symbol needs them, so text and forms convert both
ways without loss.
"""

from __future__ import annotations

import re
from collections.abc import Iterable, Iterator


class SexprError(ValueError):
    pass


# Every match is a token, except a comment, which matches with an empty
# group; whitespace matches nothing and is skipped.  An opening | or " with
# no closer after it is a token of its own.
_TOKEN = re.compile(r';[^\n]*|([()]|[^ \t\r\n();|"][^ \t\r\n();|]*|\|[^|]*\||"[^"]*"|[|"])')
_UNTERMINATED = {"|": "unterminated |symbol|", '"': "unterminated string"}


def tokenize(text: str) -> list[str]:
    out = list(filter(None, _TOKEN.findall(text)))
    bad = [out.index(t) for t in _UNTERMINATED if t in out]
    if bad:
        raise SexprError(_UNTERMINATED[out[min(bad)]])
    return out


def parse_all(text: str) -> tuple:
    tokens = tokenize(text)
    pos = 0
    forms = []
    while pos < len(tokens):
        form, pos = _parse(tokens, pos)
        forms.append(form)
    return tuple(forms)


def read_forms(lines: Iterable[str]) -> Iterator:
    """The forms of a stream of text, each yielded as soon as the line that
    completes it has been read: `parse_all` for a reader that must answer a
    command before the next one is written."""
    text = ""
    for line in lines:
        text += line
        while (end := _form_end(text)) is not None:
            yield from parse_all(text[:end])
            text = text[end:]
    yield from parse_all(text)


def _form_end(text: str) -> int | None:
    """Where the first complete form of `text` ends; None while it has none."""
    depth = 0
    for match in _TOKEN.finditer(text):
        tok = match.group(1)
        if tok in _UNTERMINATED:
            return None  # a later line may close the quote
        if tok == "(":
            depth += 1
        elif tok:
            depth -= tok == ")"
            if depth <= 0:
                return match.end()
    return None


def _parse(tokens: list[str], pos: int):
    if pos >= len(tokens):
        raise SexprError("unexpected end of input")
    tok = tokens[pos]
    if tok == "(":
        pos += 1
        items = []
        while pos < len(tokens) and tokens[pos] != ")":
            item, pos = _parse(tokens, pos)
            items.append(item)
        if pos >= len(tokens):
            raise SexprError("missing )")
        return tuple(items), pos + 1
    if tok == ")":
        raise SexprError("unexpected )")
    return _atom(tok), pos + 1


# A numeral, or a negated one (a leniency: SMT-LIB writes `(- 5)`); every
# other token, `--5` or `²` included, is a symbol.
_NUMERAL = re.compile(r"-?[0-9]+")


def _atom(tok: str):
    if tok.startswith("|") and tok.endswith("|"):
        return tok[1:-1]
    if _NUMERAL.fullmatch(tok):
        return int(tok)
    return tok


# SMT-LIB 2.6 simple symbols: letters, digits and these punctuation
# characters, not starting with a digit.
_SIMPLE_SYMBOL = re.compile(r"[A-Za-z~!@$%^&*_+=<>.?/-][A-Za-z0-9~!@$%^&*_+=<>.?/-]*")


def symbol(name: str) -> str:
    """`name` written as an SMT-LIB symbol: bare if simple, else quoted in
    bars; also quoted when it would read as a numeral, as `-5` does here."""
    if _SIMPLE_SYMBOL.fullmatch(name) and not _NUMERAL.fullmatch(name):
        return name
    return f"|{name}|"


def unparse(form) -> str:
    """The SMT-LIB text of a form, which `parse_all` reads back as it is."""
    if isinstance(form, tuple):
        return "(" + " ".join(map(unparse, form)) + ")"
    if isinstance(form, int):
        return str(form)
    return symbol(form)
