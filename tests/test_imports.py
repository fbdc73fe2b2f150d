"""Every imported name is used: a stdlib-`ast` scan of `src/` and `tests/`."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _imported(tree: ast.Module) -> list[tuple[str, int]]:
    """(bound name, line) of every import in the module, at any depth."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [((a.asname or a.name).split(".")[0], node.lineno) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [(a.asname or a.name, node.lineno) for a in node.names if a.name != "*"]
    return out


def _annotations(tree: ast.Module):
    for node in ast.walk(tree):
        if isinstance(node, ast.arg) and node.annotation is not None:
            yield node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns is not None:
            yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _used(tree: ast.Module) -> set[str]:
    """Names the module reads: plain names, names inside string annotations,
    and the entries of `__all__`."""
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for ann in _annotations(tree):
        for node in ast.walk(ann):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                used |= _used(ast.parse(node.value, mode="eval"))
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= {e.value for e in node.value.elts}
    return used


def unused_imports(source: str) -> list[tuple[str, int]]:
    tree = ast.parse(source)
    used = _used(tree)
    return [(name, line) for name, line in _imported(tree) if name not in used]


def test_no_unused_imports():
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py")):
        for name, line in unused_imports(path.read_text(encoding="utf-8")):
            found.append(f"{path.relative_to(ROOT)}:{line}: {name}")
    assert not found, "imported but never used:\n" + "\n".join(found)


def test_the_scan_sees_what_it_must():
    source = '''
from __future__ import annotations
import os.path
from typing import Iterator
from .terms import Term, Var, Lit as L
__all__ = ["Var"]

def f(x: "Term") -> Iterator[int]:
    from .errors import Unused
    yield os.sep
'''
    assert unused_imports(source) == [("L", 5), ("Unused", 9)]
