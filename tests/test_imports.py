"""Every imported name is used, and every name `src/` defines at module
level is read somewhere: stdlib-`ast` scans of the repository."""

import ast
import re
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


# -- module-level names that nothing reads ----------------------------------------

# A string that spells a dotted name, such as "coreach.oracle:enumerate_instances".
_DOTTED = re.compile(r"[A-Za-z_][\w.]*(:[A-Za-z_][\w.]*)?")


def _defined(tree: ast.Module) -> list[tuple[str, int]]:
    """(name, line) of every module-level function, class and assigned name,
    dunder names left out."""
    out = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            out.append((node.name, node.lineno))
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            out += [(n.id, node.lineno) for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    return [(name, line) for name, line in out if not (name.startswith("__") and name.endswith("__"))]


def _reads(tree: ast.Module) -> set[str]:
    """Names a module reads: loaded names, attributes, imported names, and
    every part of a string that spells a dotted name."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out |= {a.name for a in node.names}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and _DOTTED.fullmatch(node.value):
            out |= set(re.findall(r"\w+", node.value))
    return out


def unread_names(defining: dict[str, str], reading: list[str]) -> list[tuple[str, str, int]]:
    """(module, name, line) of every module-level name in the `defining`
    sources (module -> text) that none of the `reading` sources reads."""
    read: set[str] = set()
    for source in reading:
        read |= _reads(ast.parse(source))
    return [
        (module, name, line)
        for module, source in defining.items()
        for name, line in _defined(ast.parse(source))
        if name not in read
    ]


def test_no_unread_module_level_names():
    paths = [p for d in ("src", "tests", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))]
    texts = {str(p.relative_to(ROOT)): p.read_text(encoding="utf-8") for p in paths}
    defining = {m: text for m, text in texts.items() if m.startswith("src")}
    found = [f"{m}:{line}: {name}" for m, name, line in unread_names(defining, list(texts.values()))]
    assert not found, "defined but never read:\n" + "\n".join(found)


def test_the_unread_scan_sees_what_it_must():
    module = """
import os
__all__ = ["used_by_all"]
CONST, (PAIR_A, PAIR_B) = 1, (2, 3)
TABLE: dict = {}
TARGET = "x"
def used_by_all(): ...
def used_by_name(): ...
def used_as_attribute(): ...
def used_by_string(): ...
def used_by_import(): ...
def recursive(): recursive()
def dead(): TABLE[0] = used_by_name
class Dead: ...
"""
    reader = """
from pkg.mod import used_by_import as alias
import pkg.mod
pkg.mod.used_as_attribute()
ENTRY = "pkg.mod:used_by_string"
x = PAIR_A
TARGET = 2
"""
    found = [name for _, name, _ in unread_names({"mod": module}, [module, reader])]
    assert found == ["CONST", "PAIR_B", "TARGET", "dead", "Dead"]
