"""Every function, method and property of galehull has a caller in galehull.

Code that only the tests call belongs in the tests (conftest.py holds the
references and views that src/ does not use). A function counts as called
when its name is read anywhere in the package outside its own definition;
a method or property only when some attribute of that name is read. The
public names of galehull.__all__, the entry point main and the dunder
methods that Python calls itself need no caller.
"""

from __future__ import annotations

import ast
from pathlib import Path

import galehull

PACKAGE = Path(galehull.__file__).resolve().parent


def _definitions(tree: ast.Module):
    """(qualified name, name, is a method, first line, last line) of every
    function, method and property, nested ones included."""

    def walk(node, prefix: str, in_class: bool):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                yield from walk(child, f"{prefix}{child.name}.", True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield f"{prefix}{child.name}", child.name, in_class, child.lineno, child.end_lineno
                yield from walk(child, f"{prefix}{child.name}.", False)
            else:
                yield from walk(child, prefix, in_class)

    yield from walk(tree, "", False)


def _reads(tree: ast.Module):
    """(name, line, is an attribute) of every name and attribute read; a
    name imported under an alias is read where the alias is."""
    aliases = {
        a.asname: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.asname
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno, False
            if node.id in aliases:
                yield aliases[node.id], node.lineno, False
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno, True


def uncalled(package: Path) -> list[str]:
    """The definitions of the package's modules that nothing in it calls."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    reads: dict[str, list[tuple[str, int, bool]]] = {}  # name -> (module, line, is an attribute)
    for module, tree in trees.items():
        for name, line, attribute in _reads(tree):
            reads.setdefault(name, []).append((module, line, attribute))
    exempt = {*galehull.__all__, "main"}
    found = []
    for module, tree in trees.items():
        for qualname, name, method, first, last in _definitions(tree):
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            if not any(
                (attribute or not method) and not (other == module and first <= line <= last)
                for other, line, attribute in reads.get(name, ())
            ):
                found.append(f"{module}.{qualname}")
    return found


def test_every_function_method_and_property_has_a_caller_in_the_package():
    assert uncalled(PACKAGE) == []
