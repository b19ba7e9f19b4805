"""Every function, method and property of galehull has a caller in galehull.

Code that only the tests call belongs in the tests (conftest.py holds the
references and views that src/ does not use). A function counts as called
when its name is read anywhere in the package outside its own definition;
a method or property only when an attribute of that name is read on its
class. The receiver's class is resolved where the AST fixes it: self in a
method is the enclosing class, and a parameter annotated with a package
class (and not assigned in its function) is that class. A read on any
other receiver counts for every class. The public names of
galehull.__all__, the entry point main and the dunder methods that Python
calls itself need no caller.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Optional

import pytest

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


def _reads(tree: ast.Module, classes: set[str]):
    """(name, line, is an attribute, receiver class or None) of every name
    and attribute read; a name imported under an alias is read where the
    alias is."""
    aliases = {
        a.asname: a.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for a in node.names
        if a.asname
    }

    def walk(node, types: dict[str, str], in_class: Optional[str]):
        for child in ast.iter_child_nodes(node):
            inner, inner_class = types, None
            if isinstance(child, ast.ClassDef):
                inner_class = child.name
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = child.args
                params = [*a.posonlyargs, *a.args, *a.kwonlyargs]
                stored = {
                    n.id for n in ast.walk(child) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
                }
                inner = {k: c for k, c in types.items() if k not in {p.arg for p in params} | stored}
                for i, p in enumerate(params):
                    if in_class and i == 0 and p.arg == "self":
                        inner["self"] = in_class
                    elif isinstance(p.annotation, ast.Name) and p.annotation.id in classes:
                        if p.arg not in stored:
                            inner[p.arg] = p.annotation.id
            elif isinstance(child, ast.Name):
                yield child.id, child.lineno, False, None
                if child.id in aliases:
                    yield aliases[child.id], child.lineno, False, None
            elif isinstance(child, ast.Attribute):
                receiver = types.get(child.value.id) if isinstance(child.value, ast.Name) else None
                yield child.attr, child.lineno, True, receiver
            yield from walk(child, inner, inner_class)

    yield from walk(tree, {}, None)


def uncalled(package: Path) -> list[str]:
    """The definitions of the package's modules that nothing in it calls."""
    trees = {path.stem: ast.parse(path.read_text(), str(path)) for path in sorted(package.glob("*.py"))}
    bases = {  # class -> the names of its package bases
        node.name: {b.id for b in node.bases if isinstance(b, ast.Name)}
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
    }

    def lineage(cls: str) -> set[str]:
        return {cls}.union(*(lineage(b) for b in bases.get(cls, ()) if b in bases))

    # name -> (module, line, is an attribute, the classes a read reaches or None)
    reads: dict[str, list[tuple[str, int, bool, Optional[set[str]]]]] = {}
    for module, tree in trees.items():
        for name, line, attribute, receiver in _reads(tree, set(bases)):
            reaches = lineage(receiver) if receiver else None
            reads.setdefault(name, []).append((module, line, attribute, reaches))
    exempt = {*galehull.__all__, "main"}
    found = []
    for module, tree in trees.items():
        for qualname, name, method, first, last in _definitions(tree):
            if name in exempt or (name.startswith("__") and name.endswith("__")):
                continue
            owner = qualname.split(".")[-2] if method else None
            if not any(
                (attribute and (reaches is None or owner in reaches) or not method)
                and not (other == module and first <= line <= last)
                for other, line, attribute, reaches in reads.get(name, ())
            ):
                found.append(f"{module}.{qualname}")
    return found


def test_every_function_method_and_property_has_a_caller_in_the_package():
    assert uncalled(PACKAGE) == []


SHAPES = """
class Model:
    @property
    def ambient(self):
        return 2


class Diagram:
    @property
    def ambient(self):
        return 1

    @property
    def width(self):
        return 3

    def scale(self, model: Model):
        return model.ambient * self.width


def main(other):
    return Diagram().scale(Model()), {read}
"""


@pytest.mark.parametrize("read,found", [
    ("None", ["shapes.Diagram.ambient"]),  # model.ambient reaches Model only
    ("other.ambient", []),  # a receiver of no known class reaches both
])
def test_a_method_counts_only_reads_on_its_class(read, found, tmp_path):
    (tmp_path / "shapes.py").write_text(SHAPES.format(read=read))
    assert uncalled(tmp_path) == found
