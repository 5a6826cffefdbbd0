"""Every name a module under ``src/`` imports is read somewhere.

An import that nothing reads costs an import-time lookup and tells a
reader the module depends on something it does not use.  Deletions
leave such imports behind, so this walks every module (package
``__init__`` files excepted: they import to re-export) with ``ast``.

A name imported inside a function must be read inside that function; a
module-level import may be read anywhere in the module.  A name counts
as read when it is loaded as a variable, appears in a string annotation,
or is listed in the module's ``__all__``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterator, List, Set, Tuple

SRC = Path(__file__).resolve().parents[1] / "src"

_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _bound_names(node: ast.AST) -> Iterator[str]:
    """The local names an ``import`` / ``from ... import`` statement binds."""
    if isinstance(node, ast.ImportFrom) and node.module == "__future__":
        return
    for alias in node.names:
        if alias.name == "*":
            continue
        yield alias.asname or alias.name.split(".")[0]


def _annotation_names(annotation: ast.AST) -> Iterator[str]:
    """Names read by an annotation, including quoted forward references."""
    for node in ast.walk(annotation):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            for inner in ast.walk(parsed):
                if isinstance(inner, ast.Name):
                    yield inner.id


def _reads(scope: ast.AST) -> Set[str]:
    names: Set[str] = set()
    for node in ast.walk(scope):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        annotations = []
        if isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for annotation in annotations:
            names.update(_annotation_names(annotation))
    return names


def _exported(tree: ast.Module) -> Set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__"
                for t in node.targets):
            return {element.value for element in node.value.elts
                    if isinstance(element, ast.Constant)}
    return set()


def _unused(tree: ast.Module) -> List[Tuple[int, str]]:
    """``(line, name)`` for each imported name its scope never reads."""
    module_reads = _reads(tree) | _exported(tree)
    unused: List[Tuple[int, str]] = []

    def visit(node: ast.AST, scope_reads: Set[str]) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.Import, ast.ImportFrom)):
                unused.extend((child.lineno, name)
                              for name in _bound_names(child)
                              if name not in scope_reads)
            elif isinstance(child, _SCOPES):
                visit(child, _reads(child))
            else:
                visit(child, scope_reads)

    visit(tree, module_reads)
    return unused


def test_scanner_flags_an_unread_import_in_its_own_scope():
    tree = ast.parse(
        "import os\n"
        "from typing import List, Optional\n"
        "def f(x: 'Optional[int]'):\n"
        "    from json import dumps, loads\n"
        "    return dumps(x)\n"
        "def g():\n"
        "    return loads\n")
    assert _unused(tree) == [(1, "os"), (2, "List"), (4, "loads")]


def test_no_module_under_src_imports_a_name_it_never_reads():
    found = []
    for path in sorted(SRC.rglob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        found.extend(f"{path.relative_to(SRC)}:{line}: {name}"
                     for line, name in _unused(tree))
    assert not found, "\n".join(found)
