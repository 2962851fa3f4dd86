"""Every name a module under ``src/aisoc`` imports is used in that module,
and none is another module's private (underscore-prefixed) name.

No linter ships with the project, so this scan stands in for pyflakes'
F401 with the standard library's ``ast``. A name counts as used when it
appears as a name or an attribute root anywhere in the module, inside a
quoted annotation, or as a string in the module's ``__all__``. An import
line marked ``# noqa: F401`` is exempt, as it is for the linters. The
private-import scan has no exemptions: a rule that two modules share is
a public name of the module that states it.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "aisoc"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Each name the module binds by an import, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def annotation_names(tree: ast.Module) -> set[str]:
    """Names inside annotations written as strings."""
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = node.args
            annotations += [a.annotation for a in (*args.posonlyargs, *args.args,
                                                   *args.kwonlyargs, args.vararg, args.kwarg)
                            if a is not None]
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    names = set()
    for annotation in annotations:
        for node in ast.walk(annotation) if annotation is not None else ():
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                names |= {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                          if isinstance(n, ast.Name)}
    return names


def used_names(tree: ast.Module) -> set[str]:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return used | annotation_names(tree)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_every_name_it_imports(path):
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source)
    unused = {name: line for name, line in imported_names(tree, source.splitlines()).items()
              if name not in used_names(tree)}
    assert not unused, f"{path.relative_to(SRC)}: unused import(s) {unused}"


def test_the_scan_finds_an_unused_import():
    tree = ast.parse("import os\nimport sys  # noqa: F401\nfrom typing import Any, List\n"
                     "def f(x: 'List[int]'):\n    return x\n")
    lines = ["import os", "import sys  # noqa: F401", "from typing import Any, List"]
    unused = set(imported_names(tree, lines)) - used_names(tree)
    assert unused == {"os", "Any"}


def private_imports(tree: ast.Module) -> dict[str, int]:
    """Each underscore-prefixed (not dunder) name or module path part the
    module imports, with its line number."""
    def private(part: str) -> bool:
        return part.startswith("_") and not (part.startswith("__") and part.endswith("__"))

    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            paths = [f"{node.module}.{alias.name}" if node.module else alias.name
                     for alias in node.names]
        else:
            continue
        found.update((path, node.lineno) for path in paths
                     if any(private(part) for part in path.split(".")))
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_imports_no_private_name(path):
    private = private_imports(ast.parse(path.read_text(encoding="utf-8")))
    assert not private, f"{path.relative_to(SRC)}: private import(s) {private}"


def test_the_scan_finds_a_private_import():
    tree = ast.parse("from __future__ import annotations\nimport os._path, sys\n"
                     "from .errors import excerpt, _excerpt\nfrom ._impl import run\n"
                     "from . import __version__, _state\n")
    assert private_imports(tree) == {"os._path": 2, "errors._excerpt": 3, "_impl.run": 4,
                                     "_state": 5}
