"""A process loads only the stack its command runs.

Only ``aisoc serve`` needs the stdlib HTTP server, so ``service/http_api.py``
is the one module that imports it, and no module imports ``http_api`` at
module level: ``aisoc.service`` resolves ``serve`` and ``ScoringService``
on first access, and the CLI imports ``serve`` inside its ``serve`` command.
Loading an artifact and scoring with it call no ``np.unique``, whose first
call imports ``numpy.ma``. The static scan reads the source with ``ast``;
the guards run the paths in fresh interpreters and read ``sys.modules``.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import aisoc.service
from aisoc.service import save_artifact

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "aisoc"
MODULES = sorted(SRC.rglob("*.py"))
HTTP_STACK = ("http.server", "socketserver")
HTTP_MODULE = "service/http_api.py"


def module_level_imports(tree: ast.Module) -> dict[str, int]:
    """Each dotted path the module imports while it loads (outside any function
    body), with its first line number: ``from .a import b`` gives ``.a`` and
    ``.a.b``."""
    found: dict[str, int] = {}

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                paths = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                module = "." * child.level + (child.module or "")
                sep = "" if module.endswith(".") else "."
                paths = [module] + [f"{module}{sep}{alias.name}" for alias in child.names]
            else:
                visit(child)
                continue
            for path in paths:
                if path.strip("."):
                    found.setdefault(path, child.lineno)

    visit(tree)
    return found


def imports_of(found: dict[str, int], target: str) -> dict[str, int]:
    """The paths in ``found`` that load ``target`` (a dotted module path, or a
    module name matched as any part of the path when it has no dot)."""
    if "." in target:
        return {p: n for p, n in found.items() if p == target or p.startswith(target + ".")}
    return {p: n for p, n in found.items() if target in p.split(".")}


def http_api_imports(found: dict[str, int]) -> dict[str, int]:
    """The paths in ``found`` that load ``http_api``: by its module name, or by
    a name ``aisoc.service`` resolves from it."""
    return imports_of(found, "http_api") | {
        p: n for p, n in found.items()
        if p.split(".")[-2:] in (["service", "serve"], ["service", "ScoringService"])}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_only_http_api_loads_the_http_stack(path):
    found = module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    http = {} if path.relative_to(SRC).as_posix() == HTTP_MODULE else {
        p: n for target in HTTP_STACK for p, n in imports_of(found, target).items()}
    assert not http, f"{path.relative_to(SRC)}: HTTP stack imported at module level {http}"
    lazy = http_api_imports(found)
    assert not lazy, f"{path.relative_to(SRC)}: http_api imported at module level {lazy}"


def test_the_scan_finds_module_level_http_imports():
    tree = ast.parse("import http.server\nfrom socketserver import TCPServer\n"
                     "from http import client, server\nfrom .service import http_api\n"
                     "from .http_api import serve\nimport email.http_api_like\n"
                     "try:\n    import aisoc.service.http_api as h\nexcept ImportError:\n"
                     "    pass\n"
                     "class C:\n    from ..service.http_api import MAX_BODY_BYTES\n"
                     "from .service import ModelArtifact, serve\n"
                     "def f():\n    import socketserver\n    from . import http_api\n")
    found = module_level_imports(tree)
    assert {p: n for t in HTTP_STACK for p, n in imports_of(found, t).items()} == {
        "http.server": 1, "socketserver": 2, "socketserver.TCPServer": 2}
    assert http_api_imports(found) == {
        ".service.http_api": 4, ".http_api": 5, ".http_api.serve": 5,
        "aisoc.service.http_api": 8, "..service.http_api": 12,
        "..service.http_api.MAX_BODY_BYTES": 12, ".service.serve": 13}


def test_the_http_names_resolve_on_first_access():
    from aisoc.service import ScoringService, serve
    from aisoc.service import http_api

    assert (serve, ScoringService) == (http_api.serve, http_api.ScoringService)
    assert all(getattr(aisoc.service, name) is not None for name in aisoc.service.__all__)
    with pytest.raises(AttributeError, match="module 'aisoc.service' has no attribute 'nope'"):
        getattr(aisoc.service, "nope")


WATCHED = ("http.server", "socketserver", "aisoc.service.http_api", "numpy.ma")


def _loaded_after(code: str) -> dict:
    """Which ``WATCHED`` modules a fresh interpreter holds after running ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps([m in sys.modules for m in {WATCHED!r}]))"
    result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                            timeout=120, cwd=ROOT,
                            env={**os.environ, "PYTHONPATH": str(ROOT / "src")})
    assert result.returncode == 0, result.stderr
    return dict(zip(WATCHED, json.loads(result.stdout.splitlines()[-1])))


@pytest.fixture(scope="module")
def artifact(demo_result, tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("lazy") / "artifact.json"
    save_artifact(demo_result.artifact, path)
    return str(path)


@pytest.fixture(scope="module")
def numpy_loads_ma() -> bool:
    """Whether ``import numpy`` alone loads ``numpy.ma``: a numpy that does
    cannot fail the guards below."""
    return _loaded_after("import numpy")["numpy.ma"]


def test_batch_scoring_loads_neither_http_nor_numpy_ma(tmp_path, artifact, numpy_loads_ma):
    requests = tmp_path / "requests.ndjson"
    code = f"""
import aisoc, aisoc.cli
from aisoc.service import load_artifact, score_batch
artifact = load_artifact({artifact!r})
scorer = artifact.to_scorer()
row = [0.5] * artifact.standardizer.dimension
lines = [{{"log_message": "session opened for user root", "malware_features": row}},
         {{"log_message": "Failed password for root from 10.0.0.1 port 22 ssh2"}},
         {{"log_message": "zzzz qqqq"}}, {{"malware_features": row}}]
with open({str(requests)!r}, "w") as out:
    out.write("\\n".join(map(__import__("json").dumps, lines)) + "\\nnot json\\n")
results = score_batch(scorer, {str(requests)!r})
assert len(results) == 5 and "error" in results[-1] and "error" not in results[0], results
"""
    loaded = _loaded_after(code)
    assert loaded == {"http.server": False, "socketserver": False,
                      "aisoc.service.http_api": False, "numpy.ma": numpy_loads_ma}


def test_one_request_after_a_load_does_not_load_numpy_ma(artifact, numpy_loads_ma):
    code = f"""
from aisoc.service import load_artifact
artifact = load_artifact({artifact!r})
reply = artifact.score_request({{"log_message": "session opened for user root",
                                "malware_features": [0.5] * artifact.standardizer.dimension}})
assert reply["modality"] == "fused", reply
"""
    assert _loaded_after(code)["numpy.ma"] is numpy_loads_ma
