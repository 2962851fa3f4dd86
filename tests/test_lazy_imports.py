"""A process loads only the stack its command runs.

``DEFERRED`` is the whole rule: each module a command loads only when it
runs the code that needs it, and the one file under ``src/aisoc`` allowed to
import that module at module level (``None``: no file).

- Only ``aisoc serve`` needs the stdlib HTTP server, so ``service/http_api.py``
  is the one module that imports ``http.server`` and ``socketserver``, and no
  module imports ``http_api`` at module level: ``aisoc.service`` resolves
  ``serve`` and ``ScoringService`` on first access, and the CLI imports
  ``serve`` inside its ``serve`` command.
- ``statistics`` (which loads ``fractions`` and ``decimal``) is imported
  inside ``evaluate.multi_seed``, the seed sweep, and nowhere at module level.
- No code under ``src/aisoc`` calls ``np.unique``, whose plain call imports
  ``numpy.ma``, so no command loads ``numpy.ma``.

The static scans read the source with ``ast``; the guards run the paths in
fresh interpreters and read ``sys.modules``.
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
HTTP_MODULE = "service/http_api.py"
DEFERRED = {"http.server": HTTP_MODULE, "socketserver": HTTP_MODULE,
            "http_api": None, "statistics": None}


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


def deferred_imports(found: dict[str, int], module: str) -> dict[str, int]:
    """The paths in ``found`` that load the ``DEFERRED`` ``module``; ``http_api``
    also by a name ``aisoc.service`` resolves from it."""
    paths = imports_of(found, module)
    if module == "http_api":
        paths |= {p: n for p, n in found.items()
                  if p.split(".")[-2:] in (["service", "serve"], ["service", "ScoringService"])}
    return paths


def np_unique_calls(tree: ast.Module) -> list[int]:
    """The line of each ``np.unique``/``numpy.unique`` reference and each
    ``from numpy import unique``."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "unique"
                and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(alias.name == "unique" for alias in node.names)):
            lines.append(node.lineno)
    return sorted(lines)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_deferred_modules_load_only_in_their_own_file(path):
    found = module_level_imports(ast.parse(path.read_text(encoding="utf-8")))
    name = path.relative_to(SRC).as_posix()
    early = {module: paths for module, owner in DEFERRED.items()
             if name != owner and (paths := deferred_imports(found, module))}
    assert not early, f"{name}: imported at module level {early}"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_module_calls_np_unique(path):
    lines = np_unique_calls(ast.parse(path.read_text(encoding="utf-8")))
    assert not lines, f"{path.relative_to(SRC)}: np.unique on line(s) {lines}"


def test_the_scan_finds_module_level_deferred_imports():
    tree = ast.parse("import http.server\nfrom socketserver import TCPServer\n"
                     "from http import client, server\nfrom .service import http_api\n"
                     "from .http_api import serve\nimport email.http_api_like\n"
                     "try:\n    import aisoc.service.http_api as h\nexcept ImportError:\n"
                     "    pass\n"
                     "class C:\n    from ..service.http_api import MAX_BODY_BYTES\n"
                     "from .service import ModelArtifact, serve\n"
                     "import statistics\nfrom statistics import fmean\nimport statistics_like\n"
                     "def f():\n    import socketserver, statistics\n    from . import http_api\n")
    found = module_level_imports(tree)
    assert {p: n for t in ("http.server", "socketserver") for p, n in
            deferred_imports(found, t).items()} == {
        "http.server": 1, "socketserver": 2, "socketserver.TCPServer": 2}
    assert deferred_imports(found, "http_api") == {
        ".service.http_api": 4, ".http_api": 5, ".http_api.serve": 5,
        "aisoc.service.http_api": 8, "..service.http_api": 12,
        "..service.http_api.MAX_BODY_BYTES": 12, ".service.serve": 13}
    assert deferred_imports(found, "statistics") == {
        "statistics": 14, "statistics.fmean": 15}


def test_the_scan_finds_np_unique_however_it_is_named():
    tree = ast.parse("import numpy as np\nimport numpy\na = np.unique(x)\n"
                     "b = numpy.unique(x, return_inverse=True)\n"
                     "from numpy import unique\nfrom numpy import sort, unique as u\n"
                     "def f(s):\n    return s.unique(), np.unique_values(s), np.sort(s)\n"
                     "g = np.unique\n")
    assert np_unique_calls(tree) == [3, 4, 5, 6, 9]


def test_the_http_names_resolve_on_first_access():
    from aisoc.service import ScoringService, serve
    from aisoc.service import http_api

    assert (serve, ScoringService) == (http_api.serve, http_api.ScoringService)
    assert all(getattr(aisoc.service, name) is not None for name in aisoc.service.__all__)
    with pytest.raises(AttributeError, match="module 'aisoc.service' has no attribute 'nope'"):
        getattr(aisoc.service, "nope")


WATCHED = ("http.server", "socketserver", "aisoc.service.http_api", "numpy.ma",
           "statistics")


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
                      "aisoc.service.http_api": False, "numpy.ma": numpy_loads_ma,
                      "statistics": False}


def test_one_request_after_a_load_does_not_load_numpy_ma(artifact, numpy_loads_ma):
    code = f"""
from aisoc.service import load_artifact
artifact = load_artifact({artifact!r})
reply = artifact.score_request({{"log_message": "session opened for user root",
                                "malware_features": [0.5] * artifact.standardizer.dimension}})
assert reply["modality"] == "fused", reply
"""
    assert _loaded_after(code)["numpy.ma"] is numpy_loads_ma


def test_a_small_experiment_loads_neither_numpy_ma_nor_statistics(numpy_loads_ma):
    code = """
import warnings
from aisoc.pipeline import ExperimentConfig, run_experiment
warnings.simplefilter("ignore")
run_experiment(ExperimentConfig(seed=3, attack_sessions=4, duration_s=600, malware_benign=60,
                                malware_malicious=60, forest_trees=3, logistic_epochs=20,
                                val_supports=(4, 4, 4), test_supports=(4, 4, 4)))
"""
    loaded = _loaded_after(code)
    assert (loaded["numpy.ma"], loaded["statistics"]) == (numpy_loads_ma, False)


def test_the_cli_chain_loads_neither_numpy_ma_nor_statistics(tmp_path, numpy_loads_ma):
    logs, malware = tmp_path / "logs.ndjson", tmp_path / "malware.csv"
    splits, artifact = tmp_path / "splits", tmp_path / "artifact.json"
    chain = [[str(a) for a in argv] + ["--seed", "3"] for argv in (
        ["generate", "--out-logs", logs, "--out-malware", malware, "--attack-sessions", "4",
         "--duration-s", "600", "--malware-benign", "60", "--malware-malicious", "60"],
        ["split", "--logs", logs, "--malware", malware, "--out-dir", splits],
        ["train-log", "--train", splits / "logs_train.ndjson", "--artifact", artifact,
         "--epochs", "20"],
        ["train-malware", "--train", splits / "malware_train.csv", "--artifact", artifact,
         "--trees", "3"],
        ["calibrate", "--artifact", artifact, "--val-logs", splits / "logs_validation.ndjson",
         "--val-malware", splits / "malware_validation.csv"],
        ["tune", "--artifact", artifact, "--manifest", splits / "manifest_validation.ndjson"],
        ["evaluate", "--artifact", artifact, "--manifest", splits / "manifest_test.ndjson"],
    )]
    code = f"""
import contextlib, io, warnings
from aisoc.cli import main
warnings.simplefilter("ignore")
with contextlib.redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in {chain!r}]
assert codes == [0] * 7, codes
"""
    loaded = _loaded_after(code)
    assert (loaded["numpy.ma"], loaded["statistics"]) == (numpy_loads_ma, False)
