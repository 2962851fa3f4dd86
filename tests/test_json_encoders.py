"""JSON is encoded under ``src/aisoc`` only by the modules that own a written form.

Each form has one definition: ``readonly.py`` the canonical bytes of
artifacts and reports and the text of one JSON line (NDJSON files and HTTP
replies), and ``cli.py`` the indented JSON printed for people. Any other
module that needs one of these forms calls its owner, so this scan refuses
``json.dumps``, ``json.dump`` and ``json.JSONEncoder`` anywhere else, by
attribute (also through ``import json as ...``) or by ``from json import
...``.
"""

import ast
import json
from pathlib import Path

import pytest

from aisoc.readonly import canonical_json_bytes, encode_json_line, read_only

SRC = Path(__file__).resolve().parents[1] / "src" / "aisoc"
OWNERS = {"readonly.py", "cli.py"}
MODULES = [p for p in sorted(SRC.rglob("*.py")) if p.relative_to(SRC).as_posix() not in OWNERS]
ENCODERS = {"dumps", "dump", "JSONEncoder"}


def json_encoders(tree: ast.Module) -> dict[str, int]:
    """Each use of a ``json`` encoder in the module, with its first line number."""
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names if alias.name == "json"}
    found = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "json":
            names = [alias.name for alias in node.names]
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in modules):
            names = [node.attr]
        else:
            continue
        for name in names:
            if name in ENCODERS:
                found.setdefault(f"json.{name}", node.lineno)
    return found


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_only_the_owner_of_a_form_encodes_json(path):
    found = json_encoders(ast.parse(path.read_text(encoding="utf-8")))
    assert not found, f"{path.relative_to(SRC)}: JSON encoder(s) {found}"


def test_each_owner_exists():
    assert all((SRC / owner).is_file() for owner in OWNERS)


def test_the_scan_finds_an_encoder():
    tree = ast.parse("import json\nimport json as j\nfrom json import JSONEncoder, loads\n"
                     "text = json.dumps({})\nvalue = json.loads(text)\n"
                     "j.dump({}, open('x', 'w'))\nencode = json.JSONEncoder().encode\n")
    assert json_encoders(tree) == {"json.JSONEncoder": 3, "json.dumps": 4, "json.dump": 6}


def test_a_read_only_copy_encodes_as_its_source_at_any_depth():
    source = {"b": [1, {"c": ["é", [2.5, None]]}], "a": {"d": {"e": []}, "f": True}}
    frozen = read_only(source)
    assert encode_json_line(frozen) == json.dumps(source, ensure_ascii=False)
    assert canonical_json_bytes(frozen) == canonical_json_bytes(source)
    with pytest.raises(TypeError, match="Object of type set is not JSON serializable"):
        canonical_json_bytes({"a": {1}})
