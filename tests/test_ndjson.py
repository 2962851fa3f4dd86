"""One line rule for the three NDJSON readers: log files, manifests and batch requests.

A file mixes a well-formed line of each reader's kind with lines no reader
accepts (invalid UTF-8, deep nesting, a 5000-digit integer, non-object and
malformed JSON), blank and whitespace-only lines, CRLF line ends and a
missing final newline. Each reader must see the same non-blank lines under
the same numbers and differ only in what it does with a bad one. Under all
three, ``decode_ndjson`` decodes a line as ``json.loads`` does, line for line.
"""

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from aisoc.corpus import load_log_ndjson
from aisoc.corpus.loaders import decode_ndjson
from aisoc.errors import LoadError
from aisoc.evaluate import read_manifest
from aisoc.service import score_batch

MESSAGE = "sshd: Accepted password for jürgen from 10.0.0.7"
BLANK = ("blank", "spaces")


def kinds_of_line(dim: int) -> dict[str, bytes]:
    def encode(obj: dict) -> bytes:
        return json.dumps(obj, ensure_ascii=False).encode("utf-8")

    return {
        "log": encode({"timestamp": 5, "host": "h1", "channel": "AUTH", "message": MESSAGE,
                       "label": "MALICIOUS"}),
        "manifest": encode({"entity_id": "e1", "log_message": MESSAGE, "log_label": "BENIGN",
                            "malware_features": [0.5] * dim, "malware_label": "MALICIOUS"}),
        "request": encode({"log_message": MESSAGE, "malware_features": [0.25] * dim}),
        "not-utf8": b'{"log_message": "\xff\xfe"}',
        "deep": b"[" * 100_000 + b"]" * 100_000,
        "5000-digits": b'{"timestamp": ' + b"7" * 5000 + b"}",
        "not-object": b"[1, 2]",
        "malformed": b'{"log_message": ',
        "blank": b"",
        "spaces": b" \t ",
    }


@settings(max_examples=40, deadline=None)
@given(kinds=st.lists(st.sampled_from(sorted(kinds_of_line(1))), max_size=12),
       crlf=st.booleans(), final_newline=st.booleans())
def test_three_readers_number_and_refuse_the_same_lines(demo_scorer, kinds, crlf,
                                                        final_newline):
    lines = kinds_of_line(demo_scorer.standardizer.dimension)
    eol = b"\r\n" if crlf else b"\n"
    numbered = [(n, kind) for n, kind in enumerate(kinds, start=1) if kind not in BLANK]
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "lines.ndjson", Path(tmp) / "results.ndjson"
        path.write_bytes(eol.join(lines[kind] for kind in kinds) + (eol if final_newline else b""))

        loaded = load_log_ndjson(path)  # counts and skips every bad line
        assert len(loaded.records) == kinds.count("log")
        assert [n for n, _ in loaded.reject_reasons] == [n for n, k in numbered if k != "log"]

        bad = [n for n, kind in numbered if kind != "manifest"]
        if bad:  # refuses the first bad line by number
            with pytest.raises(LoadError, match=f"lines.ndjson: line {bad[0]}: "):
                read_manifest(path)
        else:
            assert len(read_manifest(path)) == len(numbered)

        results = score_batch(demo_scorer, path, out)  # an error object in place of a bad line
        written = out.read_bytes().decode("utf-8").split("\n")
        assert written.pop() == ""
        assert [json.loads(line) for line in written] == results
        assert len(results) == len(numbered)
        for (n, kind), result in zip(numbered, results):
            if kind == "request":
                response = demo_scorer.score_request(json.loads(lines[kind]))
                assert result == {k: response[k] for k in ("entity_id", "s_m", "s_l", "label")
                                  if k in response}
            else:
                assert result["line"] == n and result["error"]


def test_a_file_line_ends_at_lf_or_crlf_and_a_lone_cr_is_inside_the_line(tmp_path):
    log = kinds_of_line(1)["log"]
    path = tmp_path / "cr.ndjson"
    path.write_bytes(log + b"\r\n\r\n" + log + b"\r" + log + b"\n" + log + b"\r")
    loaded = load_log_ndjson(path)
    assert len(loaded.records) == 2
    assert [(n, reason.split(":")[0]) for n, reason in loaded.reject_reasons] \
        == [(3, "Extra data")]


# Text around a value: JSON whitespace, other Unicode whitespace and a BOM.
AROUND = st.text(" \t\r\x0b\x0c\u00a0\u3000\ufeff", max_size=3)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                  max_size=3),
    max_leaves=8)
JSON_TEXTS = st.builds(
    lambda value, ascii_only, compact: json.dumps(
        value, ensure_ascii=ascii_only, separators=(",", ":") if compact else None),
    JSON_VALUES, st.booleans(), st.booleans())
ODD_TEXTS = st.sampled_from([
    "{} {}", "NaN", "-Infinity", "7" * 5000, '{"n": ' + "7" * 5000 + "}", '"\\ud800"',
    '"\ud800"', '{"a": 1, "a": 2}', "[" * 100_000 + "]" * 100_000, '{"log_message": ', "",
])


def loads_outcome(line: str) -> tuple[str | None, str | None]:
    """``json.loads``' value as ``json.dumps`` text, or its error message."""
    try:
        return json.dumps(json.loads(line)), None
    except (ValueError, RecursionError) as exc:
        return None, str(exc)


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(st.builds(lambda before, text, after: before + text + after,
                                AROUND, JSON_TEXTS | ODD_TEXTS | st.text(max_size=6), AROUND),
                      max_size=8))
def test_a_line_decodes_as_json_loads_decodes_it(lines):
    decoded = [(n, None if reason else json.dumps(value), reason)
               for n, value, reason in decode_ndjson(lines, lambda value: value)]
    assert decoded == [(n, *loads_outcome(line)) for n, line in enumerate(lines, start=1)
                       if line.strip()]
