"""Read-only copies of the dicts that fitted components and cached tables hold,
the one definition of canonical JSON bytes (sorted keys, compact, ASCII, no
NaN): the form of artifact payloads, their checksums and report files, and
the one definition of a JSON line: NDJSON files and HTTP replies. Both
encode a read-only mapping, at any depth, as the dict it copies."""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Mapping

_NESTED = (dict, list, tuple, MappingProxyType)


def read_only(mapping: Mapping) -> Mapping:
    """A read-only copy of ``mapping`` in which, at any depth, each dict is a
    read-only mapping and each list a tuple.

    JSON encodes a tuple as a list, and this module's encoders a read-only
    mapping as the dict it copies, so the copy encodes to the same bytes as
    the data it was made from.
    """
    return MappingProxyType({key: _frozen(value) if isinstance(value, _NESTED) else value
                             for key, value in mapping.items()})


def _frozen(value):
    """``value`` frozen as ``read_only`` freezes a mapping's values. Iterative,
    so data nested as deep as ``json.loads`` parses is frozen too."""
    done: list = []  # frozen values, each container's items just before it is rebuilt
    stack = [(value, False)]
    while stack:
        node, items_done = stack.pop()
        if not isinstance(node, _NESTED):
            done.append(node)
        elif not items_done:
            stack.append((node, True))
            items = list(node.values() if isinstance(node, Mapping) else node)
            stack += [(item, False) for item in reversed(items)]
        else:
            items = done[len(done) - len(node):]
            del done[len(done) - len(node):]
            done.append(MappingProxyType(dict(zip(node.keys(), items)))
                        if isinstance(node, Mapping) else tuple(items))
    return done[0]


def _json_default(obj):
    if isinstance(obj, MappingProxyType):
        return dict(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), ensure_ascii=True,
                      allow_nan=False, default=_json_default).encode("ascii")


# One JSON line's text: ``json.dumps(obj, ensure_ascii=False)`` gives the same
# text but builds a new encoder per call.
encode_json_line = json.JSONEncoder(ensure_ascii=False, default=_json_default).encode
