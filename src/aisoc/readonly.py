"""Read-only copies of the dicts that fitted components and cached tables hold,
and the one definition of canonical JSON bytes (sorted keys, compact, ASCII,
no NaN): the form of artifact payloads, their checksums and report files."""

from __future__ import annotations

import json
from types import MappingProxyType
from typing import Mapping


def read_only(mapping: Mapping) -> Mapping:
    """A read-only copy of ``mapping`` in which each list value is a tuple.

    ``json`` cannot encode the copy, so a component's ``to_dict`` writes
    ``dict(...)`` of it: the keys in the same order and a tuple encoded as
    a list, so the same bytes as the dict it was made from.
    """
    return MappingProxyType({key: tuple(value) if isinstance(value, list) else value
                             for key, value in mapping.items()})


def canonical_json_bytes(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"),
                      ensure_ascii=True, allow_nan=False).encode("ascii")
