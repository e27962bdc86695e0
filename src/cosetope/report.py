"""Report serialization: canonical JSON with all numbers as decimal strings.

Ambient matrix entries routinely exceed native integer ranges, so reports
store every number as a decimal string.  Serialization is canonical (sorted
keys, fixed indentation, trailing newline), which is what makes reports
byte-reproducible and re-checkable.
"""

from __future__ import annotations

import json
from typing import Any

from .arith import Mat2, parse_int
from .errors import ValidationError
from .modular import ModularWord
from .profinite import GroupWord, _refuse_unknown_keys

SCHEMA_VERSION = 2


def as_recorded(obj: Any) -> Any:
    """``obj`` as a report records it: the one translation of result values
    into report data, which ``verify`` also applies to what it recomputes.
    Integers become decimal strings; a value with ``to_json`` is recorded as
    what that returns; any other NamedTuple as its fields by name
    (``to_json`` goes first: ``Mat2`` and ``PermRep`` are NamedTuples);
    tuples and lists become lists, and dicts are recorded key by key."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if hasattr(obj, "to_json"):
        return as_recorded(obj.to_json())
    if hasattr(obj, "_asdict"):
        return as_recorded(obj._asdict())
    if isinstance(obj, (list, tuple)):
        return [as_recorded(v) for v in obj]
    if isinstance(obj, dict):
        return {k: as_recorded(v) for k, v in obj.items()}
    return obj


def canonical_dumps(data: Any) -> str:
    return json.dumps(as_recorded(data), sort_keys=True, indent=2) + "\n"


# ---------------------------------------------------------------------------
# domain readers (report and input data back to values)


def mat_from_json(data: dict) -> Mat2:
    if not isinstance(data, dict):
        raise ValidationError(f"expected a matrix object, got {data!r}")
    _refuse_unknown_keys(data, ("rows", "m"), "matrix")
    rows = data.get("rows")
    if not (isinstance(rows, list) and len(rows) == 2 and all(isinstance(r, list) and len(r) == 2 for r in rows)):
        raise ValidationError(f"bad matrix data: rows must be two lists of two integers, got {rows!r}")
    (a, b), (c, d) = ((parse_int(v) for v in row) for row in rows)
    m = data.get("m")
    if m is None:
        return Mat2.ambient(a, b, c, d)
    return Mat2.of_mod(a, b, c, d, parse_int(m))


def word_from_json(text: str) -> ModularWord:
    if not isinstance(text, str):
        raise ValidationError(f"expected a word string, got {text!r}")
    return ModularWord.from_str(text)


def groupword_from_json(data: dict) -> GroupWord:
    if not isinstance(data, dict):
        raise ValidationError(f"expected a group element object, got {data!r}")
    _refuse_unknown_keys(data, ("a", "w"), "group element")
    raw_a = data.get("a")
    a = mat_from_json(raw_a) if raw_a is not None else Mat2.zero()
    if a.m is not None:
        raise ValidationError("the additive part of a group element must be ambient")
    return GroupWord(a, word_from_json(data.get("w", "")))
