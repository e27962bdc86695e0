"""Every JSON form the package reads or writes.

Reports are canonical JSON (sorted keys, fixed indentation, a trailing
newline) with every number a decimal string, since ambient matrix entries
outgrow native integers: so reports are byte-reproducible and re-checkable.
Every input goes through ``decode`` and the strict readers below; the
readers of the command-line inputs (``rep``, ``gens``, ``tower``, ``spec``
and ``element``) take inline JSON or the path of a file holding it.
``parse_int`` is the one integer rule, of JSON and of ``cli.parse`` alike.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from .arith import Mat2
from .errors import BudgetError, ValidationError, shown
from .modular import ModularWord, PermRep
from .profinite import GroupWord, QuotientSpec

SCHEMA_VERSION = 7
MAX_DEPTH = 32  # reports nest about 10 deep; recursive walks need a bound


def as_recorded(obj: Any) -> Any:
    """``obj`` as a report records it: the one translation of result values
    into report data, which ``verify`` also applies to what it recomputes.
    Integers become decimal strings; ``Mat2``, ``ModularWord``, ``PermRep``
    and ``QuotientSpec`` have forms of their own (they are NamedTuples, so
    they go first); the other NamedTuples, ``GroupWord`` and ``SdElement``,
    are recorded as their fields by name, tuples and lists become lists,
    and dicts, every command's result among them, are recorded key by key."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError:  # more digits than Python converts to a string
            limit = sys.get_int_max_str_digits()
            raise BudgetError(f"a result of {shown(obj)} has over {limit} digits (int max str digits)") from None
    if isinstance(obj, Mat2):
        return as_recorded({"rows": [[obj.a, obj.b], [obj.c, obj.d]], "m": obj.m})
    if isinstance(obj, ModularWord):
        return str(obj)
    if isinstance(obj, PermRep):
        return as_recorded({"degree": obj.degree, "s": obj.perm_s, "t": obj.perm_t})
    if isinstance(obj, QuotientSpec):
        # bench/run.py pins a recorded spec as holding "filter": null
        return as_recorded({"m": obj.m, "rep": obj.rep, "filter": None})
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
# decoding


def _object(pairs: list) -> dict:
    """An object's pairs as a dict; a repeated key is refused, not overwritten."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        raise ValueError(f"repeated key {shown(next(k for i, k in enumerate(keys) if k in keys[:i]))}")
    return obj


def decode(text: str, failure: str) -> Any:
    """The JSON value in ``text``.  Text that is not JSON, repeats a key in
    an object, holds an integer of more than 4,300 digits or a value inside
    more than ``MAX_DEPTH`` arrays and objects raises ValidationError, its
    message led by ``failure``."""
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except (ValueError, RecursionError) as exc:
        raise ValidationError(f"{failure}: {exc}") from exc
    level = [data]
    for _ in range(MAX_DEPTH + 1):
        level = [v for x in level if isinstance(x, (list, dict)) for v in (x.values() if isinstance(x, dict) else x)]
    if level:
        raise ValidationError(f"{failure}: nested deeper than {MAX_DEPTH} levels")
    return data


def read_text(path: str, what: str) -> str:
    """The text of the file at ``path``; ``what`` names the file in errors."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, ValueError) as exc:  # a missing file, bad UTF-8, or a NUL in the path
        raise ValidationError(f"cannot read {what} {shown(path)}: {getattr(exc, 'strerror', None) or exc}") from exc


# ---------------------------------------------------------------------------
# readers (report and input data back to values)


def parse_int(value) -> int:
    """A JSON integer, or a string in the canonical decimal form that reports
    record: a float, a bool or a string such as ``"02"`` is refused."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            if str(int(value)) == value:
                return int(value)
        except ValueError:
            pass
    raise ValidationError(f"expected an integer, got {shown(value)}")


def _fields(data, what: str, required: tuple, optional: tuple = ()) -> dict:
    """``data`` when it is an object holding each ``required`` key and no
    key outside ``required`` and ``optional``; ``what`` names it in a refusal."""
    if not isinstance(data, dict):
        raise ValidationError(f"expected a {what} object, got {shown(data)}")
    known = required + optional
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValidationError(f"{what} has unknown key {shown(unknown[0])}; its keys are {', '.join(known)}")
    for key in required:
        if key not in data:
            raise ValidationError(f"{what} needs the key {key!r}")
    return data


def mat_from_json(data: dict) -> Mat2:
    rows = _fields(data, "matrix", ("rows",), ("m",))["rows"]
    if not (isinstance(rows, list) and len(rows) == 2 and all(isinstance(r, list) and len(r) == 2 for r in rows)):
        raise ValidationError(f"bad matrix data: rows must be two lists of two integers, got {shown(rows)}")
    (a, b), (c, d) = ((parse_int(v) for v in row) for row in rows)
    m = data.get("m")
    if m is None:
        return Mat2.ambient(a, b, c, d)
    return Mat2.of_mod(a, b, c, d, parse_int(m))


def groupword_from_json(data: dict) -> GroupWord:
    raw_a = _fields(data, "group element", (), ("a", "w")).get("a")
    a = mat_from_json(raw_a) if raw_a is not None else Mat2.zero()
    if a.m is not None:
        raise ValidationError("the additive part of a group element must be ambient")
    w = data.get("w", "")
    if not isinstance(w, str):
        raise ValidationError(f"expected a word string, got {shown(w)}")
    return GroupWord(a, ModularWord.from_str(w))


def rep_from_json(data: dict) -> PermRep:
    degree = parse_int(_fields(data, "permutation representation", ("degree", "s", "t"))["degree"])
    perms = (data["s"], data["t"])
    if not all(isinstance(p, list) for p in perms):
        raise ValidationError("bad permutation representation data: s and t must be lists")
    perm_s, perm_t = (tuple(parse_int(v) for v in p) for p in perms)
    return PermRep.make(degree, perm_s, perm_t)


def spec_from_json(data: dict) -> QuotientSpec:
    m = parse_int(_fields(data, "quotient spec", ("m",), ("rep", "filter"))["m"])
    if data.get("filter") is not None:
        raise ValidationError(f"spec 'filter' must be null, got {shown(data['filter'])}")
    raw_rep = data.get("rep")
    return QuotientSpec.make(m, None if raw_rep is None else rep_from_json(raw_rep))


# ---------------------------------------------------------------------------
# command-line inputs: each reader takes inline JSON or a path


def _input(value: str, noun: str, reader) -> Any:
    """``reader`` applied to the JSON value of an input option: ``value``
    itself when it starts with "[" or "{", else the text of the file it
    names.  Every refusal is led by the prefix that names the input: "bad
    <noun> JSON", and "in file <path>" after it when the file was read."""
    failure, text = f"bad {noun} JSON", value
    if not value.startswith(("[", "{")):
        failure, text = f"{failure} in file {shown(value)}", read_text(value, f"{noun} file")
    data = decode(text, failure)
    try:
        return reader(data)
    except ValidationError as exc:
        raise ValidationError(f"{failure}: {exc}") from None


def _gens(data) -> list:
    if not isinstance(data, list):
        raise ValidationError(f"expected a JSON list of group elements, got {shown(data)}")
    return [groupword_from_json(entry) for entry in data]


def _tower(data) -> list:
    if not isinstance(data, list):
        raise ValidationError(f"expected a JSON list of quotient specs, got {shown(data)}")
    if not data:
        raise ValidationError("a tower needs at least one quotient spec")
    return [spec_from_json(entry) for entry in data]


def rep(value: str) -> PermRep:
    return _input(value, "permutation representation", rep_from_json)


def gens(value: str) -> list:
    return _input(value, "generator", _gens)


def tower(value: str) -> list:
    return _input(value, "tower", _tower)


def spec(value: str) -> QuotientSpec:
    return _input(value, "quotient spec", spec_from_json)


def element(value: str) -> GroupWord:
    return _input(value, "element", groupword_from_json)
