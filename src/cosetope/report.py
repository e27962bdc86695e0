"""Every JSON form the package reads or writes.

Reports are canonical JSON (sorted keys, fixed indentation, a trailing
newline) with every number a decimal string, since ambient matrix entries
outgrow native integers: so reports are byte-reproducible and re-checkable.
Every input goes through ``decode`` and the strict readers below.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Any

from .arith import Mat2
from .errors import BudgetError, ValidationError
from .groupcore import short_int
from .modular import ModularWord, PermRep
from .profinite import Formation, GroupWord, QuotientSpec

SCHEMA_VERSION = 3
MAX_DEPTH = 32  # reports nest about 10 deep; recursive walks need a bound


def as_recorded(obj: Any) -> Any:
    """``obj`` as a report records it: the one translation of result values
    into report data, which ``verify`` also applies to what it recomputes.
    Integers become decimal strings; ``Mat2``, ``ModularWord``, ``PermRep``
    and ``QuotientSpec`` have forms of their own (they are NamedTuples, so
    they go first); any other NamedTuple is recorded as its fields by name,
    tuples and lists become lists, and dicts are recorded key by key."""
    if obj is None or isinstance(obj, (bool, str)):
        return obj
    if isinstance(obj, int):
        try:
            return str(obj)
        except ValueError:  # more digits than Python converts to a string
            limit = sys.get_int_max_str_digits()
            raise BudgetError(f"a result of {short_int(obj)} has over {limit} digits") from None
    if isinstance(obj, Mat2):
        return as_recorded({"rows": [[obj.a, obj.b], [obj.c, obj.d]], "m": obj.m})
    if isinstance(obj, ModularWord):
        return str(obj)
    if isinstance(obj, PermRep):
        return as_recorded({"degree": obj.degree, "s": obj.perm_s, "t": obj.perm_t})
    if isinstance(obj, QuotientSpec):
        f = obj.formation
        return as_recorded({"m": obj.m, "rep": obj.rep, "filter": {"type": f.kind, "p": f.p} if f else None})
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
        raise ValueError(f"repeated key {next(k for i, k in enumerate(keys) if k in keys[:i])!r}")
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
        raise ValidationError(f"cannot read {what} {path!r}: {exc}") from exc


def read_json(path: str, what: str) -> Any:
    return decode(read_text(path, what), f"cannot read {what} {path!r}")


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
    raise ValidationError(f"expected an integer, got {value!r}")


def _refuse_unknown_keys(data: dict, known: tuple, what: str) -> None:
    unknown = sorted(set(data) - set(known))
    if unknown:
        raise ValidationError(f"{what} has unknown key {unknown[0]!r}; its keys are {', '.join(known)}")


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


def groupword_from_json(data: dict) -> GroupWord:
    if not isinstance(data, dict):
        raise ValidationError(f"expected a group element object, got {data!r}")
    _refuse_unknown_keys(data, ("a", "w"), "group element")
    raw_a = data.get("a")
    a = mat_from_json(raw_a) if raw_a is not None else Mat2.zero()
    if a.m is not None:
        raise ValidationError("the additive part of a group element must be ambient")
    w = data.get("w", "")
    if not isinstance(w, str):
        raise ValidationError(f"expected a word string, got {w!r}")
    return GroupWord(a, ModularWord.from_str(w))


def rep_from_json(data: dict) -> PermRep:
    try:
        degree = parse_int(data["degree"])
        perms = (data["s"], data["t"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad permutation representation data: {exc}") from exc
    _refuse_unknown_keys(data, ("degree", "s", "t"), "permutation representation")
    if not all(isinstance(p, list) for p in perms):
        raise ValidationError("bad permutation representation data: s and t must be lists")
    perm_s, perm_t = (tuple(parse_int(v) for v in p) for p in perms)
    return PermRep.make(degree, perm_s, perm_t)


def spec_from_json(data: dict, base_dir: str = ".") -> QuotientSpec:
    """A quotient spec; a ``rep`` given as a path is read relative to ``base_dir``."""
    try:
        m = parse_int(data["m"])
    except (KeyError, TypeError) as exc:
        raise ValidationError(f"bad quotient spec: {exc}") from exc
    _refuse_unknown_keys(data, ("m", "rep", "filter"), "quotient spec")
    rep = None
    raw_rep = data.get("rep")
    if isinstance(raw_rep, str):
        rep = load_rep(os.path.join(base_dir, raw_rep))
    elif isinstance(raw_rep, dict):
        rep = rep_from_json(raw_rep)
    elif raw_rep is not None:
        raise ValidationError("spec 'rep' must be a path, an object, or null")
    formation = None
    raw_filter = data.get("filter")
    if raw_filter is not None:
        if not isinstance(raw_filter, dict):
            raise ValidationError("spec 'filter' must be an object like {\"type\": \"pro-p\", \"p\": 2}, or null")
        _refuse_unknown_keys(raw_filter, ("type", "p"), "spec 'filter'")
        p = raw_filter.get("p")
        formation = Formation.make(raw_filter.get("type", "all"), parse_int(p) if p is not None else None)
    return QuotientSpec.make(m, rep, formation)


def load_rep(path: str) -> PermRep:
    return rep_from_json(read_json(path, "permutation representation"))


def load_tower(path: str) -> list:
    data = read_json(path, "tower file")
    if not isinstance(data, list):
        raise ValidationError("a tower file holds a list of quotient specs")
    base_dir = os.path.dirname(os.path.abspath(path))
    tower = [spec_from_json(entry, base_dir) for entry in data]
    if any(spec.formation is not None for spec in tower):
        raise ValidationError("a tower entry takes no filter; put it on --m-spec")
    return tower


def load_gens(path: str) -> list:
    data = read_json(path, "generator file")
    if not isinstance(data, list):
        raise ValidationError(f"{path!r}: a generator file holds a JSON list of elements")
    return [groupword_from_json(entry) for entry in data]
