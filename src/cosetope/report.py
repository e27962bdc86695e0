"""Report serialization: canonical JSON with all numbers as decimal strings.

Ambient matrix entries routinely exceed native integer ranges, so reports
store every number as a decimal string.  Serialization is canonical (sorted
keys, fixed indentation, trailing newline), which is what makes reports
byte-reproducible and re-checkable.
"""

from __future__ import annotations

import json
from typing import Any

from .arith import Mat2
from .errors import ValidationError
from .groupcore import SdElement
from .modular import GapWitness, ModularWord
from .profinite import (
    GroupWord,
    SeparabilityCertificate,
    TractabilityReport,
)

SCHEMA_VERSION = 2


def as_recorded(obj: Any) -> Any:
    """``obj`` in the form a loaded report holds it, so ``verify`` can compare
    recomputed data: integers as decimal strings (bools stay bools), tuples
    as lists."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, (list, tuple)):
        return [as_recorded(v) for v in obj]
    if isinstance(obj, dict):
        return {k: as_recorded(v) for k, v in obj.items()}
    return obj


def canonical_dumps(data: Any) -> str:
    return json.dumps(as_recorded(data), sort_keys=True, indent=2) + "\n"


def parse_int(value: Any) -> int:
    """A JSON integer, or a string in the canonical decimal form of ``canonical_dumps``."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str):
        try:
            if str(int(value)) == value:
                return int(value)
        except ValueError:
            pass
    raise ValidationError(f"expected an integer, got {value!r}")


def parse_bool(value: Any) -> bool:
    """A flag as a report records it: a JSON boolean."""
    if not isinstance(value, bool):
        raise ValidationError(f"expected a boolean, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# domain serializers (to plain data; numbers become strings at dump time)


def mat_to_json(x: Mat2) -> dict:
    return {"rows": [[x.a, x.b], [x.c, x.d]], "m": x.m}


def mat_from_json(data: dict) -> Mat2:
    try:
        rows = data["rows"]
        a, b = (parse_int(v) for v in rows[0])
        c, d = (parse_int(v) for v in rows[1])
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise ValidationError(f"bad matrix data: {exc}") from exc
    m = data.get("m")
    if m is None:
        return Mat2.ambient(a, b, c, d)
    return Mat2.of_mod(a, b, c, d, parse_int(m))


def word_to_json(w: ModularWord) -> str:
    return str(w)


def word_from_json(text: str) -> ModularWord:
    if not isinstance(text, str):
        raise ValidationError(f"expected a word string, got {text!r}")
    return ModularWord.from_str(text)


def groupword_to_json(g: GroupWord) -> dict:
    return {"a": mat_to_json(g.a), "w": word_to_json(g.w)}


def groupword_from_json(data: dict) -> GroupWord:
    if not isinstance(data, dict):
        raise ValidationError(f"expected a group element object, got {data!r}")
    raw_a = data.get("a")
    a = mat_from_json(raw_a) if raw_a is not None else Mat2.zero()
    if a.m is not None:
        raise ValidationError("the additive part of a group element must be ambient")
    return GroupWord(a, word_from_json(data.get("w", "")))


def sd_to_json(x: SdElement) -> dict:
    return {
        "a": mat_to_json(x.a),
        "h": mat_to_json(x.h),
        "sigma": list(x.sigma) if x.sigma is not None else None,
    }


def witness_to_json(w: GapWitness) -> dict:
    return {
        "x": mat_to_json(w.x),
        "word": word_to_json(w.word),
        "levels_verified": list(w.levels_verified),
        "displaced_to": w.displaced_to,
    }


def certificate_to_json(cert: SeparabilityCertificate) -> dict:
    return {
        "element": groupword_to_json(cert.element),
        "target": cert.target,
        "spec": cert.spec.to_json(),
        "transcript": cert.transcript,
    }


def tractability_entry_to_json(entry: dict) -> dict:
    return {
        "spec": entry["spec"].to_json(),
        "status": entry["status"],
        "detail": entry["detail"],
        "violations": [sd_to_json(v) for v in entry.get("violations", [])],
        "sizes": entry.get("sizes", {}),
    }


def tractability_to_json(rep: TractabilityReport) -> dict:
    return {
        "m_spec": rep.m_spec.to_json(),
        "h_gens": [groupword_to_json(g) for g in rep.h_gens],
        "k_gens": [groupword_to_json(g) for g in rep.k_gens],
        "hcapk_gens": [groupword_to_json(g) for g in rep.hcapk_gens],
        "entries": [tractability_entry_to_json(entry) for entry in rep.entries],
        "found": rep.found.to_json() if rep.found is not None else None,
        "counters": rep.counters,
    }


def evidence_to_json(ev) -> dict:
    return {
        "rep": ev.rep.to_json(),
        "witness": witness_to_json(ev.witness),
        "g": groupword_to_json(ev.g),
        "level_transcripts": ev.level_transcripts,
        "levels": list(ev.levels),
        "witness_level": ev.witness_level,
        "towers_used": ev.towers_used,
        "conclusion": ev.conclusion,
        "status": ev.status,
    }


def envelope(command: str, config: dict, result: Any) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "config": config,
        "result": result,
    }
