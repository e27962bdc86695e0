"""Every JSON form: ``report.as_recorded`` writes result values, ``decode``
and the readers take them back."""

import json
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from cosetope.arith import Mat2
from cosetope.errors import ValidationError
from cosetope.groupcore import SdElement
from cosetope.gs import gs_hk_witness, gs_wz_failure
from cosetope.modular import ModularWord, PermRep, congruence_gap_witness, low_index_reps
from cosetope.profinite import GroupWord, QuotientSpec
from cosetope.report import rep as read_rep
from cosetope.report import (
    MAX_DEPTH,
    as_recorded,
    decode,
    groupword_from_json,
    mat_from_json,
    rep_from_json,
    spec_from_json,
)

from t_util import congruence_rep

NC_REP = read_rep(str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"))


class _Pair(NamedTuple):
    left: int
    right: Optional[tuple] = None


def test_scalars_record_as_json_scalars():
    assert as_recorded(True) is True
    assert as_recorded(False) is False
    assert as_recorded(None) is None
    assert as_recorded("7") == "7"
    assert as_recorded(-12) == "-12"
    assert as_recorded(10**40) == str(10**40)


def test_containers_record_item_by_item():
    assert as_recorded((1, [2, (3,)], {"k": (True, None)})) == ["1", ["2", ["3"]], {"k": [True, None]}]


def test_a_plain_namedtuple_records_its_fields_by_name():
    assert as_recorded(_Pair(1, (2, 3))) == {"left": "1", "right": ["2", "3"]}
    assert as_recorded(_Pair(4)) == {"left": "4", "right": None}
    # inside a result dict, as a tractable search records its violations
    g = GroupWord.of_word(ModularWord.from_str("T"))
    result = {"entries": [{"status": "ok", "violations": (g,)}], "found": QuotientSpec.make(2), "counters": {"n": 5}}
    assert as_recorded(result) == {
        "entries": [{"status": "ok", "violations": [as_recorded(g)]}],
        "found": {"m": "2", "rep": None, "filter": None},
        "counters": {"n": "5"},
    }


def test_special_forms_come_before_the_fields():
    # Mat2, ModularWord, PermRep and QuotientSpec are NamedTuples whose
    # report form is not their fields
    assert as_recorded(Mat2.of_mod(1, 2, 3, 4, 5)) == {"rows": [["1", "2"], ["3", "4"]], "m": "5"}
    assert as_recorded(Mat2.ambient(-1, 0, 0, 7)) == {"rows": [["-1", "0"], ["0", "7"]], "m": None}
    assert as_recorded(ModularWord.from_str("STtT")) == "ST"
    rep = PermRep.make(2, (1, 0), (1, 0))
    assert as_recorded(rep) == {"degree": "2", "s": ["1", "0"], "t": ["1", "0"]}
    spec = QuotientSpec.make(4, rep)
    assert as_recorded(spec) == {"m": "4", "rep": as_recorded(rep), "filter": None}


def test_domain_values_record_under_their_field_names():
    g = GroupWord(Mat2.ambient(2, 0, 0, 2), ModularWord.from_str("T"))
    assert as_recorded(g) == {"a": as_recorded(g.a), "w": "T"}
    x = SdElement(Mat2.zero(3), Mat2.identity(3), (1, 0))
    assert as_recorded(x) == {"a": as_recorded(x.a), "h": as_recorded(x.h), "sigma": ["1", "0"]}
    cert = gs_hk_witness(GroupWord.of_a(Mat2.scalar(2)))
    assert as_recorded(cert) == {
        "target": "HK",
        "spec": {"m": "3", "rep": None, "filter": None},
        "transcript": {"det": "9", "det_mod_m": "0", "member": False},
    }
    witness = congruence_gap_witness(NC_REP, 24)
    assert as_recorded(witness) == {
        "x": as_recorded(witness["x"]),
        "word": str(witness["word"]),
        "displaced_to": str(witness["displaced_to"]),
    }
    evidence = gs_wz_failure(NC_REP, 4)
    assert set(as_recorded(evidence)) == {
        "witness", "g", "level_transcripts", "levels", "witness_level", "towers_used", "conclusion", "status",
    }


def _with_integers(data):
    """``data`` with each decimal string a JSON integer, as a hand-written input holds it."""
    if isinstance(data, str) and data.lstrip("-").isdigit():
        return int(data)
    if isinstance(data, list):
        return [_with_integers(v) for v in data]
    if isinstance(data, dict):
        return {k: _with_integers(v) for k, v in data.items()}
    return data


ROUND_TRIPS = [
    (mat_from_json, Mat2.of_mod(1, 2, 3, 4, 5)),
    (mat_from_json, Mat2.ambient(-1, 0, 10**40, 7)),
    *((rep_from_json, rep) for rep in low_index_reps(6)),
    (rep_from_json, congruence_rep(2)),
    *((spec_from_json, QuotientSpec.make(m, rep)) for rep in (None, NC_REP) for m in (4, 2**70)),
    (groupword_from_json, GroupWord(Mat2.zero(), ModularWord())),
    (groupword_from_json, GroupWord(Mat2.ambient(2, -3, 0, 2), ModularWord.from_str("STtTs"))),
]


@pytest.mark.parametrize("read, value", ROUND_TRIPS)
def test_each_reader_inverts_as_recorded(read, value):
    recorded = as_recorded(value)
    assert read(recorded) == value
    # JSON integers read as their decimal strings do
    assert read(_with_integers(recorded)) == value


def _inside(depth: int, value: str) -> str:
    return "[" * depth + value + "]" * depth


def test_decode_refuses_values_nested_deeper_than_the_limit():
    # a value may lie inside MAX_DEPTH arrays and objects, and no deeper
    for value in ("1", "[]", "{}"):
        assert decode(_inside(MAX_DEPTH, value), "x") == json.loads(_inside(MAX_DEPTH, value))
    for text in (_inside(MAX_DEPTH + 1, "1"), _inside(MAX_DEPTH, "[1]"), _inside(MAX_DEPTH, '{"k": 1}')):
        with pytest.raises(ValidationError, match=f"^x: nested deeper than {MAX_DEPTH} levels$"):
            decode(text, "x")


def test_decode_refuses_a_repeated_key_at_any_depth():
    # objects with distinct keys read as json.loads reads them
    text = '{"a": [{"b": 1, "c": {"b": 2}}], "b": 3}'
    assert decode(text, "x") == json.loads(text)
    for text, key in (('{"a": 1, "a": 1}', "a"), ('[{"b": {"c": 1, "d": 2, "c": 3}}]', "c")):
        with pytest.raises(ValidationError, match=f"^x: repeated key '{key}'$"):
            decode(text, "x")
