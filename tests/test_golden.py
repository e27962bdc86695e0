"""Golden report bytes, so any change in report contents shows here.

The cases, and how each fixture was first written, are in ``golden_cases``.
"""

import json
import re

import pytest

from cosetope import report as rpt
from cosetope.arith import Mat2
from cosetope.budgets import Budgets
from cosetope.cli import OPTIONS, main, parse
from cosetope.groupcore import SdElement
from cosetope.modular import ModularWord, PermRep
from cosetope.profinite import GroupWord, QuotientSpec
from cosetope.report import as_recorded, canonical_dumps

from golden_cases import CASES, GOLDEN


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden_fixture(tmp_path, monkeypatch, name):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    assert main(CASES[name] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# the NamedTuples a result may hold: the four with report forms of their own,
# and the two domain values recorded field by field
_DOMAIN_TUPLES = (Mat2, ModularWord, PermRep, QuotientSpec, GroupWord, SdElement)


def _stray_tuples(value):
    """The types of the NamedTuples inside ``value`` that are not domain values."""
    if isinstance(value, _DOMAIN_TUPLES):
        return set()
    if hasattr(value, "_asdict"):
        return {type(value).__name__}
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, (list, tuple)):
        return set().union(*map(_stray_tuples, value))
    return set()


def test_every_report_in_the_golden_directory_is_a_case():
    # a deleted case must take its fixture along, or the stale report stays
    # behind for the fuzz test to hand to verify
    reports = {path.name for path in GOLDEN.glob("*.json") if '"schema"' in path.read_text(encoding="utf-8")}
    assert reports == set(CASES)


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_command_returns_a_plain_dict(monkeypatch, name):
    # one result form: certificates, witnesses, evidence and searches are
    # dicts like every other result, at the top and nested
    monkeypatch.chdir(GOLDEN)
    command, config, _, closure_cap = parse(CASES[name])
    result = OPTIONS[command][0](config, Budgets(closure_cap))
    assert type(result) is dict
    assert _stray_tuples(result) == set()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fixture_verifies(tmp_path, monkeypatch, name):
    # a report records its inputs, so verify runs anywhere
    monkeypatch.chdir(tmp_path)
    assert main(["verify", "--report", str(GOLDEN / name), "--output", "v.json"]) == 0


# Edits that an earlier verify accepted without re-checking anything: the
# entries of a search that found nothing (a status set to one no search
# writes), a gap-witness's status (now the
# point its witness reaches, as schema 6 dropped the status, which could only
# say "found"), and the low-index block and evidence status of gs-demo; and
# the order of a quotient carrying a coset action, which verify recomputes in
# closed form.
TAMPERS = [
    ("tractable_violation.json", ("entries", 1, "sizes", "kernel"), "2"),
    ("tractable_violation.json", ("entries", 0, "status"), "skipped"),
    ("tractable_violation.json", ("entries", 2, "violations"), []),
    ("tractable_violation.json", ("counters", "elements_scanned"), "11"),
    ("tractable_ok.json", ("entries", 0, "detail"), ""),
    ("gap_witness.json", ("witness", "displaced_to"), "2"),
    ("gs_demo.json", ("lowindex", "noncongruence_total"), "3"),
    ("gs_demo.json", ("lowindex", "reps_total"), "20"),
    ("gs_demo.json", ("evidence", "status"), "inconclusive"),
    ("gs_demo.json", ("evidence",), {"status": "no-noncongruence-subgroup-found"}),
    ("quotient_nc_rep.json", ("order",), "241919"),
]


@pytest.mark.parametrize(
    "name, keys, value", TAMPERS, ids=[f"{name}:{'.'.join(map(str, keys))}" for name, keys, _ in TAMPERS]
)
def test_verify_rejects_tampered_golden_result(tmp_path, monkeypatch, name, keys, value):
    monkeypatch.chdir(GOLDEN)
    data = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    node = data["result"]
    for key in keys[:-1]:
        node = node[key]
    assert node[keys[-1]] != value
    node[keys[-1]] = value
    report = tmp_path / name
    report.write_text(canonical_dumps(data), encoding="utf-8")
    assert main(["verify", "--report", str(report), "--output", str(tmp_path / "v.json")]) == 2


def _cut_transcripts(data):
    evidence = data["result"]["evidence"]
    evidence["level_transcripts"] = [e for e in evidence["level_transcripts"] if int(e["m"]) <= 3]
    evidence["levels"] = [e["m"] for e in evidence["level_transcripts"] if e["member"]]


def _cut_witness_levels(data):
    # schema 4 dropped the witness's level list, so one cut short is a key
    # the rerun does not write
    data["result"]["witness"]["levels_verified"] = ["2"]


def _recorded_rep(name: str) -> dict:
    return as_recorded(rpt.rep(str(GOLDEN / name)))


# Edits that the per-kind checks of an earlier verify accepted: evidence cut
# short, config entries the check never read, and a cut witness level list;
# and a recorded rep, generator list or spec swapped for another.  A spec's
# filter must be null, so a report that recorded the deleted pro-p filter
# is refused, not verified.
EDITS = {
    "gs_demo:transcripts-cut-to-3": ("gs_demo.json", _cut_transcripts),
    "gs_demo:config.m_max": ("gs_demo.json", lambda data: data["config"].update(m_max="6")),
    "tractable_ok:config.k_gens": (
        "tractable_ok.json", lambda data: data["config"].update(k_gens=data["config"]["h_gens"])),
    "tractable_ok:config.m_spec": (
        "tractable_ok.json", lambda data: data["config"].update(m_spec={"m": "2", "rep": None, "filter": None})),
    "tractable_ok:config.m_spec.filter": (
        "tractable_ok.json", lambda data: data["config"]["m_spec"].update(filter={"type": "pro-p", "p": "2"})),
    "gap_witness:levels_verified-cut": ("gap_witness.json", _cut_witness_levels),
    "congruence_level105:config.rep": (
        "congruence_level105.json", lambda data: data["config"].update(rep=_recorded_rep("nc_rep.json"))),
}


@pytest.mark.parametrize("edit", sorted(EDITS))
def test_verify_rejects_edited_golden_report(tmp_path, monkeypatch, edit):
    name, change = EDITS[edit]
    monkeypatch.chdir(GOLDEN)
    data = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    change(data)
    report = tmp_path / name
    report.write_text(canonical_dumps(data), encoding="utf-8")
    assert main(["verify", "--report", str(report), "--output", str(tmp_path / "v.json")]) == 2


def _values(data, path=""):
    """Each value nested in ``data`` with its path, ``data`` itself first."""
    yield path, data
    items = data.items() if isinstance(data, dict) else enumerate(data) if isinstance(data, list) else ()
    for key, value in items:
        yield from _values(value, f"{path}.{key}" if isinstance(key, str) else f"{path}[{key}]")


# a tower entry is named in the result where it was tried or found
_TOWER_ENTRY = re.compile(r"^\.entries\[\d+\]\.spec$|^\.found$")


@pytest.mark.parametrize("name", sorted(CASES))
def test_a_result_does_not_repeat_its_config(name):
    # schema 6: the config records each input as the command used it, so
    # no input list or object recurs in the result
    data = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    inputs = {key: value for key, value in data["config"].items() if isinstance(value, (list, dict)) and value}
    repeated = [
        (key, path) for path, value in _values(data["result"]) if not _TOWER_ENTRY.match(path)
        for key, recorded in inputs.items() if value == recorded
    ]
    assert repeated == []
