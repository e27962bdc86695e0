"""Golden report bytes, so any change in report contents shows here.

The fixtures were written by the implementation that preceded the shared
per-level checks; the schema-2 change edited only their ``schema`` line and
dropped the ``seed`` config key.  ``gap_witness_level3.json`` was written by
the coset-carrying walk, at a level the subgroup's own level does not divide.

Each command runs inside ``tests/golden`` with relative input paths, because
reports record the paths they were given.
"""

import json
from pathlib import Path

import pytest

from cosetope.cli import main
from cosetope.report import canonical_dumps

GOLDEN = Path(__file__).resolve().parent / "golden"

CASES = {
    "gs_demo.json": ["gs-demo", "--max-level", "3", "--m-max", "8"],
    "tractable_ok.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "k.json", "--hcapk-gens", "empty.json",
        "--m-spec", '{"m": 4, "filter": {"type": "pro-p", "p": 2}}', "--tower", "tower_ok.json",
    ],
    "tractable_violation.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "h.json", "--hcapk-gens", "empty.json",
        "--m-spec", '{"m": 4}', "--tower", "tower_violation.json",
    ],
    "gap_witness.json": ["gap-witness", "--rep", "nc_rep.json", "--level", "24", "--m-max", "12"],
    "gap_witness_level3.json": ["gap-witness", "--rep", "nc_rep.json", "--level", "3", "--m-max", "12"],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_golden_fixture(tmp_path, monkeypatch, name):
    monkeypatch.chdir(GOLDEN)
    out = tmp_path / name
    assert main(CASES[name] + ["--output", str(out)]) == 0
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_fixture_verifies(tmp_path, monkeypatch, name):
    monkeypatch.chdir(GOLDEN)
    assert main(["verify", "--report", name, "--output", str(tmp_path / "v.json")]) == 0


# Edits that an earlier verify accepted without re-checking anything: the
# entries of a search that found nothing, an inconclusive gap-witness, and the
# low-index block and evidence status of gs-demo.
TAMPERS = [
    ("tractable_violation.json", ("entries", 1, "sizes", "kernel"), "2"),
    ("tractable_violation.json", ("entries", 0, "status"), "skipped-formation"),
    ("tractable_violation.json", ("entries", 2, "violations"), []),
    ("tractable_violation.json", ("counters", "elements_scanned"), "11"),
    ("tractable_ok.json", ("entries", 0, "detail"), ""),
    ("gap_witness.json", ("status",), "inconclusive"),
    ("gs_demo.json", ("lowindex", "noncongruence_total"), "3"),
    ("gs_demo.json", ("lowindex", "reps_total"), "20"),
    ("gs_demo.json", ("evidence", "status"), "inconclusive"),
    ("gs_demo.json", ("evidence",), {"status": "no-noncongruence-subgroup-found"}),
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
    witness = data["result"]["witness"]
    witness["levels_verified"] = witness["levels_verified"][:1]


# Edits that the per-kind checks of an earlier verify accepted: evidence cut
# short, config entries the check never read, and a cut witness level list.
EDITS = {
    "gs_demo:transcripts-cut-to-3": ("gs_demo.json", _cut_transcripts),
    "gs_demo:config.m_max": ("gs_demo.json", lambda data: data["config"].update(m_max="6")),
    "tractable_ok:config.k_gens": ("tractable_ok.json", lambda data: data["config"].update(k_gens="h.json")),
    "tractable_ok:config.m_spec": ("tractable_ok.json", lambda data: data["config"].update(m_spec='{"m": 2}')),
    "gap_witness:levels_verified-cut": ("gap_witness.json", _cut_witness_levels),
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
