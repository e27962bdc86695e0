"""Golden report bytes, so any change in report contents shows here.

The fixtures were written by the implementation that preceded the shared
per-level checks; the schema-2 change edited only their ``schema`` line and
dropped the ``seed`` config key.  ``gap_witness_level3.json`` was written by
the coset-carrying walk, at a level the subgroup's own level does not divide.
The fixtures of the other commands (``quotient_enumerate.json`` through
``thm_b_inconclusive.json``) were written by the per-type serializers that
preceded ``report.as_recorded``, so each result type is pinned to the bytes
it had before every report value went through that one function.
``gs_demo_m32.json`` was written by the implementation that still listed
SL2(Z/m) to intersect the images of H and K at each level, before the table
recorded the closed form, and ``tractable_formation.json`` by the formation
check that still closed the permutation group of the coset action.
``lowindex_subgroups.json`` was written by the relator-deduction coset-table
search, before the low-index subgroups were listed as transitive actions of
C2 * C3.  ``tractable_reps.json`` was written while refinement was still
decided by Schreier generator words and restriction by a second walk over
the points, before both were read off one point map.
``tractable_action_violation.json`` was written while refinement kernels
were still listed element by element, before the inclusion was tested
through the restriction map.  ``lowindex_12.json`` was written while
``low_index_reps`` still standardized every subgroup from every basepoint,
before each class was standardized once.  ``thm_b_l_rep.json``, the only
case through ``thm_b_probe``'s L branch, and ``tractable_bad_hcapk.json``, the
only case whose claimed generators of H meet K fail ``tractable_at``'s
precondition, were written while the closure cap could still be set from the
environment, before ``--closure-cap`` became the one way to set it.
The schema-3 change, which dropped the evidence's ``double_coset_member``,
edited only their ``schema`` line and removed that key from the transcript
entries at m = 2, 3 and 4 of ``gs_demo.json`` and ``gs_demo_m32.json``.  ``regen_golden.py`` rewrites the fixtures from the
current code.

Each command runs inside ``tests/golden`` with relative input paths, because
reports record the paths they were given.
"""

import json
from pathlib import Path

import pytest

from cosetope.cli import main
from cosetope.report import canonical_dumps

GOLDEN = Path(__file__).resolve().parent / "golden"

_TWO_I = '{"a": {"rows": [["2", "0"], ["0", "2"]], "m": null}, "w": ""}'

CASES = {
    "gs_demo.json": ["gs-demo", "--max-level", "3", "--m-max", "8"],
    # the benchmark's evidence configuration, with the default --max-level 8
    "gs_demo_m32.json": ["gs-demo", "--m-max", "32"],
    "tractable_ok.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "k.json", "--hcapk-gens", "empty.json",
        "--m-spec", '{"m": 4, "filter": {"type": "pro-p", "p": 2}}', "--tower", "tower_ok.json",
    ],
    # a candidate carrying nc_rep's coset action: its ST, of order 3, moves
    # a point, so its image is no 2-group and the pro-2 formation skips it
    "tractable_formation.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "k.json",
        "--m-spec", '{"m": 2, "filter": {"type": "pro-p", "p": 2}}', "--tower", "tower_nc_rep.json",
    ],
    # restriction between two coset actions: the degree-6 action maps onto
    # the degree-3 one, and the degree-3 and degree-2 entries do not refine it
    "tractable_reps.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "h.json", "--hcapk-gens", "h.json",
        "--m-spec", '{"m": 2, "rep": {"degree": 3, "s": [0, 2, 1], "t": [1, 0, 2]}}', "--tower", "tower_reps.json",
    ],
    # a candidate carrying a coset action with violations: the degree-6
    # action's permutation part decides which elements restrict into the
    # image of H meet K, which is trivial here
    "tractable_action_violation.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "h.json", "--hcapk-gens", "empty.json",
        "--m-spec", '{"m": 2}', "--tower", "tower_action.json",
    ],
    "tractable_violation.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "h.json", "--hcapk-gens", "empty.json",
        "--m-spec", '{"m": 4}', "--tower", "tower_violation.json",
    ],
    # claimed generators of H meet K that are not in image(K): every
    # candidate fails its precondition and the search finds nothing
    "tractable_bad_hcapk.json": [
        "tractable", "--h-gens", "h.json", "--k-gens", "k.json", "--hcapk-gens", "h.json",
        "--m-spec", '{"m": 2}', "--tower", "tower_violation.json",
    ],
    "gap_witness.json": ["gap-witness", "--rep", "nc_rep.json", "--level", "24", "--m-max", "12"],
    "gap_witness_level3.json": ["gap-witness", "--rep", "nc_rep.json", "--level", "3", "--m-max", "12"],
    "quotient_enumerate.json": ["quotient", "--modulus", "3", "--enumerate"],
    "image.json": ["image", "--modulus", "3", "--gens", "h.json"],
    "intersect.json": ["intersect", "--modulus", "3", "--left", "h.json", "--right", "k.json"],
    "dcoset_member.json": [
        "dcoset-member", "--modulus", "3", "--element", _TWO_I, "--left", "h.json", "--right", "k.json",
    ],
    "congruence.json": ["congruence", "--rep", "nc_rep.json"],
    "lowindex.json": ["lowindex", "--max-degree", "5"],
    "lowindex_subgroups.json": ["lowindex", "--max-degree", "6", "--subgroups"],
    # 175 classes: the largest degree the command accepts
    "lowindex_12.json": ["lowindex", "--max-degree", "12"],
    # det(2I + I) = 9 is first excluded at modulus 3, which the default tower
    # reaches; tower_violation.json holds only 2, 4 and 8
    "thm_b_certified.json": ["thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", _TWO_I],
    "thm_b_inconclusive.json": [
        "thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", _TWO_I,
        "--tower", "tower_violation.json",
    ],
    # L built from nc_rep's coset action: each level also checks that
    # image(H) meet image(K) lies inside image(L); certified at m = 3
    "thm_b_l_rep.json": [
        "thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", _TWO_I,
        "--l-rep", "nc_rep.json", "--tower", "tower_small.json",
    ],
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
