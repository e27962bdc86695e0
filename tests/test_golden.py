"""Golden report bytes: fixtures written by the implementation that preceded
the shared per-level checks, so any change in report contents shows here.

Each command runs inside ``tests/golden`` with relative input paths, because
reports record the paths they were given.
"""

from pathlib import Path

import pytest

from cosetope.cli import main

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
