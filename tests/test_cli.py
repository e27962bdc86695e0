import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import cosetope.modular
from cosetope.budgets import Budgets
from cosetope.cli import COMMANDS, build_parser, main
from cosetope.errors import ValidationError
from cosetope.groupcore import GroupContext
from cosetope.modular import is_congruence, low_index_reps
from cosetope.profinite import QuotientSpec
from cosetope.report import canonical_dumps, parse_int

from t_util import congruence_rep, count_closures, gs_build, gs_intersection


H_GENS_JSON = [{"w": "S"}, {"w": "T"}]
# i h i^-1 for h in {S, T}: additive part I - h
K_GENS_JSON = [
    {"a": {"rows": [[1, 1], [-1, 1]], "m": None}, "w": "S"},
    {"a": {"rows": [[0, -1], [0, 0]], "m": None}, "w": "T"},
]


@pytest.fixture
def gens_files(tmp_path):
    h = tmp_path / "h.json"
    h.write_text(json.dumps(H_GENS_JSON))
    k = tmp_path / "k.json"
    k.write_text(json.dumps(K_GENS_JSON))
    empty = tmp_path / "empty.json"
    empty.write_text("[]")
    return {"h": str(h), "k": str(k), "empty": str(empty), "dir": tmp_path}


def run_report(args, path):
    code = main(args + ["--output", str(path)])
    assert code == 0, f"command failed: {args}"
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    data = json.loads(text)
    assert canonical_dumps(data) == text
    return data, text


def test_quotient_command(tmp_path):
    data, _ = run_report(["quotient", "--modulus", "2", "--enumerate"], tmp_path / "q.json")
    assert parse_int(data["result"]["order"]) == 96
    assert parse_int(data["result"]["enumerated_order"]) == 96
    assert parse_int(data["schema"]) == 3
    assert "seed" not in data["config"]


def test_verify_refuses_a_report_of_an_earlier_schema(tmp_path, capsys):
    # schema 3 dropped the evidence's double_coset_member, so a schema-2
    # report is refused even when every other byte would verify
    path = tmp_path / "q.json"
    run_report(["quotient", "--modulus", "2"], path)
    _tamper(path, lambda data: data.update(schema="2"))
    capsys.readouterr()
    assert main(["verify", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: verify failed: unsupported schema '2'\n"


def test_image_and_intersect_commands(tmp_path, gens_files):
    data, _ = run_report(
        ["image", "--modulus", "3", "--gens", gens_files["h"]], tmp_path / "img.json"
    )
    assert parse_int(data["result"]["size"]) == 24
    data, _ = run_report(
        [
            "intersect",
            "--modulus",
            "3",
            "--left",
            gens_files["h"],
            "--right",
            gens_files["k"],
        ],
        tmp_path / "meet.json",
    )
    assert parse_int(data["result"]["size_intersection"]) == 1


def test_dcoset_member_and_verify(tmp_path, gens_files):
    element = json.dumps({"a": {"rows": [["2", "0"], ["0", "2"]], "m": None}, "w": ""})
    path = tmp_path / "member.json"
    data, _ = run_report(
        [
            "dcoset-member",
            "--modulus",
            "3",
            "--element",
            element,
            "--left",
            gens_files["h"],
            "--right",
            gens_files["k"],
        ],
        path,
    )
    assert data["result"]["member"] is False
    verify_out = tmp_path / "verify.json"
    assert main(["verify", "--report", str(path), "--output", str(verify_out)]) == 0


def test_lowindex_and_congruence_commands(tmp_path):
    path = tmp_path / "lowindex.json"
    data, _ = run_report(["lowindex", "--max-degree", "5"], path)
    assert parse_int(data["result"]["count"]) == len(low_index_reps(5))
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0

    rep_path = tmp_path / "rep.json"
    rep_path.write_text(canonical_dumps(congruence_rep(2)))
    cpath = tmp_path / "congruence.json"
    data, _ = run_report(["congruence", "--rep", str(rep_path)], cpath)
    assert data["result"]["congruence"] is True
    assert parse_int(data["result"]["level"]) == 2
    assert main(["verify", "--report", str(cpath), "--output", str(tmp_path / "v2.json")]) == 0


def test_gap_witness_command_and_verify(tmp_path):
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(canonical_dumps(rep))
    path = tmp_path / "witness.json"
    data, _ = run_report(
        ["gap-witness", "--rep", str(rep_path), "--level", "12", "--m-max", "12"], path
    )
    assert data["result"]["status"] == "found"
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0


def test_gap_witness_rejects_congruence_rep(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(canonical_dumps(congruence_rep(2)))
    code = main(["gap-witness", "--rep", str(rep_path), "--level", "4"])
    assert code == 2


def test_tractable_command_and_verify(tmp_path, gens_files):
    path = tmp_path / "tractable.json"
    data, _ = run_report(
        [
            "tractable",
            "--h-gens",
            gens_files["h"],
            "--k-gens",
            gens_files["k"],
            "--hcapk-gens",
            gens_files["empty"],
            "--m-spec",
            '{"m": 2}',
        ],
        path,
    )
    assert data["result"]["found"] is not None
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0


def test_thm_b_probe_command_and_verify(tmp_path, gens_files):
    element = json.dumps({"a": {"rows": [["2", "0"], ["0", "2"]], "m": None}, "w": ""})
    path = tmp_path / "probe.json"
    data, _ = run_report(
        [
            "thm-b-probe",
            "--h-gens",
            gens_files["h"],
            "--k-gens",
            gens_files["k"],
            "--element",
            element,
        ],
        path,
    )
    assert data["result"]["status"] == "certified"
    assert parse_int(data["result"]["certificate"]["spec"]["m"]) == 3
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0


def test_gs_demo_determinism_and_verify(tmp_path):
    first = tmp_path / "demo1.json"
    second = tmp_path / "demo2.json"
    _, text1 = run_report(["gs-demo", "--max-level", "4", "--m-max", "6"], first)
    _, text2 = run_report(["gs-demo", "--max-level", "4", "--m-max", "6"], second)
    assert text1 == text2
    assert main(["verify", "--report", str(first), "--output", str(tmp_path / "v.json")]) == 0


def test_verify_rejects_tampered_report(tmp_path):
    path = tmp_path / "demo.json"
    data, text = run_report(["gs-demo", "--max-level", "3", "--m-max", "4"], path)
    tampered = json.loads(text)
    tampered["result"]["intersections"][0]["size"] = "2"
    path.write_text(canonical_dumps(tampered))
    assert main(["verify", "--report", str(path)]) == 2
    path.write_text(text + " ")
    assert main(["verify", "--report", str(path)]) == 2


def test_verify_rejects_malformed_reports(tmp_path):
    path = tmp_path / "report.json"
    for data in ([], {"command": "tractable", "config": {}, "result": [], "schema": "3"}):
        path.write_text(canonical_dumps(data))
        assert main(["verify", "--report", str(path)]) == 2


def test_exit_code_on_bad_input(tmp_path):
    assert main(["image", "--modulus", "3", "--gens", str(tmp_path / "missing.json")]) == 2
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["image", "--modulus", "3", "--gens", str(bad)]) == 2
    # int() would read this as the degree-1 representation
    bad.write_text('{"degree": 1.9, "s": [0.5], "t": [0]}')
    assert main(["quotient", "--modulus", "2", "--rep", str(bad)]) == 2
    # a representation refuses a key it does not know, as every input object does
    bad.write_text('{"degree": 1, "s": [0], "t": [0], "typo": 5}')
    assert main(["quotient", "--modulus", "2", "--rep", str(bad)]) == 2


# Every entry point of JSON text, and where its text goes: a file named by
# the flag, or the flag's value itself.
_ENTRY_POINTS = {
    "gens": (["image", "--modulus", "3", "--gens", "{file}"], "cannot read generator file"),
    "rep": (["quotient", "--modulus", "2", "--rep", "{file}"], "cannot read permutation representation"),
    "tower": (["thm-b-probe", "--h-gens", "{h}", "--k-gens", "{h}", "--element", "{}", "--tower", "{file}"],
              "cannot read tower file"),
    "element": (["dcoset-member", "--modulus", "3", "--left", "{h}", "--right", "{h}", "--element", "{text}"],
                "bad element JSON"),
    "m-spec": (["tractable", "--h-gens", "{h}", "--k-gens", "{h}", "--m-spec", "{text}"], "--m-spec takes inline JSON"),
    "verify": (["verify", "--report", "{file}"], "report is not valid JSON"),
}


@pytest.mark.parametrize(
    "text", ["[" * 100_000, "[" * 3000 + "]" * 3000, "1" * 5000], ids=["open-100k", "nested-3000", "digits-5000"]
)
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_malformed_json_exits_2_at_every_entry_point(tmp_path, gens_files, capsys, entry, text):
    # too deep for the decoder's recursion, or an integer past Python's
    # 4,300-digit limit: refused under the entry point's own prefix
    args, prefix = _ENTRY_POINTS[entry]
    path = tmp_path / "input.json"
    path.write_text(text)
    fill = {"{file}": str(path), "{text}": text, "{h}": gens_files["h"]}
    assert main([fill.get(a, a) for a in args]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"error: {prefix}") and "Traceback" not in err


# An input that names one key twice, which a JSON reader would otherwise
# read as its last value, at each entry point.
_REPEATED_KEYS = {
    "m-spec": ('{"m": 2, "m": 4}', "'m'"),
    "element": ('{"w": "T", "w": "S"}', "'w'"),
    "rep": ('{"degree": 1, "s": [0], "t": [0], "s": [0]}', "'s'"),
    "tower": ('[{"m": 2}, {"m": 2, "rep": null, "m": 4}]', "'m'"),
    "gens": ('[{"w": "S"}, {"a": null, "w": "T", "w": "S"}]', "'w'"),
    "verify": ('{"schema": "3", "command": "quotient", "config": {}, "result": {}, "command": "image"}', "'command'"),
}


@pytest.mark.parametrize("entry", sorted(_REPEATED_KEYS))
def test_a_repeated_key_exits_2_at_every_entry_point(tmp_path, gens_files, capsys, entry):
    args, prefix = _ENTRY_POINTS[entry]
    text, key = _REPEATED_KEYS[entry]
    path = tmp_path / "input.json"
    path.write_text(text)
    fill = {"{file}": str(path), "{text}": text, "{h}": gens_files["h"]}
    out = tmp_path / "out.json"
    assert main([fill.get(a, a) for a in args] + ["--output", str(out)]) == 2
    stdout, err = capsys.readouterr()
    assert stdout == "" and not out.exists()
    assert err.startswith(f"error: {prefix}") and err.rstrip().endswith(f"repeated key {key}")


def test_verify_refuses_a_canonical_report_nested_600_deep(tmp_path, capsys):
    # json reads it, but recording it again would recurse 600 deep
    report = {"schema": "3", "command": "quotient", "config": {"rep": json.loads("[" * 600 + "]" * 600)}, "result": {}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    assert main(["verify", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: report is not valid JSON: nested deeper than 32 levels\n"


_HUGE = str(2**5000)


@pytest.mark.parametrize(
    "args, message",
    [
        (["quotient", "--modulus", _HUGE], "a result of about 2^34999 has over 4300 digits"),
        (["quotient", "--modulus", _HUGE, "--enumerate"], " has about 2^34999 elements > 5000000 (closure_cap)"),
        (["gap-witness", "--rep", str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"), "--level", _HUGE],
         " has about 2^14998 elements > 5000000 (closure_cap)"),
    ],
    ids=["quotient", "quotient-enumerate", "gap-witness"],
)
def test_a_result_too_long_to_write_exits_3(tmp_path, capsys, args, message):
    # Python writes no integer of more than 4,300 digits in decimal, so the
    # size is given as a power of two
    out = tmp_path / "out.json"
    assert main(args + ["--output", str(out)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exhausted: ") and err.rstrip().endswith(message)
    # a huge modulus in the message is shortened as the size is
    assert len(err.encode("utf-8")) < 200
    assert not out.exists()


@pytest.mark.parametrize("kind", ["quotient", "tractable"])
def test_a_huge_modulus_is_shortened_in_the_budget_message(tmp_path, gens_files, capsys, kind):
    modulus = 2**200
    if kind == "quotient":
        args = ["quotient", "--modulus", str(modulus), "--enumerate"]
        # m^4 |SL2(Z/m)| = 2^1400 * 3/4
        message = "quotient mod about 2^200 has about 2^1399 elements"
    else:
        tower = tmp_path / "tower.json"
        tower.write_text(json.dumps([{"m": modulus}]))
        args = ["tractable", "--h-gens", gens_files["empty"], "--k-gens", gens_files["empty"],
                "--m-spec", '{"m": 2}', "--tower", str(tower)]
        message = "refinement kernel about 2^200 -> 2 has about 2^"
    assert main(args + ["--output", str(tmp_path / "out.json")]) == 3
    err = capsys.readouterr().err
    assert message in err and len(err.encode("utf-8")) < 200


@pytest.mark.parametrize(
    "element",
    [
        '{"w ": "T"}',
        '{"a": {"rows": [[2, 0], [0, 2], [7, 7]]}}',
        '{"a": {"rows": [[2, 0], [0, 2]], "mod": 3}}',
    ],
    ids=["element-key", "third-row", "matrix-key"],
)
def test_element_with_a_stray_key_or_row_exits_2(tmp_path, gens_files, element):
    out = tmp_path / "out.json"
    sides = ["--left", gens_files["h"], "--right", gens_files["k"], "--output", str(out)]
    assert main(["dcoset-member", "--modulus", "3", "--element", element, *sides]) == 2
    # generator files go through the same reader
    gens = tmp_path / "gens.json"
    gens.write_text(f"[{element}]")
    assert main(["image", "--modulus", "3", "--gens", str(gens), "--output", str(out)]) == 2
    assert not out.exists()


def test_exit_code_on_budget_exhaustion(tmp_path):
    assert (
        main(
            [
                "quotient",
                "--modulus",
                "3",
                "--enumerate",
                "--closure-cap",
                "10",
                "--output",
                str(tmp_path / "q.json"),
            ]
        )
        == 3
    )


def test_gs_demo_budget_exhaustion_exits_3(tmp_path):
    # |PSL2(Z/24)| = 4608 exceeds the cap, so the witness search cannot run;
    # that is exhaustion, not inconclusive evidence
    args = ["gs-demo", "--max-level", "2", "--m-max", "30", "--closure-cap", "1000"]
    assert main(args + ["--output", str(tmp_path / "demo.json")]) == 3
    assert not (tmp_path / "demo.json").exists()


def _cli_alone(args) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    return subprocess.run([sys.executable, "-m", "cosetope", *args], capture_output=True, text=True, env=env, timeout=60)


def test_unwritable_output_exits_2_without_a_traceback(tmp_path):
    for output in (tmp_path / "missing" / "q.json", tmp_path):
        done = _cli_alone(["quotient", "--modulus", "2", "--output", str(output)])
        assert done.returncode == 2
        assert "error: cannot write report" in done.stderr
        assert "Traceback" not in done.stderr


def test_gs_demo_huge_max_level_exits_3_quickly():
    # every level's |SL2(Z/m)| is checked before the first closure, and the
    # orders pass the cap for a bounded number of levels only
    start = time.perf_counter()
    done = _cli_alone(["gs-demo", "--max-level", "1000000"])
    assert time.perf_counter() - start < 5
    assert done.returncode == 3
    assert "the image of H mod 173 has 5177544 elements > 5000000" in done.stderr
    done = _cli_alone(["gs-demo", "--max-level", "1000000", "--closure-cap", "100"])
    assert done.returncode == 3 and "the image of H mod 5 has 120 elements > 100" in done.stderr


def test_gs_demo_refuses_an_m_max_below_2(tmp_path):
    for m_max in ("-4", "0", "1"):
        out = tmp_path / f"demo{m_max}.json"
        assert main(["gs-demo", "--max-level", "2", "--m-max", m_max, "--output", str(out)]) == 2
        assert not out.exists()


def test_gap_witness_refuses_an_m_max_below_2(tmp_path):
    # the witness would rest on no checked level
    rep = str(Path(__file__).resolve().parent / "golden" / "nc_rep.json")
    for m_max in ("-4", "0", "1"):
        out = tmp_path / f"witness{m_max}.json"
        assert main(["gap-witness", "--rep", rep, "--level", "24", "--m-max", m_max, "--output", str(out)]) == 2
        assert not out.exists()


def test_gs_demo_refuses_a_max_level_below_2(tmp_path):
    # the intersection table would rest on no level
    for max_level in ("-4", "0", "1"):
        out = tmp_path / f"demo{max_level}.json"
        assert main(["gs-demo", "--max-level", max_level, "--m-max", "4", "--output", str(out)]) == 2
        assert not out.exists()


INT_FLAGS = [
    ["lowindex", "--max-degree", "{v}"],
    ["gap-witness", "--rep", "nc_rep.json", "--level", "{v}"],
    ["gap-witness", "--rep", "nc_rep.json", "--level", "24", "--m-max", "{v}"],
    ["gs-demo", "--max-degree", "{v}"],
    ["gs-demo", "--max-level", "{v}"],
    ["gs-demo", "--m-max", "{v}"],
    ["quotient", "--modulus", "{v}"],
    ["quotient", "--modulus", "{v}", "--enumerate"],
    ["quotient", "--modulus", "2", "--enumerate", "--closure-cap", "{v}"],
]


# image, intersect and dcoset-member are left out: they close the image of
# their generators at --modulus before any size is known
@pytest.mark.parametrize("value", [str(10**12), "-5", "0"])
@pytest.mark.parametrize("args", INT_FLAGS, ids=[" ".join(a) for a in INT_FLAGS])
def test_integer_flags_end_quickly_with_exit_0_2_or_3(tmp_path, monkeypatch, args, value):
    monkeypatch.chdir(GOLDEN)
    start = time.perf_counter()
    code = main([value if a == "{v}" else a for a in args] + ["--output", str(tmp_path / "out.json")])
    assert code in (0, 2, 3)
    assert time.perf_counter() - start < 5


def test_commands_in_one_process_keep_their_own_budgets(tmp_path):
    # caps on both sides of the largest level images of gs-demo --m-max 32:
    # the walks of one command must not carry over to the next
    caps = ["29760", "14879", "29760", "14880", "29759"]
    args = ["gs-demo", "--max-level", "2", "--m-max", "32"]
    alone = {cap: _cli_alone(args + ["--closure-cap", cap]).returncode for cap in set(caps)}
    assert alone == {"29760": 0, "14879": 3, "14880": 3, "29759": 3}
    in_process = [main(args + ["--closure-cap", cap, "--output", str(tmp_path / f"{i}.json")]) for i, cap in enumerate(caps)]
    assert in_process == [alone[cap] for cap in caps]


def test_seed_flag_is_gone(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["quotient", "--modulus", "2", "--seed", "1", "--output", str(tmp_path / "q.json")])
    assert exc.value.code == 2


def test_product_cap_flag_is_gone(tmp_path, capsys):
    # the closure cap is the only budget: no subcommand takes --product-cap
    subparsers = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    for sub in subparsers.choices.values():
        assert "--product-cap" not in sub._option_string_actions
        assert "--closure-cap" in sub._option_string_actions
    with pytest.raises(SystemExit) as exc:
        main(["quotient", "--modulus", "2", "--product-cap", "5", "--output", str(tmp_path / "q.json")])
    assert exc.value.code == 2
    assert "unrecognized arguments: --product-cap 5" in capsys.readouterr().err


def test_verify_rechecks_an_inconclusive_probe(tmp_path, gens_files):
    # det(2I + I) = 9 is 1 mod 2 and mod 4, so only modulus 3 excludes (2I, 1)
    element = json.dumps({"a": {"rows": [["2", "0"], ["0", "2"]], "m": None}, "w": ""})
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 2}, {"m": 4}]))
    path = tmp_path / "probe.json"
    args = ["thm-b-probe", "--h-gens", gens_files["h"], "--k-gens", gens_files["k"], "--element", element]
    data, _ = run_report(args + ["--tower", str(tower)], path)
    assert data["result"]["status"] == "inconclusive"
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0
    _tamper(path, lambda data: data["result"]["tower"][1].update(m="3"))
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v2.json")]) == 2


@pytest.mark.parametrize("value", ["10", "junk"])
def test_the_closure_cap_is_not_read_from_the_environment(tmp_path, monkeypatch, capsys, value):
    # --closure-cap is the one way to set the cap; the variable that once
    # set it changes neither the exit code nor the report bytes
    args = ["quotient", "--modulus", "3", "--enumerate", "--output"]
    assert main(args + [str(tmp_path / "plain.json")]) == 0
    monkeypatch.setenv("COSETOPE_BUDGET", value)
    assert main(args + [str(tmp_path / "set.json")]) == 0
    assert capsys.readouterr().err == ""
    assert (tmp_path / "set.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_tractable_plain_tower_under_degree_one_action(tmp_path, gens_files):
    m_spec = json.dumps({"m": 2, "rep": {"degree": 1, "s": [0], "t": [0]}})
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 4}]))
    path = tmp_path / "tractable.json"
    h = gens_files["h"]
    data, _ = run_report(
        ["tractable", "--h-gens", h, "--k-gens", h, "--hcapk-gens", h, "--m-spec", m_spec, "--tower", str(tower)],
        path,
    )
    assert data["result"]["found"] is not None
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0


_VALID_FILTER = {"filter": {"type": "pro-p", "p": 2}}


@pytest.mark.parametrize(
    "fields",
    [
        {"filter": {"type": "pro-p", "p": "x"}},
        {"filter": "pro-p"},
        {"filter": {"type": "pro-p", "p": 4}},
        {"fliter": {"type": "pro-p", "p": 2}},
        {"filter": {"type": "pro-p", "p": 2, "q": 3}},
        {"filter": {"type": "all", "p": 3}},
        {"filter": {"p": 2}},
        _VALID_FILTER,
    ],
)
def test_bad_tower_filter_exits_2(tmp_path, gens_files, fields):
    # a tower entry refuses every filter, the valid one that --m-spec reads too
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 4, **fields}]))
    h = gens_files["h"]
    args = ["tractable", "--h-gens", h, "--k-gens", h, "--m-spec", '{"m": 2}', "--tower", str(tower)]
    assert main(args + ["--output", str(tmp_path / "t.json")]) == 2
    m_spec = json.dumps({"m": 2, **fields})
    args = ["tractable", "--h-gens", h, "--k-gens", h, "--m-spec", m_spec, "--output", str(tmp_path / "m.json")]
    assert main(args) == (0 if fields == _VALID_FILTER else 2)


def test_formation_check_closes_nothing_under_the_closure_cap(tmp_path, monkeypatch):
    # the pro-2 check reads nc_rep's S and ST off its permutations instead of
    # closing its permutation group, of order 5,040, so a cap of 10 writes
    # the default-cap bytes of golden/tractable_formation.json
    golden = Path(__file__).resolve().parent / "golden"
    monkeypatch.chdir(golden)
    args = [
        "tractable", "--h-gens", "h.json", "--k-gens", "k.json",
        "--m-spec", '{"m": 2, "filter": {"type": "pro-p", "p": 2}}', "--tower", "tower_nc_rep.json",
        "--output", str(tmp_path / "t.json"), "--closure-cap", "10",
    ]
    assert main(args) == 0
    assert (tmp_path / "t.json").read_bytes() == (golden / "tractable_formation.json").read_bytes()


@pytest.mark.parametrize("flags", [pytest.param(["--closure-cap", "0"], id="--closure-cap")])
def test_zero_cap_flag_is_rejected(tmp_path, capsys, flags):
    args = ["quotient", "--modulus", "2", "--enumerate", *flags, "--output", str(tmp_path / "q.json")]
    assert main(args) == 2
    assert "budgets must be positive" in capsys.readouterr().err


def test_budgets_are_positive_immutable_values():
    with pytest.raises(ValidationError, match="budgets must be positive"):
        Budgets(closure_cap=0)
    with pytest.raises(AttributeError):
        Budgets().closure_cap = 1
    assert Budgets(5) == Budgets(closure_cap=5)
    assert Budgets(5) != Budgets(7)


def test_quotient_enumerate_fails_fast_on_known_order(tmp_path, monkeypatch):
    # order 12^4 * |SL2(Z/12)| = 23,887,872 exceeds the default cap; the
    # known order must stop the command before any enumeration starts
    def refuse(self, budgets=None):
        raise AssertionError("enumeration started")

    monkeypatch.setattr(GroupContext, "enumerate", refuse)
    assert main(["quotient", "--modulus", "12", "--enumerate", "--output", str(tmp_path / "q.json")]) == 3


def _tamper(path, edit):
    """Rewrite a report canonically after ``edit`` changed its parsed data."""
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(canonical_dumps(data))


def _set_path(data, keys, value):
    for key in keys[:-1]:
        data = data[key]
    data[keys[-1]] = value


@pytest.mark.parametrize(
    "args, keys, value",
    [
        (["quotient", "--modulus", "2"], ("result", "order"), "97"),
        (["quotient", "--modulus", "2", "--enumerate"], ("result", "enumerated_order"), "95"),
        (["image", "--modulus", "3", "--gens", "{h}"], ("result", "size"), "999"),
        (["image", "--modulus", "3", "--gens", "{h}"], ("result", "sample", 1, "h", "rows", 0, 0), "2"),
        (["intersect", "--modulus", "3", "--left", "{h}", "--right", "{k}"], ("result", "size_intersection"), "2"),
        (["intersect", "--modulus", "3", "--left", "{h}", "--right", "{k}"], ("result", "size_left"), "23"),
        (
            ["dcoset-member", "--modulus", "3", "--element", '{"w": ""}', "--left", "{h}", "--right", "{k}"],
            ("result", "size_right"),
            "7",
        ),
        (
            ["gs-demo", "--max-level", "3", "--m-max", "6"],
            ("result", "evidence", "level_transcripts", 3, "image_order"),
            "7",
        ),
        (
            ["gs-demo", "--max-level", "3", "--m-max", "6"],
            ("result", "evidence", "level_transcripts", 0, "member"),
            False,
        ),
        (
            ["tractable", "--h-gens", "{h}", "--k-gens", "{k}", "--hcapk-gens", "{empty}", "--m-spec", '{"m": 2}',
             "--tower", "{tower}"],
            ("result", "entries", 1, "sizes", "kernel"),
            "64",
        ),
        (
            ["tractable", "--h-gens", "{h}", "--k-gens", "{k}", "--hcapk-gens", "{empty}", "--m-spec", '{"m": 2}',
             "--tower", "{tower}"],
            ("result", "entries", 1, "sizes", "image_h"),
            "47",
        ),
        (
            ["thm-b-probe", "--h-gens", "{h}", "--k-gens", "{k}", "--element",
             '{"a": {"rows": [["2", "0"], ["0", "2"]], "m": null}, "w": ""}'],
            ("result", "certificate", "transcript", "image_k"),
            "25",
        ),
        (["congruence", "--rep", "{rep}"], ("result", "image_index"), "5"),
        # equal to true under Python's ==, but not the bytes the CLI writes
        (["congruence", "--rep", "{rep}"], ("result", "congruence"), 1.0),
    ],
)
def test_verify_rejects_tampered_results(tmp_path, gens_files, args, keys, value):
    rep = tmp_path / "rep.json"
    rep.write_text(canonical_dumps(congruence_rep(2)))
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 3}, {"m": 4}]))
    files = dict(gens_files, rep=str(rep), tower=str(tower))
    path = tmp_path / "report.json"
    run_report([files.get(a.strip("{}"), a) for a in args], path)
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0
    _tamper(path, lambda data: _set_path(data, keys, value))
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v2.json")]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["congruence", "--rep", "{rep}"],
        ["gap-witness", "--rep", "{rep}", "--level", "24"],
        ["lowindex", "--max-degree", "5"],
    ],
)
def test_closure_cap_flag_reaches_congruence_paths(tmp_path, args):
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(canonical_dumps(rep))
    argv = [str(rep_path) if a == "{rep}" else a for a in args]
    assert main(argv + ["--closure-cap", "10", "--output", str(tmp_path / "out.json")]) == 3


def test_huge_modulus_ends_quickly(tmp_path):
    start = time.perf_counter()
    data, _ = run_report(["quotient", "--modulus", "1000000000000000003"], tmp_path / "q.json")
    assert parse_int(data["result"]["sl2_order"]) == 1000000000000000003 ** 3 - 1000000000000000003
    assert main(["verify", "--report", str(tmp_path / "q.json"), "--output", str(tmp_path / "v.json")]) == 0
    # a product of two primes above the trial-division bound cannot be factored at desk scale
    composite = str(1_000_000_007 * 1_000_000_009)
    assert main(["quotient", "--modulus", composite, "--output", str(tmp_path / "q2.json")]) == 3
    assert time.perf_counter() - start < 10


def test_huge_m_max_ends_quickly(tmp_path):
    # every level's image order is known from its blocks, so the closure cap
    # stops the level loop (at m = 221, where PSL2(Z/221) has 5,346,432
    # elements) instead of a closure that grows toward it
    rep = str(Path(__file__).resolve().parent / "golden" / "nc_rep.json")
    huge = "1000000000000"
    for args in (["gs-demo", "--m-max", huge], ["gap-witness", "--rep", rep, "--level", "24", "--m-max", huge]):
        start = time.perf_counter()
        assert main(args + ["--output", str(tmp_path / "out.json")]) == 3
        assert time.perf_counter() - start < 10
    assert not (tmp_path / "out.json").exists()


def test_gs_demo_and_verify_close_no_level_image(tmp_path, monkeypatch):
    # the images of H are walked and the level images read off blocks, so
    # gs-demo and its verify run no closure at all
    closures = count_closures(monkeypatch)
    path = tmp_path / "demo.json"
    data, _ = run_report(["gs-demo", "--max-level", "3", "--m-max", "8"], path)
    assert data["result"]["evidence"]["status"] == "evidence"
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0
    assert not closures


def test_gs_demo_walks_each_level_once(tmp_path, monkeypatch):
    # the intersection table lists nothing; the evidence walks the level
    # images it keeps once per (rep, n)
    walked = []
    real = cosetope.modular._gamma_walk

    def spy(rep, n, budgets, seen=None):
        if sys._getframe(1).f_code.co_name == "image_blocks":
            walked.append((rep, n))
        return real(rep, n, budgets, seen)

    monkeypatch.setattr(cosetope.modular, "_gamma_walk", spy)
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    expected = [(rep, g) for g in (2, 3, 4, 6, 12)]
    run_report(["gs-demo", "--m-max", "32"], tmp_path / "demo.json")
    assert sorted(walked) == sorted(expected)
    walked.clear()
    run_report(["gs-demo", "--max-level", "2", "--m-max", "6"], tmp_path / "demo2.json")
    assert sorted(walked) == sorted(expected[:4])


def test_gs_demo_intersection_table_matches_the_listing_oracle(tmp_path):
    # the closed-form rows against the images of H and K listed and intersected
    data, _ = run_report(["gs-demo", "--max-level", "12", "--m-max", "2"], tmp_path / "demo.json")
    oracle = [{"m": str(m), "size": str(len(gs_intersection(gs_build(QuotientSpec.make(m)))))} for m in range(2, 13)]
    assert data["result"]["intersections"] == oracle


@pytest.mark.parametrize(
    "args, edits",
    [
        (["quotient", "--modulus", "2", "--enumerate"], {("config", "enumerate"): "no", ("config", "modulus"): " 2"}),
        (["quotient", "--modulus", "2", "--enumerate"], {("config", "enumerate"): "no"}),
        (["quotient", "--modulus", "2", "--enumerate"], {("config", "modulus"): " 2"}),
        (["lowindex", "--max-degree", "3", "--subgroups"], {("config", "subgroups"): 1}),
        (["gap-witness", "--rep", "{rep}", "--level", "3", "--m-max", "10"], {("config", "m_max"): "1_0"}),
        (["gap-witness", "--rep", "{rep}", "--level", "3", "--m-max", "2"], {("config", "m_max"): " 2"}),
        (["gap-witness", "--rep", "{rep}", "--level", "3", "--m-max", "2"], {("config", "m_max"): "02"}),
        (["gap-witness", "--rep", "{rep}", "--level", "3", "--m-max", "2"], {("config", "m_max"): "+2"}),
        (["quotient", "--modulus", "2"], {("schema",): " 3"}),
        (["quotient", "--modulus", "2"], {("schema",): "0_3"}),
        (["quotient", "--modulus", "2"], {("config", "closure_cap"): "5"}),
        (["quotient", "--modulus", "2"], {("config", "output"): "elsewhere.json"}),
        (["quotient", "--modulus", "2"], {("config", "foo"): "1"}),
        (["quotient", "--modulus", "2"], {("note",): "1"}),
        (["quotient", "--modulus", "2"], {("config", "help"): True}),
        (["quotient", "--modulus", "2"], {("config", "h"): True}),
        (["quotient", "--modulus", "2"], {("config", "rep"): False}),
        (["quotient", "--modulus", "2"], {("config",): ["--modulus=2"]}),
        (["lowindex", "--max-degree", "3"], {("config", "subgroups"): 0.0}),
    ],
)
def test_verify_rejects_a_config_the_cli_could_not_have_written(tmp_path, capsys, args, edits):
    # each edit reads as the recorded value under Python's int(), == or truth
    # test, or adds a key that no command reads, so verify used to accept it
    rep = str(Path(__file__).resolve().parent / "golden" / "nc_rep.json")
    path = tmp_path / "report.json"
    run_report([rep if a == "{rep}" else a for a in args], path)
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0

    def edit(data):
        for keys, value in edits.items():
            _set_path(data, keys, value)

    _tamper(path, edit)
    capsys.readouterr()
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v2.json")]) == 2
    # a recorded help key must not reach argparse as --help, which prints usage to stdout
    assert capsys.readouterr().out == ""


GOLDEN = Path(__file__).resolve().parent / "golden"


def test_tractable_schreier_kernel_budget_exits_3_quickly(tmp_path):
    # a fine spec with a coset action over a plain target takes the
    # coset-action path, whose closure of the linear part stops at the cap
    shutil.copy(GOLDEN / "nc_rep.json", tmp_path / "nc_rep.json")
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 8, "rep": "nc_rep.json"}]))
    empty = str(GOLDEN / "empty.json")
    args = ["tractable", "--h-gens", empty, "--k-gens", empty, "--m-spec", '{"m": 8}', "--tower", str(tower)]
    start = time.perf_counter()
    assert main(args + ["--closure-cap", "1000", "--output", str(tmp_path / "t.json")]) == 3
    assert time.perf_counter() - start < 5


def test_closure_budget_error_names_the_group_it_closed_in(tmp_path, monkeypatch, capsys):
    # level 2 closes every image; at level 3 the image of L, up to
    # 3^4 * |SL2(Z/3)| = 1944 elements, is the first closure past the cap
    monkeypatch.chdir(GOLDEN)
    args = ["thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", '{"w": ""}']
    args += ["--l-rep", "nc_rep.json", "--closure-cap", "1000", "--output", str(tmp_path / "p.json")]
    assert main(args) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: closure budget exceeded: more than 1000 elements in M2(Z/3) x| SL2(Z/3) (closure_cap)\n"
    )


def test_thm_b_probe_refuses_both_ways_of_giving_l(tmp_path, monkeypatch, capsys):
    # --l-gens and --l-rep each give L; a probe given both read only --l-gens
    monkeypatch.chdir(GOLDEN)
    message = "error: thm-b-probe takes --l-gens or --l-rep, not both\n"
    args = ["thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", '{"w": "T"}']
    args += ["--l-gens", "h.json", "--l-rep", "nc_rep.json", "--tower", "tower_violation.json"]
    assert main(args) == 2
    assert capsys.readouterr() == ("", message)
    # verify reruns the command on its recorded config, so it refuses the pair too
    report = tmp_path / "probe.json"
    shutil.copy(GOLDEN / "thm_b_inconclusive.json", report)
    _tamper(report, lambda data: data["config"].update(l_gens="h.json", l_rep="nc_rep.json"))
    assert main(["verify", "--report", str(report), "--output", str(tmp_path / "v.json")]) == 2
    assert capsys.readouterr() == ("", message)


def test_verify_refuses_a_recorded_path_that_is_not_a_string(tmp_path):
    # open(True) would take the bool as file descriptor 1 and close stdout
    path = tmp_path / "report.json"
    run_report(["congruence", "--rep", str(GOLDEN / "nc_rep.json")], path)
    _tamper(path, lambda data: _set_path(data, ("config", "rep"), True))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "cosetope", "verify", "--report", str(path)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert done.returncode == 2
    assert "verify failed: config: cosetope congruence: error: argument --rep: expected one argument" in done.stderr
    assert "Bad file descriptor" not in done.stderr


def test_verify_reparses_a_recorded_path_that_starts_with_a_dash(tmp_path, monkeypatch):
    # the reparse writes --rep=-nc.json; a separate "-nc.json" would read as an option
    shutil.copy(GOLDEN / "nc_rep.json", tmp_path / "-nc.json")
    monkeypatch.chdir(tmp_path)
    run_report(["congruence", "--rep=-nc.json"], tmp_path / "report.json")
    assert main(["verify", "--report", "report.json", "--output", "v.json"]) == 0


def test_verify_names_the_first_differing_path(tmp_path, gens_files, capsys):
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 3}, {"m": 4}]))
    path = tmp_path / "report.json"
    h, k, empty = gens_files["h"], gens_files["k"], gens_files["empty"]
    args = ["tractable", "--h-gens", h, "--k-gens", k, "--hcapk-gens", empty, "--m-spec", '{"m": 2}']
    run_report(args + ["--tower", str(tower)], path)
    _tamper(path, lambda data: _set_path(data, ("result", "entries", 1, "sizes", "kernel"), "64"))
    capsys.readouterr()
    assert main(["verify", "--report", str(path)]) == 2
    err = capsys.readouterr().err
    assert "result.entries[1].sizes.kernel: report says '64', recomputed '128'" in err
    assert len(err) < 200


def test_verify_rejects_a_cut_lowindex_table(tmp_path, capsys):
    path = tmp_path / "lowindex.json"
    data, _ = run_report(["lowindex", "--max-degree", "5"], path)
    assert len(data["result"]["reps"]) == 7

    def cut(data):
        del data["result"]["reps"][2:]
        data["result"]["count"] = "2"

    _tamper(path, cut)
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 2
    assert "result.count: report says '2', recomputed '7'" in capsys.readouterr().err


def test_one_verify_run_builds_the_parser_once(tmp_path, monkeypatch):
    run_report(["quotient", "--modulus", "2"], tmp_path / "q.json")
    builds = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, **kwargs):
        builds.append(self.prog)
        return add_subparsers(self, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    build_parser.cache_clear()
    assert main(["verify", "--report", str(tmp_path / "q.json"), "--output", str(tmp_path / "v.json")]) == 0
    assert builds == ["cosetope"]


def test_congruence_refuses_a_rep_whose_permutations_are_not_lists(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"degree": 2, "s": {"1": "x", "0": "y"}, "t": "10"}))
    assert main(["congruence", "--rep", str(rep), "--output", str(tmp_path / "c.json")]) == 2
    assert "s and t must be lists" in capsys.readouterr().err


def test_subcommands_are_the_command_table_and_verify():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(COMMANDS) | {"verify"}


def test_verify_of_a_verify_report_exits_2(tmp_path, capsys):
    run_report(["quotient", "--modulus", "2"], tmp_path / "q.json")
    verified, _ = run_report(["verify", "--report", str(tmp_path / "q.json")], tmp_path / "v.json")
    assert verified["result"] == {"checked": "quotient", "verified": True}
    assert main(["verify", "--report", str(tmp_path / "v.json")]) == 2
    assert "unknown command 'verify'" in capsys.readouterr().err
