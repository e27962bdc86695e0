import json
import os
import shutil
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from cosetope import report as rpt
from cosetope.arith import sl2_group_order
from cosetope.budgets import Budgets
from cosetope.cli import LEAST, OPTIONS, main, parse
from cosetope.errors import ValidationError, shown
from cosetope.modular import is_congruence, low_index_reps, rep_level
from cosetope.gs import l_group_words
from cosetope.profinite import DEFAULT_TOWER, GroupWord, QuotientSpec, project, quotient_context
from cosetope.report import as_recorded, canonical_dumps, parse_int

from golden_cases import CASES
from t_util import congruence_rep, count_closures, gs_build, gs_intersection, quotient_closure_order, spy_walks

GOLDEN = Path(__file__).resolve().parent / "golden"

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
    data, _ = run_report(["quotient", "--modulus", "2"], tmp_path / "q.json")
    assert parse_int(data["result"]["order"]) == 96 == quotient_closure_order(QuotientSpec.make(2))
    assert data["result"].keys() == {"identity", "order", "sl2_order"}
    assert parse_int(data["schema"]) == 7
    assert "seed" not in data["config"] and "enumerate" not in data["config"]


def test_verify_refuses_a_report_of_an_earlier_schema(tmp_path, capsys):
    # schema 6 drops from each result what the config already says, which
    # leaves a quotient report's bytes as they were, so a schema-5 report is
    # refused even when every other byte would verify
    path = tmp_path / "q.json"
    run_report(["quotient", "--modulus", "2"], path)
    _tamper(path, lambda data: data.update(schema="5"))
    capsys.readouterr()
    assert main(["verify", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: verify failed: unsupported schema '5'\n"


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
        ["gap-witness", "--rep", str(rep_path), "--level", "12"], path
    )
    # a search that finds no witness exits 2 or 3, so the result is the witness alone
    assert data["result"].keys() == {"witness"}
    assert data["result"]["witness"]["displaced_to"] != "0"
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0


def test_gap_witness_rejects_congruence_rep(tmp_path, capsys):
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(canonical_dumps(congruence_rep(2)))
    code = main(["gap-witness", "--rep", str(rep_path), "--level", "4"])
    assert code == 2
    # at level 3, which the class's level 2 does not divide, Gamma(3) leaves
    # the subgroup, so only the congruence verdict refuses the word TTT
    capsys.readouterr()
    assert main(["gap-witness", "--rep", str(rep_path), "--level", "3"]) == 2
    assert "no gap exists" in capsys.readouterr().err


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


def test_verify_rejects_malformed_reports(tmp_path, capsys):
    path = tmp_path / "report.json"
    for data in ([], {"command": "tractable", "config": {}, "result": [], "schema": "3"}):
        path.write_text(canonical_dumps(data))
        assert main(["verify", "--report", str(path)]) == 2
    data, text = run_report(["quotient", "--modulus", "2"], tmp_path / "q.json")
    keys = "a report holds exactly the keys ['command', 'config', 'result', 'schema']"
    cases = [
        (canonical_dumps({**data, "extra": "1"}), keys),
        (canonical_dumps({k: v for k, v in data.items() if k != "result"}), keys),
        (canonical_dumps([data]), keys),
        (canonical_dumps({**data, "schema": "4"}), "unsupported schema '4'"),
        (canonical_dumps({**data, "command": "verify"}), "unknown command 'verify'"),
        (json.dumps(data, sort_keys=True), "not in canonical form"),
    ]
    capsys.readouterr()
    for report, message in cases:
        path.write_text(report)
        assert main(["verify", "--report", str(path)]) == 2
        assert message in capsys.readouterr().err
    path.write_text(text)
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0


def test_verify_cuts_a_long_recorded_value_in_its_refusal(tmp_path, capsys):
    # a report's schema, command or differing value of 5,000 characters is
    # shown cut to 60, so the refusal stays one short line
    data, _ = run_report(["quotient", "--modulus", "2"], tmp_path / "q.json")
    path = tmp_path / "long.json"
    long = "9" * 5000
    result = {**data["result"], "order": long}
    for report in ({**data, "schema": long}, {**data, "command": long}, {**data, "result": result}):
        path.write_text(canonical_dumps(report))
        assert main(["verify", "--report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and len(err.encode()) <= 300 and "9" * 60 not in err and " ..." in err, err[:300]


def test_exit_code_on_bad_input(tmp_path, capsys):
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
    gens = '[{"w": "S"}]'
    member = ["dcoset-member", "--modulus", "3", "--left", gens, "--right", gens, "--element"]
    modular_a = '{"a": {"rows": [["1", "0"], ["0", "1"]], "m": "3"}, "w": ""}'
    tractable = ["tractable", "--h-gens", gens, "--k-gens", gens, "--m-spec", '{"m": 2}', "--tower"]
    cases = [
        (member + ['{"w": 5}'], "expected a word string"),
        (member + [modular_a], "must be ambient"),
        # a word is over S, s, T and t alone: a space is not skipped
        (member + ['{"w": "S T"}'], "bad word character: ' '"),
        (["congruence", "--rep", '{"degree": 3, "s": [1, 2, 0], "t": [0, 1, 2]}'], "perm_s is not an involution"),
        # each object reader names the object it expected, or the key it misses
        (["congruence", "--rep", "[1,2]"], "expected a permutation representation object, got [1, 2]"),
        (tractable + ['["x"]'], "expected a quotient spec object, got 'x'"),
        (["congruence", "--rep", '{"s": [0], "t": [0]}'], "permutation representation needs the key 'degree'"),
    ]
    capsys.readouterr()
    for args, message in cases:
        assert main(args + ["--output", str(tmp_path / "out.json")]) == 2
        assert message in capsys.readouterr().err
    # a refusal shows at most 60 characters of the value it refuses
    for text in (json.dumps(["x" * 5000]), json.dumps({"degree": "1" * 5000 + "x", "s": [0], "t": [0]})):
        assert main(["congruence", "--rep", text]) == 2
        assert len(capsys.readouterr().err) < 160


def test_a_long_unknown_or_repeated_key_is_cut_in_its_refusal(capsys):
    key = "k" * 5000
    for text in (json.dumps({key: 1}), f'{{"{key}": 1, "{key}": 2}}'):
        assert main(["congruence", "--rep", text]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and len(err.encode()) <= 300, err[:300]
        assert "key 'kkkk" in err and " ..." in err


_LONG = "x" * 5000


@pytest.mark.parametrize(
    "argv",
    [
        ["congruence", "--rep", _LONG],
        ["verify", "--report", _LONG],
        ["quotient", "--modulus", _LONG],
        ["quotient", "--" + _LONG],
        ["quotient", "--modulus", "2", "--output", "{missing}/" + _LONG],
        [_LONG],
    ],
    ids=["rep-path", "report-path", "modulus", "option-name", "output-path", "command"],
)
def test_a_long_argument_is_cut_in_its_refusal(tmp_path, capsys, argv):
    # a path, an integer, an option name or a command of 5,000 characters is
    # shown once, cut to 60, in a one-line refusal
    argv = [a.replace("{missing}", str(tmp_path / "missing")) for a in argv]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and err.count("\n") == 1, err[:300]
    assert len(err.encode()) <= 300 and "x" * 60 not in err and " ..." in err, err[:300]


# Every entry point of JSON text, with the message prefix of a refusal when
# its text is in the file the flag names, and when it is the flag's value
# itself (inline JSON, which starts with "[" or "{"); --report is a path only.
_ENTRY_POINTS = {
    "gens": (["image", "--modulus", "3", "--gens", "{in}"], "bad generator JSON in file", "bad generator JSON"),
    "rep": (["quotient", "--modulus", "2", "--rep", "{in}"], "bad permutation representation JSON in file",
            "bad permutation representation JSON"),
    "tower": (["thm-b-probe", "--h-gens", "{h}", "--k-gens", "{h}", "--element", "{}", "--tower", "{in}"],
              "bad tower JSON in file", "bad tower JSON"),
    "element": (["dcoset-member", "--modulus", "3", "--left", "{h}", "--right", "{h}", "--element", "{in}"],
                "bad element JSON in file", "bad element JSON"),
    "m-spec": (["tractable", "--h-gens", "{h}", "--k-gens", "{h}", "--m-spec", "{in}"], "bad quotient spec JSON in file",
               "bad quotient spec JSON"),
    "verify": (["verify", "--report", "{in}"], "report is not valid JSON", None),
}


def _entry_forms(entry, text, path, gens_files):
    """Each command line that gives ``text`` at ``entry``, with the prefix
    its refusal must start with: the file at ``path``, then inline."""
    args, file_prefix, inline_prefix = _ENTRY_POINTS[entry]
    path.write_text(text)
    forms = [(str(path), file_prefix)]
    if inline_prefix is not None and text.startswith(("[", "{")):
        forms.append((text, inline_prefix))
    return [([{"{in}": value, "{h}": gens_files["h"]}.get(a, a) for a in args], prefix) for value, prefix in forms]


@pytest.mark.parametrize(
    "text", ["[" * 100_000, "[" * 3000 + "]" * 3000, "1" * 5000], ids=["open-100k", "nested-3000", "digits-5000"]
)
@pytest.mark.parametrize("entry", sorted(_ENTRY_POINTS))
def test_malformed_json_exits_2_at_every_entry_point(tmp_path, gens_files, capsys, entry, text):
    # too deep for the decoder's recursion, or an integer past Python's
    # 4,300-digit limit: refused under the entry point's own prefix
    for argv, prefix in _entry_forms(entry, text, tmp_path / "input.json", gens_files):
        assert main(argv) == 2
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
    "verify": ('{"schema": "5", "command": "quotient", "config": {}, "result": {}, "command": "image"}', "'command'"),
}


@pytest.mark.parametrize("entry", sorted(_REPEATED_KEYS))
def test_a_repeated_key_exits_2_at_every_entry_point(tmp_path, gens_files, capsys, entry):
    text, key = _REPEATED_KEYS[entry]
    out = tmp_path / "out.json"
    for argv, prefix in _entry_forms(entry, text, tmp_path / "input.json", gens_files):
        assert main(argv + ["--output", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err.startswith(f"error: {prefix}") and err.rstrip().endswith(f"repeated key {key}")


# An input that holds a key its object does not know, and one that holds a
# float where an integer goes, at each entry point.  A report's config is
# read again as a command line, so its refusal is led by verify's prefix
# and by that of the option that reads it.
_VERIFY_REP = '{{"schema": "7", "command": "congruence", "config": {{"rep": {}}}, "result": {{}}}}'
_BAD_VALUES = {
    "gens": ('[{"w": "S", "x": 1}]', '[{"a": {"rows": [[1.5, 0], [0, 1]]}}]'),
    "rep": ('{"degree": 1, "s": [0], "t": [0], "x": 1}', '{"degree": 1.5, "s": [0], "t": [0]}'),
    "tower": ('[{"m": 2, "x": 1}]', '[{"m": 1.5}]'),
    "element": ('{"w": "S", "x": 1}', '{"a": {"rows": [[1.5, 0], [0, 1]]}}'),
    "m-spec": ('{"m": 2, "x": 1}', '{"m": 1.5}'),
    "verify": (_VERIFY_REP.format('{"degree": 1, "s": [0], "t": [0], "x": 1}'),
               _VERIFY_REP.format('{"degree": 1.5, "s": [0], "t": [0]}')),
}


@pytest.mark.parametrize("kind", ["unknown-key", "float"])
@pytest.mark.parametrize("entry", sorted(_BAD_VALUES))
def test_an_unknown_key_or_a_float_exits_2_under_the_entry_points_prefix(tmp_path, gens_files, capsys, entry, kind):
    text = _BAD_VALUES[entry][kind == "float"]
    message = "has unknown key 'x'" if kind == "unknown-key" else "expected an integer, got 1.5"
    out = tmp_path / "out.json"
    for argv, prefix in _entry_forms(entry, text, tmp_path / "input.json", gens_files):
        if entry == "verify":
            prefix = "verify failed: config: bad permutation representation JSON"
        assert main(argv + ["--output", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert stdout == "" and not out.exists()
        assert err.startswith(f"error: {prefix}") and message in err, err


def test_verify_refuses_a_canonical_report_nested_600_deep(tmp_path, capsys):
    # json reads it, but recording it again would recurse 600 deep
    report = {"schema": "5", "command": "quotient", "config": {"rep": json.loads("[" * 600 + "]" * 600)}, "result": {}}
    path = tmp_path / "deep.json"
    path.write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    assert main(["verify", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: report is not valid JSON: nested deeper than 32 levels\n"


_HUGE = str(2**5000)


@pytest.mark.parametrize(
    "args, message",
    [
        (["quotient", "--modulus", _HUGE], "a result of about 2^34999 has over 4300 digits (int max str digits)"),
        # the coset action's order is read at gcd(2^5000, 12) = 4, so only the
        # order's digits are too many
        (["quotient", "--modulus", _HUGE, "--rep", str(GOLDEN / "nc_rep.json")],
         "a result of about 2^35010 has over 4300 digits (int max str digits)"),
        (["gap-witness", "--rep", str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"), "--level", _HUGE],
         " has about 2^14998 elements > 5000000 (closure_cap)"),
    ],
    ids=["quotient", "quotient-rep", "gap-witness"],
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


# Python still reads an integer of 4,000 digits, so every refusal that names
# one writes it with shown
_DIGITS = "9" * 4000
_GOLDEN_HK = ["--h-gens", str(GOLDEN / "h.json"), "--k-gens", str(GOLDEN / "k.json")]


def _spec_with(key, value):
    spec = {"m": 2, "filter": None}
    spec[key] = value
    return json.dumps(spec)


@pytest.mark.parametrize(
    "args, code, shown",
    [
        (["quotient", "--modulus", _DIGITS], 3, "modulus about 2^13287 leaves the cofactor about 2^12947"),
        (["gs-demo", f"--max-level=-{_DIGITS}"], 2, "--max-level must be at least 2, got about -2^13287"),
        (["gs-demo", f"--m-max=-{_DIGITS}"], 2, "--m-max must be at least 2, got about -2^13287"),
        (["lowindex", "--max-degree", _DIGITS], 3, "max_degree about 2^13287 > cap 12"),
        (["lowindex", f"--max-degree=-{_DIGITS}"], 2, "max_degree must be positive, got about -2^13287"),
        (["gap-witness", "--rep", str(GOLDEN / "nc_rep.json"), f"--level=-{_DIGITS}"], 2,
         "--level must be at least 2, got about -2^13287"),
        (["tractable", *_GOLDEN_HK, "--m-spec", _spec_with("m", f"-{_DIGITS}")], 2,
         "modulus must be at least 2, got about -2^13287"),
        (["tractable", *_GOLDEN_HK, "--m-spec", '{"m": 2}', "--tower", f'[{{"m": "-{_DIGITS}"}}]'], 2,
         "modulus must be at least 2, got about -2^13287"),
        (["image", "--modulus", "3", "--gens", f'[{{"a": {{"rows": [[1, 0], [0, 1]], "m": "-{_DIGITS}"}}}}]'], 2,
         "modulus must be at least 2, got about -2^13287"),
        (["quotient", "--modulus", "2", "--rep", f'{{"degree": "-{_DIGITS}", "s": [0], "t": [0]}}'], 2,
         "degree must be positive, got about -2^13287"),
        (["quotient", "--modulus", "2", "--rep", f'{{"degree": "{_DIGITS}", "s": [0], "t": [0]}}'], 2,
         "perm_s is not a permutation of 0..about 2^13287"),
        (["tractable", *_GOLDEN_HK, "--m-spec", _spec_with("filter", {"type": "pro-p", "p": f"-{_DIGITS}"})], 2,
         "spec 'filter' must be null, got {'type': 'pro-p', 'p': '-" + "9" * 31 + " ..."),
        (["tractable", *_GOLDEN_HK, "--m-spec", _spec_with("filter", {"type": "pro-p", "p": int(_DIGITS)})], 2,
         "spec 'filter' must be null, got {'type': 'pro-p', 'p': " + "9" * 33 + " ..."),
    ],
    ids=["modulus", "max-level", "m-max", "max-degree", "max-degree-negative", "level", "spec-m", "tower-m",
         "matrix-m", "degree-negative", "degree", "p-negative", "p"],
)
def test_a_huge_integer_is_shortened_in_its_refusal(capsys, args, code, shown):
    assert main(args) == code
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) <= 300, err[:300]
    assert shown in err, err


def test_shown_keeps_the_sign_of_a_huge_int_and_cuts_any_other_repr_to_60():
    assert shown(-(10**4000)) == "about -2^13287"
    assert shown(10**4000) == "about 2^13287"
    edges = (1 - 2**64, -(2**64), 2**64 - 1, 2**64)
    assert [shown(n) for n in edges] == [str(1 - 2**64), "about -2^64", str(2**64 - 1), "about 2^64"]
    # a bool is an int but reads as its repr; so does a container of a huge int
    assert (shown(True), shown(False)) == ("True", "False")
    assert shown([10**4000]) == "[1" + "0" * 54 + " ..."
    # a repr of 60 characters is whole, one of 61 is cut to 56 and " ..."
    assert shown("x" * 58) == "'" + "x" * 58 + "'"
    assert shown("x" * 59) == "'" + "x" * 55 + " ..."
    assert shown("x" * 60) == shown("x" * 61) == "'" + "x" * 55 + " ..."


@pytest.mark.parametrize(
    "p",
    [318665857834031151167461, 2**4423 - 1, 3215031751, 2, 3],
    ids=["pseudoprime", "mersenne", "composite", "two", "three"],
)
def test_a_pro_p_prime_is_proved_or_refused(capsys, p):
    # the pro-p filter is gone, since no quotient a spec names is a p-group:
    # a filter naming any p, prime or not, is refused before any proof runs
    spec = json.dumps({"m": 2, "filter": {"type": "pro-p", "p": p}})
    start = time.perf_counter()
    assert main(["tractable", *_GOLDEN_HK, "--m-spec", spec, "--tower", '[{"m": 2}]']) == 2
    elapsed = time.perf_counter() - start
    refusal = f"spec 'filter' must be null, got {shown({'type': 'pro-p', 'p': p})}"
    assert elapsed < 0.1 and capsys.readouterr().err == f"error: bad quotient spec JSON: {refusal}\n"


def test_a_pseudoprime_modulus_is_refused_at_the_prime_proof_bound(capsys):
    # is_prime is exact below 3.1e23: 318665857834031151167461 =
    # 399165290221 * 798330580441 passes all twelve of its bases and has no
    # factor below the trial bound, so its cofactor, itself, exits 3 before
    # any modular power is taken
    start = time.perf_counter()
    assert main(["quotient", "--modulus", "318665857834031151167461"]) == 3
    assert time.perf_counter() - start < 0.5
    assert capsys.readouterr().err == (
        "budget exhausted: primality budget exceeded: modulus about 2^78 leaves the cofactor about 2^78, "
        f"which is not provably prime at or above {31 * 10**22} (prime proof bound)\n"
    )


@pytest.mark.parametrize("kind", ["image", "tractable"])
def test_a_huge_modulus_is_shortened_in_the_budget_message(tmp_path, gens_files, capsys, kind):
    modulus = 2**200
    if kind == "image":
        args = ["image", "--modulus", str(modulus), "--gens", gens_files["h"], "--closure-cap", "1000"]
        # the closure of image(H) outgrows the cap in the quotient it names
        message = "more than 1000 elements in M2(Z/about 2^200) x| SL2(Z/about 2^200)"
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


def test_exit_code_on_budget_exhaustion(tmp_path, gens_files):
    # the image of H mod 3, SL2(Z/3), has 24 elements
    assert (
        main(
            [
                "image",
                "--modulus",
                "3",
                "--gens",
                gens_files["h"],
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


def _cli_alone(args, **env) -> subprocess.CompletedProcess:
    """Run the CLI in a fresh interpreter, with ``env`` added to its environment."""
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"), **env)
    return subprocess.run([sys.executable, "-m", "cosetope", *args], capture_output=True, text=True, env=env, timeout=60)


def _help_rows(text: str) -> dict:
    """Each option row of a help text, by option name, its spaces collapsed."""
    return {row.split()[0]: " ".join(row.split()[1:]) for row in text.splitlines() if row.startswith("  --")}


def test_help_names_every_command_and_option_of_the_table(capsys):
    done = _cli_alone(["--help"])
    assert (done.returncode, done.stderr) == (0, "")
    assert all(command in done.stdout for command in OPTIONS)
    done = _cli_alone(["tractable", "--help"])
    assert (done.returncode, done.stderr) == (0, "")
    assert all(name in done.stdout for name in OPTIONS["tractable"][2])
    # an integer option shows its default; the tower's help text states its own
    rows = _help_rows(done.stdout)
    assert rows["--closure-cap"] == "INT (default 5000000)"
    assert rows["--tower"] == "TOWER quotient specs (default: plain levels 2, 3, 4, 5, 6, 8 and 12)"
    rows = _help_rows(_cli_alone(["gs-demo", "--help"]).stdout)
    assert [rows[name] for name in ("--max-level", "--m-max", "--max-degree")] == [
        "INT (default 8)", "INT (default 24)", "INT (default 7)"]
    for command, (_, summary, options) in OPTIONS.items():
        assert main([command, "--help"]) == 0
        out = capsys.readouterr().out
        assert summary in out and all(name in out for name in options)


MALFORMED = [
    [],
    ["bogus"],
    ["quotient"],
    ["quotient", "--modulus"],
    ["quotient", "--modulus", "x"],
    ["lowindex", "--max-degree", "3", "--subgroups=yes"],
    ["quotient", "--modulus", "2", "extra"],
    ["lowindex", "--max-deg", "7"],  # an abbreviation of --max-degree
]


@pytest.mark.parametrize("args", MALFORMED, ids=lambda args: " ".join(args) or "no-command")
def test_a_malformed_command_line_exits_2_with_one_error_line(args):
    done = _cli_alone(args)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_a_repeated_option_keeps_its_last_value():
    done = _cli_alone(["gs-demo", "--max-level", "2", "--m-max=2", "--m-max=3"])
    assert done.returncode == 0
    assert json.loads(done.stdout)["config"]["m_max"] == "3"


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


def test_gap_witness_refuses_an_m_max_below_2(tmp_path, capsys):
    # a witness checks no level but its own, so gap-witness takes no
    # --m-max at all, and a level below 2 is refused
    rep = str(Path(__file__).resolve().parent / "golden" / "nc_rep.json")
    for m_max in ("-4", "0", "1", "24"):
        out = tmp_path / f"witness{m_max}.json"
        assert main(["gap-witness", "--rep", rep, "--level", "24", "--m-max", m_max, "--output", str(out)]) == 2
        assert capsys.readouterr().err == "error: gap-witness takes no argument '--m-max'\n"
        assert not out.exists()
    assert main(["gap-witness", "--rep", rep, "--level", "1", "--output", str(out)]) == 2
    assert capsys.readouterr().err == "error: --level must be at least 2, got 1\n"


def test_gs_demo_refuses_a_max_level_below_2(tmp_path):
    # the intersection table would rest on no level
    for max_level in ("-4", "0", "1"):
        out = tmp_path / f"demo{max_level}.json"
        assert main(["gs-demo", "--max-level", max_level, "--m-max", "4", "--output", str(out)]) == 2
        assert not out.exists()


INT_FLAGS = [
    ["lowindex", "--max-degree", "{v}"],
    ["gap-witness", "--rep", "nc_rep.json", "--level", "{v}"],
    ["gs-demo", "--max-degree", "{v}"],
    ["gs-demo", "--max-level", "{v}"],
    ["gs-demo", "--m-max", "{v}"],
    ["quotient", "--modulus", "{v}"],
    ["quotient", "--modulus", "{v}", "--rep", "nc_rep.json"],
    ["image", "--modulus", "2", "--gens", "h.json", "--closure-cap", "{v}"],
]


# image, intersect and dcoset-member are left out at --modulus: they close
# the image of their generators there before any size is known
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
    assert main(["quotient", "--modulus", "2", "--seed", "1", "--output", str(tmp_path / "q.json")]) == 2
    assert not (tmp_path / "q.json").exists()


def test_product_cap_flag_is_gone(tmp_path, capsys):
    # the closure cap is the only budget: no subcommand takes --product-cap
    for _, _, options in OPTIONS.values():
        assert "--product-cap" not in options
        assert "--closure-cap" in options
    assert main(["quotient", "--modulus", "2", "--product-cap", "5", "--output", str(tmp_path / "q.json")]) == 2
    assert capsys.readouterr().err == "error: quotient takes no argument '--product-cap'\n"


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
    # the result does not repeat the tower: verify reruns the recorded one
    assert data["result"] == {"status": "inconclusive"}
    _tamper(path, lambda data: data["config"]["tower"][1].update(m="3"))
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v2.json")]) == 2


@pytest.mark.parametrize("value", ["10", "junk"])
def test_the_closure_cap_is_not_read_from_the_environment(tmp_path, gens_files, monkeypatch, capsys, value):
    # --closure-cap is the one way to set the cap; the variable that once
    # set it changes neither the exit code nor the report bytes of a closure
    # of 24 elements
    args = ["image", "--modulus", "3", "--gens", gens_files["h"], "--output"]
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
        {"filter": {"type": "pro-p", "p": 2}},
        {"filter": False},
        {"filter": {}},
    ],
)
def test_bad_tower_filter_exits_2(tmp_path, gens_files, capsys, fields):
    # a spec's filter must be null, in a tower entry as on --m-spec, and
    # anything else is refused in one line naming it
    (key, value), = fields.items()
    refusal = f"spec 'filter' must be null, got {shown(value)}" if key == "filter" else "unknown key 'fliter'"
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 4, **fields}]))
    h = gens_files["h"]
    args = ["tractable", "--h-gens", h, "--k-gens", h, "--m-spec", '{"m": 2}', "--tower", str(tower)]
    m_spec = json.dumps({"m": 2, **fields})
    for run in (args, args[:5] + ["--m-spec", m_spec]):
        assert main(run + ["--output", str(tmp_path / "t.json")]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.count("\n") == 1 and refusal in err, err
    assert not (tmp_path / "t.json").exists()


def test_tractable_closes_h_meet_k_once_in_the_target_quotient(tmp_path, monkeypatch):
    # the candidates 4 and 8 refine the target 4; each element of image(H)
    # meet image(K) is tested by its restriction to the target, so the
    # claimed (empty) H meet K is closed once, there, and in no candidate;
    # H = K is closed once per candidate
    monkeypatch.chdir(GOLDEN)
    closures = count_closures(monkeypatch)
    assert main([*CASES["tractable_violation.json"], "--output", str(tmp_path / "t.json")]) == 0
    assert (tmp_path / "t.json").read_bytes() == (GOLDEN / "tractable_violation.json").read_bytes()
    quotients = [(name, n) for (name, gens), n in closures.items() if not gens and name.startswith("M2")]
    assert quotients == [("M2(Z/4) x| SL2(Z/4)", 1)]
    assert set(closures.values()) == {1}


@pytest.mark.parametrize("flags", [pytest.param(["--closure-cap", "0"], id="--closure-cap")])
def test_zero_cap_flag_is_rejected(tmp_path, capsys, flags):
    args = ["quotient", "--modulus", "2", *flags, "--output", str(tmp_path / "q.json")]
    assert main(args) == 2
    assert capsys.readouterr().err == "error: --closure-cap must be at least 1, got 0\n"


def test_budgets_are_immutable_values():
    # cli.parse refuses a cap below 1, so Budgets itself checks nothing
    with pytest.raises(AttributeError):
        Budgets().closure_cap = 1
    assert Budgets(5) == Budgets(closure_cap=5)
    assert Budgets(5) != Budgets(7)


def test_quotient_with_a_coset_action_walks_at_the_gcd_with_its_level(tmp_path, monkeypatch, capsys):
    # nc_rep has level 12, so Gamma(1000) acts on its cosets as Gamma(4): the
    # order's walk visits the 24 states of PSL2(Z/4), not the 360,000,000 of
    # PSL2(Z/1000), and the closure cap bounds that walk
    walks = spy_walks(monkeypatch)
    args = ["quotient", "--modulus", "1000", "--rep", str(GOLDEN / "nc_rep.json")]
    data, _ = run_report(args, tmp_path / "q.json")
    assert data["result"]["order"] == str(1000**4 * sl2_group_order(1000) * 2520) == "1814400000000000000000000"
    assert [(w.n, len(w.seen)) for w in walks] == [(4, 24)]
    assert main(["verify", "--report", str(tmp_path / "q.json"), "--output", str(tmp_path / "v.json")]) == 0
    assert main(args + ["--closure-cap", "23", "--output", str(tmp_path / "c.json")]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: closure budget exceeded: PSL2(Z/4) has 24 elements > 23 (closure_cap)\n"
    )
    assert not (tmp_path / "c.json").exists()


def test_the_closure_cap_bounds_the_permutation_closure_of_a_quotient(tmp_path, capsys):
    # the coset action of Gamma(2) on nc_rep's cosets has order 2,520, and
    # the walk over PSL2(Z/2) only 6 states
    args = ["quotient", "--modulus", "2", "--rep", str(GOLDEN / "nc_rep.json"), "--output", str(tmp_path / "q.json")]
    assert main(args + ["--closure-cap", "2519"]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: closure budget exceeded: more than 2519 elements "
        "in the coset action of Gamma(2) (closure_cap)\n"
    )
    assert not (tmp_path / "q.json").exists()
    assert main(args + ["--closure-cap", "2520"]) == 0
    assert json.loads((tmp_path / "q.json").read_text())["result"]["order"] == "241920"


def test_a_coset_action_quotient_and_its_verify_list_no_quotient_element(tmp_path, monkeypatch):
    # the order 2^4 |SL2(Z/2)| |sigma(Gamma(2))| = 16 * 6 * 2,520 comes from
    # the walk over PSL2(Z/2) and a closure of permutations, not from the
    # 241,920 elements of the quotient
    closures = count_closures(monkeypatch)
    path = tmp_path / "q.json"
    start = time.perf_counter()
    data, _ = run_report(["quotient", "--modulus", "2", "--rep", str(GOLDEN / "nc_rep.json")], path)
    middle = time.perf_counter()
    assert main(["verify", "--report", str(path), "--output", str(tmp_path / "v.json")]) == 0
    end = time.perf_counter()
    assert data["result"]["order"] == "241920"
    assert {name for name, _ in closures} == {"the coset action of Gamma(2)"}
    assert middle - start < 1 and end - middle < 1


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
        (["image", "--modulus", "2", "--gens", "{h}"], ("result", "size"), "95"),
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
    # stops the level loop (at m = 173, where the sign-saturated image,
    # SL2(Z/173), has 5,177,544 elements) instead of a closure that grows
    # toward it
    start = time.perf_counter()
    assert main(["gs-demo", "--m-max", "1000000000000", "--output", str(tmp_path / "out.json")]) == 3
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
    # images it keeps once per (rep, gcd), gcd 1 over its one state
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    expected = [(rep, g) for g in (1, 2, 3, 4, 6, 12)]
    walks = spy_walks(monkeypatch)
    run_report(["gs-demo", "--m-max", "32"], tmp_path / "demo.json")
    assert sorted((w.rep, w.n) for w in walks if w.caller == "image_blocks") == sorted(expected)
    assert [len(w.seen) for w in walks if w.caller == "image_blocks" and w.n == 1] == [1]
    walks.clear()
    run_report(["gs-demo", "--max-level", "2", "--m-max", "6"], tmp_path / "demo2.json")
    assert sorted((w.rep, w.n) for w in walks if w.caller == "image_blocks") == sorted(expected[:5])


def test_gs_demo_walks_each_rep_and_level_once_per_caller(tmp_path, monkeypatch):
    # the gap witness at level 24 decides the selected class's congruence
    # itself, as its level 12 divides 24, so that class's PSL2(Z/12) is
    # walked once for the low-index filter and not again for the witness
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    walks = spy_walks(monkeypatch)
    data, _ = run_report(["gs-demo", "--m-max", "32"], tmp_path / "demo.json")
    walked = Counter(w[:3] for w in walks)
    assert as_recorded(rep) == data["result"]["lowindex"]["selected"]
    assert set(walked.values()) == {1}
    assert {caller for caller, _, _ in walked} == {"is_congruence", "congruence_gap_witness", "image_blocks"}
    assert [n for caller, r, n in walked if r == rep and caller != "image_blocks"] == [12, 24]


def test_gs_demo_intersection_table_matches_the_listing_oracle(tmp_path):
    # the closed-form rows against the images of H and K listed and intersected
    data, _ = run_report(["gs-demo", "--max-level", "12", "--m-max", "2"], tmp_path / "demo.json")
    oracle = [{"m": str(m), "size": str(len(gs_intersection(gs_build(QuotientSpec.make(m)))))} for m in range(2, 13)]
    assert data["result"]["intersections"] == oracle


@pytest.mark.parametrize(
    "args, edits",
    [
        (["lowindex", "--max-degree", "3", "--subgroups"],
         {("config", "subgroups"): "no", ("config", "max_degree"): " 3"}),
        (["lowindex", "--max-degree", "3", "--subgroups"], {("config", "subgroups"): "no"}),
        (["quotient", "--modulus", "2"], {("config", "modulus"): " 2"}),
        (["lowindex", "--max-degree", "3", "--subgroups"], {("config", "subgroups"): 1}),
        (["gap-witness", "--rep", "{rep}", "--level", "10"], {("config", "level"): "1_0"}),
        (["gap-witness", "--rep", "{rep}", "--level", "3"], {("config", "level"): " 3"}),
        (["gap-witness", "--rep", "{rep}", "--level", "3"], {("config", "level"): "03"}),
        (["gap-witness", "--rep", "{rep}", "--level", "3"], {("config", "level"): "+3"}),
        (["quotient", "--modulus", "2"], {("schema",): " 5"}),
        (["quotient", "--modulus", "2"], {("schema",): "0_5"}),
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
    # a recorded help key must not reach the parser as --help, which prints usage to stdout
    assert capsys.readouterr().out == ""


def test_tractable_schreier_kernel_budget_exits_3_quickly(tmp_path):
    # a fine spec with a coset action over a plain target takes the
    # coset-action path, whose closure of the linear part stops at the cap
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 8, "rep": json.loads((GOLDEN / "nc_rep.json").read_text())}]))
    empty = str(GOLDEN / "empty.json")
    args = ["tractable", "--h-gens", empty, "--k-gens", empty, "--m-spec", '{"m": 8}', "--tower", str(tower)]
    start = time.perf_counter()
    assert main(args + ["--closure-cap", "1000", "--output", str(tmp_path / "t.json")]) == 3
    assert time.perf_counter() - start < 5


def test_closure_budget_error_names_the_group_it_closed_in(tmp_path, monkeypatch, capsys):
    # the image of H mod 3 is SL2(Z/3), 24 elements of M2(Z/3) x| SL2(Z/3)
    monkeypatch.chdir(GOLDEN)
    args = ["image", "--modulus", "3", "--gens", "h.json", "--closure-cap", "10", "--output", str(tmp_path / "i.json")]
    assert main(args) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: closure budget exceeded: more than 10 elements in M2(Z/3) x| SL2(Z/3) (closure_cap)\n"
    )


def test_thm_b_probe_with_l_rep_closes_the_linear_part_of_image_l_alone(tmp_path, monkeypatch, capsys):
    # L = M2(Z) x| H' holds M2(Z), so image(L) is never listed, at a plain
    # level or one with a coset action: only the images of H, K and of the
    # linear parts of L's generators are closed, so the default tower, whose
    # image(L) has 23,887,872 elements at m = 12, ends inconclusive
    monkeypatch.chdir(GOLDEN)
    out = str(tmp_path / "p.json")
    args = ["thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--l-rep", "nc_rep.json", "--output", out]
    probe = args + ["--element", '{"w": ""}']
    closures = count_closures(monkeypatch)
    start = time.perf_counter()
    assert main(probe) == 0
    assert time.perf_counter() - start < 5
    assert json.loads(Path(out).read_text())["result"]["status"] == "inconclusive"
    nc_rep = rpt.rep("nc_rep.json")
    tower = [*DEFAULT_TOWER, QuotientSpec.make(2, nc_rep)]
    # the level with nc_rep's coset action refuses image(H) meet image(K)
    # only after it has tested it against image(L)
    assert main(probe + ["--tower", json.dumps(as_recorded(tower))]) == 2
    l_gens = l_group_words(nc_rep)
    linear = [GroupWord.of_word(g.w) for g in l_gens[4:]]
    for spec in tower:
        name = quotient_context(spec).name
        assert closures[name, tuple(project(g, spec) for g in l_gens)] == 0
        # each plain level ran in both probes, the coset-action level in one
        assert closures[name, tuple(project(g, spec) for g in linear)] == (1 if spec.rep else 2)
    capsys.readouterr()
    # the cap still bounds every closure that runs: image(H) mod 3 has 24 elements
    assert main(probe + ["--tower", '[{"m": 3}]', "--closure-cap", "23"]) == 3
    assert capsys.readouterr().err == (
        "budget exhausted: closure budget exceeded: more than 23 elements in M2(Z/3) x| SL2(Z/3) (closure_cap)\n"
    )
    # a certificate found at an earlier level is still returned: det(I + I) = 4 is even
    assert main(args + ["--element", '{"a": {"rows": [[1, 0], [0, 1]]}}', "--closure-cap", "1000"]) == 0
    assert json.loads(Path(out).read_text())["result"]["certificate"]["spec"]["m"] == "2"


def test_thm_b_probe_reads_l_gens_with_and_without_the_additive_units(tmp_path, monkeypatch):
    # --l-gens holding the words --l-rep builds gives the same result; an L
    # without the additive units, as k.json, has its image listed
    monkeypatch.chdir(GOLDEN)
    path = str(tmp_path / "p.json")
    probe = ["thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--element", '{"w": "T"}', "--output", path]
    plain = ["--tower", json.dumps([{"m": m} for m in (2, 3, 4, 5, 6)])]
    l_gens = json.dumps(as_recorded(l_group_words(rpt.rep("nc_rep.json"))))
    results = []
    for given in (["--l-rep", "nc_rep.json"], ["--l-gens", l_gens]):
        assert main(probe + plain + given) == 0
        results.append(canonical_dumps(json.loads(Path(path).read_text())["result"]))
    assert results[0] == results[1]
    closures = count_closures(monkeypatch)
    assert main(probe + ["--tower", '[{"m": 3}]', "--l-gens", "k.json"]) == 0
    spec = QuotientSpec.make(3)
    # the image of K is closed once as image(K) and once as image(L); it
    # meets image(H) in the identity, which leaves (0, T) off H'K
    assert closures[quotient_context(spec).name, tuple(project(g, spec) for g in rpt.gens("k.json"))] == 2
    assert json.loads(Path(path).read_text())["result"]["certificate"]["transcript"]["image_hp"] == "1"


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
    nc_rep = json.loads((GOLDEN / "nc_rep.json").read_text())
    _tamper(report, lambda data: data["config"].update(l_gens=data["config"]["h_gens"], l_rep=nc_rep))
    assert main(["verify", "--report", str(report), "--output", str(tmp_path / "v.json")]) == 2
    assert capsys.readouterr() == ("", message)


def test_verify_refuses_a_recorded_path_that_is_not_a_string(tmp_path):
    # open(True) would take the bool as file descriptor 1 and close stdout
    path = tmp_path / "report.json"
    run_report(["congruence", "--rep", str(GOLDEN / "nc_rep.json")], path)
    _tamper(path, lambda data: _set_path(data, ("config", "rep"), True))
    done = _cli_alone(["verify", "--report", str(path)])
    assert done.returncode == 2
    assert done.stderr == "error: verify failed: config: --rep needs a value\n"
    assert "Bad file descriptor" not in done.stderr


def test_verify_reparses_a_recorded_path_that_starts_with_a_dash(tmp_path, monkeypatch):
    # --rep=-nc.json reads the file; a separate "-nc.json" would read as an
    # option.  The report records the rep itself, which verify reparses
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


def test_congruence_at_level_105_stops_at_the_closure_cap(tmp_path, capsys):
    # the level alone refuses nothing: the walk's check on |PSL2(Z/105)| is
    # what ends the command, before any state is walked
    args = ["congruence", "--rep", str(GOLDEN / "level105_rep.json"), "--closure-cap", "100000"]
    assert main(args + ["--output", str(tmp_path / "c.json")]) == 3
    err = capsys.readouterr().err
    assert err.startswith("budget exhausted: ")
    assert err.rstrip().endswith("PSL2(Z/105) has 483840 elements > 100000 (closure_cap)")
    assert not (tmp_path / "c.json").exists()


@pytest.mark.parametrize("name", ["congruence_rep(4)", "nc_rep.json"])
def test_congruence_walks_psl2_once_at_its_level(tmp_path, monkeypatch, name):
    # the verdict and the image index are both read off the blocks of one
    # walk over PSL2(Z/N), N the level of the rep
    path = GOLDEN / name
    if name == "congruence_rep(4)":
        path = tmp_path / "rep.json"
        path.write_text(canonical_dumps(congruence_rep(4)))
    walks = spy_walks(monkeypatch)
    data, _ = run_report(["congruence", "--rep", str(path)], tmp_path / "c.json")
    level = parse_int(data["result"]["level"])
    assert [(w.caller, w.n) for w in walks] == [("image_blocks", level)]
    congruent = parse_int(data["result"]["image_index"]) == parse_int(data["config"]["rep"]["degree"])
    assert data["result"]["congruence"] is congruent is (name != "nc_rep.json")


def test_congruence_refuses_a_rep_whose_permutations_are_not_lists(tmp_path, capsys):
    rep = tmp_path / "rep.json"
    rep.write_text(json.dumps({"degree": 2, "s": {"1": "x", "0": "y"}, "t": "10"}))
    assert main(["congruence", "--rep", str(rep), "--output", str(tmp_path / "c.json")]) == 2
    assert "s and t must be lists" in capsys.readouterr().err


def test_verify_of_a_verify_report_exits_2(tmp_path, capsys):
    run_report(["quotient", "--modulus", "2"], tmp_path / "q.json")
    verified, _ = run_report(["verify", "--report", str(tmp_path / "q.json")], tmp_path / "v.json")
    assert verified["result"] == {"checked": "quotient", "verified": True}
    assert main(["verify", "--report", str(tmp_path / "v.json")]) == 2
    assert "unknown command 'verify'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# inputs recorded in the report


def _spy_reads(monkeypatch) -> list:
    """The path of every file opened from now on, in order."""
    opened = []
    real = open

    def spy(file, *args, **kwargs):
        opened.append(str(file))
        return real(file, *args, **kwargs)

    monkeypatch.setattr("builtins.open", spy)
    return opened


_ELEMENT = '{"a": {"rows": [["2", "0"], ["0", "2"]], "m": null}, "w": ""}'
# one command line per input option, each given a file
INPUT_RUNS = {
    "quotient": ["quotient", "--modulus", "2", "--rep", "{rep}"],
    "image": ["image", "--modulus", "3", "--rep", "{rep}", "--gens", "{h}"],
    "intersect": ["intersect", "--modulus", "3", "--left", "{h}", "--right", "{k}"],
    "dcoset-member": ["dcoset-member", "--modulus", "3", "--element", "{element}", "--left", "{h}", "--right", "{k}"],
    "tractable": ["tractable", "--h-gens", "{h}", "--k-gens", "{k}", "--hcapk-gens", "{empty}",
                  "--m-spec", "{m_spec}", "--tower", "{tower}"],
    "thm-b-probe": ["thm-b-probe", "--h-gens", "{h}", "--k-gens", "{k}", "--l-gens", "{h}", "--element", "{element}",
                    "--tower", "{tower}"],
    "thm-b-probe-l-rep": ["thm-b-probe", "--h-gens", "{h}", "--k-gens", "{k}", "--l-rep", "{nc}",
                          "--element", "{element}", "--tower", "{tower}"],
    "congruence": ["congruence", "--rep", "{nc}"],
    "gap-witness": ["gap-witness", "--rep", "{nc}", "--level", "6"],
}


@pytest.mark.parametrize("name", sorted(INPUT_RUNS))
def test_verify_reads_nothing_but_the_report(tmp_path, gens_files, monkeypatch, capsys, name):
    # the report records every input it read, so verify passes with the
    # inputs deleted, from another directory, and opens the report alone
    inputs = gens_files["dir"] / "inputs"
    inputs.mkdir()
    # a degree-3 coset action keeps the closure of image small
    files = {"rep": '{"degree": 3, "s": [0, 2, 1], "t": [1, 0, 2]}', "nc": GOLDEN / "nc_rep.json",
             "tower": json.dumps([{"m": 2}, {"m": 3}]), "element": _ELEMENT, "m_spec": '{"m": 2}'}
    fill = {key: str(gens_files[key]) for key in ("h", "k", "empty")}
    for key, source in files.items():
        path = inputs / f"{key}.json"
        path.write_text(source.read_text() if isinstance(source, Path) else source)
        fill[key] = str(path)
    report = tmp_path / "report.json"
    run_report([fill.get(a.strip("{}"), a) if a.startswith("{") else a for a in INPUT_RUNS[name]], report)
    for key in ("h", "k", "empty"):
        os.remove(gens_files[key])
    shutil.rmtree(inputs)
    elsewhere = tmp_path / "elsewhere"
    elsewhere.mkdir()
    monkeypatch.chdir(elsewhere)
    capsys.readouterr()
    opened = _spy_reads(monkeypatch)
    assert main(["verify", "--report", str(report)]) == 0
    monkeypatch.undo()
    assert json.loads(capsys.readouterr().out)["result"] == {"checked": INPUT_RUNS[name][0], "verified": True}
    assert opened == [str(report)]


def test_a_swapped_input_file_leaves_the_recorded_rep_checked(tmp_path, monkeypatch, capsys):
    # a conjugate of nc_rep, another subgroup of degree 7, level 12 and
    # image index 1, gives congruence the same result; overwriting the input
    # file with it changes nothing verify reads, which is the recorded rep
    nc_rep = rpt.rep(str(GOLDEN / "nc_rep.json"))
    swap = next(r for r in low_index_reps(7, classes=False)
                if r != nc_rep and rep_level(r) == 12 and not is_congruence(r))
    rep_path = tmp_path / "rep.json"
    shutil.copy(GOLDEN / "nc_rep.json", rep_path)
    path = tmp_path / "report.json"
    data, _ = run_report(["congruence", "--rep", str(rep_path)], path)
    assert data["config"]["rep"] == as_recorded(nc_rep)
    rep_path.write_text(canonical_dumps(swap))
    swapped, _ = run_report(["congruence", "--rep", str(rep_path)], tmp_path / "swapped.json")
    assert swapped["result"] == data["result"] and swapped["config"] != data["config"]
    capsys.readouterr()
    opened = _spy_reads(monkeypatch)
    assert main(["verify", "--report", str(path)]) == 0
    monkeypatch.undo()
    assert opened == [str(path)]
    assert json.loads(capsys.readouterr().out)["result"]["verified"] is True


def test_verify_rechecks_a_recorded_rep_edited_to_another(tmp_path, capsys):
    # the recorded rep is the input: another one in its place reruns the
    # command on it, and the result that differs is named
    path = tmp_path / "report.json"
    run_report(["congruence", "--rep", str(GOLDEN / "nc_rep.json")], path)
    _tamper(path, lambda data: _set_path(data, ("config", "rep"), as_recorded(congruence_rep(2))))
    capsys.readouterr()
    assert main(["verify", "--report", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: verify failed: result.")


def test_verify_does_not_read_a_path_recorded_for_an_input(tmp_path, monkeypatch, capsys):
    # a recorded string where an input belongs is not written back as a
    # path, so verify opens nothing but the report and refuses it
    path = tmp_path / "report.json"
    run_report(["congruence", "--rep", str(GOLDEN / "nc_rep.json")], path)
    _tamper(path, lambda data: _set_path(data, ("config", "rep"), str(GOLDEN / "nc_rep.json")))
    capsys.readouterr()
    opened = _spy_reads(monkeypatch)
    assert main(["verify", "--report", str(path)]) == 2
    monkeypatch.undo()
    assert opened == [str(path)]
    assert capsys.readouterr().err == "error: verify failed: config: congruence needs --rep\n"


def test_an_explicit_empty_tower_is_not_the_default_tower(tmp_path, gens_files, capsys):
    # --tower '[]' is a tower of no quotient, which the tower reader refuses;
    # an omitted --tower is the default tower, which the config records
    args = ["thm-b-probe", "--h-gens", gens_files["h"], "--k-gens", gens_files["k"], "--element", _ELEMENT]
    assert main(args + ["--tower", "[]", "--output", str(tmp_path / "p.json")]) == 2
    assert capsys.readouterr().err == "error: bad tower JSON: a tower needs at least one quotient spec\n"
    data, _ = run_report(args, tmp_path / "default.json")
    assert [parse_int(spec["m"]) for spec in data["config"]["tower"]] == [2, 3, 4, 5, 6, 8, 12]
    assert data["config"]["tower"] == as_recorded(DEFAULT_TOWER) and data["result"]["status"] == "certified"


# A bad argument is refused before any walk or closure, even where the walk
# would exhaust the cap or refuse the input for another reason first; and
# the tower reader refuses a tower of no candidate.
_BAD_ARGUMENTS = {
    "tractable-empty-tower": (
        ["tractable", "--h-gens", str(GOLDEN / "h.json"), "--k-gens", str(GOLDEN / "h.json"), "--m-spec", '{"m": 2}',
         "--tower", "[]"], "bad tower JSON: a tower needs at least one quotient spec"),
    "gap-witness-level-before-congruence": (
        ["gap-witness", "--rep", '{"degree": 3, "s": [0, 2, 1], "t": [1, 0, 2]}', "--level", "-1"],
        "--level must be at least 2, got -1"),
    "gap-witness-level-before-walk": (
        ["gap-witness", "--rep", str(GOLDEN / "level105_rep.json"), "--level", "-1", "--closure-cap", "1000"],
        "--level must be at least 2, got -1"),
    "gs-demo-m-max-before-walk": (
        ["gs-demo", "--m-max", "1", "--max-degree", "12", "--closure-cap", "100"],
        "--m-max must be at least 2, got 1"),
    "gs-demo-max-degree-before-table": (
        ["gs-demo", "--max-degree", "0", "--max-level", "300"], "max_degree must be positive, got 0"),
}


@pytest.mark.parametrize("case", sorted(_BAD_ARGUMENTS))
def test_a_bad_argument_exits_2_before_any_walk(tmp_path, capsys, case):
    args, message = _BAD_ARGUMENTS[case]
    assert main(args + ["--output", str(tmp_path / "out.json")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith(f"error: {message}")
    assert not (tmp_path / "out.json").exists()


# a command line of each command that parse accepts inside tests/golden
_ACCEPTED = {**{argv[0]: argv for argv in CASES.values()}, "verify": ["verify", "--report", "gs_demo.json"]}
_RANGES = [(command, name) for command in OPTIONS for name in OPTIONS[command][2] if name in LEAST]


@pytest.mark.parametrize("command, name", _RANGES, ids=[f"{command}{name}" for command, name in _RANGES])
def test_an_integer_below_its_least_value_exits_2_before_any_walk(monkeypatch, capsys, command, name):
    # cli.LEAST is the one home of each range: parse refuses least - 1 and a
    # huge negative value with one line naming the option, and admits least
    monkeypatch.chdir(GOLDEN)
    least, argv = LEAST[name], _ACCEPTED[command]
    walks, closures = spy_walks(monkeypatch), count_closures(monkeypatch)
    for value in (least - 1, -(10**4000)):
        assert main(argv + [f"{name}={value}"]) == 2
        assert capsys.readouterr() == ("", f"error: {name} must be at least {least}, got {shown(value)}\n")
    assert walks == [] and not closures
    _, config, _, closure_cap = parse(argv + [f"{name}={least}"])
    assert {**config, "closure_cap": closure_cap}[name[2:].replace("-", "_")] == least


_INTEGER_OPTIONS = [(command, name) for command in OPTIONS for name, (kind, _, _) in OPTIONS[command][2].items()
                    if kind is int]


@pytest.mark.parametrize("command, name", _INTEGER_OPTIONS, ids=[f"{c}{n}" for c, n in _INTEGER_OPTIONS])
def test_an_integer_option_takes_only_canonical_decimal(monkeypatch, capsys, command, name):
    # the one integer rule of report.parse_int: what int() alone would read
    # as 3, 10 or 0 is refused on the command line as it is inside JSON
    monkeypatch.chdir(GOLDEN)
    argv = _ACCEPTED[command]
    walks, closures = spy_walks(monkeypatch), count_closures(monkeypatch)
    for value in ("03", "+3", " 3", "1_0", "\u0663", "-0"):
        assert main(argv + [f"{name}={value}"]) == 2
        assert capsys.readouterr() == ("", f"error: {name} takes an integer, got {shown(value)}\n")
        with pytest.raises(ValidationError, match="expected an integer"):
            parse_int(value)
    assert walks == [] and not closures
    for value in ("3", "10"):
        _, config, _, closure_cap = parse(argv + [f"{name}={value}"])
        assert {**config, "closure_cap": closure_cap}[name[2:].replace("-", "_")] == int(value)


def test_cannot_read_names_only_a_file_that_was_not_read(tmp_path, capsys):
    # a file read_text cannot open is "cannot read"; a file it read whose JSON
    # or content is refused is "bad <noun> JSON in file"
    missing, bad = str(tmp_path / "missing.json"), tmp_path / "bad.json"
    assert main(["image", "--modulus", "3", "--gens", missing]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read generator file {shown(missing)}: ")
    for text, reason in (("{not json", "Expecting property name"), ('[{"w": 5}]', "expected a word string, got 5")):
        bad.write_text(text)
        assert main(["image", "--modulus", "3", "--gens", str(bad)]) == 2
        assert capsys.readouterr().err.startswith(f"error: bad generator JSON in file {shown(str(bad))}: {reason}")


@pytest.mark.parametrize("seed", ["0", "1"])
def test_of_two_values_out_of_range_the_first_in_option_order_is_named(seed):
    # the ranges are checked in the command's option order, not a set's, so
    # the refusal is the same line under every hash seed
    runs = [
        (["gs-demo", "--closure-cap=0", "--m-max=1", "--max-level=1"], "--max-level must be at least 2, got 1"),
        (["gap-witness", "--closure-cap=0", "--level=1", "--rep", str(GOLDEN / "nc_rep.json")],
         "--level must be at least 2, got 1"),
    ]
    for args, first in runs:
        done = _cli_alone(args, PYTHONHASHSEED=seed)
        assert (done.returncode, done.stdout, done.stderr) == (2, "", f"error: {first}\n")


@pytest.mark.parametrize("command", ["tractable", "thm-b-probe"])
@pytest.mark.parametrize("inline", [True, False], ids=["inline", "file"])
def test_an_empty_tower_is_refused_by_its_reader(tmp_path, monkeypatch, capsys, command, inline):
    path = tmp_path / "tower.json"
    path.write_text("[]")
    rest = {"tractable": ["--m-spec", '{"m": 2}'], "thm-b-probe": ["--element", _ELEMENT]}[command]
    closures = count_closures(monkeypatch)
    args = [command, *_GOLDEN_HK, *rest, "--tower", "[]" if inline else str(path), "--output", str(tmp_path / "o.json")]
    assert main(args) == 2
    failure = "bad tower JSON" if inline else f"bad tower JSON in file {shown(str(path))}"
    assert capsys.readouterr() == ("", f"error: {failure}: a tower needs at least one quotient spec\n")
    assert not closures and not (tmp_path / "o.json").exists()


def test_a_tower_entry_rep_given_as_a_path_exits_2(tmp_path, gens_files):
    # an entry's rep is inline only; a string there is refused, not read
    tower = tmp_path / "tower.json"
    tower.write_text(json.dumps([{"m": 2, "rep": str(GOLDEN / "nc_rep.json")}]))
    h = gens_files["h"]
    done = _cli_alone(["tractable", "--h-gens", h, "--k-gens", h, "--m-spec", '{"m": 2}', "--tower", str(tower)])
    assert (done.returncode, done.stdout) == (2, "")
    expected = "expected a permutation representation object, got '"
    assert done.stderr.startswith(f"error: bad tower JSON in file {shown(str(tower))}: {expected}")


def test_every_input_option_reads_inline_json_as_its_file(tmp_path, gens_files):
    # the same text inline or in a file gives the same report bytes
    h_text = json.dumps(H_GENS_JSON)
    rep_text = (GOLDEN / "nc_rep.json").read_text()
    tower_text = json.dumps([{"m": 2}, {"m": 3}])
    by_file = ["thm-b-probe", "--h-gens", gens_files["h"], "--k-gens", gens_files["k"], "--element", "{file}",
               "--l-rep", str(GOLDEN / "nc_rep.json"), "--tower", "{tower}"]
    (tmp_path / "element.json").write_text(_ELEMENT)
    (tmp_path / "tower.json").write_text(tower_text)
    by_file = [{"{file}": str(tmp_path / "element.json"), "{tower}": str(tmp_path / "tower.json")}.get(a, a)
               for a in by_file]
    inline = ["thm-b-probe", "--h-gens", h_text, "--k-gens", json.dumps(K_GENS_JSON), "--element", _ELEMENT,
              "--l-rep", rep_text, "--tower", tower_text]
    _, first = run_report(by_file, tmp_path / "file.json")
    _, second = run_report(inline, tmp_path / "inline.json")
    assert first == second


def test_the_closure_cap_admits_a_closure_of_exactly_its_size(tmp_path):
    # the image of H mod 2 closes to 6 elements: a cap of 6 holds it, 5 does not
    args = ["image", "--modulus", "2", "--gens", str(GOLDEN / "h.json"), "--output", str(tmp_path / "i.json")]
    assert main(args + ["--closure-cap", "6"]) == 0
    assert parse_int(json.loads((tmp_path / "i.json").read_text())["result"]["size"]) == 6
    assert main(args + ["--closure-cap", "5"]) == 3
