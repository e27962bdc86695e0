"""Seeded fuzz of the command line: every input ends in exit 0, 2 or 3.

The command lines are built from ``cli.OPTIONS``: each option of a drawn
command is given a value from the golden files, junk JSON (inline or in a
readable file, drawn for the option's input kind or for any) or boundary
integers, a required option is sometimes left out and an unknown one
sometimes added.  Every line sets ``--closure-cap`` to at most 50,000,
so each run stays small.  Each report a line writes is verified as
written, and a copy with one drawn edit is refused.
"""

import contextlib
import hashlib
import io
import json
import random
from pathlib import Path

from cosetope import report as rpt
from cosetope.cli import OPTIONS, REQUIRED, main

GOLDEN = Path(__file__).resolve().parent / "golden"
SEED, LINES = 37, 250

_INTS = ["1", "2", "3", "4", "6", "12"]
# the last five are integers only in a form other than canonical decimal
_BOUNDARY_INTS = ["0", "-1", str(2**70), "x", "", "1e400", "-" + "9" * 5000, "03", "+3", " 3", "1_0", "-0"]
_CAPS = ["23", "2520", "50000", "50000"]  # never above 50,000
# junk for any input kind
_JUNK = [
    '"x"', "1", "null", "true", "[]", "{}", "[1]", "1e400", '{"zz": 1}', '{"' + "k" * 5000 + '": 1}',
    "[" * 40 + "]" * 40, "x" * 5000, "no/such/file.json", str(GOLDEN),
]
# junk in the shape of one input kind, so that its reader's own checks are reached
_KIND_JUNK = {
    rpt.rep: ['{"degree": 2, "s": [0, 1], "t": [1, 0]}', '{"degree": "1", "s": ["0"], "t": ["0"]}',
              '{"degree": 1, "s": 0, "t": [0]}', '{"degree": 2, "s": [0, 0], "t": [1, 0]}'],
    rpt.gens: ['[{"w": 1e400}]', '[{"w": "Tx"}]', '[{"a": {"rows": [[1]]}}]',
               '[{"a": {"rows": [[1, 0], [0, 1]], "m": 2}, "w": ""}]'],
    rpt.tower: ['[{"m": 0}]', '[{"m": 2, "filter": {"type": "pro-p", "p": 2}}]', '[{"m": 2}, {"m": "03"}]'],
    rpt.spec: ['{"m": 1e400}', '{"m": 2, "m": 3}', '{"m": 2, "filter": {"type": "pro-p", "p": 2}}',
               '{"m": 2, "rep": {"degree": 1}}'],
    rpt.element: ['{"w": "Tx"}', '{"a": {"rows": [[1]]}}', '{"a": {"rows": [[1, 0], [0, 1]], "m": 2}}'],
}


def _golden(*names) -> list:
    return [str(GOLDEN / name) for name in names]


_INPUTS = {
    rpt.rep: _golden("nc_rep.json", "level105_rep.json") + ['{"degree": 1, "s": [0], "t": [0]}'],
    rpt.gens: _golden("h.json", "k.json", "empty.json") + ['[{"w": "S"}, {"w": "T"}]'],
    rpt.tower: [str(path) for path in sorted(GOLDEN.glob("tower_*.json"))] + ['[{"m": 2}, {"m": 4}]', "[]"],
    rpt.spec: ['{"m": 2}', '{"m": 3}', '{"m": 2, "filter": null}',
               '{"m": 2, "rep": ' + (GOLDEN / "nc_rep.json").read_text() + "}"],
    rpt.element: ['{"w": "T"}', "{}", '{"a": {"rows": [[2, 0], [0, 2]]}, "w": ""}', '{"w": "STs"}'],
}
_REPORTS = [str(path) for path in sorted(GOLDEN.glob("*.json")) if '"schema"' in path.read_text()]


def _value(rng: random.Random, name: str, kind, tmp: Path):
    """A value for option ``name`` of type ``kind``, or None to leave it
    out: a boundary integer or junk one time in five, else a valid one."""
    junk = rng.random() < 0.2
    if name == "--output":
        return rng.choice([None, None, str(tmp / "out.json"), str(tmp / "missing" / "out.json")])
    if name == "--closure-cap":
        return rng.choice(["0", "-1", "x"] if junk else _CAPS)
    if kind is int:
        return rng.choice(_BOUNDARY_INTS if junk else _INTS)
    if not junk:
        return rng.choice(_REPORTS if name == "--report" else _INPUTS[kind])
    text = rng.choice(_KIND_JUNK[kind] if kind in _KIND_JUNK and rng.random() < 0.5 else _JUNK)
    if not text.startswith(("[", "{")) or rng.random() < 0.5:
        return text
    # the same junk in a readable file, which the reader refuses "in file"
    path = tmp / f"junk-{hashlib.sha1(text.encode()).hexdigest()[:12]}.json"
    path.write_text(text)
    return str(path)


def command_lines(rng: random.Random, tmp: Path, count: int) -> list:
    """``count`` command lines, each with ``--closure-cap`` given."""
    lines = []
    for _ in range(count):
        command = rng.choice(sorted(OPTIONS))
        argv = [command]
        for name, (kind, default, _) in OPTIONS[command][2].items():
            if name != "--closure-cap" and rng.random() < (0.05 if default is REQUIRED else 0.5):
                continue
            if kind is bool:
                argv.append(name)
                continue
            value = _value(rng, name, kind, tmp)
            if value is not None:
                argv += [f"{name}={value}"] if value.startswith("-") or rng.random() < 0.2 else [name, value]
        if rng.random() < 0.05:
            argv.append(rng.choice(["--zz", "--closure-cap", "--" + "o" * 5000, "=", "-x"]))
        lines.append(argv)
    return lines


def _slots(value) -> list:
    """Every (container, key) pair below the JSON value ``value``."""
    items = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    return [slot for key, item in items for slot in ((value, key), *_slots(item))]


# each edit, and the start of the one-line refusal verify gives for it
EDITS = {
    "leaf": "error: verify failed: result",
    "key": "error: verify failed: result",
    "schema": "error: verify failed: unsupported schema",
    "indent": "error: verify failed: report is not in canonical form (bytes differ)",
}


def edited_report(rng: random.Random, text: str) -> tuple:
    """The edit drawn from ``EDITS`` and a copy of the report ``text`` with
    it: a leaf of the result changed, a key of the result dropped, the
    schema changed, or the canonical bytes indented otherwise."""
    data = json.loads(text)
    edit = rng.choice(sorted(EDITS))
    slots = _slots(data["result"])
    if edit == "leaf":
        container, key = rng.choice([(c, k) for c, k in slots if not isinstance(c[k], (dict, list))])
        old = container[key]
        container[key] = "0" if old is None else not old if isinstance(old, bool) else f"{old}0"
    elif edit == "key":
        container, key = rng.choice([(c, k) for c, k in slots if isinstance(c, dict)])
        del container[key]
    elif edit == "schema":
        data["schema"] = rng.choice(["6", "8", "07", None, 7.0])
    indent = rng.choice([1, 3, 4]) if edit == "indent" else 2
    return edit, json.dumps(data, sort_keys=True, indent=indent) + "\n"


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_fuzzed_command_line_exits_0_2_or_3_with_a_short_refusal(tmp_path):
    lines = command_lines(random.Random(SEED), tmp_path, LINES)
    assert all(any(a.startswith("--closure-cap") for a in argv) for argv in lines)
    codes, refusals, edits = [], [], set()
    rng = random.Random(SEED)
    for argv in lines:
        (tmp_path / "out.json").unlink(missing_ok=True)
        code, out, err = _run(argv)
        shown = [a[:80] for a in argv]
        assert code in (0, 2, 3), shown
        assert err.count("\n") <= 1 and len(err.encode()) <= 300, (shown, err[:300])
        assert (err == "") == (code == 0), (shown, err[:300])
        codes.append(code)
        refusals.append(err)
        if code == 0 and argv[0] != "verify":
            report = tmp_path / "out.json"
            if not report.exists():
                report.write_text(out)
            assert json.loads(report.read_text())["command"] == argv[0], shown
            code, _, err = _run(["verify", "--report", str(report), "--closure-cap", "50000"])
            assert (code, err) == (0, ""), (shown, err[:300])
            edit, text = edited_report(rng, report.read_text())
            report.write_text(text)
            code, _, err = _run(["verify", "--report", str(report), "--closure-cap", "50000"])
            assert code == 2 and err.startswith(EDITS[edit]) and err.count("\n") == 1, (shown, edit, err[:300])
            assert len(err.encode()) <= 300, (shown, edit, err[:300])
            assert (edit == "key") == ("report says nothing" in err), (shown, edit, err[:300])
            edits.add(edit)
    # the lines reach every outcome, not only the parser's refusals, and a
    # reader's own check both inline and inside a readable file
    assert {0, 2, 3} <= set(codes) and codes.count(0) >= 25, codes
    assert edits == set(EDITS)
    assert any("spec 'filter' must be null" in err for err in refusals)
    assert any("JSON in file" in err and "cannot read" not in err for err in refusals)
