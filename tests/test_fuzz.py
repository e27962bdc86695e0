"""Seeded fuzz of the command line: every input ends in exit 0, 2 or 3.

The command lines are built from ``cli.OPTIONS``: each option of a drawn
command is given a value from the golden files, inline junk JSON or
boundary integers, a required option is sometimes left out and an unknown
one sometimes added.  Every line sets ``--closure-cap`` to at most 50,000,
so each run stays small.
"""

import contextlib
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
_JUNK = [
    '"x"', "1", "null", "true", "[]", "{}", "[1]", "1e400", '{"zz": 1}', '{"' + "k" * 5000 + '": 1}',
    "[" * 40 + "]" * 40, '[{"w": 1e400}]', '{"m": 1e400}', '{"m": 2, "m": 3}', '[{"m": 0}]', '{"w": "Tx"}',
    '{"degree": 2, "s": [0, 1], "t": [1, 0]}', '{"degree": "1", "s": ["0"], "t": ["0"]}', '[{"a": {"rows": [[1]]}}]',
    "x" * 5000, "no/such/file.json", str(GOLDEN), '{"m": 2, "filter": {"type": "pro-p", "p": 2}}',
]


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
    if junk:
        return rng.choice(_JUNK)
    return rng.choice(_REPORTS if name == "--report" else _INPUTS[kind])


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


def _run(argv) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_every_fuzzed_command_line_exits_0_2_or_3_with_a_short_refusal(tmp_path):
    lines = command_lines(random.Random(SEED), tmp_path, LINES)
    assert all(any(a.startswith("--closure-cap") for a in argv) for argv in lines)
    codes = []
    for argv in lines:
        (tmp_path / "out.json").unlink(missing_ok=True)
        code, out, err = _run(argv)
        shown = [a[:80] for a in argv]
        assert code in (0, 2, 3), shown
        assert err.count("\n") <= 1 and len(err.encode()) <= 300, (shown, err[:300])
        assert (err == "") == (code == 0), (shown, err[:300])
        codes.append(code)
        if code == 0 and argv[0] != "verify":
            report = tmp_path / "out.json"
            if not report.exists():
                report.write_text(out)
            assert json.loads(report.read_text())["command"] == argv[0], shown
            code, _, err = _run(["verify", "--report", str(report), "--closure-cap", "50000"])
            assert (code, err) == (0, ""), (shown, err[:300])
    # the lines reach every outcome, not only the parser's refusals
    assert {0, 2, 3} <= set(codes) and codes.count(0) >= 25, codes
