"""Property tests: malformed input ends in a value, a ``CosetopeError`` or an
exit code of 0, 2 or 3, never in a traceback.

The tests are derandomized, so every run draws the same inputs.
"""

import json
from pathlib import Path

from hypothesis import HealthCheck, given, settings, strategies as st

from cosetope.cli import main
from cosetope.errors import CosetopeError
from cosetope.modular import PermRep
from cosetope.profinite import GroupWord, QuotientSpec
from cosetope.report import canonical_dumps, groupword_from_json, rep_from_json, spec_from_json, tower

GOLDEN = Path(__file__).resolve().parent / "golden"
REPORTS = (
    "gap_witness.json",
    "gap_witness_level3.json",
    "gs_demo.json",
    "tractable_ok.json",
    "tractable_violation.json",
)

SETTINGS = settings(
    derandomize=True,
    deadline=None,
    database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)

# Reports hold numbers as decimal strings; a few large ones reach the budget
# and level caps.
NUMBER_TEXT = st.one_of(
    st.integers(-2, 9).map(str),
    st.sampled_from(["24", "64", "1000000000000000003", "1e3", " 7", "0x10", "²"]),
)
NUMBERS = st.one_of(NUMBER_TEXT, st.sampled_from([float("inf"), float("nan"), 2.5, 10**30]))
# No "/" in file names, so a spec's "rep" path stays below the test's directory.
TEXT = st.text(st.characters(blacklist_characters="/"), max_size=6)
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 40), st.floats(), NUMBERS, TEXT)
JSON = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=3)),
    max_leaves=8,
)


def _outcome(fn, *args):
    """Call ``fn``; a ``CosetopeError`` is an accepted outcome, any other exception propagates."""
    try:
        return fn(*args)
    except CosetopeError:
        return None


def _paths(node, prefix=()):
    yield prefix
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(node, list):
        for i, value in enumerate(node):
            yield from _paths(value, prefix + (i,))


@st.composite
def edited_reports(draw):
    """A golden report with one to three values replaced or deleted."""
    name = draw(st.sampled_from(REPORTS))
    data = json.loads((GOLDEN / name).read_text(encoding="utf-8"))
    for _ in range(draw(st.integers(1, 3))):
        path = draw(st.sampled_from(list(_paths(data))))
        value = draw(JSON)
        if not path:
            data = value
            continue
        parent = data
        for key in path[:-1]:
            parent = parent[key]
        if isinstance(parent, dict) and draw(st.booleans()):
            del parent[path[-1]]
        else:
            parent[path[-1]] = value
    return data


@SETTINGS
@given(report=edited_reports())
def test_verify_of_an_edited_golden_report_exits_0_2_or_3(tmp_path, monkeypatch, report):
    monkeypatch.chdir(GOLDEN)
    path = tmp_path / "report.json"
    path.write_text(canonical_dumps(report), encoding="utf-8")
    argv = ["verify", "--report", str(path), "--closure-cap", "5000", "--output", str(tmp_path / "v.json")]
    assert main(argv) in (0, 2, 3)


PERM_LIKE = st.fixed_dictionaries(
    {
        "degree": st.one_of(st.integers(-1, 4), NUMBERS),
        "s": st.lists(st.one_of(st.integers(-1, 4), NUMBERS), max_size=5),
        "t": st.lists(st.one_of(st.integers(-1, 4), NUMBERS), max_size=5),
    }
)


@SETTINGS
@given(data=st.one_of(JSON, PERM_LIKE))
def test_permrep_from_json_gives_a_rep_or_a_cosetope_error(data):
    rep = _outcome(rep_from_json, data)
    assert rep is None or isinstance(rep, PermRep)


SPEC_LIKE = st.fixed_dictionaries(
    {"m": st.one_of(st.integers(-1, 13), NUMBERS, SCALARS)},
    optional={
        "rep": st.one_of(JSON, PERM_LIKE, TEXT),
        "filter": st.one_of(
            JSON,
            st.fixed_dictionaries(
                {}, optional={"type": st.one_of(st.sampled_from(["all", "pro-p"]), TEXT), "p": SCALARS}
            ),
        ),
    },
)


@SETTINGS
@given(data=st.one_of(JSON, SPEC_LIKE))
def test_spec_from_json_gives_a_spec_or_a_cosetope_error(data):
    spec = _outcome(spec_from_json, data)
    assert spec is None or isinstance(spec, QuotientSpec)


@SETTINGS
@given(data=st.one_of(JSON, st.lists(st.one_of(JSON, SPEC_LIKE), max_size=3)))
def test_load_tower_gives_specs_or_a_cosetope_error(tmp_path, data):
    path = tmp_path / "tower.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    specs = _outcome(tower, str(path))
    assert specs is None or all(isinstance(spec, QuotientSpec) for spec in specs)


WORD_TEXT = st.one_of(TEXT, st.text(st.sampled_from("STst"), max_size=12))
MATRIX_LIKE = st.fixed_dictionaries(
    {},
    optional={
        "rows": st.one_of(JSON, st.lists(st.lists(st.one_of(NUMBERS, SCALARS), max_size=3), max_size=3)),
        "m": st.one_of(st.none(), NUMBERS, SCALARS),
    },
)
GROUPWORD_LIKE = st.fixed_dictionaries({}, optional={"a": st.one_of(JSON, MATRIX_LIKE), "w": WORD_TEXT})


@SETTINGS
@given(data=st.one_of(JSON, GROUPWORD_LIKE))
def test_groupword_from_json_gives_an_element_or_a_cosetope_error(data):
    g = _outcome(groupword_from_json, data)
    assert g is None or isinstance(g, GroupWord)


def _inline(strategy):
    """Inline JSON text as a user would type it: well-formed or not."""
    return st.one_of(strategy.map(json.dumps), TEXT)


# Mostly well-formed specs, so that many draws reach the search.
M_SPEC = st.fixed_dictionaries(
    {"m": st.sampled_from([2, 4, 8, "4", 10**30])},
    optional={
        "filter": st.fixed_dictionaries({"type": st.sampled_from(["all", "pro-p"]), "p": st.sampled_from([2, 3, 4])})
    },
)


@SETTINGS
@given(m_spec=_inline(st.one_of(JSON, SPEC_LIKE, M_SPEC)))
def test_cli_m_spec_exits_0_2_or_3(tmp_path, monkeypatch, m_spec):
    monkeypatch.chdir(GOLDEN)
    argv = ["tractable", "--h-gens", "h.json", "--k-gens", "k.json", f"--m-spec={m_spec}", "--tower", "tower_ok.json"]
    assert main(argv + ["--closure-cap", "5000", "--output", str(tmp_path / "t.json")]) in (0, 2, 3)


@SETTINGS
@given(element=_inline(st.one_of(JSON, GROUPWORD_LIKE)), command=st.sampled_from(["dcoset-member", "thm-b-probe"]))
def test_cli_element_exits_0_2_or_3(tmp_path, monkeypatch, element, command):
    monkeypatch.chdir(GOLDEN)
    if command == "dcoset-member":
        argv = ["dcoset-member", "--modulus", "3", "--left", "h.json", "--right", "k.json"]
    else:
        argv = ["thm-b-probe", "--h-gens", "h.json", "--k-gens", "k.json", "--tower", "tower_ok.json"]
    argv += [f"--element={element}", "--closure-cap", "5000", "--output", str(tmp_path / "out.json")]
    assert main(argv) in (0, 2, 3)


# Random permutations seldom make a rep, so two valid ones let draws reach the quotient.
VALID_REPS = st.sampled_from([{"degree": 1, "s": [0], "t": [0]}, json.loads((GOLDEN / "nc_rep.json").read_text())])


@SETTINGS
@given(data=st.one_of(JSON, PERM_LIKE, VALID_REPS))
def test_cli_rep_file_exits_0_2_or_3(tmp_path, data):
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["quotient", "--modulus", "2", "--rep", str(path)]
    assert main(argv + ["--closure-cap", "5000", "--output", str(tmp_path / "q.json")]) in (0, 2, 3)


@SETTINGS
@given(data=st.one_of(JSON, st.lists(st.one_of(JSON, GROUPWORD_LIKE), max_size=3)))
def test_cli_gens_file_exits_0_2_or_3(tmp_path, data):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(data), encoding="utf-8")
    argv = ["image", "--modulus", "3", "--gens", str(path)]
    assert main(argv + ["--closure-cap", "5000", "--output", str(tmp_path / "i.json")]) in (0, 2, 3)
