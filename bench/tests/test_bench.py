"""Tests of the benchmark harness itself (not of cosetope).

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import tracer  # noqa: E402

# The benchmark's own workload commands stay well below this; a per-element
# function wrapped by mistake would add tens of thousands of spans.
MAX_SPANS_PER_COMMAND = 4000


def _traced_pair(cmd: run.Cmd, work: Path) -> tuple:
    untraced = run.launch(run.cli_argv(cmd), work)
    assert untraced.exit_code == 0, untraced.stderr
    plain = (work / cmd.output).read_bytes()
    (work / cmd.output).unlink()
    traced = run.launch(run.traced_argv(cmd, "spans.json", 7, seed=3), work)
    assert traced.exit_code == 0, traced.stderr
    record = json.loads((work / "spans.json").read_text(encoding="utf-8"))
    return plain, (work / cmd.output).read_bytes(), record


@pytest.mark.parametrize(
    "args",
    [
        ("lowindex", "--max-degree", "7"),
        ("gs-demo", "--max-level", "3", "--m-max", "8"),
    ],
)
def test_traced_command_writes_identical_bytes_with_bounded_spans(tmp_path, args):
    plain, traced, record = _traced_pair(run.Cmd("search", args, "out.json"), tmp_path)
    assert traced == plain
    assert record["restored"] and record["exit_code"] == 0 and record["cmd_id"] == 7
    assert 0 < len(record["spans"]) <= MAX_SPANS_PER_COMMAND
    assert not {span[0] for span in record["spans"]} & tracer.PER_ELEMENT
    assert record["spans"][0][0] == "main" and record["spans"][0][4] == -1


def test_tower_inputs_give_identical_bytes_traced(tmp_path):
    commands = run.tower_commands(tmp_path, seed=5)
    cmd = next(c for c in commands if c.output == "tractable_c.json")
    plain, traced, record = _traced_pair(cmd, tmp_path)
    assert traced == plain
    assert run.check_report(cmd, traced) == []
    assert record["counters"]["kernel_elems"] == 128


def test_every_patched_name_is_restored():
    modules = tracer.load_modules(str(run.SRC))
    before = {layer: dict(vars(mod)) for layer, mod in modules.items()}
    t = tracer.Tracer(modules)
    t.install()
    patched = set(t.patched_names)
    assert ("cosetope.cli", "_h_prime_image_mod") in patched  # private name across a boundary
    assert ("cosetope.groupcore", "subgroup_closure") in patched  # defining module too
    assert ("cosetope.groupcore", "sl2_context") in patched  # imported inside a function body
    assert ("cosetope.report", "canonical_dumps") in patched  # reached as rpt.canonical_dumps
    assert modules["groupcore"].sd_mul is before["groupcore"]["sd_mul"]
    assert modules["modular"].psl2_canon is before["modular"]["psl2_canon"]
    t.uninstall()
    assert t.restored()
    for layer, mod in modules.items():
        current = vars(mod)
        assert all(current[name] is value for name, value in before[layer].items()), layer


def test_run_reports_tracing_overhead_as_traced_minus_untraced(tmp_path, monkeypatch):
    """The traced interpreters also time unit costs after their commands; that is not overhead."""
    walls = {"traced": 0.0, "untraced": 0.0}
    real_launch = run.launch

    def counting_launch(argv, cwd):
        result = real_launch(argv, cwd)
        if any(a.endswith("tracer.py") for a in argv):
            walls["traced"] += result.wall_s
        elif "cosetope" in argv:
            walls["untraced"] += result.wall_s
        return result

    monkeypatch.setattr(run, "launch", counting_launch)
    monkeypatch.setitem(run.EXPECTED, "small.json", (run._lowindex_facts, {"count": "7", "noncongruence": 0}))
    commands = [run.Cmd("search", ("lowindex", "--max-degree", "5"), "small.json"), run._verify("small.json")]
    tally = run.Tally()
    records, overhead = run.run_traced(commands, tmp_path, seed=1, tally=tally)
    assert tally.failed == 0, tally.problems
    assert tally.attempted == 4
    unit_cost_s = sum(r["unit_cost_s"] for r in records)
    assert overhead == pytest.approx(walls["traced"] - walls["untraced"] - unit_cost_s)
    metrics = run.layer_metrics(records, overhead)
    assert set(metrics) == set(run.declared_units(trace=True))
    assert metrics["bench.trace_overhead_s"] == overhead
    assert metrics["modular.low_index_s"] > 0 and metrics["modular.is_congruence_calls"] == 14


def test_checks_reject_wrong_facts_and_unverified_reports():
    search = run.Cmd("search", ("lowindex",), "lowindex.json")
    good = {"result": {"count": "95", "reps": [{"congruence": False}] * 67 + [{"congruence": True}] * 28}}
    assert run.check_report(search, json.dumps(good).encode()) == []
    bad = {"result": {"count": "94", "reps": good["result"]["reps"][:-1]}}
    assert run.check_report(search, json.dumps(bad).encode())
    verify = run._verify("lowindex.json")
    assert run.check_report(verify, b'{"result": {"verified": true}}') == []
    assert run.check_report(verify, b'{"result": {"verified": false}}')
    assert run.check_report(verify, b"not json")


def test_benchmark_fails_without_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "lowindex", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
