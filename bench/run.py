"""End-to-end benchmark of the cosetope command line, with a traced variant.

    python3 bench/run.py --workload evidence --seed 1 --seconds 10 --trace 0

One client drives the CLI as subprocesses in a closed loop: each command
starts after the previous one has exited, so at most one child runs at a
time.  A round is the workload's search commands followed by ``verify`` of
every report they wrote; rounds repeat until ``--seconds`` have passed, and
every search is launched at least twice so that its reports can be compared
byte for byte.  Every report is checked against the workload's reference
facts, and every ``verify`` must answer ``"verified": true``.

With ``--trace 0`` the last line of stdout is the end-to-end result; with
``--trace 1`` each command runs once untraced and once under ``tracer.py``
(a fresh interpreter each), the two reports must be byte-identical, and the
last line holds the per-layer metrics.  Lines before it record the run
environment and a readable summary.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

MIN_SEARCH_LAUNCHES = 2
SETUP_PER_COMMAND = 2
COMMAND_TIMEOUT_S = 150
PINNING = "none: the benchmark pins no CPU and sets no frequency"


class Cmd(NamedTuple):
    kind: str  # "search" or "verify"
    args: tuple  # CLI arguments without --output
    output: str  # report file name inside the work directory


def _search(output: str, *args: str) -> Cmd:
    return Cmd("search", tuple(args), output)


def _verify(report: str) -> Cmd:
    return Cmd("verify", ("verify", "--report", report), report.replace(".json", ".verify.json"))


# ---------------------------------------------------------------------------
# workloads: inputs from the seed, commands, and reference facts


_MAT = {"S": ((0, -1), (1, 0)), "s": ((0, 1), (-1, 0)), "T": ((1, 1), (0, 1)), "t": ((1, -1), (0, 1))}

# Generating sets of SL2(Z): each holds S or its inverse and a word that
# yields T with it.  The seed picks one, and its order.
_GENERATING_WORDS = (
    ("S", "T"),
    ("S", "ST"),
    ("S", "TS"),
    ("S", "t"),
    ("s", "T"),
    ("s", "t"),
    ("T", "ST"),
    ("t", "TS"),
    ("S", "T", "ST"),
    ("S", "STS"),
)


def _word_matrix(word: str) -> tuple:
    x = ((1, 0), (0, 1))
    for ch in word:
        y = _MAT[ch]
        x = tuple(tuple(sum(x[i][k] * y[k][j] for k in range(2)) for j in range(2)) for i in range(2))
    return x


def _h_and_k(words: tuple) -> tuple:
    """Generator files of H (the words) and of K = i H i^-1, whose elements are (I - h, h)."""
    h = [{"w": w} for w in words]
    k = []
    for w in words:
        x = _word_matrix(w)
        a = [[(1 if i == j else 0) - x[i][j] for j in range(2)] for i in range(2)]
        k.append({"a": {"rows": a, "m": None}, "w": w})
    return h, k


def _write_json(path: Path, data) -> None:
    path.write_text(json.dumps(data) + "\n", encoding="utf-8")


def evidence_commands(work: Path, seed: int) -> list:
    return [_search("evidence.json", "gs-demo", "--m-max", "32"), _verify("evidence.json")]


def lowindex_commands(work: Path, seed: int) -> list:
    return [_search("lowindex.json", "lowindex", "--max-degree", "11"), _verify("lowindex.json")]


def tower_commands(work: Path, seed: int) -> list:
    rng = random.Random(seed)
    words = list(rng.choice(_GENERATING_WORDS))
    rng.shuffle(words)
    h, k = _h_and_k(tuple(words))
    _write_json(work / "h.json", h)
    _write_json(work / "k.json", k)
    _write_json(work / "empty.json", [])
    _write_json(work / "tower_a.json", [{"m": 8}])
    _write_json(work / "tower_b.json", [{"m": 6}, {"m": 8}])
    _write_json(work / "tower_c.json", [{"m": 3}, {"m": 4}])
    gens = ("--h-gens", "h.json", "--k-gens", "k.json")
    return [
        _search("tractable_a.json", "tractable", *gens, "--hcapk-gens", "empty.json",
                "--m-spec", '{"m": 2}', "--tower", "tower_a.json"),
        _verify("tractable_a.json"),
        _search("tractable_b.json", "tractable", "--h-gens", "h.json", "--k-gens", "h.json",
                "--hcapk-gens", "h.json", "--m-spec", '{"m": 4}', "--tower", "tower_b.json"),
        _verify("tractable_b.json"),
        _search("tractable_c.json", "tractable", *gens, "--m-spec", '{"m": 2}', "--tower", "tower_c.json"),
        _verify("tractable_c.json"),
    ]


def _evidence_facts(result: dict) -> dict:
    ev = result["evidence"]
    return {"status": ev["status"], "word": ev["witness"]["word"], "levels": ev["levels"]}


def _tower_facts(result: dict) -> dict:
    return {
        "found": result["found"],
        "entries": [(e["spec"]["m"], e["status"], e["sizes"]) for e in result["entries"]],
    }


def _lowindex_facts(result: dict) -> dict:
    return {
        "count": result["count"],
        "noncongruence": sum(1 for e in result["reps"] if not e["congruence"]),
    }


def _sizes(h, k, inter, kernel) -> dict:
    return {"image_h": str(h), "image_k": str(k), "image_intersection": str(inter), "kernel": str(kernel)}


_FOUND_8 = {"filter": None, "m": "8", "rep": None}
_FOUND_4 = {"filter": None, "m": "4", "rep": None}

# Reference facts per report.  The seed changes only which generating words
# the tower files hold, so the facts are the same for every seed.
EXPECTED = {
    "evidence.json": (_evidence_facts, {
        "status": "evidence",
        "word": "TTSttSTTTTSttsTTstttts",
        "levels": [str(m) for m in range(2, 33)],
    }),
    "lowindex.json": (_lowindex_facts, {"count": "95", "noncongruence": 67}),
    "tractable_a.json": (_tower_facts, {
        "found": _FOUND_8,
        "entries": [("8", "ok", _sizes(384, 384, 1, 16384))],
    }),
    "tractable_b.json": (_tower_facts, {
        "found": _FOUND_8,
        "entries": [("6", "precondition", {}), ("8", "ok", _sizes(384, 384, 384, 128))],
    }),
    "tractable_c.json": (_tower_facts, {
        "found": _FOUND_4,
        "entries": [("3", "precondition", {}), ("4", "ok", _sizes(48, 48, 1, 128))],
    }),
}

WORKLOADS = {
    "evidence": (evidence_commands, "none: the command reads no input files"),
    "tower": (tower_commands, "picks the generating words of H and K"),
    "lowindex": (lowindex_commands, "none: the command reads no input files"),
}


def check_report(cmd: Cmd, data: bytes) -> list:
    """Problems with one report, as readable strings; empty when it is right."""
    try:
        report = json.loads(data)
    except ValueError as exc:
        return [f"{cmd.output}: not JSON ({exc})"]
    result = report.get("result", {})
    if cmd.kind == "verify":
        if result.get("verified") is not True:
            return [f"{cmd.output}: verify did not say verified: true"]
        return []
    facts, expected = EXPECTED[cmd.output]
    try:
        got = json.loads(json.dumps(facts(result)))
    except (KeyError, TypeError) as exc:
        return [f"{cmd.output}: missing field {exc}"]
    if got != json.loads(json.dumps(expected)):
        return [f"{cmd.output}: facts {got} differ from the reference {expected}"]
    return []


# ---------------------------------------------------------------------------
# launching


class Launch(NamedTuple):
    wall_s: float
    exit_code: int
    maxrss_kb: int
    stderr: str


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def launch(argv: list, cwd: Path) -> Launch:
    """Run one child to completion; wall time from launch to exit, rusage from wait4."""
    with open(cwd / ".stderr", "w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")[-2000:]
    return Launch(wall, proc.returncode, usage.ru_maxrss, stderr)


def cli_argv(cmd: Cmd) -> list:
    return [sys.executable, "-m", "cosetope", *cmd.args, "--output", cmd.output]


def traced_argv(cmd: Cmd, spans: str, cmd_id: int, seed: int) -> list:
    return [sys.executable, str(BENCH / "tracer.py"), "--src", str(SRC), "--spans", spans,
            "--cmd-id", str(cmd_id), "--seed", str(seed), "--", *cmd.args, "--output", cmd.output]


IMPORT_ARGV = (sys.executable, "-c", "import cosetope.cli")
def time_launch(argv: tuple, work: Path) -> float:
    """Wall time of a short helper launch that must succeed."""
    run = launch(list(argv), work)
    if run.exit_code != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} failed: {run.stderr}")
    return run.wall_s


# ---------------------------------------------------------------------------
# the closed loop


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def record(self, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def run_command(cmd: Cmd, argv: list, work: Path, first_bytes: dict, tally: Tally, extra=None) -> Launch:
    """Launch, then check exit code, report facts, bytes against earlier launches,
    and whatever ``extra()`` reports."""
    run = launch(argv, work)
    problems = []
    if run.exit_code != 0:
        problems.append(f"{cmd.args[0]} exited {run.exit_code}: {run.stderr.strip()}")
    else:
        try:
            data = (work / cmd.output).read_bytes()
        except OSError as exc:
            data = b""
            problems.append(f"{cmd.output}: {exc}")
        problems.extend(check_report(cmd, data))
        if first_bytes.setdefault(cmd.output, data) != data:
            problems.append(f"{cmd.output}: bytes differ between launches of one command")
    if extra is not None:
        problems.extend(extra())
    tally.record(problems)
    return run


def run_untraced(commands: list, work: Path, seconds: float, tally: Tally) -> dict:
    """Full rounds until ``seconds`` have passed; then, if only one round fit, the
    searches once more, so that every search is launched at least twice.

    ``SETUP_PER_COMMAND`` timed imports of cosetope.cli precede each command,
    so set-up time is sampled across the whole run, not at one moment of it.
    """
    first_bytes: dict = {}
    setup: list = []
    peak_rss_kb = 0

    def timed(selected) -> float:
        nonlocal peak_rss_kb
        wall = 0.0
        for cmd in selected:
            setup.extend(time_launch(IMPORT_ARGV, work) for _ in range(SETUP_PER_COMMAND))
            run = run_command(cmd, cli_argv(cmd), work, first_bytes, tally)
            peak_rss_kb = max(peak_rss_kb, run.maxrss_kb)
            wall += run.wall_s
        return wall

    searches = [c for c in commands if c.kind == "search"]
    verifies = [c for c in commands if c.kind == "verify"]
    time_launch(IMPORT_ARGV, work)  # warm-up: byte-compiles the sources on a fresh checkout
    search_s, verify_s = [], []
    start = time.perf_counter()
    while not search_s or time.perf_counter() - start < seconds:
        search_s.append(timed(searches))
        verify_s.append(timed(verifies))
    if len(search_s) < MIN_SEARCH_LAUNCHES:
        search_s.append(timed(searches))
    return {
        "search_s": statistics.median(search_s),
        "verify_s": statistics.median(verify_s),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": peak_rss_kb / 1024.0,
        "round_search_s": search_s,
        "round_verify_s": verify_s,
    }


def run_traced(commands: list, work: Path, seed: int, tally: Tally) -> tuple:
    """Each command untraced, then traced; returns (trace records, overhead s).

    The overhead is the traced minus the untraced wall time, less the time the
    traced interpreters spent timing unit costs after their commands.
    """
    first_bytes: dict = {}
    records = []
    untraced = traced = 0.0
    for i, cmd in enumerate(commands):
        spans = work / f"spans_{i}.json"

        def load_spans() -> list:
            try:
                record = json.loads(spans.read_text(encoding="utf-8"))
            except (OSError, ValueError) as exc:
                return [f"{spans.name}: {exc}"]
            records.append(record)
            return [] if record["restored"] else [f"{spans.name}: the tracer left a patched name behind"]

        untraced += run_command(cmd, cli_argv(cmd), work, first_bytes, tally).wall_s
        argv = traced_argv(cmd, spans.name, i, seed)
        traced += run_command(cmd, argv, work, first_bytes, tally, extra=load_spans).wall_s
    unit_cost_s = sum(r["unit_cost_s"] for r in records)
    return records, traced - untraced - unit_cost_s


# ---------------------------------------------------------------------------
# per-layer metrics from spans


def _span_stats(records: list) -> tuple:
    """Per function name: outermost total seconds, calls and self seconds; per layer: self seconds."""
    total: dict = {}
    calls: dict = {}
    own_by_name: dict = {}
    own_by_layer: dict = {}
    for record in records:
        spans = record["spans"]
        child = [0] * len(spans)
        for name, layer, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, layer, start, end, parent, _) in enumerate(spans):
            dur = end - start
            own = (dur - child[i]) / 1e9
            own_by_name[name] = own_by_name.get(name, 0.0) + own
            own_by_layer[layer] = own_by_layer.get(layer, 0.0) + own
            calls[name] = calls.get(name, 0) + 1
            p = parent
            while p >= 0 and spans[p][0] != name:
                p = spans[p][4]
            if p < 0:  # a call nested in another call of the same function is already counted
                total[name] = total.get(name, 0.0) + dur / 1e9
    return total, calls, own_by_name, own_by_layer


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(records: list, overhead_s: float) -> dict:
    total, calls, own_by_name, self_s = _span_stats(records)
    counters: dict = {}
    mults = 0
    callback_s = 0.0
    caches: dict = {}
    for record in records:
        unit = record["unit"]
        per_kind_ns = {
            "sl2": unit["arith.mat2_mul_ns"],
            "psl2": unit["modular.psl2_mul_ns"],
            "sd": unit["groupcore.sd_mul_ns"],
        }
        for kind, n in record["counters"]["closure_mults"].items():
            mults += n
            callback_s += n * per_kind_ns.get(kind, 0.0) / 1e9
        for key, value in record["counters"].items():
            if key != "closure_mults":
                counters[key] = counters.get(key, 0) + value
        for layer, info in record["caches"].items():
            hits_calls = caches.setdefault(layer, [0, 0])
            hits_calls[0] += info["hits"]
            hits_calls[1] += info["hits"] + info["misses"]
    unit = {}
    if records:
        unit = {name: statistics.median(r["unit"][name] for r in records) for name in records[0]["unit"]}
    closure_s = total.get("subgroup_closure", 0.0)
    elems = counters.get("closure_elems", 0)
    return {
        "arith.mat2_mul_ns": unit.get("arith.mat2_mul_ns", 0.0),
        "groupcore.closure_s": closure_s,
        "groupcore.closure_calls": calls.get("subgroup_closure", 0),
        "groupcore.closure_elems": elems,
        "groupcore.closure_us_per_elem": _ratio(closure_s * 1e6, elems),
        "groupcore.closure_mults": mults,
        "groupcore.closure_useful_ratio": _ratio(counters.get("closure_useful", 0), mults),
        "groupcore.closure_bytes_per_elem": _ratio(counters.get("closure_bytes", 0), elems),
        "groupcore.closure_callback_s": callback_s,
        "groupcore.closure_bookkeeping_s": closure_s - callback_s,
        "groupcore.sd_mul_ns": unit.get("groupcore.sd_mul_ns", 0.0),
        "groupcore.schreier_s": total.get("schreier_generator_words", 0.0),
        "groupcore.schreier_words": counters.get("schreier_words", 0),
        "groupcore.product_member_s": total.get("product_member", 0.0),
        "groupcore.product_member_calls": calls.get("product_member", 0),
        "groupcore.self_s": self_s.get("groupcore", 0.0),
        "modular.is_congruence_s": total.get("is_congruence", 0.0),
        "modular.is_congruence_calls": calls.get("is_congruence", 0),
        "modular.rep_image_mod_s": total.get("rep_image_mod", 0.0),
        "modular.gap_witness_s": total.get("congruence_gap_witness", 0.0),
        "modular.low_index_s": total.get("low_index_reps", 0.0),
        "modular.psl2_mul_ns": unit.get("modular.psl2_mul_ns", 0.0),
        "modular.matrix_to_word_us": unit.get("modular.matrix_to_word_us", 0.0),
        "modular.cache_hit_ratio": _ratio(*caches.get("modular", (0, 0))),
        "modular.self_s": self_s.get("modular", 0.0),
        "profinite.kernel_s": total.get("kernel_of_refinement", 0.0),
        "profinite.kernel_self_s": own_by_name.get("kernel_of_refinement", 0.0),
        "profinite.kernel_gens": counters.get("kernel_gens", 0),
        "profinite.kernel_elems": counters.get("kernel_elems", 0),
        "profinite.image_s": total.get("image_subgroup", 0.0),
        "profinite.cache_hit_ratio": _ratio(*caches.get("profinite", (0, 0))),
        "profinite.self_s": self_s.get("profinite", 0.0),
        "gs.wz_failure_s": total.get("gs_wz_failure", 0.0),
        "gs.h_prime_image_s": total.get("_h_prime_image_mod", 0.0),
        "gs.build_s": total.get("gs_build", 0.0),
        "gs.self_s": self_s.get("gs", 0.0),
        "report.dumps_s": total.get("canonical_dumps", 0.0),
        "report.bytes": counters.get("report_bytes", 0),
        "report.self_s": self_s.get("report", 0.0),
        "cli.self_s": self_s.get("cli", 0.0),
        "bench.trace_overhead_s": overhead_s,
        "bench.max_spans_per_cmd": max((len(r["spans"]) for r in records), default=0),
    }


# ---------------------------------------------------------------------------
# environment and output


def _commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text(encoding="utf-8").splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(workload: str, seed: int) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(os.getloadavg()),
        "commit": _commit(),
        "src_sha256_16": _src_digest(),
        "workload": workload,
        "seed": seed,
        "seed_effect": WORKLOADS[workload][1],
        "clients": 1,
        "pinning": PINNING,
    }


def declared_units(trace: bool) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # a terminated run still kills and reaps its child (see launch)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "cosetope" / "cli.py").is_file():
        print(f"error: no cosetope sources under {SRC}; run from a full checkout", file=sys.stderr)
        return 2

    env = environment(args.workload, args.seed)
    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    tally = Tally()
    try:
        commands = WORKLOADS[args.workload][0](work, args.seed)
        if args.trace:
            records, overhead = run_traced(commands, work, args.seed, tally)
            values = layer_metrics(records, overhead)
            detail = {"spans_per_cmd": [len(r["spans"]) for r in records]}
        else:
            loop = run_untraced(commands, work, args.seconds, tally)
            values = {name: loop[name] for name in ("search_s", "verify_s", "setup_s", "peak_rss_mb")}
            values["ok_frac"] = _ratio(tally.attempted - tally.failed, tally.attempted)
            detail = {k: loop[k] for k in ("round_search_s", "round_verify_s")}
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass
    units = declared_units(bool(args.trace))
    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not both measured and declared")
    env["loadavg_after"] = list(os.getloadavg())
    env.update(detail)
    print("environment: " + json.dumps(env, sort_keys=True))
    for problem in tally.problems:
        print("problem: " + problem)
    for name, value in values.items():
        print(f"{name:36s} {value:>16.6f} {units[name]}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
