"""Seeded one-token mutation testing of ``src/cosetope``, run by hand.

    python tests/mutate.py [--seed N] [--count N] [--work DIR] [MODULE ...]

Each MODULE is a file name in ``src/cosetope`` (``cli.py``); with none, every
module is mutated.  The tool copies the repository, without ``.git`` and
caches, into a work directory outside it (a new temporary one unless
``--work`` names an empty or missing one) and never edits the tree it
copies.  It first runs tier-1 on the unmutated copy, which must pass, and
times it.  Then for each mutant it rewrites one module in the copy, runs
tier-1 there with ``-x`` and restores the module.

A mutant changes one code token: a comparison, arithmetic or boolean
operator, ``True``/``False``, ``break``/``continue``, ``min``/``max``,
``any``/``all``, an integer literal, or a ``not`` removed.  Strings,
comments and the ``in`` of a ``for`` clause (whose mutant does not parse)
are never touched, and a mutant that does not compile is drawn again.  The
sites are shuffled by ``--seed``, so a seed and a tree give the same
mutants.

A mutant's run is "killed" when tier-1 fails, "hang" when it is still
running at three times the unmutated run's time (or when the per-test hang
guard of ``tests/conftest.py`` ends it first), and "survived" when tier-1
passes.  The tool prints one line per mutant, then the number killed and
each survivor with its source line; it exits 1 when a mutant survived.
It is not part of tier-1.
"""

from __future__ import annotations

import argparse
import io
import os
import random
import shutil
import signal
import subprocess
import sys
import tempfile
import time
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "cosetope"
SKIPPED = (".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work", ".bench_build")

_SWAPS = {
    "<": "<=", "<=": "<", ">": ">=", ">=": ">", "==": "!=", "!=": "==",
    "+": "-", "-": "+", "//": "%", "%": "//", "+=": "-=", "-=": "+=",
    "and": "or", "or": "and", "True": "False", "False": "True", "is": "is not", "in": "not in",
    "break": "continue", "continue": "break", "min": "max", "max": "min", "any": "all", "all": "any",
    "not": "",
}


def mutation_sites(source: str) -> list:
    """``(row, start, end, old, new)`` for each mutable code token of ``source``."""
    sites, open_fors, depth, in_fstring = [], [], 0, 0
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        name = tokenize.tok_name[tok.type]
        if name == "FSTRING_START":  # Python 3.12 splits f-strings into tokens
            in_fstring += 1
        elif name == "FSTRING_END":
            in_fstring -= 1
        if in_fstring or tok.type not in (tokenize.OP, tokenize.NAME, tokenize.NUMBER):
            continue
        text = tok.string
        if text in ("(", "[", "{"):
            depth += 1
        elif text in (")", "]", "}"):
            depth -= 1
        elif text == "for":
            open_fors.append(depth)
        elif text == "in" and open_fors and open_fors[-1] == depth:
            open_fors.pop()  # the ``in`` of a for clause
            continue
        if tok.type == tokenize.NUMBER:
            if text.isdigit():
                sites.append((*tok.start, tok.end[1], text, "0" if text == "1" else str(int(text) + 1)))
        elif text in _SWAPS:
            sites.append((*tok.start, tok.end[1], text, _SWAPS[text]))
    return sites


def mutant(source: str, site: tuple) -> str:
    row, start, end, _, new = site
    lines = source.splitlines(keepends=True)
    line = lines[row - 1]
    lines[row - 1] = line[:start] + new + line[end:]
    return "".join(lines)


def draw(modules: list, seed: int, count: int) -> list:
    """``count`` compiling mutants ``(module, site, text)``, in seeded order."""
    sources = {m: (ROOT / PACKAGE / m).read_text(encoding="utf-8") for m in modules}
    sites = [(m, site) for m in modules for site in mutation_sites(sources[m])]
    random.Random(seed).shuffle(sites)
    drawn = []
    for module, site in sites:
        text = mutant(sources[module], site)
        try:
            compile(text, module, "exec")
        except SyntaxError:
            continue
        drawn.append((module, site, text))
        if len(drawn) == count:
            break
    return drawn


def run_tier1(work: Path, limit: float | None) -> tuple:
    """``(outcome, seconds)`` of one tier-1 run in ``work``: "passed",
    "failed" or "hang"; the run's whole process group is killed at ``limit``."""
    env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--continue-on-collection-errors"]
    t0 = time.perf_counter()
    with tempfile.TemporaryFile() as log:
        proc = subprocess.Popen(argv, cwd=work, env=env, stdout=log, stderr=subprocess.STDOUT, start_new_session=True)
        try:
            code = proc.wait(timeout=limit)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            return "hang", time.perf_counter() - t0
        log.seek(0)
        guard_fired = b"Timeout (" in log.read()  # conftest's faulthandler dump
    seconds = time.perf_counter() - t0
    return ("passed" if code == 0 else "hang" if guard_fired else "failed"), seconds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*", metavar="MODULE")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--count", type=int, default=20)
    parser.add_argument("--work", type=Path, help="work directory for the copy (default: a new temporary one)")
    args = parser.parse_args(argv)
    modules = args.modules or sorted(p.name for p in (ROOT / PACKAGE).glob("*.py"))
    missing = [m for m in modules if not (ROOT / PACKAGE / m).is_file()]
    if missing or args.count < 1:
        parser.error(f"no module {', '.join(missing)} in {PACKAGE}" if missing else "--count must be positive")
    work = (args.work or Path(tempfile.mkdtemp(prefix="cosetope-mutants-"))).resolve()
    if work.is_relative_to(ROOT) or work.exists() and any(work.iterdir()):
        parser.error(f"work directory {work} is inside the repository or not empty")
    shutil.copytree(ROOT, work, ignore=shutil.ignore_patterns(*SKIPPED), dirs_exist_ok=True)
    print(f"work directory: {work}")
    outcome, baseline = run_tier1(work, None)
    if outcome != "passed":
        print("tier-1 fails on the unmutated copy; no mutant can be judged", file=sys.stderr)
        return 2
    limit = 3 * baseline
    print(f"unmutated tier-1: {baseline:.1f} s; time limit per mutant {limit:.1f} s")
    results = []
    for module, site, text in draw(modules, args.seed, args.count):
        target = work / PACKAGE / module
        original = target.read_text(encoding="utf-8")
        target.write_text(text, encoding="utf-8")
        try:
            outcome, seconds = run_tier1(work, limit)
        finally:
            target.write_text(original, encoding="utf-8")
        verdict = {"passed": "survived", "failed": "killed", "hang": "hang"}[outcome]
        row, start, _, old, new = site
        label = f"{module}:{row}:{start} {old!r} -> {new!r}"
        print(f"{verdict:8} {label} ({seconds:.1f} s)", flush=True)
        results.append((verdict, label, original.splitlines()[row - 1].strip()))
    survivors = [r for r in results if r[0] == "survived"]
    hangs = sum(r[0] == "hang" for r in results)
    print(f"{len(results)} mutants: {len(results) - len(survivors) - hangs} killed, {hangs} hang, {len(survivors)} survived")
    for _, label, line in survivors:
        print(f"survivor: {label}: {line}")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
