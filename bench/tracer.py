"""Boundary spans around the cosetope modules, for the benchmark's traced run.

A function is traced when it crosses a module boundary: another module of
the package imports it by name (at module level or inside a function body)
or reaches it through a module alias such as ``report as rpt``.  Each such
function is replaced by a span-recording wrapper in its defining module and
in every module that bound it at import time, so every call to it, from any
layer, produces one span.  Per-element callbacks (``PER_ELEMENT``) are never
wrapped: their cost stays inside the caller's span, which is why the
benchmark times them separately (``unitcost.py``).

Run one CLI command traced, in a fresh interpreter:

    python3 bench/tracer.py --src src --spans out.json --cmd-id 0 --seed 1 -- lowindex --max-degree 7

Spans are kept in memory and written to ``--spans`` when the command ends,
together with exact counters read from arguments and results at the
boundaries, the hit counts of the package's ``lru_cache`` functions, and the
callback unit costs of ``unitcost.py`` timed right after the command.
"""

from __future__ import annotations

import argparse
import ast
import functools
import importlib
import json
import sys
import time
from pathlib import Path

import unitcost

PACKAGE = "cosetope"
LAYERS = ("arith", "budgets", "errors", "groupcore", "modular", "profinite", "gs", "report", "cli")
# Called once per group element, multiplication or word product; a span
# here would cost more than the work it measures.
PER_ELEMENT = frozenset({"sd_mul", "sd_inv", "psl2_canon", "perm_mul", "perm_inv", "_free_reduce"})
CACHED_LAYERS = ("modular", "profinite")
BYTES_SAMPLE = 32


def _is_traceable(obj) -> bool:
    # plain functions and lru_cache wrappers; classes and constants are not spans
    return callable(obj) and not isinstance(obj, type) and hasattr(obj, "__module__") and hasattr(obj, "__name__")


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", "") or ""
    prefix = PACKAGE + "."
    if not mod.startswith(prefix):
        return None
    layer = mod[len(prefix):]
    return layer if layer in LAYERS else None


def boundary_functions(modules: dict) -> dict:
    """(defining layer, name) -> the (layer, bound name) pairs that bind it at import time.

    Read from the package source: ``from .x import name`` anywhere in a
    module, and ``alias.name`` for ``from . import x as alias``.
    """
    found: dict = {}
    for layer, mod in modules.items():
        tree = ast.parse(Path(mod.__file__).read_text(encoding="utf-8"))
        top_level = set(id(node) for node in tree.body)
        aliases = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.ImportFrom) or node.level != 1:
                continue
            if node.module is None:
                for alias in node.names:
                    if alias.name in modules:
                        aliases[alias.asname or alias.name] = alias.name
                continue
            source = node.module.split(".")[0]
            if source not in modules or source == layer:
                continue
            for alias in node.names:
                obj = getattr(modules[source], alias.name, None)
                if not _is_traceable(obj) or _layer_of(obj) != source:
                    continue
                binders = found.setdefault((source, alias.name), set())
                if id(node) in top_level:
                    binders.add((layer, alias.asname or alias.name))
        for node in ast.walk(tree):
            if (
                isinstance(node, ast.Attribute)
                and isinstance(node.value, ast.Name)
                and node.value.id in aliases
            ):
                source = aliases[node.value.id]
                obj = getattr(modules[source], node.attr, None)
                if source != layer and _is_traceable(obj) and _layer_of(obj) == source:
                    found.setdefault((source, node.attr), set())
    return {key: binders for key, binders in found.items() if key[1] not in PER_ELEMENT}


class Tracer:
    """Installs span wrappers, records spans and counters, and restores every name."""

    def __init__(self, modules: dict, cmd_id: int = 0):
        self.modules = modules
        self.cmd_id = cmd_id
        self.spans: list = []
        self.counters = {
            "closure_mults": {},
            "closure_useful": 0,
            "closure_bytes": 0,
            "closure_elems": 0,
            "schreier_words": 0,
            "kernel_gens": 0,
            "kernel_elems": 0,
            "report_bytes": 0,
        }
        self._stack: list = []
        self._patched: list = []  # (module, name, original)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        for (layer, name), binders in sorted(boundary_functions(self.modules).items()):
            original = getattr(self.modules[layer], name)
            wrapper = self._wrap(original, name, layer)
            for target, bound in sorted(binders | {(layer, name)}):
                mod = self.modules[target]
                if getattr(mod, bound, None) is original:
                    self._patched.append((mod, bound, original))
                    setattr(mod, bound, wrapper)

    def uninstall(self) -> None:
        for mod, name, original in reversed(self._patched):
            setattr(mod, name, original)

    def restored(self) -> bool:
        return all(getattr(mod, name) is original for mod, name, original in self._patched)

    @property
    def patched_names(self) -> list:
        return [(mod.__name__, name) for mod, name, _ in self._patched]

    # -- spans -------------------------------------------------------------

    def span(self, name: str, layer: str, fn, *args, **kwargs):
        spans, stack = self.spans, self._stack
        idx = len(spans)
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            spans[idx] = (name, layer, start, end, parent, self.cmd_id)

    def _wrap(self, fn, name: str, layer: str):
        observe = getattr(self, "_observe_" + name, None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.span(name, layer, fn, *args, **kwargs)
            if observe is not None:
                observe(result, *args, **kwargs)
            return result

        return traced

    # -- counters read from arguments and results, outside the spans --------

    def _observe_subgroup_closure(self, result, ctx, *args, **kwargs):
        step = set()
        for g in result.generators:
            step.add(g)
            step.add(ctx.inv(g))
        mults = self.counters["closure_mults"]
        kind = _context_kind(ctx)
        mults[kind] = mults.get(kind, 0) + len(result) * len(step)
        self.counters["closure_useful"] += len(result) - 1
        elements = result.elements
        stride = max(1, len(elements) // BYTES_SAMPLE)
        sample = elements[::stride][:BYTES_SAMPLE]
        per_elem = sum(_deep_size(x) for x in sample) / len(sample)
        containers = sys.getsizeof(elements) + sys.getsizeof(result.as_set())
        self.counters["closure_bytes"] += containers + per_elem * len(elements)
        self.counters["closure_elems"] += len(elements)

    def _observe_schreier_generator_words(self, result, *args, **kwargs):
        self.counters["schreier_words"] += len(result)

    def _observe_kernel_of_refinement(self, result, *args, **kwargs):
        self.counters["kernel_gens"] += len(result.generators)
        self.counters["kernel_elems"] += len(result)

    def _observe_canonical_dumps(self, result, *args, **kwargs):
        self.counters["report_bytes"] += len(result.encode("utf-8"))

    def cache_stats(self) -> dict:
        """Summed ``cache_info()`` hits and misses of each cached layer; call after ``uninstall``."""
        out = {}
        for layer in CACHED_LAYERS:
            mod = self.modules[layer]
            hits = misses = 0
            for name in dir(mod):
                fn = getattr(mod, name)
                if hasattr(fn, "cache_info") and _layer_of(fn) == layer:
                    info = fn.cache_info()
                    hits += info.hits
                    misses += info.misses
            out[layer] = {"hits": hits, "misses": misses}
        return out


def _context_kind(ctx) -> str:
    """Which per-element callback a closure over ``ctx`` multiplies with."""
    if getattr(ctx.mul, "__name__", "") == "sd_mul":
        return "sd"
    name = getattr(ctx, "name", "")
    if name.startswith("PSL2"):
        return "psl2"
    if name.startswith("SL2"):
        return "sl2"
    return "other"


def _deep_size(obj, seen=None) -> int:
    """Bytes of a tuple-structured element, not counting shared small ints or None."""
    if obj is None or isinstance(obj, bool) or (isinstance(obj, int) and -5 <= obj <= 256):
        return 0
    seen = set() if seen is None else seen
    if id(obj) in seen:
        return 0
    seen.add(id(obj))
    size = sys.getsizeof(obj)
    if isinstance(obj, tuple):
        size += sum(_deep_size(x, seen) for x in obj)
    return size


def load_modules(src: str) -> dict:
    """Import every layer of the package from ``src`` (never an installed copy)."""
    sys.path.insert(0, str(Path(src).resolve()))
    modules = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
    expected = (Path(src).resolve() / PACKAGE).resolve()
    for layer, mod in modules.items():
        if Path(mod.__file__).resolve().parent != expected:
            raise RuntimeError(f"{PACKAGE}.{layer} was imported from {mod.__file__}, not from {src}")
    return modules


def run_traced(src: str, argv: list, cmd_id: int = 0, seed: int = 0) -> tuple:
    """Run one CLI command under a tracer, then time the unit costs; returns
    (exit code, trace record)."""
    modules = load_modules(src)
    tracer = Tracer(modules, cmd_id)
    tracer.install()
    try:
        rc = tracer.span("main", "cli", modules["cli"].main, argv)
    finally:
        tracer.uninstall()
    record = {
        "cmd_id": cmd_id,
        "argv": argv,
        "exit_code": rc,
        "spans": tracer.spans,
        "counters": tracer.counters,
        "caches": tracer.cache_stats(),
        "patched": len(tracer.patched_names),
        "restored": tracer.restored(),
    }
    start = time.perf_counter()
    record["unit"] = unitcost.measure(modules, seed)
    record["unit_cost_s"] = time.perf_counter() - start
    return rc, record


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory holding the cosetope package")
    parser.add_argument("--spans", required=True, help="file the trace record is written to")
    parser.add_argument("--cmd-id", type=int, default=0)
    parser.add_argument("--seed", type=int, default=0, help="seed of the unit-cost inputs")
    parser.add_argument("argv", nargs=argparse.REMAINDER, help="-- then the CLI arguments")
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
    rc, record = run_traced(args.src, argv, args.cmd_id, args.seed)
    with open(args.spans, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
