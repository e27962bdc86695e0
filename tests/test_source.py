"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cosetope"
SOURCES = sorted(PACKAGE.glob("*.py"))


def unused_imports(text: str) -> list:
    """The module-level imported names that ``text`` never uses, as (line, name).

    A name counts as used when it appears as a bare name anywhere in the
    module, attribute chains included.  Imports from ``__future__`` and lines
    marked ``noqa: F401`` are exempt.
    """
    tree = ast.parse(text)
    lines = text.splitlines()
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        for alias in node.names:
            name = (alias.asname or alias.name).split(".")[0]
            if name not in used and "noqa: F401" not in lines[alias.lineno - 1]:
                out.append((alias.lineno, name))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_unused_import_check_sees_dead_and_exempt_imports():
    text = (
        "from __future__ import annotations\n"
        "import os\n"
        "import json\n"
        "from .x import (\n"
        "    a,  # noqa: F401\n"
        "    b,\n"
        ")\n"
        "json.dumps(1)\n"
    )
    assert unused_imports(text) == [(2, "os"), (6, "b")]
    assert len(SOURCES) >= 10


def _outside_methods(node):
    """The nodes of a definition, less the methods of a class."""
    if not isinstance(node, ast.ClassDef):
        return ast.walk(node)
    parts = node.bases + node.keywords + node.decorator_list
    parts += [item for item in node.body if not isinstance(item, ast.FunctionDef)]
    return (inner for part in parts for inner in ast.walk(part))


def unreached_definitions(sources: dict) -> set:
    """The definitions that no command reaches, as "module.name", or
    "module.Class.name" for a method.

    ``sources`` maps module names to source texts.  The search starts from
    ``cli.main`` and ``cli.entry``.  A top-level definition (function, class
    or assignment) is reached when its name appears as a Name or an
    Attribute inside a reached definition; names are matched across
    modules, so a name reaches every definition that bears it.  A method is
    reached through an Attribute: ``Class.meth``, and ``cls.meth`` or
    ``self.meth`` inside a method of ``Class``, reach that class's method
    alone.  On any other expression, a called ``expr.meth(...)`` reaches
    every definition named ``meth``, while a read ``expr.name`` that is not
    called reaches only the top-level definitions named ``name`` (so
    ``rpt.SCHEMA_VERSION`` reaches its constant, and ``ctx.identity`` no
    method).  A reached class reaches its body outside its methods, and its
    dunder methods, which Python calls for it.
    """
    defs = {}  # key -> (name, node, class of a method or None)
    for module, text in sources.items():
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                defs[f"{module}.{name}"] = (name, node, None)
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        defs[f"{module}.{node.name}.{item.name}"] = (item.name, item, node.name)
    classes = {name for name, node, _ in defs.values() if isinstance(node, ast.ClassDef)}

    def targets(node, owner, called):
        # the keys that ``node`` reaches, inside a method of ``owner`` (or
        # None); ``called`` when ``node`` is the function of a Call
        if isinstance(node, ast.Name):
            return [key for key, (name, _, cls) in defs.items() if name == node.id and cls is None]
        if not isinstance(node, ast.Attribute):
            return []
        base = getattr(node.value, "id", None)
        cls = base if base in classes else owner if base in ("self", "cls") else None
        if cls is None:
            return [key for key, (name, _, of) in defs.items() if name == node.attr and (called or of is None)]
        return [key for key, (name, _, of) in defs.items() if name == node.attr and of == cls]

    reached = {"cli.main", "cli.entry"}
    todo = list(reached)
    while todo:
        name, node, owner = defs[todo.pop()]
        inners = list(_outside_methods(node))
        called = {id(inner.func) for inner in inners if isinstance(inner, ast.Call)}
        found = [key for inner in inners for key in targets(inner, owner, id(inner) in called)]
        if isinstance(node, ast.ClassDef):
            dunders = (key for key, (meth, _, cls) in defs.items() if cls == name and meth[:2] == meth[-2:] == "__")
            found.extend(dunders)
        for key in found:
            if key not in reached:
                reached.add(key)
                todo.append(key)
    return set(defs) - reached


def test_every_definition_is_reached_by_a_command():
    # the two contexts, psl2_canon and matrix_to_word with its t_power stay
    # for the benchmark's unit costs: bench/unitcost.py calls psl2_canon and
    # times the psl2_context multiply and matrix_to_word;
    # _h_prime_image_mod and the image_elements it lists stay only because
    # bench/tests asserts that cli binds _h_prime_image_mod, which cli
    # imports and never calls; GeneratedSubgroup.as_set stays because
    # bench/tracer.py reads it to size a closure's containers; everything
    # else that no command runs belongs in tests/
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreached_definitions(sources) == {
        "groupcore.sl2_context",
        "groupcore.GeneratedSubgroup.as_set",
        "modular.psl2_context",
        "modular.psl2_canon",
        "gs._h_prime_image_mod",
        "modular.image_elements",
        "modular.matrix_to_word",
        "modular.t_power",
    }


def test_reachability_check_sees_dead_definitions():
    sources = {
        "cli": (
            "from . import core\n"
            "from .core import used, Box, make\n"
            "def main():\n"
            "    return used() + core.by_attribute() + Box.build() + make().shared() + make().size + core.RATE\n"
            "def entry():\n"
            "    main()\n"
            "def orphan():\n"
            "    return dead()\n"
        ),
        "core": (
            "LIMIT = 3\n"
            "RATE = 2\n"
            "size = 0\n"
            "UNUSED: int = 4\n"
            "def used():\n"
            "    return LIMIT\n"
            "def by_attribute(): pass\n"
            "def dead(): pass\n"
            "class Dead: pass\n"
            "class Box:\n"
            "    def __init__(self):\n"
            "        self.helper()\n"
            "    def helper(self): pass\n"
            "    @classmethod\n"
            "    def build(cls):\n"
            "        return cls.made()\n"
            "    def made(self): pass\n"
            "    def shared(self): pass\n"
            "    def unused(self): pass\n"
            "class Other:\n"
            "    def helper(self): pass\n"
            "    def build(self): pass\n"
            "    def made(self): pass\n"
            "    def shared(self): pass\n"
            "    def size(self): pass\n"
            "def make():\n"
            "    return Other()\n"
        ),
    }
    # Box.build, cls.made and self.helper inside Box reach Box's methods
    # alone; the call make().shared() reaches every shared, while the read
    # make().size reaches the top-level size and no method, as core.RATE
    # reaches its constant; Box.__init__ is reached with Box
    assert unreached_definitions(sources) == {
        "cli.orphan", "core.UNUSED", "core.dead", "core.Dead",
        "core.Box.unused", "core.Other.helper", "core.Other.build", "core.Other.made", "core.Other.size",
    }


def unbounded_caches(text: str) -> list:
    """The lines of ``text`` that make a cache without a size bound.

    That is ``lru_cache(maxsize=None)`` (keyword or positional) and
    ``functools.cache``, also when imported under its own name or an alias.
    """
    tree = ast.parse(text)
    cache_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "functools"
        for alias in node.names
        if alias.name == "cache"
    }
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == "lru_cache":
            sizes = [kw.value for kw in node.keywords if kw.arg == "maxsize"] + node.args[:1]
            if any(isinstance(v, ast.Constant) and v.value is None for v in sizes):
                out.add(node.lineno)
        elif isinstance(node, ast.Attribute) and node.attr == "cache" and getattr(node.value, "id", None) == "functools":
            out.add(node.lineno)
        elif isinstance(node, ast.Name) and node.id in cache_names:
            out.add(node.lineno)
    return sorted(out)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_bounds_every_cache(path):
    assert unbounded_caches(path.read_text(encoding="utf-8")) == []


def test_unbounded_cache_check_sees_every_spelling():
    text = (
        "import functools\n"
        "from functools import cache, cache as memo, lru_cache\n"
        "@functools.lru_cache(maxsize=None)\n"
        "def a(x): return x\n"
        "@lru_cache(None)\n"
        "def b(x): return x\n"
        "@functools.cache\n"
        "def c(x): return x\n"
        "@cache\n"
        "def d(x): return x\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def e(x): return x\n"
        "@lru_cache\n"
        "def f(x): return x\n"
        "g = memo(len)\n"
    )
    assert unbounded_caches(text) == [3, 5, 7, 9, 15]


def json_format_sites(text: str) -> list:
    """Where ``text`` knows the JSON format itself, as (line, what): each
    definition named ``to_json``, ``from_json`` or ending in either, and
    each use of ``json.load`` or ``json.loads``, also when imported by name."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.FunctionDef) and node.name.endswith(("to_json", "from_json")):
            out.append((node.lineno, node.name))
        elif isinstance(node, ast.Attribute) and node.attr in ("load", "loads") and getattr(node.value, "id", None) == "json":
            out.append((node.lineno, f"json.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "json":
            out.extend((node.lineno, f"json.{a.name}") for a in node.names if a.name in ("load", "loads"))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_only_report_reads_or_writes_json(path):
    # report reads every input and writes every report, so the JSON format
    # is known in one module
    sites = json_format_sites(path.read_text(encoding="utf-8"))
    assert (sites != []) == (path.name == "report.py"), sites


def test_json_format_check_sees_each_spelling():
    text = (
        "import json\n"
        "from json import loads as parse\n"
        "class Spec:\n"
        "    def to_json(self): return {}\n"
        "    @classmethod\n"
        "    def from_json(cls, data): return json.load(data)\n"
        "def mat_from_json(data): return json.loads(data)\n"
        "def show(data): return json.dumps(data)\n"
    )
    assert sorted(json_format_sites(text)) == [
        (2, "json.loads"), (4, "to_json"), (6, "from_json"), (6, "json.load"), (7, "json.loads"), (7, "mat_from_json"),
    ]


BUDGET_NAMES = ("closure_cap", "degree cap", "trial-division bound", "prime proof bound", "int max str digits")


def budget_names(text: str) -> list:
    """Each ``BudgetError(...)`` call in ``text`` as (line, name): the budget
    name in parentheses that ends its message, or None when the message is
    not a string literal or f-string ending in one of ``BUDGET_NAMES``."""
    out = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "BudgetError":
            last = node.args[0] if node.args else None
            if isinstance(last, ast.JoinedStr) and last.values:
                last = last.values[-1]
            tail = last.value if isinstance(last, ast.Constant) and isinstance(last.value, str) else ""
            out.append((node.lineno, next((n for n in BUDGET_NAMES if tail.endswith(f"({n})")), None)))
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_budget_error_names_its_budget(path):
    # BudgetError's docstring promises that the message names the budget
    assert [line for line, name in budget_names(path.read_text(encoding="utf-8")) if name is None] == []


def test_every_budget_name_is_raised_somewhere():
    used = {name for path in SOURCES for _, name in budget_names(path.read_text(encoding="utf-8"))}
    assert used == set(BUDGET_NAMES)


def test_budget_name_check_sees_each_spelling():
    text = (
        "from . import errors\n"
        "from .errors import BudgetError\n"
        "BudgetError('over (closure_cap)')\n"
        "BudgetError(f'd {d} > {cap} (degree cap)')\n"
        "errors.BudgetError(f'{n} has no factor ' f'below {b} (trial-division bound)')\n"
        "BudgetError(f'over {limit} digits')\n"
        "BudgetError(f'(closure_cap) comes first {x}')\n"
        "BudgetError('a name not in the set (made-up cap)')\n"
        "BudgetError(message)\n"
        "BudgetError()\n"
        "ValueError('no name')\n"
    )
    assert budget_names(text) == [
        (3, "closure_cap"), (4, "degree cap"), (5, "trial-division bound"),
        (6, None), (7, None), (8, None), (9, None), (10, None),
    ]


def cap_takers(sources: dict) -> dict:
    """The functions in ``sources`` (module name -> text) with a parameter
    named ``closure_cap``, by name: its place among the positional
    parameters, or None when it is keyword-only."""
    takers = {}
    for text in sources.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.FunctionDef):
                names = [arg.arg for arg in node.args.posonlyargs + node.args.args]
                if "closure_cap" in names:
                    takers[node.name] = names.index("closure_cap")
                elif any(arg.arg == "closure_cap" for arg in node.args.kwonlyargs):
                    takers[node.name] = None
    return takers


def cap_omissions(sources: dict) -> list:
    """Each call in ``sources`` to a ``cap_takers`` function, by bare name or
    as an attribute, that does not pass the cap, as (module, line, name).

    A call passes it by keyword, or positionally up to its place.  A starred
    argument hides how many come before that place, so a call with one
    passes the cap when the name ``closure_cap`` is among its positional
    arguments.
    """
    takers = cap_takers(sources)
    out = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            name = isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None))
            if name not in takers or any(kw.arg == "closure_cap" for kw in node.keywords):
                continue
            if any(isinstance(arg, ast.Starred) for arg in node.args):
                passed = any(isinstance(arg, ast.Name) and arg.id == "closure_cap" for arg in node.args)
            else:
                passed = takers[name] is not None and len(node.args) > takers[name]
            if not passed:
                out.append((module, node.lineno, name))
    return sorted(out)


def test_every_call_passes_the_closure_cap():
    # a layer that left the cap out would run under the default cap, whatever
    # --closure-cap says; 16 library functions, the 11 commands and _report
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert len(cap_takers(sources)) == 28
    assert cap_omissions(sources) == []


def test_cap_omission_check_sees_each_spelling():
    sources = {
        "core": (
            "def close(ctx, gens, closure_cap=5): pass\n"
            "def walk(rep, n, closure_cap, seen=None): pass\n"
            "def probe(*, closure_cap=5): pass\n"
            "def other(closure): pass\n"
        ),
        "cli": (
            "from . import core\n"
            "def run(config, closure_cap):\n"
            "    core.close(c, g, closure_cap)\n"
            "    close(c, g)\n"
            "    walk(r, n, closure_cap=closure_cap)\n"
            "    core.walk(r, n)\n"
            "    probe(closure_cap=3)\n"
            "    probe(3)\n"
            "    close(*gens, closure_cap)\n"
            "    close(*gens, 3)\n"
            "    other(closure_cap)\n"
            "    run({})\n"
        ),
    }
    assert cap_takers(sources) == {"close": 2, "walk": 2, "probe": None, "run": 1}
    assert cap_omissions(sources) == [
        ("cli", 4, "close"), ("cli", 6, "walk"), ("cli", 8, "probe"), ("cli", 10, "close"), ("cli", 12, "run"),
    ]


_ENVIRONMENT = ("environ", "environb", "getenv", "putenv")


def environment_reads(text: str) -> list:
    """Where ``text`` touches the process environment, as (line, what): each
    use of ``os.environ``, ``os.environb``, ``os.getenv`` or ``os.putenv``,
    also through an alias of ``os``, and each of them imported from ``os``."""
    tree = ast.parse(text)
    os_names = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == "os"
    }
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and node.attr in _ENVIRONMENT and getattr(node.value, "id", None) in os_names:
            out.append((node.lineno, f"os.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            out.extend((node.lineno, f"os.{a.name}") for a in node.names if a.name in _ENVIRONMENT)
    return out


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_reads_no_environment(path):
    # --closure-cap is the one way to set the cap, so the package reads no
    # setting from the environment
    assert environment_reads(path.read_text(encoding="utf-8")) == []


def test_environment_check_sees_each_spelling():
    text = (
        "import os\n"
        "import os as system\n"
        "from os import environ, getenv as get, path\n"
        "a = os.environ.get('X')\n"
        "b = os.getenv('X')\n"
        "c = system.environb\n"
        "os.putenv('X', '1')\n"
        "d = os.path.join('a', 'b')\n"
    )
    assert sorted(environment_reads(text)) == [
        (3, "os.environ"), (3, "os.getenv"), (4, "os.environ"), (5, "os.getenv"), (6, "os.environb"), (7, "os.putenv"),
    ]


def _modules_loaded_by(*args) -> set:
    """The modules a fresh interpreter imports while it runs ``args``, as
    ``python -X importtime`` lists them."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    done = subprocess.run(
        [sys.executable, "-X", "importtime", *args], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return {line.rpartition("|")[2].strip() for line in done.stderr.splitlines() if line.startswith("import time:")}


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, and inspect pulls in ast, dis and
    # tokenize; argparse pulls in gettext, which pulls in locale: start-up
    # time that every command would pay
    baseline = _modules_loaded_by("-c", "pass")
    for args in (["-c", "import cosetope.cli"], ["-m", "cosetope", "quotient", "--modulus", "2"]):
        added = _modules_loaded_by(*args) - baseline
        assert "cosetope.cli" in added
        assert added.isdisjoint({"dataclasses", "inspect", "argparse", "gettext", "locale"}), args


def _imports_of(path) -> set:
    """The modules that the source at ``path`` imports, by top-level name."""
    imported = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    return imported


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_does_not_import_dataclasses(path):
    assert "dataclasses" not in _imports_of(path)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_does_not_import_argparse(path):
    # cli.parse reads every command line from the one table cli.OPTIONS
    assert "argparse" not in _imports_of(path)


def _opened(call: ast.Call):
    """How ``call`` opens a file, as (writes, mode), or None if it opens none.

    ``mode`` is ``open``'s mode string ("r" when not given, "?" when not a
    constant) or ``os.open``'s flags as source text; ``write_text``,
    ``write_bytes`` and ``fdopen`` count as writes of mode "?"."""
    func = call.func
    name = getattr(func, "id", None) or getattr(func, "attr", None)
    owner = getattr(getattr(func, "value", None), "id", None)
    if name in ("write_text", "write_bytes", "fdopen"):
        return True, "?"
    if name == "open" and owner == "os":
        flags = ast.unparse(call.args[1]) if len(call.args) > 1 else "?"
        return "O_WRONLY" in flags or "O_RDWR" in flags or flags == "?", flags
    if name == "open" and owner in (None, "io"):
        given = call.args[1:2] or [kw.value for kw in call.keywords if kw.arg == "mode"]
        mode = "r" if not given else given[0].value if isinstance(given[0], ast.Constant) else "?"
        return bool(set(mode) & set("wax+?")), mode
    return None


def open_sites(text: str) -> list:
    """Each call in ``text`` that opens a file, as (line, function, writes,
    mode) with ``writes`` and ``mode`` as ``_opened`` gives them; a call
    outside any function is named ``<module>``."""
    out = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            name = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else owner
            if isinstance(child, ast.Call) and (how := _opened(child)):
                out.append((child.lineno, owner, *how))
            visit(child, name)

    visit(ast.parse(text), "<module>")
    return out


def _source_open_sites() -> list:
    return [(path.stem, *site[1:]) for path in SOURCES for site in open_sites(path.read_text(encoding="utf-8"))]


def test_only_read_text_and_main_open_files():
    # report.read_text reads every input and the report verify reads, and
    # cli.main writes the report: no command body opens a file
    assert {site[:2] for site in _source_open_sites()} == {("report", "read_text"), ("cli", "main")}


def test_the_report_is_written_in_one_place_and_never_through_truncation():
    # cli.main overwrites a report in place and cuts only a longer regular
    # file: on ext4 mounted with discard, an O_TRUNC open of an allocated
    # file took 40-72 ms, against under 0.1 ms for an in-place write
    sites = _source_open_sites()
    assert [site for site in sites if site[2]] == [("cli", "main", True, "os.O_WRONLY | os.O_CREAT")]
    assert not any("w" in mode or "O_TRUNC" in mode for _, _, _, mode in sites)


def test_open_site_check_sees_each_spelling():
    text = (
        "open('a')\n"
        "def f():\n"
        "    with open('b', 'w') as fh:\n"
        "        return fh.write(os.open('c', os.O_WRONLY | os.O_TRUNC))\n"
        "class C:\n"
        "    def g(self):\n"
        "        return [io.open(p, mode=self.mode) for p in self.paths] + [open(p, 'rb') for p in ()]\n"
        "def h(path):\n"
        "    path.write_text(path.open().read() + str(os.open(path, os.O_RDONLY)))\n"
    )
    assert open_sites(text) == [
        (1, "<module>", False, "r"),
        (3, "f", True, "w"),
        (4, "f", True, "os.O_WRONLY | os.O_TRUNC"),
        (7, "g", True, "?"),
        (7, "g", False, "rb"),
        (9, "h", True, "?"),
        (9, "h", False, "os.O_RDONLY"),
    ]


def test_no_command_body_reads_an_input():
    # cli.parse reads every input through report's readers, so a command and
    # the cli functions it calls get values and never reach report; verify,
    # the one entry of cli.OPTIONS that reads a file, reads its report
    from cosetope.cli import OPTIONS

    functions = {
        node.name: node for node in ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef)
    }
    reached, queue = set(), [run.__name__ for command, (run, _, _) in OPTIONS.items() if command != "verify"]
    while queue:
        name = queue.pop()
        if name in reached:
            continue
        reached.add(name)
        nodes = list(ast.walk(functions[name]))
        assert "rpt" not in {node.id for node in nodes if isinstance(node, ast.Name)}, name
        queue.extend({getattr(node.func, "id", None) for node in nodes if isinstance(node, ast.Call)} & functions.keys())
    assert "_spec_of" in reached


def raise_sites(text: str) -> list:
    """Each ``raise`` in ``text`` as (line, function, name): the name of what
    it raises, or for a bare ``raise`` of the type its ``except`` catches; a
    raise outside any function is in ``<module>``."""
    out = []

    def visit(node, owner, caught):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Raise):
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                out.append((child.lineno, owner, caught if exc is None else ast.unparse(exc)))
            handled = ast.unparse(child.type) if isinstance(child, ast.ExceptHandler) and child.type else caught
            visit(child, child.name if isinstance(child, ast.FunctionDef) else owner, handled)

    visit(ast.parse(text), "<module>", None)
    return out


def test_every_raise_is_a_validation_or_budget_error():
    # one type for each failing exit: 2 and 3; report._object's ValueError is
    # the one other raise, and decode refuses it as a ValidationError
    sample = "raise SystemExit\ndef f(x):\n    try:\n        pass\n    except KeyError:\n        raise\n    raise E(x) from None\n"
    assert raise_sites(sample) == [(1, "<module>", "SystemExit"), (6, "f", "KeyError"), (7, "f", "E")]
    sites = {(path.stem, owner, name) for path in SOURCES for _, owner, name in raise_sites(path.read_text("utf-8"))}
    assert {site for site in sites if site[2] not in ("ValidationError", "BudgetError")} == {
        ("report", "_object", "ValueError")}
    errors = ast.parse((PACKAGE / "errors.py").read_text(encoding="utf-8"))
    assert [node.name for node in errors.body if hasattr(node, "name")] == [
        "shown", "CosetopeError", "ValidationError", "BudgetError"]
    # one modulus check per type: Mat2.of_mod and QuotientSpec.make
    assert sum(path.read_text("utf-8").count('"modulus must be at least 2') for path in SOURCES) == 2
