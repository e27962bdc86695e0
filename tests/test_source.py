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


BUDGET_NAMES = ("closure_cap", "degree cap", "trial-division bound", "int max str digits")


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


def _modules_loaded_by(code: str) -> set:
    """The names in ``sys.modules`` after a fresh interpreter runs ``code``."""
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    script = f"{code}\nimport sys\nprint(*sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=env, timeout=60, check=True
    )
    return set(done.stdout.split())


def test_importing_the_cli_loads_neither_dataclasses_nor_inspect():
    # dataclasses pulls in inspect, and inspect pulls in ast, dis and
    # tokenize: start-up time that every command would pay
    added = _modules_loaded_by("import cosetope.cli") - _modules_loaded_by("pass")
    assert "cosetope.cli" in added
    assert added.isdisjoint({"dataclasses", "inspect"})


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_module_does_not_import_dataclasses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
    assert "dataclasses" not in imported
