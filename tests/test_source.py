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


def unreached_definitions(sources: dict) -> set:
    """The top-level definitions that no command reaches, as "module.name".

    ``sources`` maps module names to source texts.  The search starts from
    ``cli.main`` and ``cli.entry``; a definition (function, class or
    assignment) is reached when its name appears as a Name or an Attribute
    inside a reached definition.  Names are matched across modules, so a
    name reaches every definition that bears it.
    """
    defs = {}
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
                defs[f"{module}.{name}"] = (name, node)
    reached = {"cli.main", "cli.entry"}
    todo = list(reached)
    while todo:
        for node in ast.walk(defs[todo.pop()][1]):
            name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
            for key, (defined, _) in defs.items():
                if defined == name and key not in reached:
                    reached.add(key)
                    todo.append(key)
    return set(defs) - reached


def test_every_definition_is_reached_by_a_command():
    # the two contexts and psl2_canon stay for the benchmark's unit costs:
    # bench/unitcost.py calls psl2_canon and times the psl2_context multiply;
    # _h_prime_image_mod and the image_elements it lists stay only because
    # bench/tests asserts that cli binds _h_prime_image_mod, which cli
    # imports and never calls; everything else that no command runs belongs
    # in tests/
    sources = {path.stem: path.read_text(encoding="utf-8") for path in SOURCES}
    assert unreached_definitions(sources) == {
        "groupcore.sl2_context",
        "modular.psl2_context",
        "modular.psl2_canon",
        "gs._h_prime_image_mod",
        "modular.image_elements",
    }


def test_reachability_check_sees_dead_definitions():
    sources = {
        "cli": (
            "from . import core\n"
            "from .core import used\n"
            "def main():\n"
            "    return used() + core.by_attribute()\n"
            "def entry():\n"
            "    main()\n"
            "def orphan():\n"
            "    return dead()\n"
        ),
        "core": (
            "LIMIT = 3\n"
            "UNUSED: int = 4\n"
            "def used():\n"
            "    return LIMIT\n"
            "def by_attribute(): pass\n"
            "def dead(): pass\n"
            "class Dead: pass\n"
        ),
    }
    assert unreached_definitions(sources) == {"cli.orphan", "core.UNUSED", "core.dead", "core.Dead"}


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
