"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cosetope"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


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
