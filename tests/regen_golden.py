"""Rewrite every golden fixture in ``golden_cases.CASES`` from the current code.

Run from anywhere with the package importable, for instance from the
repository root:

    PYTHONPATH=src python tests/regen_golden.py [NAME ...]

With no names it rewrites every case; with names, only those.  Each command
runs inside ``tests/golden`` with the relative input paths of its case, as
the golden test runs it, so the recorded paths match.  A run that leaves
``git diff tests/golden`` clean shows the code still writes the pinned bytes;
a schema bump reruns it and commits the diff.  It needs no pytest, so any
supported interpreter can run it:

    PYTHONPATH=src python tests/regen_golden.py && git diff --exit-code tests/golden
"""

from __future__ import annotations

import os
import sys
from pathlib import Path

from golden_cases import CASES, GOLDEN

from cosetope.cli import main


def regenerate(names) -> int:
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        print(f"no golden case named {', '.join(unknown)}", file=sys.stderr)
        return 2
    os.chdir(GOLDEN)
    for name in names:
        code = main(CASES[name] + ["--output", name])
        if code != 0:
            print(f"{name}: the command exited {code}", file=sys.stderr)
            return code
        print(f"wrote {Path(GOLDEN.name) / name}")
    return 0


if __name__ == "__main__":
    sys.exit(regenerate(sys.argv[1:] or sorted(CASES)))
