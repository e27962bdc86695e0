"""Rewrite every golden fixture in ``golden_cases.CASES`` from the current code,
or check that the current code still writes their bytes.

Run from anywhere with the package importable, for instance from the
repository root:

    PYTHONPATH=src python tests/regen_golden.py [--check] [NAME ...]

With no names it covers every case; with names, only those.  Each command
runs inside ``tests/golden`` with the relative input paths of its case, as
the golden test runs it, so the recorded paths match.  Without ``--check``
it writes each fixture in place; a schema bump reruns it and commits the
diff.  With ``--check`` it writes each case into a temporary directory,
compares it with the fixture, lists every fixture that drifted and exits 1
if any did, leaving the tree untouched.  It needs no pytest, so any
supported interpreter can check the pinned bytes:

    PYTHONPATH=src python tests/regen_golden.py --check
"""

from __future__ import annotations

import os
import sys
import tempfile
from pathlib import Path

from golden_cases import CASES, GOLDEN

from cosetope.cli import main


def regenerate(names, out_dir=None) -> int:
    """Write each named case into ``out_dir`` and compare it with its
    fixture, or, when ``out_dir`` is None, over its fixture."""
    unknown = sorted(set(names) - CASES.keys())
    if unknown:
        print(f"no golden case named {', '.join(unknown)}", file=sys.stderr)
        return 2
    os.chdir(GOLDEN)
    drifted = []
    for name in names:
        target = Path(out_dir or GOLDEN) / name
        code = main(CASES[name] + ["--output", str(target)])
        if code != 0:
            print(f"{name}: the command exited {code}", file=sys.stderr)
            return code
        if out_dir is None:
            print(f"wrote {Path(GOLDEN.name) / name}")
        elif not (GOLDEN / name).is_file() or target.read_bytes() != (GOLDEN / name).read_bytes():
            drifted.append(name)
            print(f"drifted: {Path(GOLDEN.name) / name}")
    if out_dir is not None:
        print(f"{len(names) - len(drifted)} of {len(names)} fixtures match")
    return 1 if drifted else 0


if __name__ == "__main__":
    args = sys.argv[1:]
    names = [a for a in args if a != "--check"] or sorted(CASES)
    if "--check" not in args:
        sys.exit(regenerate(names))
    with tempfile.TemporaryDirectory() as tmp:
        sys.exit(regenerate(names, tmp))
