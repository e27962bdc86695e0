"""The resource budget for enumeration-heavy operations.

Every subgroup closure, and every walk or listing whose size stands in for
one, is guarded by the closure cap, so that an oversized request fails
loudly instead of stalling.  The default is desk-scale; the command-line
flag ``--closure-cap`` is the one way to set another cap.
"""

from __future__ import annotations

from typing import NamedTuple

DEFAULT_CLOSURE_CAP = 5_000_000


class Budgets(NamedTuple):
    """The closure cap: immutable and compared by value.  ``cli.parse``
    refuses a ``--closure-cap`` below 1, so every command's cap is positive."""

    closure_cap: int = DEFAULT_CLOSURE_CAP
