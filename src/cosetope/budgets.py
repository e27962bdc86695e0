"""The resource budget for enumeration-heavy operations.

Every subgroup closure, and every walk or listing whose size stands in for
one, is guarded by the closure cap, so that an oversized request fails
loudly instead of stalling.  The default is desk-scale; the command-line
flag ``--closure-cap`` is the one way to set another cap.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import ValidationError

DEFAULT_CLOSURE_CAP = 5_000_000


class _Caps(NamedTuple):
    closure_cap: int = DEFAULT_CLOSURE_CAP


class Budgets(_Caps):
    """The closure cap: immutable, compared by value, and positive."""

    __slots__ = ()

    def __new__(cls, closure_cap: int = DEFAULT_CLOSURE_CAP) -> "Budgets":
        if closure_cap <= 0:
            raise ValidationError("budgets must be positive")
        return super().__new__(cls, closure_cap)

