"""The resource budget for enumeration-heavy operations.

Every subgroup closure, and every walk or listing whose size stands in for
one, is guarded by the closure cap, so that an oversized request fails
loudly instead of stalling.  The default is desk-scale; the environment
variable ``COSETOPE_BUDGET``, a single positive integer, overrides it.
"""

from __future__ import annotations

import os
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


def from_env(environ=None) -> Budgets:
    """Budgets with the ``COSETOPE_BUDGET`` override applied, if present."""
    environ = os.environ if environ is None else environ
    raw = environ.get("COSETOPE_BUDGET", "").strip()
    if not raw:
        return Budgets()
    # str.isdigit admits characters such as superscripts that int() rejects
    if not raw.isdecimal():
        raise ValidationError(f"COSETOPE_BUDGET takes one positive integer, the closure cap; got {raw!r}")
    return Budgets(int(raw))


def active_budgets(budgets: Budgets | None = None) -> Budgets:
    return budgets if budgets is not None else from_env()
