"""Resource budgets for enumeration-heavy operations.

Every potentially large computation (subgroup closure, set products) is
guarded by an explicit cap so that an oversized request fails loudly instead
of stalling.  Defaults are desk-scale; the environment variable
``COSETOPE_BUDGET`` overrides them, either as a single integer applied to
both caps or as ``closure=N,product=M``.
"""

from __future__ import annotations

import os
from typing import NamedTuple

from .errors import ValidationError

DEFAULT_CLOSURE_CAP = 5_000_000
DEFAULT_PRODUCT_CAP = 10_000_000


class _Caps(NamedTuple):
    closure_cap: int = DEFAULT_CLOSURE_CAP
    product_cap: int = DEFAULT_PRODUCT_CAP


class Budgets(_Caps):
    """The two caps: immutable, compared by value, and both positive."""

    __slots__ = ()

    def __new__(cls, closure_cap: int = DEFAULT_CLOSURE_CAP, product_cap: int = DEFAULT_PRODUCT_CAP) -> "Budgets":
        if closure_cap <= 0 or product_cap <= 0:
            raise ValidationError("budgets must be positive")
        return super().__new__(cls, closure_cap, product_cap)


def from_env(environ=None) -> Budgets:
    """Budgets with the ``COSETOPE_BUDGET`` override applied, if present."""
    environ = os.environ if environ is None else environ
    raw = environ.get("COSETOPE_BUDGET", "").strip()
    if not raw:
        return Budgets()
    if "=" not in raw:
        n = _parse_cap(raw, raw)
        return Budgets(closure_cap=n, product_cap=n)
    caps = {"closure": DEFAULT_CLOSURE_CAP, "product": DEFAULT_PRODUCT_CAP}
    for part in raw.split(","):
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in caps:
            raise ValidationError(f"unknown COSETOPE_BUDGET key: {key!r}")
        caps[key] = _parse_cap(value, part)
    return Budgets(closure_cap=caps["closure"], product_cap=caps["product"])


def _parse_cap(value: str, part: str) -> int:
    # str.isdigit admits characters such as superscripts that int() rejects
    value = value.strip()
    if not value.isdecimal():
        raise ValidationError(f"bad COSETOPE_BUDGET entry: {part!r}")
    return int(value)


def active_budgets(budgets: Budgets | None = None) -> Budgets:
    return budgets if budgets is not None else from_env()
