"""Exception hierarchy shared by all cosetope modules, and ``short_int`` for their messages."""


def short_int(n: int) -> str:
    """``n`` in decimal, or ``about 2^N`` (``about -2^N`` below zero) past
    64 bits, so that a message naming a huge integer stays one short line."""
    return str(n) if n.bit_length() <= 64 else f"about {'-' * (n < 0)}2^{n.bit_length() - 1}"


class CosetopeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CosetopeError):
    """Malformed input: bad modulus, invalid permutation data, unreadable file."""


class ModulusMismatch(ValidationError):
    """Two quotient-mode values with different moduli were combined."""


class PreconditionError(CosetopeError):
    """An operation's stated precondition does not hold for the given data."""


class BudgetError(CosetopeError):
    """A configured resource budget was exceeded; the message names the budget."""
