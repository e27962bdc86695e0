"""How the package refuses: ``ValidationError`` (exit 2) for bad input or a
failed precondition, ``BudgetError`` (exit 3) for an exhausted budget, and
``shown``, which writes a value into either's message."""


def shown(value) -> str:
    """``value`` as one short line: an int of more than 64 bits as
    ``about 2^N`` (``about -2^N`` below zero), else its ``repr`` cut to 60
    characters."""
    if isinstance(value, int) and value.bit_length() > 64:
        return f"about {'-' * (value < 0)}2^{value.bit_length() - 1}"
    text = repr(value)
    return text if len(text) <= 60 else text[:56] + " ..."


class CosetopeError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(CosetopeError):
    """Bad input or a failed precondition: a bad modulus, invalid permutation
    data, an unreadable file, a congruence subgroup given a gap search."""


class BudgetError(CosetopeError):
    """A configured resource budget was exceeded; the message names the budget."""
