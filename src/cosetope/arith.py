"""Exact 2x2 integer-matrix arithmetic and group orders.

Matrices come in two modes.  Ambient mode holds unbounded Python integers
(word evaluation in the matrix group overflows fixed-width types quickly, so
exactness wins over speed here).  Quotient mode holds canonical residues for
a common modulus ``m >= 2``; negative inputs normalize through floored
modulo, so canonical representatives are unique.  All values are immutable
and hashable.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import BudgetError, ValidationError, shown


_new = tuple.__new__


class Mat2(NamedTuple):
    """A 2x2 matrix, ambient (``m is None``) or over the residues mod ``m``."""

    a: int
    b: int
    c: int
    d: int
    m: Optional[int] = None

    @classmethod
    def ambient(cls, a: int, b: int, c: int, d: int) -> "Mat2":
        return cls(int(a), int(b), int(c), int(d), None)

    @classmethod
    def of_mod(cls, a: int, b: int, c: int, d: int, m: int) -> "Mat2":
        if m < 2:
            raise ValidationError(f"modulus must be at least 2, got {shown(m)}")
        return cls(a % m, b % m, c % m, d % m, m)

    @classmethod
    def identity(cls, m: Optional[int] = None) -> "Mat2":
        return cls.scalar(1, m)

    @classmethod
    def zero(cls, m: Optional[int] = None) -> "Mat2":
        return cls.scalar(0, m)

    @classmethod
    def scalar(cls, k: int, m: Optional[int] = None) -> "Mat2":
        if m is None:
            return cls(k, 0, 0, k, None)
        return cls.of_mod(k, 0, 0, k, m)

    # The arithmetic below unpacks each operand once and builds its result
    # with tuple.__new__, skipping the NamedTuple constructor's Python-level
    # __new__; the result is the same Mat2.
    def __mul__(self, other):
        a, b, c, d, m = self
        e, f, g, h, n = other
        if m != n:
            raise ValidationError(f"cannot combine moduli {shown(m)} and {shown(n)}")
        if m is None:
            return _new(Mat2, (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, None))
        return _new(Mat2, ((a * e + b * g) % m, (a * f + b * h) % m, (c * e + d * g) % m, (c * f + d * h) % m, m))

    def __add__(self, other):
        a, b, c, d, m = self
        e, f, g, h, n = other
        if m != n:
            raise ValidationError(f"cannot combine moduli {shown(m)} and {shown(n)}")
        if m is None:
            return _new(Mat2, (a + e, b + f, c + g, d + h, None))
        return _new(Mat2, ((a + e) % m, (b + f) % m, (c + g) % m, (d + h) % m, m))

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        a, b, c, d, m = self
        if m is None:
            return _new(Mat2, (-a, -b, -c, -d, None))
        return _new(Mat2, (-a % m, -b % m, -c % m, -d % m, m))

    def det(self) -> int:
        """ad - bc, reduced to its canonical residue in quotient mode."""
        value = self.a * self.d - self.b * self.c
        return value if self.m is None else value % self.m

    def inv_det1(self) -> "Mat2":
        """Inverse of a determinant-1 matrix (adjugate); not checked here."""
        a, b, c, d, m = self
        if m is None:
            return _new(Mat2, (d, -b, -c, a, None))
        return _new(Mat2, (d, -b % m, -c % m, a, m))

    def reduce(self, m: int) -> "Mat2":
        """Entrywise reduction mod ``m``; from ambient or from a multiple of ``m``."""
        reduced = Mat2.of_mod(self.a, self.b, self.c, self.d, m)  # refuses m < 2 before the test divides by m
        if self.m is not None and self.m % m != 0:
            raise ValidationError(f"cannot reduce mod {shown(m)} from modulus {shown(self.m)}")
        return reduced


# Standard generators of the ambient matrix group.
MAT_S = Mat2.ambient(0, -1, 1, 0)
MAT_T = Mat2.ambient(1, 1, 0, 1)


_TRIAL_BOUND = 100_000
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_PRIME_PROOF_BOUND = 31 * 10**22  # is_prime is exact below this


def _factorize(n: int) -> dict:
    """Prime factorization by trial division below a fixed bound.

    A cofactor left over with no factor below the bound is accepted only when
    ``provably_prime``; otherwise the modulus cannot be factored at desk
    scale and BudgetError is raised instead of stalling.
    """
    out = {}
    rest = n
    p = 2
    while p * p <= rest and p < _TRIAL_BOUND:
        while rest % p == 0:
            out[p] = out.get(p, 0) + 1
            rest //= p
        p += 1 if p == 2 else 2
    if rest > 1:
        if p * p <= rest and not provably_prime(rest, f"modulus {shown(n)} leaves the cofactor"):
            raise BudgetError(
                f"factorization budget exceeded: modulus {shown(n)} leaves the cofactor {shown(rest)}, "
                f"which has no factor below {_TRIAL_BOUND} and is not provably prime (trial-division bound)"
            )
        out[rest] = out.get(rest, 0) + 1
    return out


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases: exact for n < 3.1e23,
    the ``_PRIME_PROOF_BOUND`` that ``provably_prime`` checks first."""
    if n < 2:
        return False
    for p in _PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def provably_prime(n: int, what: str) -> bool:
    """``is_prime(n)``; at or above the bound where it is exact, BudgetError
    names ``what`` (the words before ``n``) and the bound instead."""
    if n >= _PRIME_PROOF_BOUND:
        what = f"{what} {shown(n)}, which is not provably prime"
        raise BudgetError(f"primality budget exceeded: {what} at or above {_PRIME_PROOF_BOUND} (prime proof bound)")
    return is_prime(n)


def sl2_group_order(m: int) -> int:
    """Order of the determinant-1 matrix group over Z/m (multiplicative in m)."""
    if m < 1:
        raise ValidationError(f"modulus must be positive, got {shown(m)}")
    order = 1
    for p, k in _factorize(m).items():
        order *= p ** (3 * k) - p ** (3 * k - 2)
    return order


def psl2_group_order(m: int) -> int:
    """Order of the projective quotient (matrices identified with negatives)."""
    order = sl2_group_order(m)
    return order if m <= 2 else order // 2
