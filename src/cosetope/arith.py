"""Exact residue and 2x2 integer-matrix arithmetic.

Matrices come in two modes.  Ambient mode holds unbounded Python integers
(word evaluation in the matrix group overflows fixed-width types quickly, so
exactness wins over speed here).  Quotient mode holds canonical residues for
a common modulus ``m >= 2``; negative inputs normalize through floored
modulo, so canonical representatives are unique.  All values are immutable
and hashable.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .errors import ModulusMismatch, ValidationError


class Residue(NamedTuple):
    """Canonical residue modulo ``m``: ``0 <= value < m`` with ``m >= 2``."""

    value: int
    m: int

    @classmethod
    def of(cls, value: int, m: int) -> "Residue":
        if m < 2:
            raise ValidationError(f"modulus must be at least 2, got {m}")
        return cls(value % m, m)

    def _same(self, other: "Residue") -> None:
        if self.m != other.m:
            raise ModulusMismatch(f"cannot combine moduli {self.m} and {other.m}")

    def __add__(self, other):
        self._same(other)
        return Residue((self.value + other.value) % self.m, self.m)

    def __sub__(self, other):
        self._same(other)
        return Residue((self.value - other.value) % self.m, self.m)

    def __mul__(self, other):
        self._same(other)
        return Residue((self.value * other.value) % self.m, self.m)

    def __neg__(self):
        return Residue(-self.value % self.m, self.m)

    def __int__(self) -> int:
        return self.value


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
            raise ValidationError(f"modulus must be at least 2, got {m}")
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
        if m < 2:
            raise ValidationError(f"modulus must be at least 2, got {m}")
        return cls(k % m, 0, 0, k % m, m)

    def _same(self, other: "Mat2") -> None:
        if self.m != other.m:
            raise ModulusMismatch(f"cannot combine moduli {self.m} and {other.m}")

    def __mul__(self, other):
        self._same(other)
        a = self.a * other.a + self.b * other.c
        b = self.a * other.b + self.b * other.d
        c = self.c * other.a + self.d * other.c
        d = self.c * other.b + self.d * other.d
        m = self.m
        if m is None:
            return Mat2(a, b, c, d, None)
        return Mat2(a % m, b % m, c % m, d % m, m)

    def __add__(self, other):
        self._same(other)
        m = self.m
        if m is None:
            return Mat2(self.a + other.a, self.b + other.b, self.c + other.c, self.d + other.d, None)
        return Mat2(
            (self.a + other.a) % m,
            (self.b + other.b) % m,
            (self.c + other.c) % m,
            (self.d + other.d) % m,
            m,
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        m = self.m
        if m is None:
            return Mat2(-self.a, -self.b, -self.c, -self.d, None)
        return Mat2(-self.a % m, -self.b % m, -self.c % m, -self.d % m, m)

    def det(self) -> Union[int, Residue]:
        """ad - bc, as a plain integer (ambient) or a Residue (quotient)."""
        value = self.a * self.d - self.b * self.c
        if self.m is None:
            return value
        return Residue(value % self.m, self.m)

    def det_int(self) -> int:
        """ad - bc as an integer, canonical in quotient mode."""
        value = self.a * self.d - self.b * self.c
        return value if self.m is None else value % self.m

    def inv_det1(self) -> "Mat2":
        """Inverse of a determinant-1 matrix (adjugate); not checked here."""
        m = self.m
        if m is None:
            return Mat2(self.d, -self.b, -self.c, self.a, None)
        return Mat2(self.d, -self.b % m, -self.c % m, self.a, m)

    def reduce(self, m: int) -> "Mat2":
        """Entrywise reduction mod ``m``; from ambient or from a multiple of ``m``."""
        if m < 2:
            raise ValidationError(f"modulus must be at least 2, got {m}")
        if self.m is not None and self.m % m != 0:
            raise ValidationError(f"cannot reduce mod {m} from modulus {self.m}")
        return Mat2(self.a % m, self.b % m, self.c % m, self.d % m, m)

    def lift(self) -> "Mat2":
        """The ambient matrix with the same (canonical) entries."""
        return Mat2(self.a, self.b, self.c, self.d, None)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))


def mat2_mul(x: Mat2, y: Mat2) -> Mat2:
    return x * y


def mat2_det(x: Mat2):
    return x.det()


def reduce_mat(x: Mat2, m: int) -> Mat2:
    return x.reduce(m)


# Standard generators of the ambient matrix group.
MAT_S = Mat2.ambient(0, -1, 1, 0)
MAT_T = Mat2.ambient(1, 1, 0, 1)


def _factorize(n: int) -> dict:
    out = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin to the first twelve prime bases: exact for n < 3.1e23.

    Unlike trial division it stays fast on huge inputs, which come from
    user-supplied tower files.
    """
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


def sl2_group_order(m: int) -> int:
    """Order of the determinant-1 matrix group over Z/m (multiplicative in m)."""
    if m == 1:
        return 1
    if m < 1:
        raise ValidationError(f"modulus must be positive, got {m}")
    order = 1
    for p, k in _factorize(m).items():
        order *= p ** (3 * k) - p ** (3 * k - 2)
    return order


def psl2_group_order(m: int) -> int:
    """Order of the projective quotient (matrices identified with negatives)."""
    order = sl2_group_order(m)
    return order if m <= 2 else order // 2
