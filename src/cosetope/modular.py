"""Symbolic layer for the modular group.

Words over the standard generators S = [[0,-1],[1,0]] and T = [[1,1],[0,1]],
exact matrix-to-word rewriting by Euclidean reduction, finite-index
subgroups given as permutation representations of the coset action,
low-index enumeration by coset-table backtracking, cusp-width levels,
congruence testing, and congruence-gap witnesses.

Subgroups here are projective: representations satisfy ``perm_s^2 = 1`` and
``(perm_s perm_t)^3 = 1``, and matrices are identified with their negatives
for membership purposes.  The subgroup attached to a representation is the
stabilizer of the basepoint 0.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence, Union

from .arith import MAT_S, MAT_T, Mat2, psl2_group_order
from .budgets import Budgets, active_budgets
from .errors import BudgetError, PreconditionError, ValidationError
from .groupcore import (
    GeneratedSubgroup,
    GroupContext,
    _free_reduce,
    check_closure_cap,
    perm_inv,
    perm_mul,
    schreier_generator_words,
    sl2_context,
    subgroup_closure,
)

# Word letters: 1 = S, -1 = S^-1, 2 = T, -2 = T^-1.
S_ = 1
T_ = 2

_LETTER_CHARS = {S_: "S", -S_: "s", T_: "T", -T_: "t"}
_CHAR_LETTERS = {v: k for k, v in _LETTER_CHARS.items()}

_GEN_MATS = {
    S_: MAT_S,
    -S_: Mat2.ambient(0, 1, -1, 0),
    T_: MAT_T,
    -T_: Mat2.ambient(1, -1, 0, 1),
}


class ModularWord(NamedTuple):
    """A freely reduced word over S, S^-1, T, T^-1 (uppercase/lowercase in text form)."""

    letters: tuple = ()

    @classmethod
    def of(cls, *letters: int) -> "ModularWord":
        for letter in letters:
            if letter not in _LETTER_CHARS:
                raise ValidationError(f"bad word letter: {letter!r}")
        return cls(_free_reduce(letters))

    @classmethod
    def from_str(cls, text: str) -> "ModularWord":
        letters = []
        for ch in text:
            if ch.isspace() or ch in "*.1":
                continue
            if ch not in _CHAR_LETTERS:
                raise ValidationError(f"bad word character: {ch!r}")
            letters.append(_CHAR_LETTERS[ch])
        return cls(_free_reduce(letters))

    def __mul__(self, other):
        return ModularWord(_free_reduce(self.letters + other.letters))

    def inverse(self) -> "ModularWord":
        return ModularWord(tuple(-l for l in reversed(self.letters)))

    def __str__(self) -> str:
        return "".join(_LETTER_CHARS[l] for l in self.letters)


WORD_ID = ModularWord()
WORD_S = ModularWord((S_,))
WORD_T = ModularWord((T_,))


def t_power(k: int) -> ModularWord:
    return ModularWord(((T_,) * k) if k >= 0 else ((-T_,) * (-k)))


def word_eval(w: ModularWord) -> Mat2:
    """Exact ambient product of the generator matrices; determinant 1 always."""
    x = Mat2.identity()
    for letter in w.letters:
        x = x * _GEN_MATS[letter]
    return x


def matrix_to_word(x: Mat2) -> ModularWord:
    """A word evaluating exactly to ``x`` (including sign), det(x) = 1 required.

    Euclidean reduction of the first column: powers of T shrink the top-left
    entry modulo the bottom-left one, S swaps the rows, and a final S^2
    fixes the sign of the residual triangular matrix.
    """
    if x.m is not None:
        raise ValidationError("matrix_to_word needs an ambient matrix")
    if x.det() != 1:
        raise ValidationError(f"matrix_to_word needs determinant 1, got {x.det()}")
    a, b, c, d = x.a, x.b, x.c, x.d
    letters = []  # inverses of the applied row operations, in application order
    while c != 0:
        q = a // c
        if q:
            a, b = a - q * c, b - q * d
            letters.extend(((T_,) * q) if q > 0 else ((-T_,) * (-q)))
        a, b, c, d = -c, -d, a, b
        letters.append(-S_)
    if a == 1:
        tail = t_power(b).letters
    else:  # a == d == -1, so the residue is S^2 * T^(-b)
        tail = (S_, S_) + t_power(-b).letters
    return ModularWord(_free_reduce(tuple(letters) + tail))


# ---------------------------------------------------------------------------
# permutation helpers


def perm_identity(d: int) -> tuple:
    return tuple(range(d))


def perm_cycle_lengths(p: tuple) -> list:
    seen = [False] * len(p)
    out = []
    for i in range(len(p)):
        if not seen[i]:
            length = 0
            j = i
            while not seen[j]:
                seen[j] = True
                j = p[j]
                length += 1
            out.append(length)
    return out


# ---------------------------------------------------------------------------
# permutation representations


class PermRep(NamedTuple):
    """A transitive coset action of the modular group on {0, ..., degree-1}.

    ``perm_s`` and ``perm_t`` are the images of S and T; the represented
    subgroup is the stabilizer of the basepoint 0.
    """

    degree: int
    perm_s: tuple
    perm_t: tuple

    @classmethod
    def make(cls, degree: int, perm_s: Sequence[int], perm_t: Sequence[int]) -> "PermRep":
        perm_s = tuple(perm_s)
        perm_t = tuple(perm_t)
        if degree < 1:
            raise ValidationError(f"degree must be positive, got {degree}")
        for name, p in (("s", perm_s), ("t", perm_t)):
            if len(p) != degree or sorted(p) != list(range(degree)):
                raise ValidationError(f"perm_{name} is not a permutation of 0..{degree - 1}")
        ident = perm_identity(degree)
        if perm_mul(perm_s, perm_s) != ident:
            raise ValidationError("perm_s is not an involution")
        st = perm_mul(perm_s, perm_t)
        if perm_mul(perm_mul(st, st), st) != ident:
            raise ValidationError("(perm_s perm_t)^3 is not the identity")
        rep = cls(degree, perm_s, perm_t)
        if len(_orbit_of(rep, 0)) != degree:
            raise ValidationError("the action is not transitive")
        return rep

    def word_point(self, w: ModularWord, start: int = 0) -> int:
        """Image of a point under the permutation action of a word."""
        ti = None
        p = start
        for letter in w.letters:
            if letter == S_ or letter == -S_:
                p = self.perm_s[p]
            elif letter == T_:
                p = self.perm_t[p]
            else:
                if ti is None:
                    ti = perm_inv(self.perm_t)
                p = ti[p]
        return p

    def word_perm(self, w: ModularWord) -> tuple:
        perm = perm_identity(self.degree)
        ti = perm_inv(self.perm_t)
        for letter in w.letters:
            if letter == S_ or letter == -S_:
                perm = perm_mul(perm, self.perm_s)
            elif letter == T_:
                perm = perm_mul(perm, self.perm_t)
            else:
                perm = perm_mul(perm, ti)
        return perm

    def to_json(self) -> dict:
        return {"degree": self.degree, "s": list(self.perm_s), "t": list(self.perm_t)}

    @classmethod
    def from_json(cls, data: dict) -> "PermRep":
        try:
            degree = int(data["degree"])
            perm_s = tuple(int(v) for v in data["s"])
            perm_t = tuple(int(v) for v in data["t"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValidationError(f"bad permutation representation data: {exc}") from exc
        return cls.make(degree, perm_s, perm_t)


def _orbit_of(rep: PermRep, start: int) -> set:
    ti = perm_inv(rep.perm_t)
    seen = {start}
    queue = [start]
    while queue:
        p = queue.pop()
        for q in (rep.perm_s[p], rep.perm_t[p], ti[p]):
            if q not in seen:
                seen.add(q)
                queue.append(q)
    return seen


def rep_contains(rep: PermRep, x: Union[Mat2, ModularWord]) -> bool:
    """Whether ``x`` lies in the subgroup: its action fixes the basepoint 0.

    Matrices are rewritten to words first; sign is immaterial since the
    representation is projective.
    """
    w = matrix_to_word(x) if isinstance(x, Mat2) else x
    return rep.word_point(w) == 0


def rep_level(rep: PermRep) -> int:
    """lcm of the cycle lengths of perm_t (the cusp widths)."""
    return math.lcm(*perm_cycle_lengths(rep.perm_t))


# ---------------------------------------------------------------------------
# low-index enumeration

_MAX_DEGREE_CAP = 12


def _deduce(s: list, t: list, ti: list, n: int) -> bool:
    """Propagate the relator cycle s t s t s t = 1; False on contradiction."""
    changed = True
    while changed:
        changed = False
        for start in range(n):
            i, x = 0, start
            while i < 6:
                nxt = s[x] if i % 2 == 0 else t[x]
                if nxt < 0:
                    break
                x = nxt
                i += 1
            if i == 6:
                if x != start:
                    return False
                continue
            j, y = 6, start
            while j > i + 1:
                prv = s[y] if (j - 1) % 2 == 0 else ti[y]
                if prv < 0:
                    break
                y = prv
                j -= 1
            if j == i + 1:
                if i % 2 == 0:
                    if s[y] >= 0:
                        return False
                    s[x] = y
                    s[y] = x
                else:
                    if ti[y] >= 0:
                        return False
                    t[x] = y
                    ti[y] = x
                changed = True
    return True


def _complete_tables(d_max: int) -> list:
    """All standardized coset tables over <s, t> with s^2 = (st)^3 = 1.

    Tables on n <= d_max points; each corresponds to exactly one index-n
    subgroup (the stabilizer of point 0).  Standardized means points are
    numbered in first-use order under the fixed slot scan (s, t, t^-1 per
    point), which makes the backtracking enumeration duplicate-free.
    """
    out = []

    def first_slot(s, t, ti, n):
        for p in range(n):
            if s[p] < 0:
                return p, 0
            if t[p] < 0:
                return p, 1
            if ti[p] < 0:
                return p, 2
        return None

    def rec(s, t, ti, n):
        slot = first_slot(s, t, ti, n)
        if slot is None:
            out.append((n, tuple(s[:n]), tuple(t[:n])))
            return
        p, col = slot
        if col == 0:
            cands = [q for q in range(n) if s[q] < 0]
        elif col == 1:
            cands = [q for q in range(n) if ti[q] < 0]
        else:
            cands = [q for q in range(n) if t[q] < 0]
        if n < d_max:
            cands.append(n)
        for q in cands:
            s2, t2, ti2, n2 = s[:], t[:], ti[:], n
            if q == n:
                s2.append(-1)
                t2.append(-1)
                ti2.append(-1)
                n2 += 1
            if col == 0:
                s2[p] = q
                s2[q] = p
            elif col == 1:
                t2[p] = q
                ti2[q] = p
            else:
                ti2[p] = q
                t2[q] = p
            if _deduce(s2, t2, ti2, n2):
                rec(s2, t2, ti2, n2)

    rec([-1], [-1], [-1], 1)
    return out


def _restandardize(s: tuple, t: tuple, basepoint: int) -> tuple:
    """Relabel by discovery order (scan s, t, t^-1) starting from ``basepoint``."""
    d = len(s)
    ti = perm_inv(t)
    label = {basepoint: 0}
    order = [basepoint]
    qi = 0
    while qi < len(order):
        p = order[qi]
        qi += 1
        for arr in (s, t, ti):
            q = arr[p]
            if q not in label:
                label[q] = len(order)
                order.append(q)
    ns = [0] * d
    nt = [0] * d
    for p in range(d):
        ns[label[p]] = label[s[p]]
        nt[label[p]] = label[t[p]]
    return tuple(ns), tuple(nt)


def low_index_reps(d_max: int, *, classes: bool = True, cap: int = _MAX_DEGREE_CAP) -> list:
    """All transitive representations of degree <= d_max, canonically ordered.

    With ``classes`` (the default) one representative is returned per
    simultaneous-conjugation class: the lexicographically least standardized
    table over all basepoint choices.  With ``classes=False`` every
    standardized table is returned, one per subgroup.
    """
    if d_max < 1:
        raise ValidationError(f"d_max must be positive, got {d_max}")
    if d_max > cap:
        raise BudgetError(f"degree budget exceeded: d_max {d_max} > cap {cap} (degree cap)")
    reps = []
    seen = set()
    for n, s, t in _complete_tables(d_max):
        if classes:
            canonical = min(_restandardize(s, t, b) for b in range(n))
            if canonical in seen:
                continue
            seen.add(canonical)
            reps.append(PermRep(n, canonical[0], canonical[1]))
        else:
            reps.append(PermRep(n, s, t))
    reps.sort(key=lambda r: (r.degree, r.perm_s, r.perm_t))
    return reps


# ---------------------------------------------------------------------------
# subgroup generators (Schreier)


def _rep_action(rep: PermRep):
    ti = perm_inv(rep.perm_t)

    def act(p, letter):
        if letter == S_ or letter == -S_:
            return rep.perm_s[p]
        if letter == T_:
            return rep.perm_t[p]
        return ti[p]

    return act


def schreier_transversal_words(rep: PermRep) -> dict:
    """BFS coset representative words: point -> letter tuple from the basepoint."""
    from .groupcore import schreier_transversal

    words, _ = schreier_transversal(0, _rep_action(rep), (S_, -S_, T_, -T_))
    return words


def subgroup_generators(rep: PermRep) -> list:
    """Words generating exactly the basepoint stabilizer.

    Schreier generators over a BFS transversal of the coset action; words
    that freely reduce to nothing (tree edges and their reverses) are
    dropped.  Every returned word fixes the basepoint.
    """

    def invert(word):
        return tuple(-l for l in reversed(word))

    raw = schreier_generator_words(0, _rep_action(rep), (S_, -S_, T_, -T_), invert)
    return [ModularWord(w) for w in raw]


# ---------------------------------------------------------------------------
# projective matrix quotients


def psl2_canon(x: Mat2) -> Mat2:
    """Canonical representative of {x, -x} in quotient mode (lexicographic min)."""
    if x.m is None:
        raise ValidationError("projective canonical form needs a quotient-mode matrix")
    return min(x, -x)


@functools.lru_cache(maxsize=None)
def psl2_context(m: int) -> GroupContext:
    """The projective determinant-1 matrix group over Z/m: SL2(Z/m) modulo -I."""

    def mul(x, y):
        return psl2_canon(x * y)

    def inv(x):
        return psl2_canon(x.inv_det1())

    sl2 = sl2_context(m)
    gens = tuple(psl2_canon(g) for g in sl2.generators)
    return GroupContext(sl2.identity, mul, inv, gens, name=f"PSL2(Z/{m})")


@functools.lru_cache(maxsize=None)
def _psl2_regular(m: int):
    """Right-multiplication action arrays of S and T on the projective group."""
    ctx = psl2_context(m)
    full = ctx.enumerate()
    index = {e: i for i, e in enumerate(full.elements)}
    sbar, tbar = ctx.generators
    s_act = tuple(index[ctx.mul(e, sbar)] for e in full.elements)
    t_act = tuple(index[ctx.mul(e, tbar)] for e in full.elements)
    return s_act, t_act


@functools.lru_cache(maxsize=None)
def congruence_rep(m: int) -> PermRep:
    """The coset action whose subgroup is the level-m principal congruence kernel.

    Built from the regular action of the projective quotient group; the
    basepoint corresponds to the identity coset.
    """
    s_act, t_act = _psl2_regular(m)
    s2, t2 = _restandardize(s_act, t_act, 0)
    return PermRep.make(len(s_act), s2, t2)


@functools.lru_cache(maxsize=None)
def principal_congruence_generators(m: int) -> tuple:
    """Words generating the level-m principal congruence subgroup (projectively)."""
    return tuple(subgroup_generators(congruence_rep(m)))


_rep_images: dict = {}


def rep_image_mod(rep: PermRep, m: int, budgets: Budgets | None = None) -> GeneratedSubgroup:
    """Closure of the subgroup's reduced generators in the projective quotient.

    This is the only closure of a subgroup's level-m image.  Each (rep, m)
    is closed once per process; as with ``GroupContext.enumerate``, the
    closure cap is enforced against a cached image too.
    """
    image = _rep_images.get((rep, m))
    if image is None:
        gens = [psl2_canon(word_eval(w).reduce(m)) for w in subgroup_generators(rep)]
        image = _rep_images[rep, m] = subgroup_closure(psl2_context(m), gens, budgets)
    else:
        check_closure_cap(len(image), budgets, f"the subgroup image mod {m}")
    return image


def in_image_mod(rep: PermRep, x: Mat2, m: int, budgets: Budgets | None = None) -> bool:
    """Whether the reduction of the ambient matrix ``x`` mod m lies in the subgroup's image."""
    return psl2_canon(x.reduce(m)) in rep_image_mod(rep, m, budgets)


def is_congruence(rep: PermRep, *, max_level: int = 64, budgets: Budgets | None = None) -> bool:
    """Level-based congruence decision.

    The subgroup is congruence exactly when it contains the principal
    congruence subgroup of its own level n, which holds exactly when the
    index of its image in the projective quotient mod n equals the degree.
    """
    n = rep_level(rep)
    if n == 1:
        return rep.degree == 1
    if n > max_level:
        raise BudgetError(f"modulus budget exceeded: level {n} > {max_level} (congruence level cap)")
    order = psl2_group_order(n)
    image = rep_image_mod(rep, n, budgets)
    if order % len(image) != 0:
        raise ValidationError("image size does not divide the group order")
    return order == rep.degree * len(image)


# ---------------------------------------------------------------------------
# congruence-gap witnesses


class GapWitness(NamedTuple):
    """An ambient matrix outside the subgroup whose reductions all look inside.

    ``x`` evaluates ``word`` exactly, ``x`` is congruent to the identity at
    the search level, ``displaced_to`` records where the word's action moves
    the basepoint (the non-membership trace), and ``levels_verified`` lists
    every checked modulus at which the reduction of ``x`` lies in the closure
    of the subgroup's reduced generators.
    """

    x: Mat2
    word: ModularWord
    levels_verified: tuple
    displaced_to: int


def _seed_words(level: int) -> list:
    """The elementary candidate pool: [[1,L],[0,1]], [[1,0],[L,1]], short conjugates, pair products."""
    u = t_power(level)
    v = WORD_S * t_power(-level) * ModularWord((-S_,))
    base = [u, v, u.inverse(), v.inverse()]
    conjugators = [WORD_ID]
    frontier = [WORD_ID]
    for _ in range(2):
        nxt = []
        for w in frontier:
            for letter in (S_, -S_, T_, -T_):
                w2 = w * ModularWord((letter,))
                if len(w2.letters) > len(w.letters):
                    nxt.append(w2)
        conjugators.extend(nxt)
        frontier = nxt
    pool = []
    seen = set()
    for c in conjugators:
        ci = c.inverse()
        for g in base:
            w = c * g * ci
            if w.letters and w.letters not in seen:
                seen.add(w.letters)
                pool.append(w)
    products = []
    for w1 in pool[: len(base) * 8]:
        for w2 in pool[: len(base) * 8]:
            w = w1 * w2
            if w.letters and w.letters not in seen:
                seen.add(w.letters)
                products.append(w)
    return pool + products


def congruence_gap_witness(
    rep: PermRep,
    level: int,
    *,
    m_max: int = 24,
    budgets: Budgets | None = None,
) -> Optional[GapWitness]:
    """Search the level-``level`` principal congruence subgroup for a witness.

    Phase one scans products and short conjugates of the two elementary
    matrices of the given level; it cannot succeed when the representation's
    own level divides ``level`` (those seeds act trivially on the cosets),
    so it is skipped in that case.  Phase two scans Schreier generators of
    the principal congruence subgroup itself, which must contain a witness
    whenever the subgroup is not congruence.  Returns None only if both
    phases come up empty.
    """
    budgets = active_budgets(budgets)
    if is_congruence(rep, budgets=budgets):
        raise PreconditionError("congruence_gap_witness: the subgroup is congruence; no gap exists")
    if level < 2:
        raise ValidationError(f"witness level must be at least 2, got {level}")

    found = None
    if level % rep_level(rep) != 0:
        found = next((w for w in _seed_words(level) if rep.word_point(w) != 0), None)
    if found is None:
        check_closure_cap(psl2_group_order(level), budgets, f"PSL2(Z/{level})")
        for w in principal_congruence_generators(level):
            if rep.word_point(w) != 0:
                found = w
                break
    if found is None:
        return None

    x = word_eval(found)
    if x.reduce(level) != Mat2.identity(level):
        found = ModularWord((S_, S_)) * found
        x = word_eval(found)
    if x.reduce(level) != Mat2.identity(level):
        raise ValidationError("witness is not congruent to the identity at its level")
    displaced = rep.word_point(found)
    levels = tuple(m for m in range(2, m_max + 1) if in_image_mod(rep, x, m, budgets))
    return GapWitness(x, found, levels, displaced)
