"""Symbolic layer for the modular group.

Words over the standard generators S = [[0,-1],[1,0]] and T = [[1,1],[0,1]],
exact matrix-to-word rewriting by Euclidean reduction, finite-index
subgroups given as permutation representations of the coset action, their
transversal words and Schreier generators read off ``perm_s`` and
``perm_t``, low-index enumeration by coset-table backtracking, cusp-width
levels, congruence testing, and congruence-gap witnesses.

Subgroups here are projective: representations satisfy ``perm_s^2 = 1`` and
``(perm_s perm_t)^3 = 1``, and matrices are identified with their negatives
for membership purposes.  The subgroup attached to a representation is the
stabilizer of the basepoint 0.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence, Union

from .arith import MAT_S, MAT_T, Mat2, parse_int, psl2_group_order
from .budgets import Budgets, active_budgets
from .errors import BudgetError, PreconditionError, ValidationError
from .groupcore import GroupContext, check_closure_cap, perm_inv, perm_mul, sl2_context

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


def _free_reduce(seq: Sequence[int]) -> tuple:
    """Cancel each letter against an inverse letter next to it, repeatedly."""
    out = []
    for letter in seq:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


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

    def to_json(self) -> str:
        return str(self)


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
        if len(schreier_transversal_words(rep)) != degree:
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
            degree = parse_int(data["degree"])
            perms = (data["s"], data["t"])
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"bad permutation representation data: {exc}") from exc
        if not all(isinstance(p, list) for p in perms):
            raise ValidationError("bad permutation representation data: s and t must be lists")
        perm_s, perm_t = (tuple(parse_int(v) for v in p) for p in perms)
        return cls.make(degree, perm_s, perm_t)


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


def schreier_transversal_words(rep: PermRep) -> dict:
    """BFS coset representative words: point -> letter tuple from the basepoint.

    Points are scanned in discovery order and, at each, the letters S, T,
    T^-1 (S^-1 moves points as S does), so the words are prefix-closed; the
    dict keeps discovery order.
    """
    steps = ((S_, rep.perm_s), (T_, rep.perm_t), (-T_, perm_inv(rep.perm_t)))
    words = {0: ()}
    order = [0]
    for p in order:
        for letter, perm in steps:
            q = perm[p]
            if q not in words:
                words[q] = words[p] + (letter,)
                order.append(q)
    return words


def subgroup_generators(rep: PermRep) -> list:
    """Words generating exactly the basepoint stabilizer.

    Schreier generators word(p) + letter + word(p letter)^-1 over the BFS
    transversal, for p in discovery order and letter S, then T, with the
    words that freely reduce to nothing (tree edges) dropped.  The rest form
    a free basis, as the transversal is prefix-closed, so no two are equal.
    Every returned word fixes the basepoint.
    """
    words = schreier_transversal_words(rep)
    out = []
    for p, word in words.items():
        for letter, perm in ((S_, rep.perm_s), (T_, rep.perm_t)):
            gen = ModularWord(word + (letter,)) * ModularWord(words[perm[p]]).inverse()
            if gen.letters:
                out.append(gen)
    return out


# ---------------------------------------------------------------------------
# projective matrix quotients


def psl2_canon(x: Mat2) -> Mat2:
    """Canonical representative of {x, -x} in quotient mode (lexicographic min)."""
    if x.m is None:
        raise ValidationError("projective canonical form needs a quotient-mode matrix")
    return min(x, -x)


# No command reaches psl2_context; bench/unitcost.py times its multiply as
# modular.psl2_mul_ns.
@functools.lru_cache(maxsize=16)
def psl2_context(m: int) -> GroupContext:
    """The projective determinant-1 matrix group over Z/m: SL2(Z/m) modulo -I."""
    sl2 = sl2_context(m)
    gens = tuple(psl2_canon(g) for g in sl2.generators)
    mul, inv = lambda x, y: psl2_canon(x * y), lambda x: psl2_canon(x.inv_det1())
    return GroupContext(sl2.identity, mul, inv, gens, name=f"PSL2(Z/{m})")


_MAX_CONGRUENCE_LEVEL = 64


def _gamma_walk(rep: PermRep, n: int, budgets: Budgets | None, seen: Optional[dict] = None):
    """The Schreier generators of the level-n principal congruence subgroup
    that move the basepoint, in walk order, each as (q, p, word).

    A breadth-first walk over PSL2(Z/n) from I at coset point 0, letters in
    the order S, T, T^-1 (S^-1 reaches the same matrix as S).  Each matrix
    keeps, in ``seen``, the point and the word it was first reached with.  An
    S or T edge into an already-seen matrix y closes the Schreier generator
    word(x) + letter + word(y)^-1; these generate that subgroup.  It brings
    y the point q while y keeps p, so it moves the basepoint exactly when
    q != p, and then q and p lie in one orbit of the subgroup.
    """
    check_closure_cap(psl2_group_order(n), budgets, f"PSL2(Z/{n})")
    s, t = MAT_S.reduce(n), MAT_T.reduce(n)
    steps = (
        (S_, psl2_canon(s), rep.perm_s),
        (T_, psl2_canon(t), rep.perm_t),
        (-T_, psl2_canon(t.inv_det1()), perm_inv(rep.perm_t)),
    )
    start = Mat2.identity(n)
    seen = {} if seen is None else seen
    seen[start] = (0, ())
    queue = [start]
    for x in queue:
        point, word = seen[x]
        for letter, g, perm in steps:
            y = psl2_canon(x * g)
            q = perm[point]
            known = seen.get(y)
            if known is None:
                seen[y] = (q, word + (letter,))
                queue.append(y)
            elif letter > 0 and known[0] != q:
                yield q, known[0], ModularWord(word + (letter,)) * ModularWord(known[1]).inverse()


def _orbit_blocks(rep: PermRep, walk) -> tuple:
    """The finest S- and T-invariant partition joining the points of each
    (q, p, word) of ``walk``: each point's class, numbered by least point.

    Union-find; merging two classes joins the images of their roots.
    """
    parent = list(range(rep.degree))

    def find(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    queue = [(q, p) for q, p, _ in walk]
    for a, b in queue:
        a, b = find(a), find(b)
        if a != b:
            parent[b] = a
            queue += ((rep.perm_s[a], rep.perm_s[b]), (rep.perm_t[a], rep.perm_t[b]))
    labels: dict = {}
    return tuple(labels.setdefault(find(p), len(labels)) for p in range(rep.degree))


def image_blocks(rep: PermRep, m: int, budgets: Budgets | None = None, walks: Optional[dict] = None) -> tuple:
    """The orbits of the level-m principal congruence subgroup on the cosets,
    as each point's class (0 for the basepoint's).

    It is normal, so these are blocks: x mod m lies in the subgroup's image
    exactly when x carries the basepoint into block 0, and the image's index
    is the number of blocks.  The closure cap holds on the image's order.
    Levels m and g = gcd(m, N), N the level of ``rep``, have the same orbits:
    level m's product with the core of the subgroup is normal and holds T^g,
    so by Wohlfahrt's level theorem (Illinois J. Math. 8, 1964) it contains
    level g's.  So the walk runs over PSL2(Z/g).  ``walks`` keeps the blocks
    of each (rep, g) walked; one command passes one dict to all its calls, so
    it walks each g once, while every level m still checks its own cap.
    """
    g = math.gcd(m, rep_level(rep))
    walks = {} if walks is None else walks
    if (rep, g) not in walks:
        walks[rep, g] = (0,) * rep.degree if g == 1 else _orbit_blocks(rep, _gamma_walk(rep, g, budgets))
    blocks = walks[rep, g]
    check_closure_cap(psl2_group_order(m) // len(set(blocks)), budgets, f"the subgroup image mod {m}")
    return blocks


def image_elements(rep: PermRep, m: int, budgets: Budgets | None = None) -> list:
    """The subgroup's image in PSL2(Z/m): the matrices of the walk over
    PSL2(Z/m) whose coset point lies in the basepoint's orbit."""
    seen: dict = {}
    blocks = _orbit_blocks(rep, _gamma_walk(rep, m, budgets, seen))
    return [y for y, (p, _) in seen.items() if blocks[p] == 0]


def is_congruence(rep: PermRep, *, budgets: Budgets | None = None) -> bool:
    """Level-based congruence decision.

    The subgroup is congruence exactly when it contains the principal
    congruence subgroup of its own level n, that is when the walk over
    PSL2(Z/n) finds no element of it that moves the basepoint.
    """
    n = rep_level(rep)
    if n == 1:
        return rep.degree == 1
    if n > _MAX_CONGRUENCE_LEVEL:
        raise BudgetError(f"modulus budget exceeded: level {n} > {_MAX_CONGRUENCE_LEVEL} (congruence level cap)")
    return next(_gamma_walk(rep, n, budgets), None) is None


# ---------------------------------------------------------------------------
# congruence-gap witnesses


class GapWitness(NamedTuple):
    """An ambient matrix outside the subgroup whose reductions all look inside.

    ``x`` evaluates ``word`` exactly, ``x`` is congruent to the identity at
    the search level, ``displaced_to`` records where the word's action moves
    the basepoint (the non-membership trace), and ``levels_verified`` lists
    every checked modulus at which the reduction of ``x`` lies in the
    subgroup's image (``image_blocks``).  The field names are the
    witness's report keys.
    """

    x: Mat2
    word: ModularWord
    levels_verified: tuple
    displaced_to: int


def congruence_gap_witness(
    rep: PermRep,
    level: int,
    *,
    m_max: int = 24,
    budgets: Budgets | None = None,
    walks: Optional[dict] = None,
) -> GapWitness:
    """The first element of the level-``level`` principal congruence subgroup,
    in the order of ``_gamma_walk``, that lies outside the subgroup.

    A subgroup that is not congruence contains no principal congruence
    subgroup, so the walk always finds one.  ``walks`` is shared with
    ``image_blocks`` (a fresh dict when None).
    """
    if m_max < 2:
        raise ValidationError(f"m_max must be at least 2, got {m_max}: the witness needs a tested level")
    budgets = active_budgets(budgets)
    if is_congruence(rep, budgets=budgets):
        raise PreconditionError("congruence_gap_witness: the subgroup is congruence; no gap exists")
    if level < 2:
        raise ValidationError(f"witness level must be at least 2, got {level}")

    edge = next(_gamma_walk(rep, level, budgets), None)
    if edge is None:
        raise PreconditionError(
            f"congruence_gap_witness: the subgroup contains the principal congruence subgroup of level {level}"
        )
    found = edge[2]
    x = word_eval(found)
    if x.reduce(level) != Mat2.identity(level):
        found = ModularWord((S_, S_)) * found
        x = word_eval(found)
    if x.reduce(level) != Mat2.identity(level):
        raise ValidationError("witness is not congruent to the identity at its level")
    displaced = rep.word_point(found)
    walks = {} if walks is None else walks
    levels = tuple(m for m in range(2, m_max + 1) if image_blocks(rep, m, budgets, walks)[displaced] == 0)
    return GapWitness(x, found, levels, displaced)
