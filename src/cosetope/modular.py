"""Symbolic layer for the modular group.

Words over the standard generators S = [[0,-1],[1,0]] and T = [[1,1],[0,1]],
exact matrix-to-word rewriting by Euclidean reduction, finite-index
subgroups given as permutation representations of the coset action, their
transversal words and Schreier generators read off ``perm_s`` and
``perm_t``, low-index enumeration as transitive actions of C2 * C3,
cusp-width levels, congruence testing, and congruence-gap witnesses.

Subgroups here are projective: representations satisfy ``perm_s^2 = 1`` and
``(perm_s perm_t)^3 = 1``, and matrices are identified with their negatives
for membership purposes.  The subgroup attached to a representation is the
stabilizer of the basepoint 0.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple, Optional, Sequence

from .arith import MAT_S, MAT_T, Mat2, psl2_group_order
from .budgets import Budgets
from .errors import BudgetError, ValidationError, shown
from .groupcore import GroupContext, check_closure_cap, perm_inv, perm_mul, sl2_context, subgroup_closure

# The generator matrices by letter: S, S^-1, T and T^-1 are written S, s, T and t.
_GEN_MATS = {"S": MAT_S, "s": Mat2.ambient(0, 1, -1, 0), "T": MAT_T, "t": Mat2.ambient(1, -1, 0, 1)}


def _free_reduce(letters: str) -> str:
    """Cancel each letter next to its inverse, the same letter in the other case, repeatedly."""
    out = []
    for letter in letters:
        if out and out[-1] == letter.swapcase():
            out.pop()
        else:
            out.append(letter)
    return "".join(out)


class ModularWord(NamedTuple):
    """A freely reduced word over S, S^-1, T, T^-1, written with the letters S, s, T, t and no other."""

    letters: str = ""

    @classmethod
    def from_str(cls, text: str) -> "ModularWord":
        bad = next((ch for ch in text if ch not in _GEN_MATS), None)
        if bad is not None:
            raise ValidationError(f"bad word character: {bad!r}")
        return cls(_free_reduce(text))

    def __mul__(self, other):
        return ModularWord(_free_reduce(self.letters + other.letters))

    def inverse(self) -> "ModularWord":
        return ModularWord(self.letters[::-1].swapcase())

    def __str__(self) -> str:
        return self.letters


def t_power(k: int) -> ModularWord:
    return ModularWord("T" * k + "t" * -k)  # a negative count repeats nothing


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
        raise ValidationError(f"matrix_to_word needs determinant 1, got {shown(x.det())}")
    a, b, c, d = x.a, x.b, x.c, x.d
    letters = []  # inverses of the applied row operations, in application order
    while c != 0:
        q = a // c
        a, b = a - q * c, b - q * d
        letters.append(t_power(q).letters + "s")
        a, b, c, d = -c, -d, a, b
    if a == 1:
        tail = t_power(b).letters
    else:  # a == d == -1, so the residue is S^2 * T^(-b)
        tail = "SS" + t_power(-b).letters
    return ModularWord(_free_reduce("".join(letters) + tail))


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
            raise ValidationError(f"degree must be positive, got {shown(degree)}")
        for name, p in (("s", perm_s), ("t", perm_t)):
            if len(p) != degree or sorted(p) != list(range(degree)):
                raise ValidationError(f"perm_{name} is not a permutation of 0..{shown(degree - 1)}")
        ident = perm_identity(degree)
        if perm_mul(perm_s, perm_s) != ident:
            raise ValidationError("perm_s is not an involution")
        st = perm_mul(perm_s, perm_t)
        if perm_mul(perm_mul(st, st), st) != ident:
            raise ValidationError("(perm_s perm_t)^3 is not the identity")
        if len(discovery_tree(perm_s, perm_t)) != degree:
            raise ValidationError("the action is not transitive")
        return cls(degree, perm_s, perm_t)

    def word_perm(self, w: ModularWord) -> tuple:
        steps = {"S": self.perm_s, "s": self.perm_s, "T": self.perm_t, "t": perm_inv(self.perm_t)}
        perm = perm_identity(self.degree)
        for letter in w.letters:
            perm = perm_mul(perm, steps[letter])
        return perm


# the one-point coset action: its subgroup is the whole modular group
ONE_POINT = PermRep(1, (0,), (0,))


def rep_level(rep: PermRep) -> int:
    """lcm of the cycle lengths of perm_t (the cusp widths)."""
    return math.lcm(*perm_cycle_lengths(rep.perm_t))


# ---------------------------------------------------------------------------
# low-index enumeration

_MAX_DEGREE_CAP = 12


def _actions(d_max: int) -> list:
    """Every transitive action of C2 * C3 on n <= d_max points, as the images
    (x, y) of S and ST with x^2 = y^3 = 1, one per subgroup.

    PSL2(Z) is the free product of <S> and <ST>, so these are exactly its
    coset actions, with no relator left to deduce (Millington, J. London
    Math. Soc. 1969).  The search fills the first open slot in point order:
    an open x[p] pairs p with itself, a later open point or a new point; an
    open y[p] is fixed, or starts a 3-cycle (p, q, r) through later open or
    new points.  New points are numbered as they first appear, so each
    subgroup, the stabilizer of point 0, comes out once, and every partial
    table completes.
    """
    out = []

    def rec(x, y, n):
        p = next((p for p in range(n) if x[p] < 0 or y[p] < 0), None)
        if p is None:
            out.append((tuple(x[:n]), tuple(y[:n])))
        elif x[p] < 0:
            for q in [p] + [q for q in range(p + 1, n) if x[q] < 0] + [n] * (n < d_max):
                x2 = x[:]
                x2[p], x2[q] = q, p
                rec(x2, y, max(n, q + 1))
        else:
            y2 = y[:]
            y2[p] = p
            rec(x, y2, n)
            free = [q for q in range(p + 1, n) if y[q] < 0]
            for q in free + [n] * (n < d_max):
                nq = max(n, q + 1)
                for r in [r for r in free if r != q] + [nq] * (nq < d_max):
                    y2 = y[:]
                    y2[p], y2[q], y2[r] = q, r, p
                    rec(x, y2, max(nq, r + 1))

    rec([-1] * d_max, [-1] * d_max, 1)
    return out


def discovery_tree(s: tuple, t: tuple, basepoint: int = 0) -> dict:
    """The breadth-first tree of the action from ``basepoint``: each point
    reached maps to (parent, letter), the basepoint to (None, None).

    Points are scanned in discovery order and, at each, the letters S, T,
    T^-1 (S^-1 moves points as S does); the dict keeps discovery order.
    """
    steps = (("S", s), ("T", t), ("t", perm_inv(t)))
    tree = {basepoint: (None, None)}
    order = [basepoint]
    for p in order:
        for letter, perm in steps:
            q = perm[p]
            if q not in tree:
                tree[q] = (p, letter)
                order.append(q)
    return tree


def tree_word(tree: dict, x) -> str:
    """The letters of the tree path from the root to ``x``, as a string,
    read off the parent links: the first two fields of each entry of ``tree``."""
    path = []
    while tree[x][0] is not None:
        x, letter = tree[x][:2]
        path.append(letter)
    return "".join(reversed(path))


def _restandardize(s: tuple, t: tuple, basepoint: int) -> tuple:
    """Relabel each point by its place in ``discovery_tree`` from ``basepoint``."""
    tree = discovery_tree(s, t, basepoint)
    label = perm_inv(list(tree))  # label[p] is p's place in the tree
    return tuple([label[s[p]] for p in tree]), tuple([label[t[p]] for p in tree])


def low_index_reps(max_degree: int, *, classes: bool = True) -> list:
    """All transitive representations of degree <= max_degree, canonically ordered.

    Each action (x, y) of ``_actions`` is the representation with
    perm_s = x and perm_t = x y, as T = S^-1 ST, its table standardized
    from the basepoint.  With ``classes=False`` every subgroup's table is
    returned.  With ``classes`` (the default) one representative is
    returned per simultaneous-conjugation class: the lexicographically
    least table over all basepoint choices.  A class's tables from every
    basepoint are the basepoint tables of its subgroups, so only the first
    subgroup of each class is standardized from every other basepoint,
    marking those tables and its own seen.
    """
    named = shown(max_degree)
    if max_degree < 1:
        raise ValidationError(f"max_degree must be positive, got {named}")
    if max_degree > _MAX_DEGREE_CAP:
        raise BudgetError(f"degree budget exceeded: max_degree {named} > cap {_MAX_DEGREE_CAP} (degree cap)")
    reps = []
    seen = set()
    for s, y in _actions(max_degree):
        t = perm_mul(s, y)
        table = _restandardize(s, t, 0)
        if classes:
            if table in seen:
                continue
            tables = {table} | {_restandardize(s, t, b) for b in range(1, len(s))}
            seen |= tables
            table = min(tables)
        reps.append(PermRep(len(s), *table))
    reps.sort(key=lambda r: (r.degree, r.perm_s, r.perm_t))
    return reps


# ---------------------------------------------------------------------------
# subgroup generators (Schreier)


def subgroup_generators(rep: PermRep) -> list:
    """Words generating exactly the basepoint stabilizer.

    Schreier generators word(p) + letter + word(p letter)^-1 over the BFS
    transversal (the ``tree_word`` of each point of ``discovery_tree``), for
    p in discovery order and letter S, then T, each read by the walk's own
    ``_edge_word``, with the words that freely reduce to nothing (tree
    edges) dropped.  The rest form a free basis, as the transversal is
    prefix-closed, so no two are equal.  Every returned word fixes the
    basepoint.
    """
    tree = discovery_tree(rep.perm_s, rep.perm_t)
    gens = [_edge_word(tree, (p, a, perm[p])) for p in tree for a, perm in (("S", rep.perm_s), ("T", rep.perm_t))]
    return [gen for gen in gens if gen.letters]


# ---------------------------------------------------------------------------
# projective matrix quotients


# No command reaches psl2_canon or psl2_context; bench/unitcost.py calls the
# first and times the multiply of the second as modular.psl2_mul_ns.
def psl2_canon(x: Mat2) -> Mat2:
    """Canonical representative of {x, -x} in quotient mode (lexicographic min)."""
    if x.m is None:
        raise ValidationError("projective canonical form needs a quotient-mode matrix")
    return min(x, -x)


@functools.lru_cache(maxsize=16)
def psl2_context(m: int) -> GroupContext:
    """The projective determinant-1 matrix group over Z/m: SL2(Z/m) modulo -I."""
    sl2 = sl2_context(m)
    gens = tuple(psl2_canon(g) for g in sl2.generators)
    mul, inv = lambda x, y: psl2_canon(x * y), lambda x: psl2_canon(x.inv_det1())
    return GroupContext(sl2.identity, mul, inv, gens, name=f"PSL2(Z/{m})")


def _gamma_walk(rep: PermRep, n: int, budgets: Budgets, seen: Optional[dict] = None):
    """The Schreier generators of the level-n principal congruence subgroup,
    in walk order, each as (q, p, edge).

    A breadth-first walk over PSL2(Z/n) from I mod n at coset point 0 with
    the letters S, T, T^-1, closed-form on entry tuples; a matrix is the
    lesser of its tuple and its negative's.  ``seen`` maps it to its parent,
    letter and first point.  An S or T edge (x, letter, y) into a seen
    matrix y closes the Schreier generator word(x) + letter + word(y)^-1
    (each word the ``tree_word`` of ``seen``, read by ``_edge_word``); these
    generate that subgroup (at n = 1, the one state's S and T).  It brings y
    the point q while y keeps p, so it moves the basepoint exactly when
    q != p, and then q and p lie in one orbit.
    """
    check_closure_cap(psl2_group_order(n), budgets, f"PSL2(Z/{shown(n)})")
    perm_s, perm_t, perm_ti = rep.perm_s, rep.perm_t, perm_inv(rep.perm_t)
    queue = [(1 % n, 0, 0, 1 % n)]
    seen = {} if seen is None else seen
    seen[queue[0]] = (None, None, 0)
    for x in queue:
        a, b, c, d = x
        point = seen[x][2]
        for letter, y, q in (
            ("S", (b, -a % n, d, -c % n), perm_s[point]),
            ("T", (a, (a + b) % n, c, (c + d) % n), perm_t[point]),
            ("t", (a, (b - a) % n, c, (d - c) % n), perm_ti[point]),
        ):
            negated = (-y[0] % n, -y[1] % n, -y[2] % n, -y[3] % n)
            y = negated if negated < y else y
            known = seen.get(y)
            if known is None:
                seen[y] = (x, letter, q)
                queue.append(y)
            elif letter != "t":
                yield q, known[2], (x, letter, y)


def _edge_word(seen: dict, edge: tuple) -> ModularWord:
    """The Schreier generator that ``edge`` = (source, letter, target) closes
    in ``seen``, the tree of a ``_gamma_walk`` or a ``discovery_tree``."""
    source, letter, target = edge
    return ModularWord(tree_word(seen, source) + letter) * ModularWord(tree_word(seen, target)).inverse()


def _orbit_blocks(rep: PermRep, walk) -> tuple:
    """The finest S- and T-invariant partition joining the points of each
    (q, p, word) of ``walk``: each point's class, numbered by least point.

    Union-find; merging two classes joins the images of their roots.  Each
    pair is folded in as the walk yields it, and the walk is left once one
    class remains, which no further pair can change.
    """
    parent = list(range(rep.degree))
    classes = rep.degree

    def find(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    for q, p, _ in walk:
        queue = [(q, p)]
        for a, b in queue:
            a, b = find(a), find(b)
            if a != b:
                parent[b] = a
                classes -= 1
                queue += ((rep.perm_s[a], rep.perm_s[b]), (rep.perm_t[a], rep.perm_t[b]))
        if classes == 1:
            break
    labels: dict = {}
    return tuple(labels.setdefault(find(p), len(labels)) for p in range(rep.degree))


def image_blocks(rep: PermRep, m: int, budgets: Budgets = Budgets(), walks: Optional[dict] = None) -> tuple:
    """The orbits of the level-m principal congruence subgroup on the cosets,
    as each point's class (0 for the basepoint's).

    It is normal, so these are blocks: x mod m lies in the subgroup's image
    exactly when x carries the basepoint into block 0, and the image's index
    is the number of blocks.  Levels m and g = gcd(m, N), N the level of
    ``rep``, act on the cosets alike: level m's product with the core of the
    subgroup is normal and holds T^g, so by Wohlfahrt's level theorem
    (Illinois J. Math. 8, 1964) it contains level g's.  So the walk runs
    over PSL2(Z/g), under the closure cap.  ``walks`` keeps the blocks of
    each (rep, g) walked; one command passes one dict to all its calls, so
    it walks each g once.
    """
    g = math.gcd(m, rep_level(rep))
    walks = {} if walks is None else walks
    if (rep, g) not in walks:
        walks[rep, g] = _orbit_blocks(rep, _gamma_walk(rep, g, budgets))
    return walks[rep, g]


def image_elements(rep: PermRep, m: int, budgets: Budgets = Budgets()) -> list:
    """The subgroup's image in PSL2(Z/m): the matrices of the walk over
    PSL2(Z/m) whose point lies in the basepoint's orbit."""
    seen: dict = {}
    blocks = _orbit_blocks(rep, list(_gamma_walk(rep, m, budgets, seen)))  # every state of seen is read
    return [Mat2(*y, m) for y, (_, _, p) in seen.items() if blocks[p] == 0]


def is_congruence(rep: PermRep, *, budgets: Budgets = Budgets()) -> bool:
    """Level-based congruence decision.

    The subgroup is congruence exactly when it contains the principal
    congruence subgroup of its own level n, that is when the walk over
    PSL2(Z/n) finds no element of it that moves the basepoint (at n = 1,
    no S or T step).  The walk checks |PSL2(Z/n)| against the cap first.
    """
    return next((step for step in _gamma_walk(rep, rep_level(rep), budgets) if step[0] != step[1]), None) is None


def gamma_image_order(rep: PermRep, n: int, budgets: Budgets = Budgets()) -> int:
    """|sigma(Gamma(n))|: the closure, under the closure cap, of the coset
    permutations of ``_gamma_walk``'s Schreier generators, each added only
    when the closure so far misses it.  By ``image_blocks``' argument the
    walk runs over PSL2(Z/g), g = gcd(n, ``rep_level(rep)``); at g = 1 the
    image is <sigma(S), sigma(T)>."""
    seen: dict = {}
    ctx = GroupContext(perm_identity(rep.degree), perm_mul, perm_inv, name=f"the coset action of Gamma({shown(n)})")
    image = subgroup_closure(ctx, (), budgets)
    for _, _, edge in _gamma_walk(rep, math.gcd(n, rep_level(rep)), budgets, seen):
        sigma = rep.word_perm(_edge_word(seen, edge))
        if sigma not in image:
            image = subgroup_closure(ctx, image.generators + (sigma,), budgets)
    return len(image)


# ---------------------------------------------------------------------------
# congruence-gap witnesses


def congruence_gap_witness(rep: PermRep, level: int, *, budgets: Budgets = Budgets()) -> dict:
    """The first element of the level-``level`` principal congruence subgroup,
    in the order of ``_gamma_walk``, that lies outside the subgroup.

    The result maps ``x``, ``word`` and ``displaced_to``: the matrix ``x``
    evaluates the word ``word`` exactly and is congruent to the identity at
    ``level``, so its reduction lies in the subgroup's image at every divisor
    of that level, and ``displaced_to`` is where the word's action moves the
    basepoint (the non-membership trace).

    A subgroup that is not congruence contains no principal congruence
    subgroup, so the walk always finds one.  A congruence subgroup of level N
    contains the one of level N, so at a multiple of N the walk decides that
    too; only at another level does ``is_congruence`` walk first.  Callers
    pass a level of at least 2: ``cli.parse`` refuses a lower ``--level``.
    """
    seen: dict = {}
    congruence = level % rep_level(rep) and is_congruence(rep, budgets=budgets)
    steps = () if congruence else _gamma_walk(rep, level, budgets, seen)
    edge = next((step for step in steps if step[0] != step[1]), None)
    if edge is None:  # congruence, or the subgroup contains the principal congruence subgroup of this level
        raise ValidationError("congruence_gap_witness: the subgroup is congruence; no gap exists")
    found = _edge_word(seen, edge[2])
    x = word_eval(found)
    if x.reduce(level) != Mat2.identity(level):  # an edge word is ±I mod level, and SS is -I
        found = ModularWord("SS") * found
        x = word_eval(found)
    return {"x": x, "word": found, "displaced_to": rep.word_perm(found)[0]}
