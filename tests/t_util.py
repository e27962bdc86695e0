"""Shared test helpers: small contexts, subgroup pools, instance generators,
and independent brute-force oracles."""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter

from cosetope.groupcore import (
    GroupContext,
    normal_closure,
    subgroup_closure,
    subgroup_intersection,
    sl2_context,
)
from cosetope.modular import PermRep, _restandardize, psl2_canon, psl2_context, subgroup_generators, word_eval
from cosetope.profinite import QuotientSpec, quotient_context


def perm_context(degree: int, gens) -> GroupContext:
    ident = tuple(range(degree))

    def mul(p, q):
        return tuple(q[i] for i in p)

    def inv(p):
        out = [0] * degree
        for i, pi in enumerate(p):
            out[pi] = i
        return tuple(out)

    return GroupContext(ident, mul, inv, tuple(gens), name=f"perm({degree})")


def s3_context() -> GroupContext:
    return perm_context(3, [(1, 0, 2), (1, 2, 0)])


def small_contexts():
    """Contexts of order at most 500 used by the identity suites."""
    return [
        sl2_context(2),
        sl2_context(3),
        sl2_context(4),
        sl2_context(5),
        psl2_context(6),
        quotient_context(QuotientSpec.make(2)),
        s3_context(),
    ]


def subgroup_pool(ctx, rng: random.Random, count: int = 18, max_size: int = 200):
    """Distinct subgroups of the context, generated from random element pairs."""
    full = ctx.enumerate()
    pool = [subgroup_closure(ctx, ()), full if len(full) <= max_size else None]
    pool = [p for p in pool if p is not None]
    seen = {p.as_set() for p in pool}
    attempts = 0
    while len(pool) < count and attempts < 40 * count:
        attempts += 1
        k = rng.choice((1, 1, 2))
        gens = [rng.choice(full.elements) for _ in range(k)]
        sub = subgroup_closure(ctx, gens)
        if len(sub) > max_size:
            continue
        if sub.as_set() not in seen:
            seen.add(sub.as_set())
            pool.append(sub)
    return full, pool


def prop_instance(ctx, full, pool, rng: random.Random, max_pairs: int = 5000, max_n: int = 50):
    """A precondition-satisfying (H, K, Hp, N) tuple, or None if sampling failed."""
    for _ in range(60):
        h = rng.choice(pool)
        k = rng.choice(pool)
        if len(h) * len(k) > max_pairs:
            continue
        if rng.random() < 0.35:
            n = subgroup_closure(ctx, ())
        else:
            n = normal_closure(ctx, [rng.choice(full.elements)])
        if len(n) > max_n:
            continue
        nk = subgroup_closure(ctx, tuple(n.generators) + tuple(k.generators))
        base = subgroup_intersection(h, nk)
        extra = (rng.choice(h.elements),) if rng.random() < 0.5 else ()
        hp = subgroup_closure(ctx, tuple(base.elements) + extra)
        return h, k, hp, n
    return None


def cor_instance(ctx, full, pool, rng: random.Random, max_pairs: int = 5000):
    """A precondition-satisfying (H, K, Hp, Kp) tuple, or None."""
    for _ in range(60):
        h = rng.choice(pool)
        k = rng.choice(pool)
        if len(h) * len(k) > max_pairs:
            continue
        meet = subgroup_intersection(h, k)
        extra_h = (rng.choice(h.elements),) if rng.random() < 0.5 else ()
        extra_k = (rng.choice(k.elements),) if rng.random() < 0.5 else ()
        hp = subgroup_closure(ctx, tuple(meet.elements) + extra_h)
        kp = subgroup_closure(ctx, tuple(meet.elements) + extra_k)
        return h, k, hp, kp
    return None


def set_product(ctx, xs, ys):
    return frozenset(ctx.mul(x, y) for x in xs for y in ys)


# ---------------------------------------------------------------------------
# naive low-index oracle (independent of the backtracking enumerator)


def _pmul(p, q):
    return tuple(q[i] for i in p)


def naive_rep_counts(d: int):
    """(transitive pairs, subgroups, classes) at degree exactly d, by double loop."""
    ident = tuple(range(d))
    perms = list(itertools.permutations(range(d)))
    involutions = [p for p in perms if _pmul(p, p) == ident]
    pairs = set()
    for s in involutions:
        for t in perms:
            st = tuple(t[si] for si in s)
            ok = True
            for i in range(d):
                if st[st[st[i]]] != i:
                    ok = False
                    break
            if not ok:
                continue
            seen = {0}
            stack = [0]
            while stack:
                p0 = stack.pop()
                for q in (s[p0], t[p0]):
                    if q not in seen:
                        seen.add(q)
                        stack.append(q)
            if len(seen) != d:
                continue
            pairs.add((s, t))
    npairs = len(pairs)

    def conj(p, g):
        out = [0] * d
        for i in range(d):
            out[g[i]] = g[p[i]]
        return tuple(out)

    remaining = set(pairs)
    classes = 0
    while remaining:
        s0, t0 = next(iter(remaining))
        orbit = {(conj(s0, g), conj(t0, g)) for g in perms}
        remaining -= orbit
        classes += 1
    if d == 1:
        return npairs, npairs, classes
    assert npairs % math.factorial(d - 1) == 0
    return npairs, npairs // math.factorial(d - 1), classes


def count_closures(monkeypatch, module) -> Counter:
    """Count the subgroup closures ``module`` runs, keyed by (context name, generators)."""
    calls = Counter()
    real = module.subgroup_closure

    def counting(ctx, gens, budgets=None):
        gens = tuple(gens)
        calls[ctx.name, gens] += 1
        return real(ctx, gens, budgets)

    monkeypatch.setattr(module, "subgroup_closure", counting)
    return calls


# ---------------------------------------------------------------------------
# the principal congruence subgroups through the regular action of PSL2(Z/m)
# (independent of the coset-carrying walk in ``cosetope.modular``)


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


# ---------------------------------------------------------------------------
# a subgroup's level-m image, independently of the blocks in
# ``cosetope.modular``


def image_closure(rep: PermRep, m: int):
    """The subgroup's image in PSL2(Z/m) as the closure of its reduced generators."""
    gens = [psl2_canon(word_eval(w).reduce(m)) for w in subgroup_generators(rep)]
    return subgroup_closure(psl2_context(m), gens)


def partition(labels) -> frozenset:
    """The classes of a labelling of the points 0..d-1."""
    return frozenset(frozenset(p for p, l in enumerate(labels) if l == label) for label in set(labels))


def klein_fricke_blocks(rep: PermRep, g: int) -> frozenset:
    """The orbits of the level-g principal congruence subgroup for g <= 5.

    There that subgroup is the normal closure of T^g (Klein and Fricke), so
    its orbits are the finest S- and T-invariant partition that joins each
    point p with p T^g.  Found by relabelling to a fixed point, without
    union-find.
    """
    assert 2 <= g <= 5
    label = list(range(rep.degree))

    def join(a, b):
        old, new = label[b], label[a]
        if old == new:
            return False
        label[:] = [new if l == old else l for l in label]
        return True

    for p in range(rep.degree):
        q = p
        for _ in range(g):
            q = rep.perm_t[q]
        join(p, q)
    changed = True
    while changed:
        changed = False
        for p, r in itertools.combinations(range(rep.degree), 2):
            if label[p] == label[r]:
                for perm in (rep.perm_s, rep.perm_t):
                    changed |= join(perm[p], perm[r])
    return partition(label)
