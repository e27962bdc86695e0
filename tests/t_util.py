"""Shared test helpers: small contexts, subgroup pools, instance generators,
and independent brute-force oracles."""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter

from cosetope.arith import Mat2
from cosetope.budgets import active_budgets
from cosetope.errors import BudgetError, ModulusMismatch, PreconditionError, ValidationError
from cosetope.groupcore import (
    GroupContext,
    SdElement,
    check_closure_cap,
    perm_inv,
    perm_mul,
    product_member,
    sd_inv,
    sd_mul,
    subgroup_closure,
    subgroup_intersection,
    sl2_context,
)
from cosetope.modular import (
    S_,
    T_,
    ModularWord,
    PermRep,
    _restandardize,
    psl2_canon,
    psl2_context,
    subgroup_generators,
    word_eval,
)
from cosetope.profinite import (
    GroupWord,
    QuotientSpec,
    element_restriction,
    project,
    quotient_context,
    spec_group_order,
)


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


# ---------------------------------------------------------------------------
# the product-set identities and the transversal exclusion check, by explicit
# construction over small groups (no command runs them)


def brute_force_product(ctx, u, v) -> frozenset:
    """The literal set {xy : x in u, y in v}; oracle for all set identities."""
    mul = ctx.mul
    return frozenset(mul(x, y) for x in u for y in v)


def is_normal_by_generators(ctx, n) -> bool:
    """Conjugation check g x g^-1 in N for context generators g, N generators x.

    Sufficient for normality in the group the context generates, because
    conjugation by a fixed element is injective on the finite closure.
    """
    mul, inv = ctx.mul, ctx.inv
    return all(mul(mul(g, x), inv(g)) in n for g in ctx.generators for x in n.generators)


def normal_closure(ctx, seeds):
    """Smallest normal subgroup of the context group containing ``seeds``."""
    current = subgroup_closure(ctx, seeds)
    mul, inv = ctx.mul, ctx.inv
    while True:
        conjugates = (mul(mul(g, x), inv(g)) for g in ctx.generators for x in current.generators)
        extra = tuple(y for y in conjugates if y not in current)
        if not extra:
            return current
        current = subgroup_closure(ctx, current.generators + extra)


def coset_reps(ctx, h, hp) -> tuple:
    """Greedy transversal for the left cosets Hp*x covering H; reps[0] = identity."""
    if any(g not in h for g in hp.generators):
        raise PreconditionError("coset_reps: the subgroup is not contained in the supergroup")
    covered = set()
    reps = []
    for x in h.elements:
        if x not in covered:
            reps.append(x)
            covered.update(ctx.mul(p, x) for p in hp.elements)
    if len(reps) * len(hp) != len(h):
        raise PreconditionError("coset_reps: cosets do not partition the supergroup")
    return tuple(reps)


def require_hypotheses(ctx, n, *containments) -> None:
    """Raise PreconditionError naming the first hypothesis that fails: that
    ``n`` is normal (unless None), then each (name, elements, name, subgroup)
    containment in turn."""
    if n is not None and not is_normal_by_generators(ctx, n):
        raise PreconditionError("precondition failed: N is not normal (generator conjugation test)")
    for small_name, small, big_name, big in containments:
        if any(x not in big for x in small):
            raise PreconditionError(f"precondition failed: {small_name} is not contained in {big_name}")


def check_prop_identity(ctx, h, k, hp, n) -> bool:
    """Set identity Hp*K == (H*K) intersect (Hp*K*N), by explicit construction.

    The hypotheses are checked first, and a violated one raises
    PreconditionError naming it, keeping precondition failures distinct
    from a failure of the identity itself.
    """
    nk = subgroup_closure(ctx, n.generators + k.generators)
    require_hypotheses(
        ctx,
        n,
        ("Hp", hp.generators, "H", h),
        ("intersection(H, K)", subgroup_intersection(h, k), "Hp", hp),
        ("intersection(H, N*K)", subgroup_intersection(h, nk), "Hp", hp),
    )
    hpk = brute_force_product(ctx, hp, k)
    return hpk == brute_force_product(ctx, h, k) & brute_force_product(ctx, hpk, n)


def check_cor_identity(ctx, h, k, hp, kp, *, enforce: bool = True) -> bool:
    """Set identity (Hp*K) intersect (H*Kp) == Hp*Kp, by explicit construction."""
    if enforce:
        hck = subgroup_intersection(h, k)
        require_hypotheses(
            ctx,
            None,
            ("Hp", hp.generators, "H", h),
            ("Kp", kp.generators, "K", k),
            ("intersection(H, K)", hck, "Hp", hp),
            ("intersection(H, K)", hck, "Kp", kp),
        )
    return brute_force_product(ctx, hp, k) & brute_force_product(ctx, h, kp) == brute_force_product(ctx, hp, kp)


def hi_exclusion_check(ctx, h, k, hp, n) -> bool:
    """Whether every non-identity transversal element of Hp in H stays outside Hp*K*N.

    Equivalent to the containment of H meet K*N in Hp; a transversal
    element inside Hp*K*N witnesses its failure.
    """
    hck = subgroup_intersection(h, k)
    require_hypotheses(ctx, n, ("Hp", hp.generators, "H", h), ("intersection(H, K)", hck, "Hp", hp))
    kn = subgroup_closure(ctx, k.generators + n.generators)
    return not any(product_member(ctx, x, hp, kn) for x in coset_reps(ctx, h, hp)[1:])


# ---------------------------------------------------------------------------
# the flagship example's determinant criterion and ambient multiplication


def hk_member_sd(x: SdElement) -> bool:
    """Determinant criterion for membership of a quotient element in HK's image.

    (a, h) lies in the image of HK exactly when a + h has determinant 1:
    the products (u - uv, uv) sweep exactly those pairs.  Only valid in
    plain congruence quotients; with a coset action attached the criterion
    is necessary but no longer sufficient.
    """
    assert x.sigma is None
    return (x.a + x.h).det() == 1 % x.a.m


def gs_hk_member(g: GroupWord, m: int) -> bool:
    """Whether the level-m image of ``g`` lies in the image of HK."""
    return hk_member_sd(project(g, QuotientSpec.make(m)))


def gw_mul(x: GroupWord, y: GroupWord) -> GroupWord:
    return GroupWord(x.a + word_eval(x.w) * y.a, x.w * y.w)


def gw_inv(x: GroupWord) -> GroupWord:
    hinv = word_eval(x.w).inv_det1()
    return GroupWord(-(hinv * x.a), x.w.inverse())


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


# ---------------------------------------------------------------------------
# generic Schreier machinery over any action (independent of the permutation
# walks in ``cosetope.modular`` and of the kernel listing in
# ``cosetope.profinite``)


def schreier_transversal(start, act, letters, cap=None):
    """BFS transversal words over ``letters``; act(point, letter) -> point.

    Returns (words, order): a dict point -> word (tuple of letters, applied
    left to right) and the list of points in discovery order.  The walk
    raises BudgetError once it reaches more than ``cap`` points.
    """
    words = {start: ()}
    order = [start]
    qi = 0
    while qi < len(order):
        p = order[qi]
        qi += 1
        for letter in letters:
            q = act(p, letter)
            if q not in words:
                words[q] = words[p] + (letter,)
                order.append(q)
                if cap is not None and len(order) > cap:
                    raise BudgetError(f"closure budget exceeded: Schreier walk passed {cap} points (closure_cap)")
    return words, order


def _free_reduce(seq) -> tuple:
    out = []
    for letter in seq:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def _invert(word) -> tuple:
    return tuple(-l for l in reversed(word))


def schreier_generator_words(start, act, letters, cap=None):
    """Schreier generator words for the stabilizer of ``start``.

    ``letters`` lists each generator letter before its inverse (letter -l);
    only the positive letters produce generators.  Words that freely reduce
    to nothing and repeats are dropped.
    """
    words, order = schreier_transversal(start, act, letters, cap)
    out = []
    seen = set()
    for p in order:
        for letter in letters[::2]:
            gen = _free_reduce(words[p] + (letter,) + _invert(words[act(p, letter)]))
            if gen and gen not in seen:
                seen.add(gen)
                out.append(gen)
    return out


def _rep_action(rep: PermRep):
    ti = perm_inv(rep.perm_t)

    def act(p, letter):
        if letter in (S_, -S_):
            return rep.perm_s[p]
        return rep.perm_t[p] if letter == T_ else ti[p]

    return act


def oracle_transversal_words(rep: PermRep) -> dict:
    """``schreier_transversal_words`` by the generic walk over S, S^-1, T, T^-1."""
    return schreier_transversal(0, _rep_action(rep), (S_, -S_, T_, -T_))[0]


def oracle_subgroup_generators(rep: PermRep) -> list:
    """``subgroup_generators`` by the generic Schreier generator words."""
    return [ModularWord(w) for w in schreier_generator_words(0, _rep_action(rep), (S_, -S_, T_, -T_))]


def schreier_kernel(fine: QuotientSpec, coarse: QuotientSpec, budgets=None):
    """The refinement kernel as the closure of its Schreier generators.

    The generators are read off the action of the fine generators on the
    whole coarse quotient, which the walk visits element by element; its
    order, when known, is checked against the closure cap first.
    """
    budgets = active_budgets(budgets)
    coarse_order = spec_group_order(coarse)
    if coarse_order is not None:
        check_closure_cap(coarse_order, budgets, f"the Schreier walk over the quotient mod {coarse.m}")
    fctx = quotient_context(fine)
    restrict = element_restriction(fine, coarse)
    coarse_gens = [restrict(g) for g in fctx.generators]

    def letter_element(gens, letter):
        g = gens[abs(letter) - 1]
        return g if letter > 0 else sd_inv(g)

    def act(point, letter):
        return sd_mul(point, letter_element(coarse_gens, letter))

    letters = tuple(l for i in range(len(coarse_gens)) for l in (i + 1, -(i + 1)))
    words = schreier_generator_words(quotient_context(coarse).identity, act, letters, budgets.closure_cap)
    kernel_gens = []
    for word in words:
        x = fctx.identity
        for letter in word:
            x = sd_mul(x, letter_element(fctx.generators, letter))
        kernel_gens.append(x)
    return subgroup_closure(fctx, kernel_gens, budgets)


# ---------------------------------------------------------------------------
# entrywise matrix and semidirect arithmetic, through the NamedTuple
# constructors: an oracle for the unpacked arithmetic of arith and groupcore


def _oracle_same(x: Mat2, y: Mat2) -> None:
    if x.m != y.m:
        raise ModulusMismatch(f"cannot combine moduli {x.m} and {y.m}")


def oracle_mat_mul(x: Mat2, y: Mat2) -> Mat2:
    _oracle_same(x, y)
    a = x.a * y.a + x.b * y.c
    b = x.a * y.b + x.b * y.d
    c = x.c * y.a + x.d * y.c
    d = x.c * y.b + x.d * y.d
    m = x.m
    if m is None:
        return Mat2(a, b, c, d, None)
    return Mat2(a % m, b % m, c % m, d % m, m)


def oracle_mat_add(x: Mat2, y: Mat2) -> Mat2:
    _oracle_same(x, y)
    m = x.m
    if m is None:
        return Mat2(x.a + y.a, x.b + y.b, x.c + y.c, x.d + y.d, None)
    return Mat2((x.a + y.a) % m, (x.b + y.b) % m, (x.c + y.c) % m, (x.d + y.d) % m, m)


def oracle_mat_neg(x: Mat2) -> Mat2:
    m = x.m
    if m is None:
        return Mat2(-x.a, -x.b, -x.c, -x.d, None)
    return Mat2(-x.a % m, -x.b % m, -x.c % m, -x.d % m, m)


def oracle_mat_sub(x: Mat2, y: Mat2) -> Mat2:
    return oracle_mat_add(x, oracle_mat_neg(y))


def oracle_inv_det1(x: Mat2) -> Mat2:
    m = x.m
    if m is None:
        return Mat2(x.d, -x.b, -x.c, x.a, None)
    return Mat2(x.d, -x.b % m, -x.c % m, x.a, m)


def oracle_sd_mul(x: SdElement, y: SdElement) -> SdElement:
    if (x.sigma is None) != (y.sigma is None):
        raise ValidationError("cannot combine elements with and without a permutation part")
    sigma = None if x.sigma is None else perm_mul(x.sigma, y.sigma)
    return SdElement(oracle_mat_add(x.a, oracle_mat_mul(x.h, y.a)), oracle_mat_mul(x.h, y.h), sigma)
