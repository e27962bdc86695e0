"""Shared test helpers: small contexts, subgroup pools, instance generators,
and independent brute-force oracles."""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from collections import Counter
from typing import NamedTuple

import cosetope.groupcore
import cosetope.modular
from cosetope.arith import MAT_S, MAT_T, Mat2, sl2_group_order
from cosetope.budgets import Budgets
from cosetope.errors import BudgetError, ValidationError, shown
from cosetope.groupcore import (
    GeneratedSubgroup,
    GroupContext,
    SdElement,
    check_closure_cap,
    perm_inv,
    perm_mul,
    product_member,
    sd_inv,
    sd_mul,
    subgroup_closure,
    subgroup_from_elements,
    subgroup_intersection,
    sl2_context,
)
from cosetope.gs import _h_prime_image_mod
from cosetope.modular import (
    ModularWord,
    PermRep,
    _restandardize,
    perm_identity,
    psl2_canon,
    psl2_context,
    rep_level,
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


# The oracles below spell a word as a tuple of integer letters, 1 = S and
# 2 = T with negation for inverses, independent of ``ModularWord``'s string,
# and translate it by ``as_chars`` only where they hand a word to the package.
S_, T_ = 1, 2
_CHARS = {S_: "S", -S_: "s", T_: "T", -T_: "t"}


def as_chars(word) -> str:
    """A word of integer letters written over S, s, T and t."""
    return "".join(_CHARS[letter] for letter in word)


def random_letters(rng: random.Random, max_len: int = 30, min_len: int = 0) -> tuple:
    """min_len <= n < max_len integer letters drawn from S, S^-1, T, T^-1, not reduced."""
    return tuple(rng.choice((S_, -S_, T_, -T_)) for _ in range(rng.randrange(min_len, max_len)))


def random_word(rng: random.Random, max_len: int = 30, min_len: int = 0) -> ModularWord:
    """A freely reduced random word: ``random_letters`` reduced by the
    oracle's own ``free_reduce``, then written as a ``ModularWord``."""
    return ModularWord(as_chars(free_reduce(random_letters(rng, max_len, min_len))))


def enumerate_group(ctx: GroupContext, budgets: Budgets = Budgets()) -> GeneratedSubgroup:
    """Every element of the group of ``ctx``, as the closure of its generators."""
    return subgroup_closure(ctx, ctx.generators, budgets)


def inverse_step_closure(ctx: GroupContext, gens) -> GeneratedSubgroup:
    """Breadth-first closure of ``gens`` under multiplication by each
    generator and by its inverse: ``subgroup_closure`` as it was before it
    dropped the inverse steps, kept as its oracle.  The same set, listed in
    another order."""
    gens = tuple(gens)
    step = []
    for g in gens:
        if g not in step:
            step.append(g)
        gi = ctx.inv(g)
        if gi not in step:
            step.append(gi)
    members = {ctx.identity}
    order = [ctx.identity]
    for x in order:
        for g in step:
            y = ctx.mul(x, g)
            if y not in members:
                members.add(y)
                order.append(y)
    return GeneratedSubgroup(gens, tuple(order), frozenset(members))


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
    full = enumerate_group(ctx)
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


class PreconditionError(Exception):
    """A hypothesis of one of these checks fails for the given data."""


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


def count_closures(monkeypatch) -> Counter:
    """Count the subgroup closures run anywhere in the package, keyed by
    (context name, generators): every module that binds the closure is patched."""
    calls = Counter()
    real = cosetope.groupcore.subgroup_closure

    def counting(ctx, gens, budgets=Budgets()):
        gens = tuple(gens)
        calls[ctx.name, gens] += 1
        return real(ctx, gens, budgets)

    for name, module in list(sys.modules.items()):
        if name.startswith("cosetope.") and getattr(module, "subgroup_closure", None) is real:
            monkeypatch.setattr(module, "subgroup_closure", counting)
    return calls


class Walk(NamedTuple):
    """One ``modular._gamma_walk`` started: the name of the function that
    started it, its rep and level, its ``seen`` dict, and the steps it has
    yielded so far."""

    caller: str
    rep: PermRep
    n: int
    seen: dict
    steps: list


def spy_walks(monkeypatch) -> list:
    """Record a ``Walk`` for every ``modular._gamma_walk`` started, in order.

    The walk is recorded when it is called, before its first step checks
    the closure cap, and each step when the caller takes it."""
    walks = []
    real = cosetope.modular._gamma_walk

    def spy(rep, n, budgets, seen=None):
        walk = Walk(sys._getframe(1).f_code.co_name, rep, n, {} if seen is None else seen, [])
        walks.append(walk)

        def steps():
            for step in real(rep, n, budgets, walk.seen):
                walk.steps.append(step)
                yield step

        return steps()

    monkeypatch.setattr(cosetope.modular, "_gamma_walk", spy)
    return walks


# ---------------------------------------------------------------------------
# the relator-deduction coset-table search that preceded modular._actions


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


def oracle_low_index_reps(d_max: int, *, classes: bool = True) -> list:
    """``low_index_reps`` as it was built from ``_complete_tables``' (s, t) tables."""
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
# the flagship example's images of H and K, listed level by level, and their
# intersection: the oracle of the closed-form intersection table of gs-demo


class GsInstance(NamedTuple):
    """One finite level of the example: images of H and K and the conjugator."""

    spec: QuotientSpec
    ctx: GroupContext
    im_h: GeneratedSubgroup
    im_k: GeneratedSubgroup
    i_elt: SdElement


def gs_build(spec: QuotientSpec, budgets: Budgets = Budgets()) -> GsInstance:
    """Images of H and of K = i H i^-1 in the plain quotient of ``spec``.

    H's image, all of SL2(Z/m), is walked over entry tuples in the order of
    ``subgroup_closure``; K's is its elementwise conjugate, each (I - h, h).
    """
    if spec.rep is not None:
        raise ValidationError("gs_build takes a quotient without a coset action")
    m = spec.m
    check_closure_cap(sl2_group_order(m), budgets, f"the image of H mod {m}")
    order = [(1, 0, 0, 1)]
    members = set(order)
    for a, b, c, d in order:
        for y in (
            (b, -a % m, d, -c % m),
            (a, (a + b) % m, c, (c + d) % m),
        ):
            if y not in members:
                members.add(y)
                order.append(y)
    ctx, i_elt = quotient_context(spec), SdElement(Mat2.identity(m), Mat2.identity(m), None)
    conj = lambda u: SdElement(i_elt.a - u.h, u.h, None)  # i u i^-1 for u = (0, h)
    h_gens, h_elements = ctx.generators[4:6], tuple(SdElement(ctx.identity.a, Mat2(*h, m), None) for h in order)
    k_elements = tuple(map(conj, h_elements))
    im_h = GeneratedSubgroup(h_gens, h_elements, frozenset(h_elements))
    im_k = GeneratedSubgroup(tuple(map(conj, h_gens)), k_elements, frozenset(k_elements))
    return GsInstance(spec, ctx, im_h, im_k, i_elt)


def gs_intersection(instance: GsInstance) -> GeneratedSubgroup:
    """image(H) meet image(K); trivial at every level, because the additive
    part of a common element forces its h part to be the identity."""
    return subgroup_intersection(instance.im_h, instance.im_k)


def evidence_cross_check(rep: PermRep, m: int, g: GroupWord, budgets: Budgets = Budgets()) -> bool:
    """Whether the image of ``g`` lies in image(H')·image(K) in the plain
    level-m quotient, by listing: image(H') as the pairs (0, u), u over the
    sign-saturated image of ``rep``'s subgroup, and image(K) from
    ``gs_build``.  The oracle of the ``member`` of each transcript entry of
    ``gs.gs_wz_failure``, which reads blocks only."""
    spec = QuotientSpec.make(m)
    instance = gs_build(spec, budgets)
    image = _h_prime_image_mod(rep, m, budgets)
    im_hp = subgroup_from_elements(SdElement(Mat2.zero(m), u, None) for u in image.elements)
    return product_member(instance.ctx, project(g, spec), im_hp, instance.im_k)


# ---------------------------------------------------------------------------
# the coset-carrying walk over Mat2, with each word built as its matrix is
# reached, the image of Gamma(n) by the walk over all of PSL2(Z/n), and the
# flagship example's images by closure and conjugation: the oracles of the
# entry-tuple walks in ``cosetope.modular`` and ``gs_build``


def oracle_gamma_walk(rep: PermRep, n: int, seen=None):
    """``modular._gamma_walk`` over Mat2: each step a product with the
    generator, canonicalized by ``psl2_canon``, and each matrix's word kept
    in ``seen`` with its point.  Yields (q, p, word) for every closing S or
    T edge in walk order."""
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
            elif letter > 0:
                yield q, known[0], ModularWord(as_chars(free_reduce(word + (letter,) + _invert(known[1]))))


def oracle_gamma_image_order(rep: PermRep, n: int, budgets: Budgets = Budgets()) -> int:
    """|sigma(Gamma(n))| by the walk over all of PSL2(Z/n), not over the
    gcd of n with the level: the closure of the coset permutations of every
    Schreier generator the walk closes, each added when the closure so far
    misses it, as ``modular.gamma_image_order`` once computed it."""
    seen: dict = {}
    ctx = GroupContext(perm_identity(rep.degree), perm_mul, perm_inv, name=f"walk-at-n image of Gamma({n})")
    image = subgroup_closure(ctx, (), budgets)
    for _, _, edge in cosetope.modular._gamma_walk(rep, n, budgets, seen):
        sigma = rep.word_perm(cosetope.modular._edge_word(seen, edge))
        if sigma not in image:
            image = subgroup_closure(ctx, image.generators + (sigma,), budgets)
    return len(image)


def oracle_gs_images(m: int) -> tuple:
    """The images of H and K in the plain level-m quotient, as ordered element
    tuples: H by the closure of the images of S and T, K as i H i^-1 by
    ``sd_mul`` element by element."""
    ctx = quotient_context(QuotientSpec.make(m))
    im_h = subgroup_closure(ctx, ctx.generators[4:6])
    i_elt = SdElement(Mat2.identity(m), Mat2.identity(m), None)
    i_inv = sd_inv(i_elt)
    return im_h.elements, tuple(sd_mul(sd_mul(i_elt, u), i_inv) for u in im_h.elements)


# ---------------------------------------------------------------------------
# the principal congruence subgroups through the regular action of PSL2(Z/m)
# (independent of the coset-carrying walk in ``cosetope.modular``)


@functools.lru_cache(maxsize=None)
def _psl2_regular(m: int):
    """Right-multiplication action arrays of S and T on the projective group."""
    ctx = psl2_context(m)
    full = enumerate_group(ctx)
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


def hsu_odd_level_congruence(rep: PermRep) -> bool:
    """Hsu's relator test, for a subgroup of odd level N > 1 (T. Hsu,
    "Identifying congruence subgroups of the modular group", Proc. AMS 124,
    1996): with L = T, R = S t S^-1 and 2k = 1 mod N, the subgroup is
    congruence exactly when (L^2 R^-k)^3 acts trivially on its cosets.
    R^-k is S T^k S^-1, and the level reads no walk, so the test is
    independent of ``is_congruence``.
    """
    level = rep_level(rep)
    if level < 2 or level % 2 == 0:
        raise ValueError(f"the odd-level test needs an odd level above 1, got {level}")
    k = (level + 1) // 2
    word = ModularWord.from_str(("TTS" + "T" * k + "s") * 3)
    return rep.word_perm(word) == perm_identity(rep.degree)


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
# walks in ``cosetope.modular`` and of ``kernel_listing`` below)


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


def free_reduce(seq) -> tuple:
    """Cancel each integer letter against its negative next to it, repeatedly."""
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
            gen = free_reduce(words[p] + (letter,) + _invert(words[act(p, letter)]))
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
    """The ``tree_word`` of each point of ``discovery_tree``, by the generic
    walk over S, S^-1, T, T^-1."""
    words = schreier_transversal(0, _rep_action(rep), (S_, -S_, T_, -T_))[0]
    return {q: as_chars(w) for q, w in words.items()}


def oracle_subgroup_generators(rep: PermRep) -> list:
    """``subgroup_generators`` by the generic Schreier generator words."""
    return [ModularWord(as_chars(w)) for w in schreier_generator_words(0, _rep_action(rep), (S_, -S_, T_, -T_))]


def schreier_kernel(fine: QuotientSpec, coarse: QuotientSpec, budgets: Budgets = Budgets()):
    """The refinement kernel as the closure of its Schreier generators.

    The generators are read off the action of the fine generators on the
    whole coarse quotient, which the walk visits element by element; its
    order is checked against the closure cap first.
    """
    check_closure_cap(spec_group_order(coarse, budgets), budgets, f"the Schreier walk over the quotient mod {coarse.m}")
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
# quotient orders by closure, as ``quotient`` counted a coset-action quotient
# before ``spec_group_order`` gave every order in closed form


def quotient_closure_order(spec: QuotientSpec, budgets: Budgets = Budgets()) -> int:
    """The number of elements of the quotient of ``spec``, listed by closure."""
    return len(enumerate_group(quotient_context(spec), budgets))


def linear_closure_order(spec: QuotientSpec, budgets: Budgets = Budgets()) -> int:
    """|L|, the closure of the images of S and T in the quotient of ``spec``."""
    ctx = quotient_context(spec)
    return len(subgroup_closure(ctx, ctx.generators[4:], budgets))


# ---------------------------------------------------------------------------
# the refinement kernel listed element by element, as it was computed before
# ``kernel_of_refinement`` gave its order in closed form


def kernel_listing(fine: QuotientSpec, coarse: QuotientSpec, budgets: Budgets = Budgets()) -> GeneratedSubgroup:
    """Every element of ker(fine -> coarse), identity first."""
    if fine == coarse:
        return subgroup_from_elements((quotient_context(fine).identity,))
    if fine.rep is None:
        return _congruence_kernel(fine.m, coarse.m, budgets)
    return _coset_action_kernel(fine, coarse, budgets)


def _multiples(f: int, c: int):
    """The entries (w, x, y, z) of each 2x2 matrix mod f that is 0 mod c, in lexicographic order."""
    return itertools.product(range(0, f, c), repeat=4)


def _kernel_product(f: int, c: int, linear, size: int, budgets: Budgets) -> GeneratedSubgroup:
    """Every (a, h, sigma) with a = 0 mod c and (h, sigma) in ``linear``.

    ``linear`` holds ``size`` pairs, the identity first, and runs outermost,
    so the kernel lists the identity first.  The closure cap is checked on
    the order (f/c)^4 * ``size`` before any element is built.
    """
    check_closure_cap((f // c) ** 4 * size, budgets, f"refinement kernel {f} -> {c}")
    additive = [Mat2(w, x, y, z, f) for w, x, y, z in _multiples(f, c)]
    return subgroup_from_elements(SdElement(a, h, sigma) for h, sigma in linear for a in additive)


def _congruence_kernel(f: int, c: int, budgets: Budgets) -> GeneratedSubgroup:
    """ker(M2(Z/f) x| SL2(Z/f) -> M2(Z/c) x| SL2(Z/c)) for c dividing f.

    Reduction of SL2 is onto, so |SL2(Z/f)| / |SL2(Z/c)| matrices h are
    I mod c; they are listed only once the cap has passed.
    """
    # 1 + w < f because c >= 2, so these entries are already canonical
    congruent = (Mat2(1 + w, x, y, 1 + z, f) for w, x, y, z in _multiples(f, c))
    linear = ((h, None) for h in congruent if h.det() == 1)
    return _kernel_product(f, c, linear, sl2_group_order(f) // sl2_group_order(c), budgets)


def _coset_action_kernel(fine: QuotientSpec, coarse: QuotientSpec, budgets: Budgets) -> GeneratedSubgroup:
    """The refinement kernel when the fine quotient carries a coset action.

    The closure of L, the images of S and T, runs under the closure cap;
    the elements that restrict to the coarse identity are its linear part.
    """
    fctx = quotient_context(fine)
    restrict = element_restriction(fine, coarse)
    cid = quotient_context(coarse).identity
    linear = [(x.h, x.sigma) for x in subgroup_closure(fctx, fctx.generators[4:], budgets) if restrict(x) == cid]
    return _kernel_product(fine.m, coarse.m, linear, len(linear), budgets)


# ---------------------------------------------------------------------------
# refinement and restriction as they were computed before they were read
# off the coset permutations: through Schreier generator words and a second
# walk over the points


def oracle_refined_by(coarse: QuotientSpec, fine: QuotientSpec) -> bool:
    """Whether ``element_restriction(fine, coarse)`` exists: the modulus
    divides and every Schreier generator word of the fine subgroup lies in
    the coarse one."""
    if fine.m % coarse.m != 0:
        return False
    if coarse.rep is None:
        return True
    if fine.rep is None:
        return coarse.rep.degree == 1
    return all(coarse.rep.word_perm(w)[0] == 0 for w in subgroup_generators(fine.rep))


def _coset_fibration(fine: PermRep, coarse: PermRep):
    """Point map fine -> coarse plus a section (one fine point per coarse point).

    The map sends 0 to 0 and commutes with S and T, so a walk over the fine
    points carries the coarse point along; fine refines coarse, so it is
    well defined.
    """
    pmap = [-1] * fine.degree
    pmap[0] = 0
    queue = [0]
    for p in queue:
        for perm, coarse_perm in ((fine.perm_s, coarse.perm_s), (fine.perm_t, coarse.perm_t)):
            if pmap[perm[p]] < 0:
                pmap[perm[p]] = coarse_perm[pmap[p]]
                queue.append(perm[p])
    section = [-1] * coarse.degree
    for p in range(fine.degree):
        if section[pmap[p]] < 0:
            section[pmap[p]] = p
    if any(v < 0 for v in section):
        raise ValidationError("coset fibration is not surjective; refinement is invalid")
    return tuple(pmap), tuple(section)


def oracle_element_restriction(fine: QuotientSpec, coarse: QuotientSpec):
    """``element_restriction`` through ``oracle_refined_by`` and ``_coset_fibration``:
    None when the fine spec does not refine the coarse one."""
    if not oracle_refined_by(coarse, fine):
        return None
    cm = coarse.m
    if coarse.rep is None or fine.rep is None:
        # a plain fine quotient refines a coset action only of degree 1
        sigma = None if coarse.rep is None else perm_identity(coarse.rep.degree)

        def restrict(x: SdElement) -> SdElement:
            return SdElement(x.a.reduce(cm), x.h.reduce(cm), sigma)

        return restrict
    pmap, section = _coset_fibration(fine.rep, coarse.rep)

    def restrict(x: SdElement) -> SdElement:
        sigma = tuple(pmap[x.sigma[j]] for j in section)
        return SdElement(x.a.reduce(cm), x.h.reduce(cm), sigma)

    return restrict


# ---------------------------------------------------------------------------
# entrywise matrix and semidirect arithmetic, through the NamedTuple
# constructors: an oracle for the unpacked arithmetic of arith and groupcore


def _oracle_same(x: Mat2, y: Mat2) -> None:
    if x.m != y.m:
        raise ValidationError(f"cannot combine moduli {shown(x.m)} and {shown(y.m)}")


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
