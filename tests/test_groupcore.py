import itertools
import random
from collections import Counter

import pytest

from cosetope.arith import MAT_S, Mat2
from cosetope.errors import BudgetError, ValidationError
from cosetope.groupcore import (
    GroupContext,
    SdElement,
    product_member,
    sd_inv,
    sd_mul,
    sl2_context,
    subgroup_closure,
    subgroup_intersection,
)
from cosetope.modular import ModularWord, gamma_image_order, low_index_reps, rep_level, word_eval
from cosetope.profinite import GroupWord, QuotientSpec, project, quotient_context, spec_group_order

from t_util import (
    PreconditionError,
    brute_force_product,
    check_cor_identity,
    check_prop_identity,
    congruence_rep,
    cor_instance,
    coset_reps,
    enumerate_group,
    is_normal_by_generators,
    normal_closure,
    prop_instance,
    random_word,
    s3_context,
    small_contexts,
    subgroup_pool,
)


def sd(a, h, m, sigma=None):
    return SdElement(a.reduce(m), h.reduce(m), sigma)


# ---------------------------------------------------------------------------
# semidirect arithmetic


def test_sd_mul_hand_example_mod_5():
    i5 = Mat2.identity()
    x = sd(i5, MAT_S, 5)
    y = sd(i5, Mat2.identity(), 5)
    product = sd_mul(x, y)
    # A-part is I + S = [[1,-1],[1,1]], i.e. [[1,4],[1,1]] mod 5
    assert product.a == Mat2.of_mod(1, 4, 1, 1, 5)
    assert product.h == MAT_S.reduce(5)


def test_sd_identity_is_neutral():
    rng = random.Random(11)
    ctx = quotient_context(QuotientSpec.make(3))
    full = enumerate_group(ctx)
    for _ in range(100):
        x = rng.choice(full.elements)
        assert sd_mul(ctx.identity, x) == x
        assert sd_mul(x, ctx.identity) == x


def test_sd_mul_cancellation_via_s_squared():
    # (I, S) * (S, S^-1) = (I + S^2, I) = (0, I)
    x = sd(Mat2.identity(), MAT_S, 7)
    y = sd(MAT_S, MAT_S.inv_det1(), 7)
    assert sd_mul(x, y) == sd(Mat2.zero(), Mat2.identity(), 7)


def test_sd_inv_examples():
    one = sd(Mat2.zero(), Mat2.identity(), 5)
    assert sd_inv(one) == one
    x = sd(Mat2.identity(), MAT_S, 5)
    assert sd_inv(x) == sd(MAT_S, MAT_S.inv_det1(), 5)
    assert sd_mul(x, sd_inv(x)) == one
    a_only = sd(Mat2.ambient(1, 2, 3, 4), Mat2.identity(), 5)
    assert sd_inv(a_only) == sd(-Mat2.ambient(1, 2, 3, 4), Mat2.identity(), 5)


def test_sd_mul_rejects_mixed_sigma():
    with pytest.raises(ValidationError):
        sd_mul(sd(Mat2.zero(), Mat2.identity(), 2), sd(Mat2.zero(), Mat2.identity(), 2, (0, 1, 2)))


@pytest.mark.parametrize(
    "spec",
    [
        QuotientSpec.make(2),
        QuotientSpec.make(3),
        QuotientSpec.make(2, congruence_rep(2)),
    ],
)
def test_group_axioms_random_triples(spec):
    rng = random.Random(spec.m * 101 + (0 if spec.rep is None else spec.rep.degree))
    ctx = quotient_context(spec)
    full = enumerate_group(ctx)
    elems = full.elements
    for _ in range(10_000):
        x, y, z = (rng.choice(elems) for _ in range(3))
        assert sd_mul(sd_mul(x, y), z) == sd_mul(x, sd_mul(y, z))
    for _ in range(2000):
        x = rng.choice(elems)
        assert sd_mul(x, sd_inv(x)) == ctx.identity
        assert sd_mul(sd_inv(x), x) == ctx.identity


# ---------------------------------------------------------------------------
# closures


def test_empty_generators_give_trivial_subgroup():
    ctx = sl2_context(5)
    sub = subgroup_closure(ctx, ())
    assert len(sub) == 1
    assert ctx.identity in sub


def test_closure_counts_against_exhaustive_enumeration():
    # independent oracle: count determinant-1 matrices entrywise
    for m, expected in ((2, None), (5, None)):
        count = 0
        for a, b, c, d in itertools.product(range(m), repeat=4):
            if (a * d - b * c) % m == 1:
                count += 1
        full = enumerate_group(sl2_context(m))
        assert len(full) == count
    assert len(enumerate_group(sl2_context(2))) == 6
    assert len(enumerate_group(sl2_context(5))) == 120


def test_closure_is_sound_and_contains_generators():
    for ctx in small_contexts():
        full = enumerate_group(ctx)
        if len(full) > 1000:
            continue
        members = full.as_set()
        for g in ctx.generators:
            assert g in full
        for x in list(members)[:40]:
            assert ctx.inv(x) in members
            for y in list(members)[:40]:
                assert ctx.mul(x, y) in members


def test_lagrange_for_generated_subgroups():
    rng = random.Random(12)
    for ctx in small_contexts():
        full, pool = subgroup_pool(ctx, rng, count=10)
        for sub in pool:
            assert len(full) % len(sub) == 0


def test_closure_budget_error_names_budget():
    ctx = sl2_context(5)
    with pytest.raises(BudgetError, match=r"more than 10 elements in SL2\(Z/5\) \(closure_cap\)"):
        subgroup_closure(ctx, ctx.generators, 10)


def test_closure_cap_admits_a_group_of_exactly_its_size():
    # SL2(Z/5) has 120 elements: a cap of 120 closes it, one of 119 does not
    ctx = sl2_context(5)
    assert len(subgroup_closure(ctx, ctx.generators, 120)) == 120
    with pytest.raises(BudgetError, match="more than 119 elements"):
        subgroup_closure(ctx, ctx.generators, 119)


def _counting(ctx: GroupContext):
    """``ctx`` with every multiplication and inversion counted."""
    counts = Counter()

    def mul(x, y):
        counts["mul"] += 1
        return ctx.mul(x, y)

    def inv(x):
        counts["inv"] += 1
        return ctx.inv(x)

    return GroupContext(ctx.identity, mul, inv, ctx.generators, ctx.name), counts


def test_closure_and_product_member_pin_their_work():
    # the closure multiplies each of the 24 elements by S and by T, and
    # inverts nothing; product_member inverts at most g
    ctx, counts = _counting(sl2_context(3))
    full = subgroup_closure(ctx, ctx.generators)
    assert len(full) == 24 and counts == {"mul": 48}
    rng = random.Random(21)
    _, pool = subgroup_pool(ctx, rng, count=10)
    for _ in range(200):
        u, v, g = rng.choice(pool), rng.choice(pool), rng.choice(full.elements)
        counts.clear()
        product_member(ctx, g, u, v)
        assert counts["inv"] == (len(v) < len(u)) and counts["mul"] <= min(len(u), len(v))


# ---------------------------------------------------------------------------
# intersections and double-coset membership


def test_intersection_with_self_and_trivial():
    ctx = sl2_context(3)
    full = enumerate_group(ctx)
    sub = subgroup_closure(ctx, (ctx.generators[0],))
    assert subgroup_intersection(sub, sub).as_set() == sub.as_set()
    trivial = subgroup_closure(ctx, ())
    assert len(subgroup_intersection(full, trivial)) == 1


def test_intersection_matches_brute_force_filter():
    rng = random.Random(13)
    for ctx in small_contexts():
        full, pool = subgroup_pool(ctx, rng, count=8)
        for _ in range(12):
            u = rng.choice(pool)
            v = rng.choice(pool)
            mine = subgroup_intersection(u, v).as_set()
            brute = frozenset(x for x in full.elements if x in u and x in v)
            assert mine == brute


def test_intersection_of_equal_sizes_lists_the_left_closure_order():
    # intersect records its elements in this order, so a tie scans the left
    ctx = sl2_context(3)
    s, t = ctx.generators
    u, v = subgroup_closure(ctx, (s, t)), subgroup_closure(ctx, (t, s))
    assert u.as_set() == v.as_set() and u.elements != v.elements
    assert subgroup_intersection(u, v).elements == u.elements
    assert subgroup_intersection(v, u).elements == v.elements


def test_product_member_trivial_cases():
    ctx = sl2_context(3)
    full = enumerate_group(ctx)
    trivial = subgroup_closure(ctx, ())
    sub = subgroup_closure(ctx, (ctx.generators[0],))
    rng = random.Random(14)
    assert brute_force_product(ctx, trivial.elements, trivial.elements) == frozenset({ctx.identity})
    for _ in range(50):
        g = rng.choice(full.elements)
        assert product_member(ctx, ctx.identity, sub, sub)
        # V trivial: membership in UV is membership in U
        assert product_member(ctx, g, sub, trivial) == (g in sub)


def _level_3_rep_pool(rng: random.Random, count: int = 10, max_size: int = 60):
    """The (2, rep) quotient of the degree-3 class of level 3, whose
    sigma(Gamma(2)) is its whole action of order 3, listed, with a pool of
    subgroups generated by random projected elements."""
    rep = next(r for r in low_index_reps(3) if r.degree == 3 and rep_level(r) == 3)
    spec = QuotientSpec.make(2, rep)
    ctx = quotient_context(spec)
    assert gamma_image_order(rep, 2) == 3 and spec_group_order(spec) == 288

    def draw():
        return project(GroupWord(Mat2.ambient(*(rng.randrange(-3, 4) for _ in range(4))), random_word(rng, 8)), spec)

    pool = [subgroup_closure(ctx, ())]
    while len(pool) < count:
        sub = subgroup_closure(ctx, [draw() for _ in range(rng.choice((1, 1, 2)))])
        if len(sub) <= max_size and all(sub.as_set() != p.as_set() for p in pool):
            pool.append(sub)
    return ctx, enumerate_group(ctx), pool


def test_product_member_agrees_with_set_oracle():
    # SL2(Z/3), and a quotient whose elements can differ in sigma alone
    rng = random.Random(15)
    sl2 = sl2_context(3)
    for ctx, full, pool in ((sl2, *subgroup_pool(sl2, rng, count=10)), _level_3_rep_pool(rng)):
        products = {}
        for _ in range(1000):
            u = rng.choice(pool)
            v = rng.choice(pool)
            if (u, v) not in products:
                products[u, v] = brute_force_product(ctx, u.elements, v.elements)
            g = rng.choice(full.elements)
            assert product_member(ctx, g, u, v) == (g in products[u, v])


def test_two_reflections_in_s3_product_has_size_4():
    ctx = s3_context()
    u = subgroup_closure(ctx, ((1, 0, 2),))
    v = subgroup_closure(ctx, ((2, 1, 0),))
    assert len(u) == len(v) == 2
    assert len(brute_force_product(ctx, u.elements, v.elements)) == 4


def test_product_commutes_iff_product_is_subgroup():
    rng = random.Random(16)
    ctx = sl2_context(3)
    full, pool = subgroup_pool(ctx, rng, count=10)
    for _ in range(40):
        u = rng.choice(pool)
        v = rng.choice(pool)
        uv = brute_force_product(ctx, u.elements, v.elements)
        vu = brute_force_product(ctx, v.elements, u.elements)
        closed = all(ctx.mul(x, y) in uv for x in uv for y in uv) if len(uv) <= 60 else None
        if closed is None:
            continue
        assert (uv == vu) == closed


# ---------------------------------------------------------------------------
# coset transversals


def test_coset_reps_whole_subgroup():
    ctx = sl2_context(2)
    full = enumerate_group(ctx)
    assert coset_reps(ctx, full, full) == (ctx.identity,)


def test_coset_reps_index_two_in_order_six():
    ctx = sl2_context(2)
    full = enumerate_group(ctx)
    st = ctx.mul(ctx.generators[0], ctx.generators[1])
    sub = subgroup_closure(ctx, (st,))
    assert len(sub) == 3
    reps = coset_reps(ctx, full, sub)
    assert len(reps) == 2
    assert reps[0] == ctx.identity


def test_coset_reps_for_level_two_congruence_words():
    # words for -I, T^2 and the conjugate lower-triangular translate
    gens = [ModularWord.from_str("SS"), ModularWord.from_str("TT"), ModularWord.from_str("Stts")]
    assert word_eval(gens[2]) == Mat2.ambient(1, 0, 2, 1)
    ctx = sl2_context(2)
    full = enumerate_group(ctx)
    images = [word_eval(w).reduce(2) for w in gens]
    sub = subgroup_closure(ctx, images)
    reps = coset_reps(ctx, full, sub)
    assert len(reps) == len(full) // len(sub) == 6
    # disjoint cover by explicit union
    cosets = [frozenset(ctx.mul(p, r) for p in sub.elements) for r in reps]
    union = set().union(*cosets)
    assert len(union) == len(full)
    assert sum(len(c) for c in cosets) == len(full)


def test_coset_reps_rejects_non_subgroup():
    ctx = sl2_context(3)
    sub = subgroup_closure(ctx, (ctx.generators[0],))
    other = subgroup_closure(ctx, (ctx.generators[1],))
    if not all(g in sub for g in other.generators):
        with pytest.raises(PreconditionError):
            coset_reps(ctx, sub, other)


# ---------------------------------------------------------------------------
# normality helpers


def test_normal_closure_is_normal():
    rng = random.Random(17)
    for ctx in (sl2_context(3), s3_context()):
        full = enumerate_group(ctx)
        for _ in range(5):
            n = normal_closure(ctx, [rng.choice(full.elements)])
            assert is_normal_by_generators(ctx, n)


def test_non_normal_subgroup_detected():
    ctx = sl2_context(3)
    sub = subgroup_closure(ctx, (MAT_S.reduce(3),))
    assert len(sub) == 4
    assert not is_normal_by_generators(ctx, sub)


# ---------------------------------------------------------------------------
# product-set identity checks


def test_prop_identity_trivial_case():
    ctx = sl2_context(3)
    full = enumerate_group(ctx)
    trivial = subgroup_closure(ctx, ())
    sub = subgroup_closure(ctx, (ctx.generators[0],))
    # Hp = H, N = 1: HK = HK intersect HK
    assert check_prop_identity(ctx, full, sub, full, trivial)


def test_prop_identity_random_instances_always_true():
    rng = random.Random(18)
    for ctx in small_contexts():
        full, pool = subgroup_pool(ctx, rng, count=8)
        done = 0
        while done < 8:
            inst = prop_instance(ctx, full, pool, rng)
            if inst is None:
                break
            h, k, hp, n = inst
            assert check_prop_identity(ctx, h, k, hp, n)
            done += 1


def test_prop_identity_reports_which_precondition_failed():
    ctx = s3_context()
    full = enumerate_group(ctx)
    trivial = subgroup_closure(ctx, ())
    reflection = subgroup_closure(ctx, ((1, 0, 2),))
    # H = K = S3 but Hp a proper subgroup: intersection(H, K) not inside Hp
    with pytest.raises(PreconditionError, match="intersection"):
        check_prop_identity(ctx, full, full, reflection, trivial)
    with pytest.raises(PreconditionError, match="normal"):
        check_prop_identity(ctx, full, trivial, full, reflection)


def test_cor_identity_trivial_case():
    ctx = sl2_context(3)
    full = enumerate_group(ctx)
    sub = subgroup_closure(ctx, (ctx.generators[0],))
    assert check_cor_identity(ctx, full, sub, full, sub)


def test_cor_identity_random_instances_always_true():
    rng = random.Random(19)
    for ctx in small_contexts():
        full, pool = subgroup_pool(ctx, rng, count=8)
        done = 0
        while done < 8:
            inst = cor_instance(ctx, full, pool, rng)
            if inst is None:
                break
            h, k, hp, kp = inst
            assert check_cor_identity(ctx, h, k, hp, kp)
            done += 1


def test_cor_identity_fails_without_intersection_hypothesis():
    # H = K = S3 with Hp, Kp two distinct reflections: the identity breaks
    ctx = s3_context()
    full = enumerate_group(ctx)
    hp = subgroup_closure(ctx, ((1, 0, 2),))
    kp = subgroup_closure(ctx, ((2, 1, 0),))
    assert not check_cor_identity(ctx, full, full, hp, kp, enforce=False)


def test_cor_identity_one_sided_hypothesis_suffices():
    # only intersection(H, K) inside Kp is enforced; the identity still holds
    rng = random.Random(20)
    ctx = sl2_context(3)
    full, pool = subgroup_pool(ctx, rng, count=8)
    checked = 0
    while checked < 20:
        h = rng.choice(pool)
        k = rng.choice(pool)
        if len(h) * len(k) > 4000:
            continue
        meet = subgroup_intersection(h, k)
        kp = subgroup_closure(ctx, tuple(meet.elements) + (rng.choice(k.elements),))
        hp = rng.choice([p for p in pool if all(g in h for g in p.generators)] or [h])
        assert check_cor_identity(ctx, h, k, hp, kp, enforce=False)
        checked += 1
