import random
from collections import Counter

import pytest

from cosetope.arith import Mat2
from cosetope.errors import BudgetError, ValidationError
from cosetope.groupcore import (
    SdElement,
    product_member,
    sd_inv,
    sd_mul,
    sl2_context,
    subgroup_closure,
    subgroup_from_elements,
)
from cosetope.gs import _h_prime_image_mod, gs_hk_witness, gs_wz_failure, h_prime_group_words
from cosetope.modular import (
    ONE_POINT,
    ModularWord,
    image_blocks,
    is_congruence,
    low_index_reps,
    rep_level,
    subgroup_generators,
    word_eval,
)
from cosetope.profinite import GroupWord, QuotientSpec, image_subgroup, project, quotient_context

from t_util import (
    brute_force_product,
    congruence_rep,
    count_closures,
    enumerate_group,
    evidence_cross_check,
    gs_build,
    gs_hk_member,
    gs_intersection,
    hk_member_sd,
    oracle_gs_images,
    random_word,
    spy_walks,
)


def minimal_noncongruence():
    return next(r for r in low_index_reps(7) if not is_congruence(r))


def random_groupword(rng, max_len=8, bound=4):
    a = Mat2.ambient(*(rng.randrange(-bound, bound + 1) for _ in range(4)))
    w = random_word(rng, max_len)
    return GroupWord(a, w)


# ---------------------------------------------------------------------------
# instance construction


def test_build_sizes_at_level_two():
    inst = gs_build(QuotientSpec.make(2))
    assert len(inst.im_h) == 6
    assert len(inst.im_k) == 6


def test_conjugate_image_has_offset_form():
    for m in (2, 3):
        inst = gs_build(QuotientSpec.make(m))
        ident = Mat2.identity(m)
        for x in inst.im_k:
            assert x.a == ident - x.h


def test_conjugate_image_equals_closure_of_conjugated_generators():
    from cosetope.groupcore import subgroup_closure

    for m in (2, 3):
        inst = gs_build(QuotientSpec.make(m))
        closure = subgroup_closure(inst.ctx, inst.im_k.generators)
        assert closure.as_set() == inst.im_k.as_set()


def test_conjugator_has_additive_order_m():
    for m in (2, 3, 5):
        inst = gs_build(QuotientSpec.make(m))
        power = inst.i_elt
        for _ in range(m - 1):
            power = sd_mul(power, inst.i_elt)
        assert power == inst.ctx.identity
    inst = gs_build(QuotientSpec.make(5))
    sq = sd_mul(inst.i_elt, inst.i_elt)
    assert sq.a == Mat2.scalar(2, 5)
    assert sq.h == Mat2.identity(5)


def test_build_matches_the_closure_and_conjugation_oracle():
    # the walk lists image(H) in the closure's order, and image(K) in the
    # same order as the elementwise conjugates (I - h, h)
    for m in range(2, 13):
        inst = gs_build(QuotientSpec.make(m))
        h_elements, k_elements = oracle_gs_images(m)
        assert inst.im_h.elements == h_elements, m
        assert inst.im_k.elements == k_elements, m
        assert inst.im_h.as_set() == frozenset(h_elements) and inst.im_k.as_set() == frozenset(k_elements)
        assert inst.im_h.generators == inst.ctx.generators[4:6]
        assert [x.h for x in inst.im_k.generators] == [x.h for x in inst.im_h.generators]
        assert inst.i_elt == SdElement(Mat2.identity(m), Mat2.identity(m), None)


def test_build_checks_the_closure_cap_before_the_walk_and_refuses_a_coset_action():
    # |SL2(Z/5)| = 120: the cap is checked on that order before any element is listed
    assert len(gs_build(QuotientSpec.make(5), 120).im_h) == 120
    with pytest.raises(BudgetError, match=r"the image of H mod 5 has 120 elements > 119"):
        gs_build(QuotientSpec.make(5), 119)
    with pytest.raises(ValidationError, match="without a coset action"):
        gs_build(QuotientSpec.make(2, congruence_rep(2)))


# ---------------------------------------------------------------------------
# trivial intersection


def test_intersection_trivial_exhaustive_small_levels():
    for m in (2, 3):
        inst = gs_build(QuotientSpec.make(m))
        meet = gs_intersection(inst)
        assert len(meet) == 1
        # full-context filter oracle
        full = enumerate_group(inst.ctx)
        brute = [x for x in full.elements if x in inst.im_h and x in inst.im_k]
        assert brute == [inst.ctx.identity]


def test_intersection_trivial_membership_based_up_to_eight():
    for m in range(4, 9):
        inst = gs_build(QuotientSpec.make(m))
        assert len(gs_intersection(inst)) == 1


def test_identity_matrix_stabilizer_is_trivial():
    from cosetope.groupcore import sl2_context

    for m in range(2, 9):
        full = enumerate_group(sl2_context(m))
        stab = [h for h in full.elements if h * Mat2.identity(m) == Mat2.identity(m)]
        assert stab == [Mat2.identity(m)]


# ---------------------------------------------------------------------------
# determinant criterion


def test_det_criterion_matches_product_member_exhaustively_level_two():
    inst = gs_build(QuotientSpec.make(2))
    full = enumerate_group(inst.ctx)
    for g in full.elements:
        direct = product_member(inst.ctx, g, inst.im_h, inst.im_k)
        assert direct == hk_member_sd(g)


def test_det_criterion_exhaustive_m4_and_sampled_above():
    inst = gs_build(QuotientSpec.make(4))
    full = enumerate_group(inst.ctx)
    assert len(full) == 12288
    for g in full.elements:
        assert product_member(inst.ctx, g, inst.im_h, inst.im_k) == hk_member_sd(g)
    rng = random.Random(44)
    from cosetope.groupcore import sl2_context

    for m in (5, 6, 7, 8):
        inst = gs_build(QuotientSpec.make(m))
        sl2 = enumerate_group(sl2_context(m))
        for _ in range(40):
            a = Mat2.of_mod(*(rng.randrange(m) for _ in range(4)), m)
            g = SdElement(a, rng.choice(sl2.elements), None)
            assert product_member(inst.ctx, g, inst.im_h, inst.im_k) == hk_member_sd(g)


def test_hk_member_frozen_example():
    g = GroupWord.of_a(Mat2.scalar(2))
    # det(2I + I) = 9: residue 1 at level 2 (member), residue 0 at level 3
    assert gs_hk_member(g, 2) is True
    assert gs_hk_member(g, 3) is False


def test_hk_member_identity():
    identity = GroupWord(Mat2.zero(), ModularWord())
    assert gs_hk_member(identity, 2)
    assert gs_hk_member(identity, 7)


def test_hk_member_every_level_when_translated_det_is_one():
    rng = random.Random(41)
    found = 0
    while found < 10:
        w = random_word(rng, 8)
        h = word_eval(w)
        u = word_eval(random_word(rng, 8))
        g = GroupWord(u - h, w)  # translated part is u, determinant 1
        for m in range(2, 9):
            assert gs_hk_member(g, m)
        found += 1


def test_hk_witness_frozen_examples():
    g = GroupWord.of_a(Mat2.scalar(2))
    cert = gs_hk_witness(g)
    assert cert["spec"].m == 3
    assert cert["transcript"]["det"] == 9
    # a + I = S + I has determinant 2, so every level >= 2 certifies
    g2 = GroupWord.of_a(Mat2.ambient(0, -1, 1, 0))
    cert2 = gs_hk_witness(g2)
    assert cert2["spec"].m == 2
    assert gs_hk_witness(GroupWord(Mat2.zero(), ModularWord())) is None


def test_hk_witness_replays_and_respects_bound():
    rng = random.Random(42)
    checked = 0
    while checked < 60:
        g = random_groupword(rng)
        det = (g.a + word_eval(g.w)).det()
        cert = gs_hk_witness(g)
        if det == 1:
            assert cert is None
            continue
        assert cert is not None
        m = cert["spec"].m
        assert 2 <= m <= abs(det - 1) + 1
        assert gs_hk_member(g, m) is False
        if m <= 5:
            inst = gs_build(QuotientSpec.make(m))
            assert not product_member(inst.ctx, project(g, cert["spec"]), inst.im_h, inst.im_k)
        checked += 1


# ---------------------------------------------------------------------------
# orbit identities


def test_orbit_of_identity_equals_matrix_image():
    for rep in (congruence_rep(2), minimal_noncongruence()):
        for m in (2, 3, 4):
            image = _h_prime_image_mod(rep, m)
            spec = QuotientSpec.make(m)
            ctx = quotient_context(spec)
            i_elt = SdElement(Mat2.identity(m), Mat2.identity(m), None)
            orbit = set()
            for u in image.elements:
                h_elt = SdElement(Mat2.zero(m), u, None)
                conj = sd_mul(sd_mul(h_elt, i_elt), sd_inv(h_elt))
                assert conj.h == Mat2.identity(m)
                orbit.add(conj.a)
            assert orbit == set(image.elements)


def test_double_coset_with_conjugator_meets_additive_part_in_orbit():
    rep = congruence_rep(2)
    for m in (2, 3):
        spec = QuotientSpec.make(m)
        inst = gs_build(spec)
        image = _h_prime_image_mod(rep, m)
        im_hp = subgroup_from_elements(
            SdElement(Mat2.zero(m), u, None) for u in image.elements
        )
        i_elt = SdElement(Mat2.identity(m), Mat2.identity(m), None)
        hp_i = brute_force_product(inst.ctx, im_hp.elements, (i_elt,))
        hp_i_h = brute_force_product(inst.ctx, hp_i, inst.im_h.elements)
        additive = {x.a for x in hp_i_h if x.h == Mat2.identity(m)}
        assert additive == set(image.elements)


def test_reduced_membership_equals_double_coset_membership():
    rep = minimal_noncongruence()
    rng = random.Random(43)
    for m in (2, 3):
        image = _h_prime_image_mod(rep, m)
        for _ in range(40):
            x = Mat2.ambient(*(rng.randrange(-6, 7) for _ in range(4)))
            g = GroupWord.of_a(x - Mat2.identity())
            assert evidence_cross_check(rep, m, g) == (x.reduce(m) in image)


def test_evidence_cross_check_agrees_with_the_blocks_off_the_identity():
    # the evidence's own g reduces to the identity at every m <= 4, its x
    # lying in Γ(24), so the listing oracle is checked against the blocks on
    # elements that reduce elsewhere
    rng = random.Random(46)
    seen = Counter()
    for rep in (minimal_noncongruence(), congruence_rep(2), congruence_rep(3), congruence_rep(4)):
        walks: dict = {}
        for m in (2, 3, 4):
            for _ in range(25):
                w = random_word(rng, 10)
                g = GroupWord.of_a(word_eval(w) - Mat2.identity())
                member = image_blocks(rep, m, walks=walks)[rep.word_perm(w)[0]] == 0
                assert evidence_cross_check(rep, m, g) == member
                seen[member] += 1
    assert seen[True] > 50 and seen[False] > 50


def test_a_quotient_with_the_coset_action_does_not_separate_off_the_identity():
    # the fact behind every finite quotient: g = (x - I, 1) lies outside H'K
    # when x moves the basepoint, yet in the quotient (2, rep), which carries
    # H''s own coset action, its image lies in image(H')·image(K) even where
    # x is not the identity mod 2; towers_used leaves such quotients out
    rep = minimal_noncongruence()
    spec = QuotientSpec.make(2, rep)
    im_hp = image_subgroup(h_prime_group_words(rep), spec)
    k_gens = [GroupWord(Mat2.identity() - word_eval(w), w) for w in map(ModularWord.from_str, ("S", "T"))]
    im_k = image_subgroup(k_gens, spec)
    ctx = quotient_context(spec)
    rng = random.Random(47)
    checked = 0
    while checked < 10:
        w = random_word(rng, 12, min_len=1)
        x = word_eval(w)
        if rep.word_perm(w)[0] == 0 or x.reduce(2) == Mat2.identity(2):
            continue
        assert product_member(ctx, project(GroupWord.of_a(x - Mat2.identity()), spec), im_hp, im_k)
        checked += 1


def _sl2_closure_image(rep, m):
    """Oracle: the sign-saturated image as a closure in SL2(Z/m) of the
    reduced subgroup generators together with -I."""
    gens = [word_eval(w).reduce(m) for w in subgroup_generators(rep)]
    gens.append((-Mat2.identity()).reduce(m))
    return subgroup_closure(sl2_context(m), gens)


def test_sign_saturated_image_matches_sl2_closure_oracle():
    # the one-point rep's subgroup is the whole modular group: its image is SL2(Z/m)
    for rep in (congruence_rep(2), minimal_noncongruence(), ONE_POINT):
        for m in range(2, 13):
            derived = _h_prime_image_mod(rep, m)
            oracle = _sl2_closure_image(rep, m)
            assert len(derived) == len(oracle), (rep, m)
            assert derived.as_set() == oracle.as_set(), (rep, m)


def test_wz_failure_closes_no_level_image_and_honours_the_closure_cap(monkeypatch):
    rep = minimal_noncongruence()
    closures = count_closures(monkeypatch)
    evidence = gs_wz_failure(rep, 24)
    assert evidence["status"] == "evidence"
    for m in range(2, 25):
        _h_prime_image_mod(rep, m)
    assert not closures
    # the witness walk over PSL2(Z/24), of order 4608, comes first; the
    # transcripts then make one check per level m, on the sign-saturated
    # image, so the first over a cap of 4608 is SL2(Z/17), of order 4896, and
    # over any cap from 4896 to 6839 it is SL2(Z/19), of order 6840; no
    # level checks its image in PSL2(Z/m), which is 6072 at m = 23
    with pytest.raises(BudgetError, match=r"PSL2\(Z/24\) has 4608"):
        gs_wz_failure(rep, 24, closure_cap=4607)
    with pytest.raises(BudgetError, match="the sign-saturated subgroup image mod 17 has 4896"):
        gs_wz_failure(rep, 24, closure_cap=4608)
    for cap in (4896, 6071, 6072):
        with pytest.raises(BudgetError, match="the sign-saturated subgroup image mod 19 has 6840"):
            gs_wz_failure(rep, 24, closure_cap=cap)


def test_wz_failure_walks_each_level_gcd_once(monkeypatch):
    # the gs-demo rep has level 12, so levels 2..32 have the gcds 1, 2, 3,
    # 4, 6 and 12; gcd 1 is one walk of one state
    rep = minimal_noncongruence()
    assert rep_level(rep) == 12
    calls = spy_walks(monkeypatch)
    evidence = gs_wz_failure(rep, 32)
    assert [entry["m"] for entry in evidence["level_transcripts"]] == list(range(2, 33))
    each_once = {1: 1, 2: 1, 3: 1, 4: 1, 6: 1, 12: 1}
    assert Counter(w.n for w in calls if w.caller == "image_blocks") == each_once
    assert [len(w.seen) for w in calls if w.n == 1] == [1]
    # the witness walk, which decides congruence too as 12 divides 24, and
    # nothing else: the transcripts read the blocks image_blocks keeps
    assert Counter(w[:3] for w in calls) == Counter(
        [("congruence_gap_witness", rep, 24)] + [("image_blocks", rep, g) for g in each_once]
    )
    # a second call walks again: the walks are kept per call, not per process
    calls.clear()
    gs_wz_failure(rep, 32)
    assert Counter(w.n for w in calls if w.caller == "image_blocks") == each_once


# ---------------------------------------------------------------------------
# non-separability evidence


def test_wz_failure_rejects_congruence_rep():
    with pytest.raises(ValidationError, match="the subgroup is congruence; no gap exists"):
        gs_wz_failure(congruence_rep(2), 4)


def test_wz_failure_evidence_is_coherent():
    rep = minimal_noncongruence()
    evidence = gs_wz_failure(rep, 12)
    assert evidence["status"] == "evidence"
    assert evidence["witness"] is not None
    assert rep.word_perm(evidence["witness"]["word"])[0] != 0
    assert evidence["g"].a == evidence["witness"]["x"] - Mat2.identity()
    assert evidence["g"].w == ModularWord()
    recorded = {entry["m"] for entry in evidence["level_transcripts"] if entry["member"]}
    assert recorded == set(evidence["levels"])
    for m in (2, 3, 4, 6, 12):
        assert m in evidence["levels"]
    assert evidence["witness_level"] == 24
    # the least m_max cli.parse admits tests one level
    assert gs_wz_failure(rep, 2)["levels"] == (2,)
