"""Acceptance suite: one test per criterion, each printing a pass/fail line
and enforcing its runtime bound.  Run with ``pytest tests/test_acceptance.py -v -s``."""

import random
import time
from collections import Counter

from cosetope.arith import Mat2
from cosetope.budgets import Budgets
from cosetope.groupcore import (
    SdElement,
    product_member,
    sd_mul,
    sl2_context,
    subgroup_closure,
    subgroup_from_elements,
    subgroup_intersection,
)
from cosetope.gs import _h_prime_image_mod, gs_hk_witness, gs_wz_failure
from cosetope.cli import main as cli_main
from cosetope.modular import (
    is_congruence,
    low_index_reps,
    matrix_to_word,
    rep_level,
    word_eval,
)
from cosetope.profinite import (
    GroupWord,
    QuotientSpec,
    element_restriction,
    kernel_of_refinement,
    project,
    quotient_context,
)

from t_util import (
    brute_force_product,
    check_cor_identity,
    check_prop_identity,
    congruence_rep,
    cor_instance,
    enumerate_group,
    gs_build,
    gs_hk_member,
    gs_intersection,
    gw_mul,
    hi_exclusion_check,
    hk_member_sd,
    kernel_listing,
    naive_rep_counts,
    normal_closure,
    principal_congruence_generators,
    prop_instance,
    random_word,
    subgroup_pool,
)


def _report(number, name, t0, limit):
    elapsed = time.perf_counter() - t0
    line = f"ACCEPTANCE {number} ({name}): PASS in {elapsed:.1f}s (limit {limit}s)"
    print(line, flush=True)
    assert elapsed <= limit, f"criterion {number} exceeded its runtime bound: {elapsed:.1f}s > {limit}s"


def _acceptance_contexts(rng):
    from cosetope.modular import psl2_context

    ctxs = [
        sl2_context(2),
        sl2_context(3),
        sl2_context(4),
        sl2_context(5),
        psl2_context(6),
        quotient_context(QuotientSpec.make(2)),
        quotient_context(QuotientSpec.make(2, congruence_rep(2))),
    ]
    pools = []
    for ctx in ctxs:
        full, pool = subgroup_pool(ctx, rng, count=12)
        assert len(full) <= 500
        pools.append((ctx, full, pool))
    return pools


def test_criterion_1_identity_suite():
    t0 = time.perf_counter()
    rng = random.Random(101)
    pools = _acceptance_contexts(rng)
    prop_done = 0
    while prop_done < 500:
        ctx, full, pool = pools[prop_done % len(pools)]
        inst = prop_instance(ctx, full, pool, rng, max_pairs=2500, max_n=30)
        if inst is None:
            continue
        h, k, hp, n = inst
        assert check_prop_identity(ctx, h, k, hp, n), "product-set identity failed"
        prop_done += 1
    cor_done = 0
    while cor_done < 500:
        ctx, full, pool = pools[cor_done % len(pools)]
        inst = cor_instance(ctx, full, pool, rng, max_pairs=2500)
        if inst is None:
            continue
        h, k, hp, kp = inst
        assert check_cor_identity(ctx, h, k, hp, kp), "two-sided identity failed"
        cor_done += 1
    _report(1, "identity suite, 500+500 instances", t0, 60)


def test_criterion_2_exclusion_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(102)
    pools = _acceptance_contexts(rng)
    done = 0
    while done < 200:
        ctx, full, pool = pools[done % len(pools)]
        h = rng.choice(pool)
        k = rng.choice(pool)
        if len(h) * len(k) > 2500:
            continue
        n = normal_closure(ctx, [rng.choice(full.elements)])
        if len(n) > 30:
            continue
        meet = subgroup_intersection(h, k)
        extra = (rng.choice(h.elements),) if rng.random() < 0.6 else ()
        hp = subgroup_closure(ctx, tuple(meet.elements) + extra)
        kn = subgroup_closure(ctx, tuple(k.generators) + tuple(n.generators))
        oracle = all(x in hp for x in subgroup_intersection(h, kn).elements)
        assert hi_exclusion_check(ctx, h, k, hp, n) == oracle
        done += 1
    _report(2, "transversal exclusion equivalence, 200 instances", t0, 30)


def test_criterion_3_trivial_intersection():
    t0 = time.perf_counter()
    for m in range(2, 9):
        inst = gs_build(QuotientSpec.make(m))
        meet = gs_intersection(inst)
        assert len(meet) == 1, f"intersection not trivial at modulus {m}"
        if m <= 3:
            full = enumerate_group(inst.ctx)
            brute = [x for x in full.elements if x in inst.im_h and x in inst.im_k]
            assert brute == [inst.ctx.identity]
    _report(3, "trivial intersection for m in 2..8", t0, 120)


def test_criterion_4_det_criterion_exhaustive():
    t0 = time.perf_counter()
    for m, order in ((2, 96), (3, 1944)):
        inst = gs_build(QuotientSpec.make(m))
        full = enumerate_group(inst.ctx)
        assert len(full) == order
        for g in full.elements:
            direct = product_member(inst.ctx, g, inst.im_h, inst.im_k)
            assert direct == hk_member_sd(g), f"disagreement at modulus {m}: {g}"
    _report(4, "determinant criterion vs double-coset scan, m=2,3 exhaustive", t0, 60)


def test_criterion_5_separability_certificates():
    t0 = time.perf_counter()
    rng = random.Random(105)
    done = 0
    while done < 100:
        a = Mat2.ambient(*(rng.randrange(-9, 10) for _ in range(4)))
        w = random_word(rng, 10)
        g = GroupWord(a, w)
        det = (a + word_eval(w)).det()
        if det == 1:
            continue
        cert = gs_hk_witness(g)
        assert cert is not None
        m = cert["spec"].m
        assert m <= abs(det - 1) + 1
        assert gs_hk_member(g, m) is False
        if m <= 4:
            inst = gs_build(cert["spec"])
            assert not product_member(inst.ctx, project(g, cert["spec"]), inst.im_h, inst.im_k)
        done += 1
    _report(5, "separability certificates, 100 random elements", t0, 30)


def test_criterion_6_noncongruence_existence():
    t0 = time.perf_counter()
    classes = low_index_reps(7)
    subgroups = low_index_reps(7, classes=False)
    class_counts = Counter(r.degree for r in classes)
    subgroup_counts = Counter(r.degree for r in subgroups)
    for d in range(1, 8):
        _, nsub, nclass = naive_rep_counts(d)
        assert subgroup_counts[d] == nsub, f"subgroup count mismatch at degree {d}"
        assert class_counts[d] == nclass, f"class count mismatch at degree {d}"
    noncongruence = []
    for rep in classes:
        verdict = is_congruence(rep)
        n = rep_level(rep)
        if n == 1:
            direct = rep.degree == 1
        else:
            direct = all(rep.word_perm(w)[0] == 0 for w in principal_congruence_generators(n))
        assert verdict == direct, f"verdict disagrees with containment at degree {rep.degree}"
        if not verdict:
            noncongruence.append(rep)
    assert noncongruence, "no noncongruence subgroup found up to degree 7"
    _report(6, "noncongruence existence and verdict re-verification, degree <= 7", t0, 120)


def test_criterion_7_wz_failure_evidence(tmp_path):
    t0 = time.perf_counter()
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    evidence = gs_wz_failure(rep, 24)
    assert evidence["status"] == "evidence"
    # the element itself is outside the double coset: the witness moves the basepoint
    assert rep.word_perm(evidence["witness"]["word"])[0] != 0
    assert evidence["witness"]["displaced_to"] != 0
    # at every recorded congruence level <= 24 the image passes the full
    # double-coset membership scan, not only the reduced subgroup test
    budgets = Budgets()
    assert evidence["levels"], "no passing level recorded"
    for m in evidence["levels"]:
        assert 2 <= m <= 24
        spec = QuotientSpec.make(m)
        ctx = quotient_context(spec)
        inst = gs_build(spec, budgets)
        image = _h_prime_image_mod(rep, m, budgets)
        im_hp = subgroup_from_elements(
            SdElement(Mat2.zero(m), u, None) for u in image.elements
        )
        assert product_member(ctx, project(evidence["g"], spec), im_hp, inst.im_k), (
            f"double-coset membership failed at recorded level {m}"
        )
    # the report replays byte-identically under verify
    report_path = tmp_path / "demo.json"
    assert cli_main(["gs-demo", "--m-max", "24", "--output", str(report_path)]) == 0
    text_first = report_path.read_text()
    assert cli_main(["verify", "--report", str(report_path), "--output", str(tmp_path / "v.json")]) == 0
    again = tmp_path / "demo2.json"
    assert cli_main(["gs-demo", "--m-max", "24", "--output", str(again)]) == 0
    assert again.read_text() == text_first, "report bytes are not reproducible"
    _report(7, "non-separability evidence with verified replay", t0, 300)


def test_criterion_8_oracle_equivalence():
    t0 = time.perf_counter()
    rng = random.Random(108)
    from cosetope.modular import psl2_context

    ctxs = [
        sl2_context(2),
        sl2_context(3),
        sl2_context(5),
        psl2_context(6),
        quotient_context(QuotientSpec.make(2)),
        quotient_context(QuotientSpec.make(3)),
    ]
    for ctx in ctxs:
        full = enumerate_group(ctx)
        assert len(full) <= 2000
        _, pool = subgroup_pool(ctx, rng, count=8)
        checked = 0
        while checked < 30:
            u = rng.choice(pool)
            v = rng.choice(pool)
            if len(u) * len(v) > 20_000:
                continue
            product = brute_force_product(ctx, u.elements, v.elements)
            for _ in range(5):
                g = rng.choice(full.elements)
                assert product_member(ctx, g, u, v) == (g in product)
            mine = subgroup_intersection(u, v).as_set()
            brute = frozenset(x for x in full.elements if x in u and x in v)
            assert mine == brute
            checked += 1
    # kernel of a refinement against its listing, and the listing against an
    # independent elementwise filter
    fine, coarse = QuotientSpec.make(4), QuotientSpec.make(2)
    kernel = kernel_of_refinement(fine, coarse)
    listing = kernel_listing(fine, coarse)
    full_fine = enumerate_group(quotient_context(fine))
    brute_kernel = frozenset(
        x
        for x in full_fine.elements
        if x.a.reduce(2) == Mat2.zero(2) and x.h.reduce(2) == Mat2.identity(2)
    )
    assert listing.as_set() == brute_kernel
    assert len(kernel) == len(listing) == 128
    restrict, cid = element_restriction(fine, coarse), quotient_context(coarse).identity
    assert all((restrict(x) == cid) == (x in listing) for x in full_fine.elements)
    _report(8, "oracle equivalence on contexts of order <= 2000", t0, 120)


def test_criterion_9_homomorphism_and_round_trip():
    t0 = time.perf_counter()
    rng = random.Random(109)
    specs = [QuotientSpec.make(m) for m in range(2, 13)] + [QuotientSpec.make(2, congruence_rep(2))]
    for _ in range(10_000):
        spec = rng.choice(specs)
        g = GroupWord(
            Mat2.ambient(*(rng.randrange(-5, 6) for _ in range(4))),
            random_word(rng, 6),
        )
        h = GroupWord(
            Mat2.ambient(*(rng.randrange(-5, 6) for _ in range(4))),
            random_word(rng, 6),
        )
        assert project(gw_mul(g, h), spec) == sd_mul(project(g, spec), project(h, spec))
    for _ in range(10_000):
        w = random_word(rng, 30)
        x = word_eval(w)
        assert word_eval(matrix_to_word(x)) == x
    for _ in range(10_000):
        x = Mat2.ambient(*(rng.randrange(-50, 51) for _ in range(4)))
        y = Mat2.ambient(*(rng.randrange(-50, 51) for _ in range(4)))
        m = rng.randrange(2, 13)
        assert (x * y).reduce(m) == x.reduce(m) * y.reduce(m)
        assert x.reduce(m).det() == x.det() % m
    _report(9, "homomorphism and round-trip invariants, 3x10^4 samples", t0, 60)
