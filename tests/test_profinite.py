import json
import random
from pathlib import Path

import pytest

import cosetope.profinite as profinite
from cosetope.arith import Mat2, sl2_group_order
from cosetope.budgets import Budgets
from cosetope.errors import BudgetError, PreconditionError, ValidationError
from cosetope.groupcore import (
    subgroup_closure,
    subgroup_intersection,
)
from cosetope.modular import (
    ModularWord,
    PermRep,
    is_congruence,
    low_index_reps,
    congruence_gap_witness,
)
from cosetope.profinite import (
    Formation,
    GroupWord,
    QuotientSpec,
    default_tower,
    element_restriction,
    image_subgroup,
    kernel_of_refinement,
    load_rep,
    load_tower,
    project,
    quotient_context,
    spec_group_order,
    thm_b_probe,
    tractable_at,
)

from t_util import (
    congruence_rep,
    gw_inv,
    gw_mul,
    hi_exclusion_check,
    normal_closure,
    s3_context,
    schreier_kernel,
    subgroup_pool,
)


H_GENS = (GroupWord.of_word(ModularWord.from_str("S")), GroupWord.of_word(ModularWord.from_str("T")))
I_CONJ = GroupWord.of_a(Mat2.identity())


def k_gens():
    return tuple(gw_mul(gw_mul(I_CONJ, h), gw_inv(I_CONJ)) for h in H_GENS)


def random_groupword(rng, max_len=8, bound=5):
    a = Mat2.ambient(*(rng.randrange(-bound, bound + 1) for _ in range(4)))
    w = ModularWord.of(*[rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, max_len))])
    return GroupWord(a, w)


# ---------------------------------------------------------------------------
# quotient contexts and projections


def test_quotient_orders_match_formula():
    for m, expected in ((2, 96), (3, 1944)):
        spec = QuotientSpec.make(m)
        assert spec_group_order(spec) == expected == m ** 4 * sl2_group_order(m)
        assert len(quotient_context(spec).enumerate()) == expected


def test_quotient_identity():
    ctx = quotient_context(QuotientSpec.make(5))
    assert ctx.identity.a == Mat2.zero(5)
    assert ctx.identity.h == Mat2.identity(5)


def test_project_examples():
    spec = QuotientSpec.make(5)
    assert project(GroupWord.identity(), spec) == quotient_context(spec).identity
    g = GroupWord.of_a(Mat2.identity())
    image = project(g, spec)
    assert image.a == Mat2.identity(5)
    assert image.h == Mat2.identity(5)


def test_project_is_homomorphism():
    rng = random.Random(31)
    specs = [QuotientSpec.make(m) for m in (2, 3, 5, 8)] + [QuotientSpec.make(2, congruence_rep(2))]
    for _ in range(500):
        spec = rng.choice(specs)
        g = random_groupword(rng)
        h = random_groupword(rng)
        from cosetope.groupcore import sd_mul

        assert project(gw_mul(g, h), spec) == sd_mul(project(g, spec), project(h, spec))


def test_groupword_inverse():
    rng = random.Random(32)
    for _ in range(100):
        g = random_groupword(rng)
        assert gw_mul(g, gw_inv(g)) == GroupWord.identity()


def test_projection_compatibility_with_coarsening():
    rng = random.Random(33)
    fine = QuotientSpec.make(8)
    coarse = QuotientSpec.make(4)
    restrict = element_restriction(fine, coarse)
    for _ in range(200):
        g = random_groupword(rng)
        assert restrict(project(g, fine)) == project(g, coarse)


# ---------------------------------------------------------------------------
# refinement and kernels


def test_refinement_partial_order():
    assert QuotientSpec.make(2).refined_by(QuotientSpec.make(4))
    assert not QuotientSpec.make(4).refined_by(QuotientSpec.make(2))
    assert not QuotientSpec.make(3).refined_by(QuotientSpec.make(4))
    rep = congruence_rep(2)
    assert QuotientSpec.make(2).refined_by(QuotientSpec.make(2, rep))
    assert QuotientSpec.make(2, rep).refined_by(QuotientSpec.make(2, rep))
    assert not QuotientSpec.make(2, rep).refined_by(QuotientSpec.make(2))


def test_kernel_trivial_when_specs_equal():
    spec = QuotientSpec.make(4)
    kernel = kernel_of_refinement(spec, spec)
    assert len(kernel) == 1


def test_kernel_of_refinement_four_over_two():
    kernel = kernel_of_refinement(QuotientSpec.make(4), QuotientSpec.make(2))
    # (4^4/2^4) * |ker(SL2(Z/4) -> SL2(Z/2))| = 16 * (48/6) = 128
    assert len(kernel) == 128
    restrict = element_restriction(QuotientSpec.make(4), QuotientSpec.make(2))
    cid = quotient_context(QuotientSpec.make(2)).identity
    for x in kernel:
        assert restrict(x) == cid


def _filter_kernel(fine, coarse):
    """Oracle: the elements of the whole fine quotient that restrict to the identity."""
    restrict = element_restriction(fine, coarse)
    cid = quotient_context(coarse).identity
    return frozenset(x for x in quotient_context(fine).enumerate() if restrict(x) == cid)


def _congruence_kernel_order(f, c):
    return (f // c) ** 4 * sl2_group_order(f) // sl2_group_order(c)


def test_kernel_schreier_path_matches_filter_path():
    # the direct listing against both oracles: Schreier closure and filtering
    fine, coarse = QuotientSpec.make(4), QuotientSpec.make(2)
    direct = kernel_of_refinement(fine, coarse).as_set()
    assert direct == schreier_kernel(fine, coarse).as_set() == _filter_kernel(fine, coarse)


@pytest.mark.parametrize("f, c", [(6, 2), (6, 3)])
def test_kernel_direct_path_matches_schreier_path(f, c):
    fine, coarse = QuotientSpec.make(f), QuotientSpec.make(c)
    direct = kernel_of_refinement(fine, coarse)
    assert direct.as_set() == schreier_kernel(fine, coarse).as_set()
    assert len(direct) == _congruence_kernel_order(f, c)


def _coset_action_pairs():
    """(fine, coarse) specs: the degree-3 and degree-4 classes at modulus 4 over
    modulus 2, plain and with the same action, and the golden noncongruence
    rep at modulus 2 over plain modulus 2."""
    pairs = []
    for index, rep in enumerate(low_index_reps(4)):
        if rep.degree in (3, 4):
            fine = QuotientSpec.make(4, rep)
            pairs += [
                pytest.param(fine, coarse, id=f"rep{index}-{name}")
                for name, coarse in (("plain", QuotientSpec.make(2)), ("same-rep", QuotientSpec.make(2, rep)))
                if coarse.refined_by(fine)
            ]
    nc_rep = load_rep(str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"))
    return pairs + [pytest.param(QuotientSpec.make(2, nc_rep), QuotientSpec.make(2), id="nc_rep-plain")]


@pytest.mark.parametrize("fine, coarse", _coset_action_pairs())
def test_coset_action_kernel_matches_the_schreier_oracle(fine, coarse):
    kernel = kernel_of_refinement(fine, coarse)
    assert kernel.elements[0] == quotient_context(fine).identity
    assert len(set(kernel.elements)) == len(kernel)
    assert kernel.as_set() == schreier_kernel(fine, coarse).as_set()


@pytest.mark.parametrize("f, c", [(8, 2), (8, 4), (9, 3), (12, 4)])
def test_kernel_direct_path_closed_form(f, c):
    fine = QuotientSpec.make(f)
    kernel = kernel_of_refinement(fine, QuotientSpec.make(c))
    assert kernel.elements[0] == quotient_context(fine).identity
    assert len(set(kernel.elements)) == len(kernel) == _congruence_kernel_order(f, c)
    for x in kernel:
        assert x.sigma is None and x.a.m == x.h.m == f
        assert x.a.reduce(c) == Mat2.zero(c)
        assert x.h.reduce(c) == Mat2.identity(c)
        assert x.h.det() == 1


def test_kernel_with_coset_action_takes_the_coset_action_path(monkeypatch):
    rep = congruence_rep(2)
    fine, coarse = QuotientSpec.make(4, rep), QuotientSpec.make(2, rep)
    calls = []
    listing = profinite._coset_action_kernel

    def spy(*args):
        calls.append(args[:2])
        return listing(*args)

    monkeypatch.setattr(profinite, "_coset_action_kernel", spy)
    kernel = kernel_of_refinement(fine, coarse)
    assert calls == [(fine, coarse)]
    assert kernel.as_set() == _filter_kernel(fine, coarse)
    assert len(kernel) == _congruence_kernel_order(4, 2)


def test_kernel_budget_fails_before_building():
    with pytest.raises(BudgetError, match="closure_cap"):
        kernel_of_refinement(QuotientSpec.make(8), QuotientSpec.make(2), Budgets(closure_cap=1000))


def test_coset_action_kernel_honours_the_closure_cap():
    # the linear part of the fine quotient, SL2(Z/4) here, is closed under
    # the cap, and its 8 elements that are I mod 2 make a kernel of 16 * 8
    rep = congruence_rep(2)
    fine, coarse = QuotientSpec.make(4, rep), QuotientSpec.make(2, rep)
    with pytest.raises(BudgetError, match="more than 40 elements"):
        kernel_of_refinement(fine, coarse, Budgets(closure_cap=40))
    with pytest.raises(BudgetError, match="refinement kernel 4 -> 2 has 128 elements > 100"):
        kernel_of_refinement(fine, coarse, Budgets(closure_cap=100))
    assert len(kernel_of_refinement(fine, coarse, Budgets(closure_cap=128))) == 128


def test_restriction_from_plain_to_degree_one_action():
    point = PermRep.make(1, (0,), (0,))
    fine, coarse = QuotientSpec.make(4), QuotientSpec.make(2, point)
    assert coarse.refined_by(fine)
    restrict = element_restriction(fine, coarse)
    cid = quotient_context(coarse).identity
    for g in quotient_context(fine).generators:
        assert restrict(g).sigma == (0,)
    assert restrict(quotient_context(fine).identity) == cid
    assert kernel_of_refinement(fine, coarse).as_set() == _filter_kernel(fine, coarse)


def test_kernel_requires_refinement():
    with pytest.raises(PreconditionError):
        kernel_of_refinement(QuotientSpec.make(2), QuotientSpec.make(4))


# ---------------------------------------------------------------------------
# formations


def test_formation_filters():
    all_groups = Formation.make("all")
    assert all_groups.admits(QuotientSpec.make(6))
    pro2 = Formation.make("pro-p", 2)
    assert pro2.admits(QuotientSpec.make(4))
    assert not pro2.admits(QuotientSpec.make(6))
    # the level-2 coset action has a non-2-group image
    assert not pro2.admits(QuotientSpec.make(2, congruence_rep(2)))
    # a degree-2 action with a C2 image is fine
    c2 = PermRep.make(2, (1, 0), (1, 0))
    assert pro2.admits(QuotientSpec.make(2, c2))
    with pytest.raises(ValidationError):
        Formation.make("pro-p")
    with pytest.raises(ValidationError):
        Formation.make("weird")
    with pytest.raises(ValidationError):
        Formation.make("pro-p", 4)


@pytest.mark.parametrize(
    "raw_filter",
    [{"type": "pro-p", "p": "x"}, "pro-p", {"type": "pro-p", "p": 4}, {"type": "pro-p", "p": True}, ["pro-p", 2]],
)
def test_bad_spec_filters_are_validation_errors(raw_filter):
    with pytest.raises(ValidationError):
        QuotientSpec.from_json({"m": 4, "filter": raw_filter})


def test_spec_filter_reads_report_strings():
    spec = QuotientSpec.from_json({"m": "4", "filter": {"type": "pro-p", "p": "2"}})
    assert spec.formation == Formation.make("pro-p", 2)


@pytest.mark.parametrize(
    "read, data",
    [
        (PermRep.from_json, {"degree": 1.9, "s": [0], "t": [0]}),
        (PermRep.from_json, {"degree": True, "s": [0], "t": [0]}),
        (PermRep.from_json, {"degree": "01", "s": [0], "t": [0]}),
        (PermRep.from_json, {"degree": 1, "s": [0.5], "t": [False]}),
        (QuotientSpec.from_json, {"m": 2.0}),
        (QuotientSpec.from_json, {"m": "02"}),
        (QuotientSpec.from_json, {"m": 4, "filter": {"type": "pro-p", "p": 2.5}}),
        (QuotientSpec.from_json, {"m": 4, "filter": {"type": "pro-p", "p": " 2"}}),
    ],
)
def test_json_readers_take_only_integers(read, data):
    # int() reads each of these as an integer: 1.9 and true as 1, "02" as 2
    with pytest.raises(ValidationError, match="expected an integer"):
        read(data)
    assert PermRep.from_json({"degree": 1, "s": ["0"], "t": [0]}) == PermRep.make(1, (0,), (0,))
    assert QuotientSpec.from_json({"m": "2", "filter": {"type": "pro-p", "p": 2}}).m == 2


# ---------------------------------------------------------------------------
# tractable_at


def test_tractable_equal_subgroups_succeed_at_target():
    m_spec = QuotientSpec.make(2)
    report = tractable_at(H_GENS, H_GENS, H_GENS, m_spec, [m_spec])
    assert report.found == m_spec
    assert report.entries[0]["status"] == "ok"


def test_tractable_trivial_k_succeeds():
    m_spec = QuotientSpec.make(3)
    report = tractable_at(H_GENS, (), (), m_spec, [m_spec])
    assert report.found == m_spec


def test_tractable_example_data_over_congruence_candidates():
    # intersection of the images is trivial at every plain congruence level,
    # so the inclusion holds at the very first candidate
    m_spec = QuotientSpec.make(2)
    report = tractable_at(H_GENS, k_gens(), (), m_spec, default_tower())
    assert report.found == QuotientSpec.make(2)
    sizes = report.entries[0]["sizes"]
    assert sizes["image_intersection"] == 1


def test_tractable_monotone_under_refinement():
    m_spec = QuotientSpec.make(2)
    for m in (2, 4, 8):
        report = tractable_at(H_GENS, k_gens(), (), m_spec, [QuotientSpec.make(m)])
        assert report.found == QuotientSpec.make(m)


def test_tractable_underclaimed_intersection_is_flagged():
    # claiming a trivial intersection for H = K forces visible violations
    m_spec = QuotientSpec.make(3)
    gens = (GroupWord.of_word(ModularWord.from_str("S")),)
    report = tractable_at(gens, gens, (), m_spec, [m_spec])
    assert report.found is None
    entry = report.entries[0]
    assert entry["status"] == "violation"
    assert entry["violations"]
    ctx = quotient_context(m_spec)
    u = image_subgroup(gens, m_spec)
    for violation in entry["violations"]:
        assert violation in u
        assert violation != ctx.identity


def test_tractable_skips_candidates_outside_formation():
    m_spec = QuotientSpec.make(2, None, Formation.make("pro-p", 2))
    report = tractable_at(H_GENS, H_GENS, H_GENS, m_spec, [QuotientSpec.make(6), QuotientSpec.make(4)])
    assert report.entries[0]["status"] == "skipped-formation"
    assert report.found == QuotientSpec.make(4)


def test_tractable_reports_non_refining_candidates():
    m_spec = QuotientSpec.make(4)
    report = tractable_at(H_GENS, H_GENS, H_GENS, m_spec, [QuotientSpec.make(6), QuotientSpec.make(8)])
    assert report.entries[0]["status"] == "precondition"
    assert report.found == QuotientSpec.make(8)


def test_tractable_violations_with_rep_carrying_target():
    # with the quotient carrying the coset action of a congruence-gap
    # subgroup, the trivial ambient intersection no longer controls the
    # finite-level one: the witness word itself realizes a violation
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    witness = congruence_gap_witness(rep, 24, m_max=2)
    spec = QuotientSpec.make(2, rep)
    report = tractable_at(H_GENS, k_gens(), (), spec, [spec])
    assert report.found is None
    entry = report.entries[0]
    assert entry["status"] == "violation"
    u = project(GroupWord.of_word(witness.word), spec)
    ctx = quotient_context(spec)
    uh = image_subgroup(H_GENS, spec)
    uk = image_subgroup(k_gens(), spec)
    assert u in uh and u in uk
    assert u != ctx.identity


# ---------------------------------------------------------------------------
# separability probe


def test_probe_needs_a_tower():
    with pytest.raises(ValidationError):
        thm_b_probe(H_GENS, k_gens(), None, GroupWord.identity(), [])


def test_probe_member_is_inconclusive_at_every_level():
    # g = h' * k is inside the double coset, so no level can exclude it
    hp_word = GroupWord.of_word(ModularWord.from_str("TT"))
    k_elt = gw_mul(gw_mul(I_CONJ, GroupWord.of_word(ModularWord.from_str("T"))), gw_inv(I_CONJ))
    g = gw_mul(hp_word, k_elt)
    outcome = thm_b_probe(H_GENS, k_gens(), None, g, default_tower())
    assert outcome is None


def test_probe_whole_group_reduces_to_hk_and_certifies_by_det():
    g = GroupWord.of_a(Mat2.scalar(2))
    cert = thm_b_probe(H_GENS, k_gens(), None, g, default_tower())
    assert cert is not None
    # det(2I + I) = 9, and the first level with 9 != 1 is 3
    assert cert.spec == QuotientSpec.make(3)
    assert cert.transcript["member"] is False


def test_probe_spot_checks_l_containment():
    # L = trivial subgroup cannot contain image(H) meet image(K) when H = K
    with pytest.raises(PreconditionError):
        thm_b_probe(H_GENS, H_GENS, (GroupWord.identity(),), GroupWord.identity(), [QuotientSpec.make(2)])


def test_probe_with_gap_subgroup_is_inconclusive_on_congruence_tower():
    from cosetope.gs import h_prime_group_words

    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    witness = congruence_gap_witness(rep, 24, m_max=4)
    g = GroupWord.of_a(witness.x - Mat2.identity())
    a_gens = tuple(
        GroupWord.of_a(Mat2.ambient(*(1 if k == idx else 0 for k in range(4))))
        for idx in range(4)
    )
    l_gens = a_gens + tuple(h_prime_group_words(rep))
    tower = [QuotientSpec.make(m) for m in (2, 3, 4)]
    outcome = thm_b_probe(H_GENS, k_gens(), l_gens, g, tower)
    assert outcome is None


# ---------------------------------------------------------------------------
# transversal exclusion


def test_hi_exclusion_whole_subgroup_vacuous():
    ctx = s3_context()
    full = ctx.enumerate()
    trivial = subgroup_closure(ctx, ())
    assert hi_exclusion_check(ctx, full, full, full, trivial)


def test_hi_exclusion_fails_on_a_transversal_element_inside_hp_k_n():
    ctx = s3_context()
    full = ctx.enumerate()
    k = subgroup_closure(ctx, ((1, 0, 2),))
    n = subgroup_closure(ctx, ((1, 2, 0),))  # the 3-cycle subgroup, normal
    # K*N is all of S3, so both transversal elements off Hp = K lie in Hp*K*N
    assert len(subgroup_closure(ctx, k.generators + n.generators)) == 6
    assert not hi_exclusion_check(ctx, full, k, k, n)


def test_hi_exclusion_equivalent_to_intersection_containment():
    rng = random.Random(34)
    from cosetope.groupcore import sl2_context

    for ctx in (sl2_context(2), sl2_context(3), s3_context()):
        full, pool = subgroup_pool(ctx, rng, count=8)
        done = 0
        while done < 25:
            h = rng.choice(pool)
            k = rng.choice(pool)
            if len(h) * len(k) > 4000:
                continue
            n = normal_closure(ctx, [rng.choice(full.elements)])
            if len(n) > 60:
                continue
            meet = subgroup_intersection(h, k)
            extra = (rng.choice(h.elements),) if rng.random() < 0.6 else ()
            hp = subgroup_closure(ctx, tuple(meet.elements) + extra)
            kn = subgroup_closure(ctx, tuple(k.generators) + tuple(n.generators))
            oracle = all(x in hp for x in subgroup_intersection(h, kn).elements)
            assert hi_exclusion_check(ctx, h, k, hp, n) == oracle
            done += 1


# ---------------------------------------------------------------------------
# tower files


def test_tower_file_round_trip(tmp_path):
    rep = congruence_rep(2)
    rep_path = tmp_path / "rep.json"
    rep_path.write_text(json.dumps(rep.to_json()))
    tower_path = tmp_path / "tower.json"
    tower_path.write_text(
        json.dumps(
            [
                {"m": 2},
                {"m": 4, "filter": {"type": "pro-p", "p": 2}},
                {"m": 2, "rep": "rep.json"},
            ]
        )
    )
    tower = load_tower(str(tower_path))
    assert tower[0] == QuotientSpec.make(2)
    assert tower[1].formation == Formation.make("pro-p", 2)
    assert tower[2].rep == rep


def test_tower_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValidationError):
        load_tower(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ValidationError):
        load_tower(str(bad))
