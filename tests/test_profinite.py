import itertools
import json
import random
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cosetope.profinite as profinite
from cosetope.arith import Mat2, sl2_group_order
from cosetope.budgets import Budgets
from cosetope.errors import BudgetError, PreconditionError, ValidationError
from cosetope.groupcore import (
    SdElement,
    product_member,
    sd_mul,
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
    project,
    quotient_context,
    spec_group_order,
    thm_b_probe,
    tractable_at,
)
from cosetope.report import canonical_dumps, load_rep, load_tower, rep_from_json, spec_from_json

from t_util import (
    congruence_rep,
    gw_inv,
    gw_mul,
    hi_exclusion_check,
    kernel_listing,
    normal_closure,
    oracle_admits,
    oracle_element_restriction,
    oracle_refined_by,
    random_word,
    s3_context,
    schreier_kernel,
    subgroup_pool,
)


H_GENS = (GroupWord.of_word(ModularWord.from_str("S")), GroupWord.of_word(ModularWord.from_str("T")))
I_CONJ = GroupWord.of_a(Mat2.identity())
IDENTITY = GroupWord(Mat2.zero(), ModularWord())


def k_gens():
    return tuple(gw_mul(gw_mul(I_CONJ, h), gw_inv(I_CONJ)) for h in H_GENS)


def random_groupword(rng, max_len=8, bound=5):
    a = Mat2.ambient(*(rng.randrange(-bound, bound + 1) for _ in range(4)))
    w = random_word(rng, max_len)
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
    assert project(IDENTITY, spec) == quotient_context(spec).identity
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
        assert gw_mul(g, gw_inv(g)) == IDENTITY


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


def _refines(fine, coarse):
    return element_restriction(fine, coarse) is not None


def test_refinement_partial_order():
    assert _refines(QuotientSpec.make(4), QuotientSpec.make(2))
    assert not _refines(QuotientSpec.make(2), QuotientSpec.make(4))
    assert not _refines(QuotientSpec.make(4), QuotientSpec.make(3))
    rep = congruence_rep(2)
    assert _refines(QuotientSpec.make(2, rep), QuotientSpec.make(2))
    assert _refines(QuotientSpec.make(2, rep), QuotientSpec.make(2, rep))
    assert not _refines(QuotientSpec.make(2), QuotientSpec.make(2, rep))


def _fine_elements(spec):
    """Every element of the quotient of ``spec``: each additive part with each element of L."""
    ctx = quotient_context(spec)
    f = spec.m
    additive = [Mat2(w, x, y, z, f) for w, x, y, z in itertools.product(range(f), repeat=4)]
    return (SdElement(a, x.h, x.sigma) for x in subgroup_closure(ctx, ctx.generators[4:]) for a in additive)


def _assert_kernel_matches_listing(fine, coarse, elements=None):
    """The kernel's order is the oracle listing's length, and restricting
    to the coarse identity agrees with the listing on ``elements``, every
    element of the fine quotient unless given.  Returns the listing."""
    kernel = kernel_of_refinement(fine, coarse)
    listing = kernel_listing(fine, coarse)
    assert len(kernel) == kernel.order == len(listing)
    assert kernel.generators == ()
    members = listing.as_set()
    restrict, cid = element_restriction(fine, coarse), quotient_context(coarse).identity
    for x in _fine_elements(fine) if elements is None else elements:
        assert (restrict(x) == cid) == (x in members), x
    return listing


def test_kernel_trivial_when_specs_equal():
    spec = QuotientSpec.make(4)
    assert len(_assert_kernel_matches_listing(spec, spec)) == 1


def test_kernel_of_refinement_four_over_two():
    fine, coarse = QuotientSpec.make(4), QuotientSpec.make(2)
    # (4^4/2^4) * |ker(SL2(Z/4) -> SL2(Z/2))| = 16 * (48/6) = 128
    assert len(kernel_of_refinement(fine, coarse)) == 128
    assert set(_fine_elements(fine)) == quotient_context(fine).enumerate().as_set()
    listing = _assert_kernel_matches_listing(fine, coarse)
    restrict = element_restriction(fine, coarse)
    cid = quotient_context(coarse).identity
    for x in listing:
        assert restrict(x) == cid


def _filter_kernel(fine, coarse):
    """Oracle: the elements of the whole fine quotient that restrict to the identity."""
    restrict = element_restriction(fine, coarse)
    cid = quotient_context(coarse).identity
    return frozenset(x for x in quotient_context(fine).enumerate() if restrict(x) == cid)


def _congruence_kernel_order(f, c):
    return (f // c) ** 4 * sl2_group_order(f) // sl2_group_order(c)


def test_kernel_schreier_path_matches_filter_path():
    # the kernel against the listing, and the listing against both oracles:
    # Schreier closure and filtering
    fine, coarse = QuotientSpec.make(4), QuotientSpec.make(2)
    listing = _assert_kernel_matches_listing(fine, coarse).as_set()
    assert listing == schreier_kernel(fine, coarse).as_set() == _filter_kernel(fine, coarse)


@pytest.mark.parametrize("f, c", [(6, 2), (6, 3)])
def test_kernel_direct_path_matches_schreier_path(f, c):
    fine, coarse = QuotientSpec.make(f), QuotientSpec.make(c)
    listing = _assert_kernel_matches_listing(fine, coarse)
    assert listing.as_set() == schreier_kernel(fine, coarse).as_set()
    assert len(kernel_of_refinement(fine, coarse)) == _congruence_kernel_order(f, c)


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
                if _refines(fine, coarse)
            ]
    nc_rep = load_rep(str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"))
    return pairs + [pytest.param(QuotientSpec.make(2, nc_rep), QuotientSpec.make(2), id="nc_rep-plain")]


@pytest.mark.parametrize("fine, coarse", _coset_action_pairs())
def test_coset_action_kernel_matches_the_schreier_oracle(fine, coarse):
    listing = _assert_kernel_matches_listing(fine, coarse)
    assert listing.elements[0] == quotient_context(fine).identity
    assert len(set(listing.elements)) == len(listing)
    assert listing.as_set() == schreier_kernel(fine, coarse).as_set()


@pytest.mark.parametrize("f, c", [(8, 2), (8, 4), (9, 3), (12, 4)])
def test_kernel_direct_path_closed_form(f, c):
    # these quotients have 1.6 to 24 million elements, so membership is
    # compared on the listing, on its neighbours one generator step away,
    # and on random elements
    fine = QuotientSpec.make(f)
    ctx = quotient_context(fine)
    listing = kernel_listing(fine, QuotientSpec.make(c))
    rng = random.Random(f * 100 + c)
    linear = subgroup_closure(ctx, ctx.generators[4:]).elements
    sample = [SdElement(Mat2(*(rng.randrange(f) for _ in range(4)), f), *rng.choice(linear)[1:]) for _ in range(500)]
    neighbours = [sd_mul(x, g) for x in listing for g in ctx.generators]
    _assert_kernel_matches_listing(fine, QuotientSpec.make(c), [*listing, *neighbours, *sample])
    assert listing.elements[0] == ctx.identity
    assert len(set(listing.elements)) == len(listing) == _congruence_kernel_order(f, c)
    for x in listing:
        assert x.sigma is None and x.a.m == x.h.m == f
        assert x.a.reduce(c) == Mat2.zero(c)
        assert x.h.reduce(c) == Mat2.identity(c)
        assert x.h.det() == 1


def test_kernel_with_coset_action_takes_the_coset_action_path(monkeypatch):
    # the order counts the closure of L, the images of S and T, not SL2
    rep = congruence_rep(2)
    fine, coarse = QuotientSpec.make(4, rep), QuotientSpec.make(2, rep)
    calls = []
    closure = profinite.subgroup_closure

    def spy(ctx, gens, budgets=Budgets()):
        calls.append(tuple(gens))
        return closure(ctx, gens, budgets)

    monkeypatch.setattr(profinite, "subgroup_closure", spy)
    kernel = kernel_of_refinement(fine, coarse)
    assert calls == [quotient_context(fine).generators[4:]]
    assert len(kernel) == _congruence_kernel_order(4, 2)
    monkeypatch.undo()
    listing = _assert_kernel_matches_listing(fine, coarse)
    assert listing.as_set() == _filter_kernel(fine, coarse)


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
    restrict = element_restriction(fine, coarse)
    assert restrict is not None
    cid = quotient_context(coarse).identity
    for g in quotient_context(fine).generators:
        assert restrict(g).sigma == (0,)
    assert restrict(quotient_context(fine).identity) == cid
    assert _assert_kernel_matches_listing(fine, coarse).as_set() == _filter_kernel(fine, coarse)


def _specs(m, d_max):
    """The plain quotient mod ``m``, then every subgroup of degree <= ``d_max`` on it."""
    return [QuotientSpec.make(m)] + [QuotientSpec.make(m, rep) for rep in low_index_reps(d_max, classes=False)]


@pytest.mark.parametrize("f, c, refining", [(2, 2, 144), (4, 2, 144), (3, 2, 0), (6, 3, 144)])
def test_refinement_and_restriction_match_the_word_oracles(f, c, refining):
    # the point map against Schreier generator words and the second walk
    # over the points, on 42 x 42 pairs of specs at each modulus pair
    seen = 0
    for fine in _specs(f, 6):
        elements = (quotient_context(fine).identity,) + quotient_context(fine).generators
        for coarse in _specs(c, 6):
            restrict, oracle = element_restriction(fine, coarse), oracle_element_restriction(fine, coarse)
            assert (restrict is None) == (oracle is None) == (not oracle_refined_by(coarse, fine)), (fine, coarse)
            if restrict is not None:
                seen += 1
                assert [restrict(x) for x in elements] == [oracle(x) for x in elements], (fine, coarse)
    assert seen == refining


_NOT_REFINED = "kernel_of_refinement: the first spec does not refine the second"


def test_kernel_requires_refinement():
    with pytest.raises(PreconditionError, match=_NOT_REFINED):
        kernel_of_refinement(QuotientSpec.make(2), QuotientSpec.make(4))


def test_kernel_requires_a_point_map_when_the_moduli_divide():
    # 2 divides 4, but the level-2 coset action (degree 6) does not lie under
    # nc_rep's (degree 7), so the point map fails, element_restriction
    # returns None and kernel_of_refinement refuses the pair
    nc_rep = load_rep(str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"))
    fine, coarse = QuotientSpec.make(4, congruence_rep(2)), QuotientSpec.make(2, nc_rep)
    assert element_restriction(fine, coarse) is None
    with pytest.raises(PreconditionError, match=_NOT_REFINED):
        kernel_of_refinement(fine, coarse)


@pytest.mark.parametrize("m", [1, 0])
def test_quotient_context_refuses_a_modulus_below_2(m):
    # QuotientSpec(m) skips make's check, and the identity's Mat2.zero refuses it
    with pytest.raises(ValidationError, match=f"^modulus must be at least 2, got {m}$"):
        quotient_context(QuotientSpec(m))


_PROPERTY_REPS = low_index_reps(6)


@st.composite
def _kernel_cases(draw):
    """(fine, coarse, gens, elements, rng): a refinement with f <= 8 and
    actions of degree <= 6, a few random elements of the fine quotient to
    generate U, more to test against U * ker, and a seeded Random."""
    # proper refinements first, which hypothesis draws more often
    f, c = draw(st.sampled_from(((4, 2), (6, 2), (6, 3), (8, 4), (8, 2), (2, 2), (3, 3), (4, 4), (8, 8))))
    fine = QuotientSpec.make(f, draw(st.one_of(st.none(), st.sampled_from(_PROPERTY_REPS))))
    refined = [r for r in _PROPERTY_REPS if _refines(fine, QuotientSpec.make(c, r))]
    coarse = QuotientSpec.make(c, draw(st.one_of(st.none(), st.sampled_from(refined))))
    gens = quotient_context(fine).generators
    words = st.lists(st.integers(0, len(gens) - 1), max_size=12)

    def element(word):
        x = quotient_context(fine).identity
        for i in word:
            x = sd_mul(x, gens[i])
        return x

    u_gens = [element(w) for w in draw(st.lists(words, min_size=1, max_size=3))]
    elements = [element(w) for w in draw(st.lists(words, min_size=1, max_size=8))]
    return fine, coarse, u_gens, elements, random.Random(draw(st.integers(0, 2**32)))


@settings(derandomize=True, deadline=None, database=None, max_examples=100,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(case=_kernel_cases())
def test_membership_in_u_times_the_kernel_agrees_with_the_listing(case):
    fine, coarse, u_gens, elements, rng = case
    try:
        listing = kernel_listing(fine, coarse, Budgets(closure_cap=20_000))
        u = subgroup_closure(quotient_context(fine), u_gens, Budgets(closure_cap=2_000))
    except BudgetError:
        assume(False)
    kernel = kernel_of_refinement(fine, coarse)
    assert len(kernel) == len(listing)
    # elements of U * ker as well as the drawn ones, most of which lie outside
    elements += [sd_mul(rng.choice(u.elements), rng.choice(listing.elements)) for _ in range(8)]
    # g lies in U * ker when g lies in U or restricts as an element of U does
    restrict = element_restriction(fine, coarse)
    restricted = {restrict(x) for x in u.elements}
    ctx = quotient_context(fine)
    for g in elements:
        member = g in u or restrict(g) in restricted
        assert member == product_member(ctx, g, u, listing), (fine, coarse, g)


# ---------------------------------------------------------------------------
# formations


def test_formation_filters():
    pro2 = Formation.make(2)
    assert pro2.admits(QuotientSpec.make(4))
    assert not pro2.admits(QuotientSpec.make(6))
    # the level-2 coset action has a non-2-group image
    assert not pro2.admits(QuotientSpec.make(2, congruence_rep(2)))
    # a degree-2 action with a C2 image is fine
    c2 = PermRep.make(2, (1, 0), (1, 0))
    assert pro2.admits(QuotientSpec.make(2, c2))
    with pytest.raises(ValidationError):
        Formation.make(None)
    with pytest.raises(ValidationError):
        Formation.make(4)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pro_p_check_matches_the_closure_oracle(p):
    # the closed form against the order of the closed permutation group, on
    # all 83 subgroups of degree <= 7
    formation = Formation.make(p)
    reps = low_index_reps(7, classes=False)
    assert len(reps) == 83
    for rep in reps:
        spec = QuotientSpec.make(p, rep)
        assert formation.admits(spec) == oracle_admits(formation, spec), rep


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"filter": {"type": "pro-p", "p": "x"}}, None),
        ({"filter": "pro-p"}, None),
        ({"filter": {"type": "pro-p", "p": 4}}, None),
        ({"filter": {"type": "pro-p", "p": True}}, None),
        ({"filter": {"type": "all", "p": 3}}, "spec 'filter' type must be 'pro-p', got 'all'"),
        ({"filter": {"p": 2}}, "spec 'filter' type must be 'pro-p', got None"),
        ({"filter": ["pro-p", 2]}, None),
        ({"fliter": {"type": "pro-p", "p": 2}}, "quotient spec has unknown key 'fliter'"),
        ({"filter": {"type": "pro-p", "p": 2, "P": 3}}, "spec 'filter' has unknown key 'P'"),
        ({"filter": None, "rep": None, "note": ""}, "quotient spec has unknown key 'note'"),
        ({"rep": {"degree": 1, "s": [0], "t": [0], "typo": 5}}, "permutation representation has unknown key 'typo'"),
        ({"filter": {"type": "all"}}, "spec 'filter' type must be 'pro-p', got 'all'; null admits every quotient"),
        ({"filter": {}}, "spec 'filter' type must be 'pro-p', got None"),
        ({"filter": {"type": "pro-p"}}, "pro-p formation needs a prime p, got None"),
    ],
)
def test_bad_spec_filters_are_validation_errors(fields, message):
    with pytest.raises(ValidationError, match=message):
        spec_from_json({"m": 4, **fields})


def test_spec_filter_reads_report_strings():
    spec = spec_from_json({"m": "4", "filter": {"type": "pro-p", "p": "2"}})
    assert spec.formation == Formation.make(2)


@pytest.mark.parametrize(
    "read, data",
    [
        (rep_from_json, {"degree": 1.9, "s": [0], "t": [0]}),
        (rep_from_json, {"degree": True, "s": [0], "t": [0]}),
        (rep_from_json, {"degree": "01", "s": [0], "t": [0]}),
        (rep_from_json, {"degree": 1, "s": [0.5], "t": [False]}),
        (spec_from_json, {"m": 2.0}),
        (spec_from_json, {"m": "02"}),
        (spec_from_json, {"m": 4, "filter": {"type": "pro-p", "p": 2.5}}),
        (spec_from_json, {"m": 4, "filter": {"type": "pro-p", "p": " 2"}}),
    ],
)
def test_json_readers_take_only_integers(read, data):
    # int() reads each of these as an integer: 1.9 and true as 1, "02" as 2
    with pytest.raises(ValidationError, match="expected an integer"):
        read(data)
    assert rep_from_json({"degree": 1, "s": ["0"], "t": [0]}) == PermRep.make(1, (0,), (0,))
    assert spec_from_json({"m": "2", "filter": {"type": "pro-p", "p": 2}}).m == 2


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
    m_spec = QuotientSpec.make(2, None, Formation.make(2))
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
        thm_b_probe(H_GENS, k_gens(), None, IDENTITY, [])


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
        thm_b_probe(H_GENS, H_GENS, (IDENTITY,), IDENTITY, [QuotientSpec.make(2)])


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
    rep_path.write_text(canonical_dumps(rep))
    tower_path = tmp_path / "tower.json"
    tower_path.write_text(json.dumps([{"m": 2}, {"m": 4}, {"m": 2, "rep": "rep.json"}]))
    tower = load_tower(str(tower_path))
    assert tower == [QuotientSpec.make(2), QuotientSpec.make(4), QuotientSpec.make(2, rep)]
    # only --m-spec's filter is read, so a tower entry refuses one
    tower_path.write_text(json.dumps([{"m": 2}, {"m": 4, "filter": {"type": "pro-p", "p": 2}}]))
    with pytest.raises(ValidationError, match="a tower entry takes no filter"):
        load_tower(str(tower_path))


def test_tower_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValidationError):
        load_tower(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ValidationError):
        load_tower(str(bad))
