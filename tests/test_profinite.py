import itertools
import json
import random
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

import cosetope.profinite as profinite
from cosetope.arith import Mat2, sl2_group_order
from cosetope.budgets import Budgets
from cosetope.errors import BudgetError, ValidationError, shown
from cosetope.gs import l_group_words
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
    gamma_image_order,
    is_congruence,
    low_index_reps,
    congruence_gap_witness,
)
from cosetope.profinite import (
    ADDITIVE_UNITS,
    DEFAULT_TOWER,
    GroupWord,
    QuotientSpec,
    element_restriction,
    image_member,
    image_subgroup,
    kernel_of_refinement,
    project,
    quotient_context,
    spec_group_order,
    thm_b_probe,
    tractable_at,
)
from cosetope.report import canonical_dumps, rep_from_json, spec_from_json
from cosetope.report import rep as read_rep, tower as read_tower

from t_util import (
    congruence_rep,
    count_closures,
    enumerate_group,
    gw_inv,
    gw_mul,
    hi_exclusion_check,
    inverse_step_closure,
    kernel_listing,
    linear_closure_order,
    normal_closure,
    oracle_element_restriction,
    oracle_refined_by,
    quotient_closure_order,
    random_word,
    s3_context,
    schreier_kernel,
    spy_walks,
    subgroup_pool,
)


NC_REP = read_rep(str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"))
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
        assert len(enumerate_group(quotient_context(spec))) == expected


def test_quotient_order_with_a_coset_action_matches_the_closure_of_l():
    # |L| = |SL2(Z/m)| |sigma(Gamma(m))| against the closure of the images of
    # S and T, for every class of degree <= 6 at m = 2, 3, 4, and nc_rep at 2
    pairs = [(rep, m) for rep in low_index_reps(6) for m in (2, 3, 4)]
    assert len(pairs) == 45
    for rep, m in pairs + [(NC_REP, 2)]:
        spec = QuotientSpec.make(m, rep)
        assert spec_group_order(spec) == m ** 4 * linear_closure_order(spec), (rep, m)
    assert linear_closure_order(QuotientSpec.make(2, NC_REP)) == 15_120 == 6 * gamma_image_order(NC_REP, 2)


def test_quotient_order_with_a_coset_action_matches_the_closure_count():
    # the whole quotient listed, as quotient --enumerate once counted it
    for rep in low_index_reps(4):
        spec = QuotientSpec.make(2, rep)
        assert spec_group_order(spec) == quotient_closure_order(spec), rep


def test_closure_by_the_generators_alone_lists_the_inverse_step_closure(monkeypatch):
    # in a finite group g^-1 = g^(n-1), so subgroup_closure needs no inverse
    # step: it lists the set the inverse-step oracle lists, in another order
    for spec in [QuotientSpec.make(m) for m in range(2, 7)] + [QuotientSpec.make(2, NC_REP)]:
        for gens in (H_GENS, k_gens()):
            oracle = inverse_step_closure(quotient_context(spec), [project(g, spec) for g in gens])
            assert image_subgroup(gens, spec).as_set() == oracle.as_set(), spec
    # every permutation group gamma_image_order closes for the classes of
    # degree 7, at n = 1 and 2 (g = 1, and g = 2 for the classes of even level)
    closed = []

    def spy(ctx, gens, budgets=Budgets()):
        image = subgroup_closure(ctx, gens, budgets)
        closed.append((ctx, tuple(gens), image))
        return image

    monkeypatch.setattr("cosetope.modular.subgroup_closure", spy)
    reps = [rep for rep in low_index_reps(7) if rep.degree == 7]
    for rep, n in itertools.product(reps, (1, 2)):
        gamma_image_order(rep, n)
    assert len(closed) > 2 * len(reps)
    for ctx, gens, image in closed:
        assert image.as_set() == inverse_step_closure(ctx, gens).as_set(), gens


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
    # restriction after projection is projection, plain and with coset
    # actions: tractable_at tests each element's restriction in the target
    rng = random.Random(33)
    pairs = [
        (QuotientSpec.make(8), QuotientSpec.make(4)),
        (QuotientSpec.make(4, NC_REP), QuotientSpec.make(2, NC_REP)),
        (QuotientSpec.make(4, NC_REP), QuotientSpec.make(2)),
        *((QuotientSpec.make(6, r), QuotientSpec.make(3, r)) for r in low_index_reps(4)),
    ]
    for fine, coarse in pairs:
        restrict = element_restriction(fine, coarse)
        for _ in range(150):
            g = random_groupword(rng)
            assert restrict(project(g, fine)) == project(g, coarse), (fine, coarse, g)


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
    assert set(_fine_elements(fine)) == enumerate_group(quotient_context(fine)).as_set()
    listing = _assert_kernel_matches_listing(fine, coarse)
    restrict = element_restriction(fine, coarse)
    cid = quotient_context(coarse).identity
    for x in listing:
        assert restrict(x) == cid


def _filter_kernel(fine, coarse):
    """Oracle: the elements of the whole fine quotient that restrict to the identity."""
    restrict = element_restriction(fine, coarse)
    cid = quotient_context(coarse).identity
    return frozenset(x for x in enumerate_group(quotient_context(fine)) if restrict(x) == cid)


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
    return pairs + [pytest.param(QuotientSpec.make(2, NC_REP), QuotientSpec.make(2), id="nc_rep-plain")]


@pytest.mark.parametrize("fine, coarse", _coset_action_pairs())
def test_coset_action_kernel_matches_the_schreier_oracle(fine, coarse):
    listing = _assert_kernel_matches_listing(fine, coarse)
    assert listing.elements[0] == quotient_context(fine).identity
    assert len(set(listing.elements)) == len(listing)
    assert listing.as_set() == schreier_kernel(fine, coarse).as_set()


def test_coset_action_kernel_of_nc_rep_four_over_two_matches_the_listing():
    # (4/2)^4 * (48 * 2,520) / (6 * 2,520) = 128 without the closure of L_4,
    # whose 120,960 elements the listing filters
    fine, coarse = QuotientSpec.make(4, NC_REP), QuotientSpec.make(2, NC_REP)
    start = time.perf_counter()
    kernel = kernel_of_refinement(fine, coarse)
    assert time.perf_counter() - start < 0.5
    listing = kernel_listing(fine, coarse)
    assert kernel.order == len(listing) == 128
    restrict, cid = element_restriction(fine, coarse), quotient_context(coarse).identity
    assert all(restrict(x) == cid for x in listing)


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


def test_kernel_with_coset_action_lists_no_quotient_element(monkeypatch):
    # the order (4/2)^4 |L_4| / |L_2| closes only permutations: the image of
    # Gamma(4) and of Gamma(2) in the level-2 coset action, both trivial and
    # both read off the walk over PSL2(Z/2), as gcd(4, 2) = 2
    rep = congruence_rep(2)
    fine, coarse = QuotientSpec.make(4, rep), QuotientSpec.make(2, rep)
    closures = count_closures(monkeypatch)
    walks = spy_walks(monkeypatch)
    kernel = kernel_of_refinement(fine, coarse)
    assert {name for name, _ in closures} == {"the coset action of Gamma(4)", "the coset action of Gamma(2)"}
    assert [(w.caller, w.n, len(w.seen)) for w in walks] == [("gamma_image_order", 2, 6)] * 2
    assert len(kernel) == _congruence_kernel_order(4, 2)
    monkeypatch.undo()
    listing = _assert_kernel_matches_listing(fine, coarse)
    assert listing.as_set() == _filter_kernel(fine, coarse)


def test_kernel_budget_fails_before_building():
    with pytest.raises(BudgetError, match="closure_cap"):
        kernel_of_refinement(QuotientSpec.make(8), QuotientSpec.make(2), Budgets(closure_cap=1000))


def test_coset_action_kernel_honours_the_closure_cap():
    # the walk over PSL2(Z/2), of 6 elements (the level-2 action reads
    # Gamma(4) at gcd(4, 2) = 2), and the kernel's order, 16 * 8, each run
    # under the cap; so does the closure of the image of Gamma(4) in
    # nc_rep's coset action, of 2,520 permutations
    rep = congruence_rep(2)
    fine, coarse = QuotientSpec.make(4, rep), QuotientSpec.make(2, rep)
    with pytest.raises(BudgetError, match=r"PSL2\(Z/2\) has 6 elements > 5"):
        kernel_of_refinement(fine, coarse, Budgets(closure_cap=5))
    with pytest.raises(BudgetError, match="refinement kernel 4 -> 2 has 128 elements > 6"):
        kernel_of_refinement(fine, coarse, Budgets(closure_cap=6))
    with pytest.raises(BudgetError, match="refinement kernel 4 -> 2 has 128 elements > 100"):
        kernel_of_refinement(fine, coarse, Budgets(closure_cap=100))
    assert len(kernel_of_refinement(fine, coarse, Budgets(closure_cap=128))) == 128
    fine, coarse = QuotientSpec.make(4, NC_REP), QuotientSpec.make(2, NC_REP)
    with pytest.raises(BudgetError, match=r"more than 2519 elements in the coset action of Gamma\(4\)"):
        kernel_of_refinement(fine, coarse, Budgets(closure_cap=2519))
    assert len(kernel_of_refinement(fine, coarse, Budgets(closure_cap=2520))) == 128


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
    # g lies in U * ker exactly when it restricts into the restriction of U,
    # which is the closure of its generators' restrictions in the coarse
    # quotient: the one closure tractable_at makes
    restrict = element_restriction(fine, coarse)
    target = subgroup_closure(quotient_context(coarse), [restrict(x) for x in u_gens])
    assert target.as_set() == {restrict(x) for x in u.elements}
    ctx = quotient_context(fine)
    for g in elements:
        assert (restrict(g) in target) == product_member(ctx, g, u, listing), (fine, coarse, g)


# ---------------------------------------------------------------------------
# spec readers


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"filter": {"type": "pro-p", "p": "x"}}, None),
        ({"filter": "pro-p"}, None),
        ({"filter": {"type": "pro-p", "p": 4}}, None),
        ({"filter": {"type": "pro-p", "p": True}}, None),
        ({"filter": {"type": "all", "p": 3}}, None),
        ({"filter": {"p": 2}}, None),
        ({"filter": ["pro-p", 2]}, None),
        ({"fliter": {"type": "pro-p", "p": 2}}, "quotient spec has unknown key 'fliter'"),
        ({"filter": {"type": "pro-p", "p": 2, "P": 3}}, None),
        ({"filter": None, "rep": None, "note": ""}, "quotient spec has unknown key 'note'"),
        ({"rep": {"degree": 1, "s": [0], "t": [0], "typo": 5}}, "permutation representation has unknown key 'typo'"),
        ({"filter": {"type": "all"}}, None),
        ({"filter": {}}, None),
        ({"filter": 0}, None),
    ],
)
def test_bad_spec_filters_are_validation_errors(fields, message):
    # a message of None is the one refusal of a filter that is not null
    filter_message = f"spec 'filter' must be null, got {shown(fields.get('filter'))}"
    with pytest.raises(ValidationError) as exc:
        spec_from_json({"m": 4, **fields})
    assert (message or filter_message) in str(exc.value)


def test_spec_filter_reads_report_strings():
    # a report records every spec with a null filter, which reads as none
    assert spec_from_json({"m": "4", "filter": None}) == spec_from_json({"m": "4"}) == QuotientSpec.make(4)


@pytest.mark.parametrize(
    "read, data",
    [
        (rep_from_json, {"degree": 1.9, "s": [0], "t": [0]}),
        (rep_from_json, {"degree": True, "s": [0], "t": [0]}),
        (rep_from_json, {"degree": "01", "s": [0], "t": [0]}),
        (rep_from_json, {"degree": 1, "s": [0.5], "t": [False]}),
        (spec_from_json, {"m": 2.0}),
        (spec_from_json, {"m": "02"}),
        (spec_from_json, {"m": True, "filter": None}),
        (spec_from_json, {"m": " 2", "filter": None}),
    ],
)
def test_json_readers_take_only_integers(read, data):
    # int() reads each of these as an integer: 1.9 and true as 1, "02" as 2
    with pytest.raises(ValidationError, match="expected an integer"):
        read(data)
    assert rep_from_json({"degree": 1, "s": ["0"], "t": [0]}) == PermRep.make(1, (0,), (0,))
    assert spec_from_json({"m": "2", "filter": None}).m == 2


# ---------------------------------------------------------------------------
# tractable_at


def test_tractable_equal_subgroups_succeed_at_target():
    m_spec = QuotientSpec.make(2)
    report = tractable_at(H_GENS, H_GENS, H_GENS, m_spec, [m_spec])
    assert report["found"] == m_spec
    assert report["entries"][0]["status"] == "ok"


def test_tractable_trivial_k_succeeds():
    m_spec = QuotientSpec.make(3)
    report = tractable_at(H_GENS, (), (), m_spec, [m_spec])
    assert report["found"] == m_spec


def test_tractable_example_data_over_congruence_candidates():
    # intersection of the images is trivial at every plain congruence level,
    # so the inclusion holds at the very first candidate
    m_spec = QuotientSpec.make(2)
    report = tractable_at(H_GENS, k_gens(), (), m_spec, DEFAULT_TOWER)
    assert report["found"] == QuotientSpec.make(2)
    sizes = report["entries"][0]["sizes"]
    assert sizes["image_intersection"] == 1


def test_tractable_monotone_under_refinement():
    m_spec = QuotientSpec.make(2)
    for m in (2, 4, 8):
        report = tractable_at(H_GENS, k_gens(), (), m_spec, [QuotientSpec.make(m)])
        assert report["found"] == QuotientSpec.make(m)


def test_tractable_underclaimed_intersection_is_flagged():
    # claiming a trivial intersection for H = K forces visible violations
    m_spec = QuotientSpec.make(3)
    gens = (GroupWord.of_word(ModularWord.from_str("S")),)
    report = tractable_at(gens, gens, (), m_spec, [m_spec])
    assert report["found"] is None
    entry = report["entries"][0]
    assert entry["status"] == "violation"
    assert entry["violations"]
    ctx = quotient_context(m_spec)
    u = image_subgroup(gens, m_spec)
    for violation in entry["violations"]:
        assert violation in u
        assert violation != ctx.identity


def test_tractable_closes_no_claimed_intersection_that_misses_the_images():
    # T does not land in image(<S>) mod 8, so the candidate fails its
    # precondition before anything closes the claimed generators S and T,
    # whose image mod 8 has 384 elements, more than the cap of 100
    s = (GroupWord.of_word(ModularWord.from_str("S")),)
    report = tractable_at(s, s, H_GENS, QuotientSpec.make(2), [QuotientSpec.make(8)], Budgets(closure_cap=100))
    assert [entry["status"] for entry in report["entries"]] == ["precondition"]
    assert report["found"] is None


def test_tractable_reports_non_refining_candidates():
    m_spec = QuotientSpec.make(4)
    report = tractable_at(H_GENS, H_GENS, H_GENS, m_spec, [QuotientSpec.make(6), QuotientSpec.make(8)])
    assert report["entries"][0]["status"] == "precondition"
    assert report["found"] == QuotientSpec.make(8)


def test_tractable_violations_with_rep_carrying_target():
    # with the quotient carrying the coset action of a congruence-gap
    # subgroup, the trivial ambient intersection no longer controls the
    # finite-level one: the witness word itself realizes a violation
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    witness = congruence_gap_witness(rep, 24)
    spec = QuotientSpec.make(2, rep)
    report = tractable_at(H_GENS, k_gens(), (), spec, [spec])
    assert report["found"] is None
    entry = report["entries"][0]
    assert entry["status"] == "violation"
    u = project(GroupWord.of_word(witness["word"]), spec)
    ctx = quotient_context(spec)
    uh = image_subgroup(H_GENS, spec)
    uk = image_subgroup(k_gens(), spec)
    assert u in uh and u in uk
    assert u != ctx.identity


# ---------------------------------------------------------------------------
# separability probe


def test_probe_member_is_inconclusive_at_every_level():
    # g = h' * k is inside the double coset, so no level can exclude it
    hp_word = GroupWord.of_word(ModularWord.from_str("TT"))
    k_elt = gw_mul(gw_mul(I_CONJ, GroupWord.of_word(ModularWord.from_str("T"))), gw_inv(I_CONJ))
    g = gw_mul(hp_word, k_elt)
    outcome = thm_b_probe(H_GENS, k_gens(), None, g, DEFAULT_TOWER)
    assert outcome is None


def test_probe_whole_group_reduces_to_hk_and_certifies_by_det():
    g = GroupWord.of_a(Mat2.scalar(2))
    cert = thm_b_probe(H_GENS, k_gens(), None, g, DEFAULT_TOWER)
    assert cert is not None
    # det(2I + I) = 9, and the first level with 9 != 1 is 3
    assert cert["spec"] == QuotientSpec.make(3)
    assert cert["transcript"]["member"] is False


def test_probe_spot_checks_l_containment():
    # L = trivial subgroup cannot contain image(H) meet image(K) when H = K
    with pytest.raises(ValidationError, match=r"image\(H\) meet image\(K\) is not inside image\(L\) at modulus 2"):
        thm_b_probe(H_GENS, H_GENS, (IDENTITY,), IDENTITY, [QuotientSpec.make(2)])


def test_probe_with_gap_subgroup_is_inconclusive_on_congruence_tower():
    from cosetope.gs import h_prime_group_words

    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    witness = congruence_gap_witness(rep, 24)
    g = GroupWord.of_a(witness["x"] - Mat2.identity())
    a_gens = tuple(
        GroupWord.of_a(Mat2.ambient(*(1 if k == idx else 0 for k in range(4))))
        for idx in range(4)
    )
    l_gens = a_gens + tuple(h_prime_group_words(rep))
    tower = [QuotientSpec.make(m) for m in (2, 3, 4)]
    outcome = thm_b_probe(H_GENS, k_gens(), l_gens, g, tower)
    assert outcome is None


def test_the_additive_units_are_the_four_elementary_matrices():
    # image_member reads a subgroup holding them as one holding M2(Z), so
    # they must generate M2(Z), and l_group_words must hold them as they are
    elementary = (GroupWord.of_a(Mat2.ambient(*(int(k == idx) for k in range(4)))) for idx in range(4))
    assert ADDITIVE_UNITS == tuple(elementary)


@pytest.mark.parametrize("which", ["nc_rep", "congruence-degree-3"])
def test_membership_in_image_l_by_its_linear_part_agrees_with_the_listing(which):
    # the listing of image(L) that image_member skips for an L holding
    # M2(Z), kept as its oracle over every element of the quotient
    rep = NC_REP if which == "nc_rep" else next(r for r in low_index_reps(3) if r.degree == 3)
    l_gens = l_group_words(rep)
    proper = 0
    for spec in (QuotientSpec.make(2), QuotientSpec.make(3), QuotientSpec.make(2, rep)):
        listed = image_subgroup(l_gens, spec)
        member = image_member(l_gens, spec)
        elements = list(_fine_elements(spec))
        assert len(elements) == spec_group_order(spec)
        assert {x for x in elements if member(x)} == listed.as_set()
        proper += len(listed) < len(elements)
    assert proper  # some level holds elements off image(L)


# ---------------------------------------------------------------------------
# transversal exclusion


def test_hi_exclusion_whole_subgroup_vacuous():
    ctx = s3_context()
    full = enumerate_group(ctx)
    trivial = subgroup_closure(ctx, ())
    assert hi_exclusion_check(ctx, full, full, full, trivial)


def test_hi_exclusion_fails_on_a_transversal_element_inside_hp_k_n():
    ctx = s3_context()
    full = enumerate_group(ctx)
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
    text = json.dumps([{"m": 2}, {"m": 4}, {"m": 2, "rep": json.loads(canonical_dumps(rep))}])
    tower_path = tmp_path / "tower.json"
    tower_path.write_text(text)
    tower = read_tower(str(tower_path))
    assert tower == [QuotientSpec.make(2), QuotientSpec.make(4), QuotientSpec.make(2, rep)]
    # the same text inline reads the same tower
    assert read_tower(text) == tower
    # an entry's rep is inline only: a path in it is refused, not read
    (tmp_path / "rep.json").write_text(canonical_dumps(rep))
    with pytest.raises(ValidationError, match="expected a permutation representation object, got '"):
        read_tower(json.dumps([{"m": 2, "rep": str(tmp_path / "rep.json")}]))
    # an entry's filter must be null, as on --m-spec
    tower_path.write_text(json.dumps([{"m": 4, "filter": None}, {"m": 4, "filter": {"type": "pro-p", "p": 2}}]))
    with pytest.raises(ValidationError, match="spec 'filter' must be null, got {'type': 'pro-p', 'p': 2}"):
        read_tower(str(tower_path))


def test_tower_file_errors(tmp_path):
    missing = tmp_path / "nope.json"
    with pytest.raises(ValidationError):
        read_tower(str(missing))
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    with pytest.raises(ValidationError):
        read_tower(str(bad))
