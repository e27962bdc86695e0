import random
from collections import Counter

import pytest

import cosetope.modular
from cosetope.arith import MAT_T, Mat2, psl2_group_order
from cosetope.budgets import Budgets
from cosetope.errors import BudgetError, PreconditionError, ValidationError
from cosetope.groupcore import subgroup_closure
from cosetope.modular import (
    ModularWord,
    PermRep,
    congruence_gap_witness,
    congruence_rep,
    is_congruence,
    low_index_reps,
    matrix_to_word,
    perm_cycle_lengths,
    principal_congruence_generators,
    psl2_canon,
    psl2_context,
    rep_contains,
    rep_image_mod,
    rep_level,
    subgroup_generators,
    word_eval,
    _restandardize,
)

from t_util import count_closures, naive_rep_counts, perm_context


def random_word(rng, max_len=30):
    return ModularWord.of(*[rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, max_len))])


# ---------------------------------------------------------------------------
# words


def test_word_eval_examples():
    assert word_eval(ModularWord()) == Mat2.identity()
    assert word_eval(ModularWord.from_str("TTT")) == Mat2.ambient(1, 3, 0, 1)
    assert word_eval(ModularWord.from_str("SS")) == -Mat2.identity()


def test_free_reduction():
    assert ModularWord.from_str("Ss") == ModularWord()
    assert ModularWord.from_str("TtS") == ModularWord.from_str("S")
    w = ModularWord.from_str("ST")
    assert w * w.inverse() == ModularWord()


def test_word_string_round_trip():
    rng = random.Random(21)
    for _ in range(100):
        w = random_word(rng)
        assert ModularWord.from_str(str(w)) == w


def test_word_rejects_bad_letters():
    with pytest.raises(ValidationError):
        ModularWord.of(3)
    with pytest.raises(ValidationError):
        ModularWord.from_str("SX")


def test_matrix_to_word_examples():
    assert matrix_to_word(Mat2.identity()) == ModularWord()
    w = matrix_to_word(Mat2.ambient(1, 3, 0, 1))
    assert word_eval(w) == Mat2.ambient(1, 3, 0, 1)
    w = matrix_to_word(-Mat2.identity())
    assert word_eval(w) == -Mat2.identity()


def test_matrix_to_word_round_trip_random():
    rng = random.Random(22)
    for _ in range(2000):
        x = word_eval(random_word(rng))
        assert word_eval(matrix_to_word(x)) == x


def test_matrix_to_word_rejects_wrong_determinant():
    with pytest.raises(ValidationError):
        matrix_to_word(Mat2.ambient(2, 0, 0, 1))
    with pytest.raises(ValidationError):
        matrix_to_word(Mat2.identity(5))


# ---------------------------------------------------------------------------
# permutation representations


def test_permrep_validation():
    with pytest.raises(ValidationError):
        PermRep.make(2, (0, 1), (1, 1))
    with pytest.raises(ValidationError):
        PermRep.make(2, (0, 1), (1, 0))  # (st)^3 != 1
    with pytest.raises(ValidationError):
        PermRep.make(2, (0, 1), (0, 1))  # not transitive
    rep = PermRep.make(1, (0,), (0,))
    assert rep.degree == 1


def test_permrep_json_round_trip():
    rep = congruence_rep(2)
    data = rep.to_json()
    assert PermRep.from_json(data) == rep
    # decimal-string payloads parse too
    data2 = {"degree": str(rep.degree), "s": [str(v) for v in rep.perm_s], "t": [str(v) for v in rep.perm_t]}
    assert PermRep.from_json(data2) == rep


def test_rep_contains_identity_and_full_group():
    for rep in low_index_reps(4):
        assert rep_contains(rep, ModularWord())
    full = PermRep.make(1, (0,), (0,))
    rng = random.Random(23)
    for _ in range(20):
        assert rep_contains(full, word_eval(random_word(rng)))


def test_rep_contains_level_two_example():
    rep = congruence_rep(2)
    assert rep.degree == 6
    assert not rep_contains(rep, MAT_T)
    assert rep_contains(rep, MAT_T * MAT_T)


def test_rep_contains_matches_reduction_oracle_on_congruence_reps():
    rng = random.Random(24)
    for m in (2, 3):
        rep = congruence_rep(m)
        for _ in range(300):
            w = random_word(rng, max_len=20)
            x = word_eval(w)
            xm = x.reduce(m)
            is_pm_identity = xm == Mat2.identity(m) or xm == (-Mat2.identity()).reduce(m)
            assert rep_contains(rep, w) == is_pm_identity


def test_rep_level_examples():
    assert rep_level(PermRep.make(1, (0,), (0,))) == 1
    assert rep_level(congruence_rep(2)) == 2
    single_cycle = [r for r in low_index_reps(7) if len(perm_cycle_lengths(r.perm_t)) == 1 and r.degree == 7]
    assert single_cycle, "expected a degree-7 action with a single t-cycle"
    assert all(rep_level(r) == 7 for r in single_cycle)


# ---------------------------------------------------------------------------
# low-index enumeration


def test_low_index_trivial_degree():
    reps = low_index_reps(1)
    assert len(reps) == 1
    assert reps[0] == PermRep.make(1, (0,), (0,))


def test_low_index_reps_satisfy_relations_and_transitivity():
    for rep in low_index_reps(7):
        PermRep.make(rep.degree, rep.perm_s, rep.perm_t)  # revalidates everything


def test_low_index_counts_match_naive_oracle_small_degrees():
    classes = low_index_reps(5)
    subgroups = low_index_reps(5, classes=False)
    by_degree_c = Counter(r.degree for r in classes)
    by_degree_s = Counter(r.degree for r in subgroups)
    for d in range(1, 6):
        _, nsub, nclass = naive_rep_counts(d)
        assert by_degree_s[d] == nsub
        assert by_degree_c[d] == nclass


def test_low_index_deterministic_and_canonical():
    once = low_index_reps(6)
    twice = low_index_reps(6)
    assert once == twice
    for rep in once:
        canonical = min(_restandardize(rep.perm_s, rep.perm_t, b) for b in range(rep.degree))
        assert canonical == (rep.perm_s, rep.perm_t)


def test_low_index_cap():
    with pytest.raises(BudgetError):
        low_index_reps(13)
    with pytest.raises(ValidationError):
        low_index_reps(0)


# ---------------------------------------------------------------------------
# subgroup generators


def test_trivial_rep_generators_are_s_and_t():
    gens = subgroup_generators(PermRep.make(1, (0,), (0,)))
    assert gens == [ModularWord.from_str("S"), ModularWord.from_str("T")]


def test_subgroup_generators_fix_basepoint():
    for rep in low_index_reps(6):
        for w in subgroup_generators(rep):
            assert rep.word_point(w) == 0


def test_subgroup_generator_images_have_index_degree():
    for rep in low_index_reps(5):
        ctx = perm_context(rep.degree, [rep.perm_s, rep.perm_t])
        whole = ctx.enumerate()
        images = [rep.word_perm(w) for w in subgroup_generators(rep)]
        stab = subgroup_closure(ctx, images)
        assert len(whole) == rep.degree * len(stab)


# ---------------------------------------------------------------------------
# congruence testing


def test_trivial_rep_is_congruence():
    assert is_congruence(PermRep.make(1, (0,), (0,)))


def test_level_two_rep_is_congruence():
    rep = congruence_rep(2)
    assert rep.degree == 6
    assert is_congruence(rep)
    # image mod 2 is trivial, so the index equals the full group order
    image = rep_image_mod(rep, 2)
    assert len(image) == 1


def test_rep_image_is_closed_once_and_cap_holds_on_cached_images(monkeypatch):
    monkeypatch.setattr(cosetope.modular, "_rep_images", {})
    calls = count_closures(monkeypatch, cosetope.modular)
    rep = congruence_rep(2)
    first = rep_image_mod(rep, 6, Budgets(closure_cap=1000))
    assert len(first) == psl2_group_order(6) // rep.degree
    assert rep_image_mod(rep, 6) is first
    assert rep_image_mod(rep, 6, Budgets(closure_cap=len(first))) is first
    with pytest.raises(BudgetError, match="closure_cap"):
        rep_image_mod(rep, 6, Budgets(closure_cap=len(first) - 1))
    assert [name for name, _ in calls.elements()] == ["PSL2(Z/6)"]


def test_is_congruence_honours_the_closure_cap():
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    with pytest.raises(BudgetError):
        is_congruence(rep, budgets=Budgets(closure_cap=10))
    with pytest.raises(BudgetError):
        congruence_gap_witness(rep, 24, budgets=Budgets(closure_cap=10))


def _congruence_by_containment(rep):
    n = rep_level(rep)
    if n == 1:
        return rep.degree == 1
    return all(rep.word_point(w) == 0 for w in principal_congruence_generators(n))


def test_is_congruence_agrees_with_containment_oracle_degree_6():
    for rep in low_index_reps(6):
        assert is_congruence(rep) == _congruence_by_containment(rep)


def test_noncongruence_exists_at_degree_7():
    reps = low_index_reps(7)
    noncongruence = [r for r in reps if not is_congruence(r)]
    assert noncongruence
    assert all(r.degree == 7 for r in noncongruence)


def test_congruence_rep_properties():
    for m in (2, 3, 4):
        rep = congruence_rep(m)
        assert rep_level(rep) == m
        assert is_congruence(rep)
        assert len(psl2_context(m).enumerate()) == rep.degree


def test_principal_congruence_generators_reduce_to_identity():
    for m in (2, 3):
        for w in principal_congruence_generators(m):
            xm = word_eval(w).reduce(m)
            assert xm in (Mat2.identity(m), (-Mat2.identity()).reduce(m))


# ---------------------------------------------------------------------------
# congruence-gap witnesses


def _minimal_noncongruence():
    for rep in low_index_reps(7):
        if not is_congruence(rep):
            return rep
    raise AssertionError("no noncongruence representation found")


def test_gap_witness_rejects_congruence_rep():
    with pytest.raises(PreconditionError):
        congruence_gap_witness(congruence_rep(2), 4)


def test_gap_witness_on_minimal_noncongruence_rep():
    rep = _minimal_noncongruence()
    witness = congruence_gap_witness(rep, 24, m_max=24)
    assert witness is not None
    assert witness.displaced_to != 0
    assert not rep_contains(rep, witness.word)
    assert word_eval(witness.word) == witness.x
    assert witness.x.det() == 1
    assert witness.x.reduce(24) == Mat2.identity(24)
    for m in (2, 3, 4, 6, 8, 12, 24):
        assert m in witness.levels_verified
    for m in witness.levels_verified:
        assert psl2_canon(witness.x.reduce(m)) in rep_image_mod(rep, m)


def test_gap_witness_level_is_small_multiple_of_rep_level():
    rep = _minimal_noncongruence()
    level = rep_level(rep)
    # a witness exists at the representation's own level scaled by <= 24
    multiplier = 24 // level if level <= 24 and 24 % level == 0 else 1
    witness = congruence_gap_witness(rep, level * max(multiplier, 1), m_max=4)
    assert witness is not None


def test_gap_witness_seed_phase_can_find_witnesses():
    # when the rep level does not divide the search level, the elementary
    # seeds act nontrivially and phase one may already produce the witness
    rep = _minimal_noncongruence()
    level = rep_level(rep)
    probe = 5 if level % 5 != 0 else 7
    witness = congruence_gap_witness(rep, probe, m_max=probe)
    assert witness is None or witness.displaced_to != 0
