import math
import random
from collections import Counter
from pathlib import Path

import pytest

import cosetope.modular
from cosetope.arith import MAT_T, Mat2, psl2_group_order
from cosetope.budgets import Budgets
from cosetope.errors import BudgetError, PreconditionError, ValidationError
from cosetope.groupcore import perm_mul, subgroup_closure
from cosetope.modular import (
    ModularWord,
    PermRep,
    congruence_gap_witness,
    discovery_tree,
    gamma_image_order,
    image_blocks,
    image_elements,
    is_congruence,
    low_index_reps,
    matrix_to_word,
    perm_cycle_lengths,
    psl2_canon,
    psl2_context,
    rep_level,
    subgroup_generators,
    tree_word,
    word_eval,
    _edge_word,
    _gamma_walk,
    _orbit_blocks,
    _restandardize,
)
from cosetope.report import rep as read_rep, rep_from_json

from t_util import (
    as_chars,
    congruence_rep,
    count_closures,
    enumerate_group,
    free_reduce,
    hsu_odd_level_congruence,
    image_closure,
    klein_fricke_blocks,
    naive_rep_counts,
    oracle_gamma_image_order,
    oracle_gamma_walk,
    oracle_low_index_reps,
    oracle_subgroup_generators,
    oracle_transversal_words,
    partition,
    perm_context,
    principal_congruence_generators,
    random_letters,
    random_word,
    spy_walks,
)


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


def test_words_agree_with_the_integer_letter_oracle():
    # 500 seeded letter sequences, reduced by the tests' own integer-letter
    # free_reduce: from_str reduces them alike, no reduced word holds a
    # letter next to its inverse, inverting reverses a product, and
    # word_eval and word_perm are homomorphisms
    rng = random.Random(41)
    nc_rep = read_rep(str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"))
    for _ in range(500):
        letters = random_letters(rng)
        u, v = ModularWord.from_str(as_chars(letters)), random_word(rng)
        assert u == ModularWord(as_chars(free_reduce(letters))), letters
        assert not any(pair in u.letters for pair in ("Ss", "sS", "Tt", "tT")), u
        assert (u * v).inverse() == v.inverse() * u.inverse(), (u, v)
        assert word_eval(u * v) == word_eval(u) * word_eval(v), (u, v)
        assert nc_rep.word_perm(u * v) == perm_mul(nc_rep.word_perm(u), nc_rep.word_perm(v)), (u, v)


def test_word_rejects_bad_letters():
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


@pytest.mark.parametrize(
    "data",
    [
        {"degree": 2, "s": {"1": "x", "0": "y"}, "t": "10"},
        {"degree": 2, "s": [1, 0], "t": "10"},
        {"degree": 2, "s": (1, 0), "t": [1, 0]},
    ],
)
def test_permrep_from_json_requires_lists(data):
    with pytest.raises(ValidationError, match="s and t must be lists"):
        rep_from_json(data)


def test_rep_contains_identity_and_full_group():
    for rep in low_index_reps(4):
        assert rep.word_perm(ModularWord())[0] == 0
    full = PermRep.make(1, (0,), (0,))
    rng = random.Random(23)
    for _ in range(20):
        assert full.word_perm(matrix_to_word(word_eval(random_word(rng))))[0] == 0


def test_rep_contains_level_two_example():
    rep = congruence_rep(2)
    assert rep.degree == 6
    assert rep.word_perm(matrix_to_word(MAT_T))[0] != 0
    assert rep.word_perm(matrix_to_word(MAT_T * MAT_T))[0] == 0


def test_rep_contains_matches_reduction_oracle_on_congruence_reps():
    rng = random.Random(24)
    for m in (2, 3):
        rep = congruence_rep(m)
        for _ in range(300):
            w = random_word(rng, max_len=20)
            x = word_eval(w)
            xm = x.reduce(m)
            is_pm_identity = xm == Mat2.identity(m) or xm == (-Mat2.identity()).reduce(m)
            assert (rep.word_perm(w)[0] == 0) == is_pm_identity


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


@pytest.mark.parametrize("classes", [True, False], ids=["classes", "subgroups"])
def test_low_index_reps_match_relator_deduction_oracle(classes):
    # the C2 * C3 action search against the (s, t) coset-table search with
    # (st)^3 = 1 deduced by hand, over every degree the cap allows
    for d in range(1, 13):
        assert low_index_reps(d, classes=classes) == oracle_low_index_reps(d, classes=classes), d


def _hall_subgroup_counts(n_max: int) -> list:
    """The number of subgroups of index n = 1..n_max in C2 * C3, in closed form.

    h_n = I2(n) I3(n) counts the actions of C2 * C3 on n points, where Ik(n)
    counts the permutations with x^k = 1, and t_n, the transitive ones, is
    h_n less the actions whose orbit of point 1 has k < n points; a subgroup
    of index n is the stabilizer of point 1 in (n - 1)! of them (M. Hall Jr.,
    Canad. J. Math. 1, 1949; M. Newman, Math. Comp. 30, 1976).
    """

    def solutions(k):  # Ik(n) for n = 0..n_max: point n lies in a cycle of length 1 or k
        counts = [1]
        for n in range(1, n_max + 1):
            counts.append(sum(math.perm(n - 1, d - 1) * counts[n - d] for d in (1, k) if d <= n))
        return counts

    h = [a * b for a, b in zip(solutions(2), solutions(3))]
    t = [0]
    for n in range(1, n_max + 1):
        t.append(h[n] - sum(math.comb(n - 1, k - 1) * t[k] * h[n - k] for k in range(1, n)))
    return [t[n] // math.factorial(n - 1) for n in range(1, n_max + 1)]


def test_low_index_subgroup_counts_match_halls_recurrence():
    counts = _hall_subgroup_counts(12)
    assert counts == [1, 1, 4, 8, 5, 22, 42, 40, 120, 265, 286, 764]
    by_degree = Counter(r.degree for r in low_index_reps(12, classes=False))
    assert [by_degree[n] for n in range(1, 13)] == counts
    assert sum(counts) == 1558


def test_low_index_deterministic_and_canonical():
    once = low_index_reps(6)
    twice = low_index_reps(6)
    assert once == twice
    for rep in once:
        canonical = min(_restandardize(rep.perm_s, rep.perm_t, b) for b in range(rep.degree))
        assert canonical == (rep.perm_s, rep.perm_t)


@pytest.mark.parametrize("classes", [True, False], ids=["classes", "subgroups"])
def test_standardized_tables_number_points_in_discovery_order(classes):
    # a standardized table numbers its points in the order of its own
    # discovery tree, and each point's tree word carries the basepoint there
    reps = low_index_reps(9, classes=classes)
    assert len(reps) == (42 if classes else 243)
    for rep in reps:
        tree = discovery_tree(rep.perm_s, rep.perm_t)
        assert list(tree) == list(range(rep.degree)), rep
        for q in tree:
            assert rep.word_perm(ModularWord(tree_word(tree, q)))[0] == q, (rep, q)


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
            assert rep.word_perm(w)[0] == 0


def test_subgroup_generator_images_have_index_degree():
    for rep in low_index_reps(5):
        ctx = perm_context(rep.degree, [rep.perm_s, rep.perm_t])
        whole = enumerate_group(ctx)
        images = [rep.word_perm(w) for w in subgroup_generators(rep)]
        stab = subgroup_closure(ctx, images)
        assert len(whole) == rep.degree * len(stab)


def test_subgroup_generators_match_the_generic_schreier_oracle():
    # words and order, on every class of degree <= 9 and a larger regular action
    reps = low_index_reps(9)
    assert len(reps) == 42
    for rep in reps + [congruence_rep(4)]:
        tree = discovery_tree(rep.perm_s, rep.perm_t)
        assert [(q, tree_word(tree, q)) for q in tree] == list(oracle_transversal_words(rep).items())
        assert subgroup_generators(rep) == oracle_subgroup_generators(rep)


# ---------------------------------------------------------------------------
# congruence testing


def test_trivial_rep_is_congruence():
    assert is_congruence(PermRep.make(1, (0,), (0,)))


def test_level_two_rep_is_congruence():
    rep = congruence_rep(2)
    assert rep.degree == 6
    assert is_congruence(rep)
    # image mod 2 is trivial, so the index equals the full group order
    assert len(set(image_blocks(rep, 2))) == rep.degree
    assert image_elements(rep, 2) == [Mat2.identity(2)]


def test_image_blocks_close_nothing_and_honour_the_closure_cap(monkeypatch):
    calls = count_closures(monkeypatch)
    rep = congruence_rep(2)
    # level 2, so the orbits at 6 are walked over PSL2(Z/2), of 6 elements;
    # the cap holds on that walk, not on the image mod 6, of 12 elements,
    # whose callers check what they read off the blocks themselves
    blocks = image_blocks(rep, 6, Budgets(closure_cap=6))
    assert len(set(blocks)) == rep.degree
    assert psl2_group_order(6) // len(set(blocks)) == 12
    assert image_blocks(rep, 6) == blocks
    with pytest.raises(BudgetError, match=r"PSL2\(Z/2\) has 6 elements"):
        image_blocks(rep, 6, Budgets(closure_cap=5))
    assert not calls


def test_image_blocks_match_the_closure_oracle():
    # the image of each class of degree <= 8 at every level up to 12: the
    # number of blocks is its index, and membership read off the blocks
    # agrees with the closure of the reduced generators
    rng = random.Random(5)
    words = [random_word(rng) for _ in range(30)]
    reps = low_index_reps(8)
    for rep in reps:
        for m in range(2, 13):
            oracle = image_closure(rep, m)
            blocks = image_blocks(rep, m)
            assert len(set(blocks)) * len(oracle) == psl2_group_order(m), (rep, m)
            assert set(image_elements(rep, m)) == oracle.as_set(), (rep, m)
            for w in words:
                member = psl2_canon(word_eval(w).reduce(m)) in oracle
                assert (blocks[rep.word_perm(w)[0]] == 0) == member, (rep, m, w)
    assert len(reps) == 28


def test_image_blocks_at_m_are_those_at_the_gcd_with_the_level():
    # walking PSL2(Z/m) itself gives the orbits that image_blocks reads off
    # PSL2(Z/gcd(m, N)), for every class of degree <= 9 on each level m <= 12
    # above the gcd and on each m <= 24 where 5 < gcd < m, the range that
    # the Klein-Fricke oracle does not cover
    pairs = 0
    for rep in low_index_reps(9):
        n = rep_level(rep)
        for m in range(2, 25):
            g = math.gcd(m, n)
            if g < m and (m <= 12 or g > 5):
                assert _orbit_blocks(rep, _gamma_walk(rep, m, Budgets())) == image_blocks(rep, m), (rep, m)
                pairs += 1
    assert pairs == 416


def test_gamma_image_order_at_the_gcd_matches_the_walk_at_m_oracle():
    # the order closed over PSL2(Z/gcd(m, N)) against the one closed over
    # all of PSL2(Z/m), for every class of degree <= 7 (4 of them not
    # congruence) at each m from 2 to 12
    reps = low_index_reps(7)
    assert (len(reps), sum(not is_congruence(rep) for rep in reps)) == (21, 4)
    for rep in reps:
        for m in range(2, 13):
            assert gamma_image_order(rep, m) == oracle_gamma_image_order(rep, m), (rep, m)


def test_gamma_image_order_walks_only_the_gcd_with_the_level(monkeypatch):
    # nc_rep has level 12: Gamma(1000) acts as Gamma(4), over 24 states, and
    # Gamma(5) as Gamma(1), over one, whose image is <sigma(S), sigma(T)>
    rep = read_rep(str(Path(__file__).resolve().parent / "golden" / "nc_rep.json"))
    walks = spy_walks(monkeypatch)
    assert gamma_image_order(rep, 1000) == 2520
    mon = enumerate_group(perm_context(rep.degree, [rep.perm_s, rep.perm_t]))
    assert gamma_image_order(rep, 5) == len(mon) == 5040
    assert [(w.caller, w.n, len(w.seen)) for w in walks] == [("gamma_image_order", 4, 24), ("gamma_image_order", 1, 1)]


def test_the_walk_at_level_1_closes_s_and_t_alone():
    # level 1 is the whole modular group: its one state closes S and T, so
    # a single orbit is left, and the one-point action is congruence
    for rep in low_index_reps(5):
        seen: dict = {}
        steps = [(q, p, _edge_word(seen, edge)) for q, p, edge in _gamma_walk(rep, 1, Budgets(), seen)]
        assert steps == [(rep.perm_s[0], 0, ModularWord("S")), (rep.perm_t[0], 0, ModularWord("T"))]
        assert list(seen) == [(0, 0, 0, 0)]
        m = next(p for p in (5, 7, 11) if rep_level(rep) % p)
        assert image_blocks(rep, m) == (0,) * rep.degree
    assert is_congruence(PermRep.make(1, (0,), (0,)))
    assert gamma_image_order(PermRep.make(1, (0,), (0,)), 7) == 1


def _walk_edges(rep, n, walk):
    """The (q, p, word) sequence of a walk and its matrices in walk order."""
    seen: dict = {}
    if walk is not _gamma_walk:
        return list(walk(rep, n, seen)), list(seen)
    edges = []
    for q, p, edge in walk(rep, n, Budgets(), seen):
        edges.append((q, p, _edge_word(seen, edge)))
    return edges, [Mat2(*x, n) for x in seen]


def test_tuple_walk_matches_the_mat2_walk_oracle():
    # every class of degree <= 8, at its level and at every divisor of it
    # above 1 (the levels gcd(m, N) that image_blocks walks)
    walks = 0
    for rep in low_index_reps(8):
        n = rep_level(rep)
        for g in (d for d in range(2, n + 1) if n % d == 0):
            edges, matrices = _walk_edges(rep, g, _gamma_walk)
            assert (edges, matrices) == _walk_edges(rep, g, oracle_gamma_walk), (rep, g)
            assert len(matrices) == psl2_group_order(g)
            walks += 1
    assert walks == 57


def test_walk_words_are_rebuilt_only_on_demand(monkeypatch):
    # the orbit blocks and the congruence test read no word
    built = []
    real = cosetope.modular.tree_word

    def spy(seen, x):
        built.append(x)
        return real(seen, x)

    monkeypatch.setattr(cosetope.modular, "tree_word", spy)
    for rep in low_index_reps(7):
        is_congruence(rep)
        image_blocks(rep, 12)
    assert built == []
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    witness = congruence_gap_witness(rep, 24)
    assert len(built) == 2 and word_eval(witness["word"]).reduce(24) == Mat2.identity(24)


def test_image_blocks_match_klein_fricke_at_levels_up_to_5():
    pairs = 0
    for rep in low_index_reps(9):
        for g in range(2, 6):
            assert partition(image_blocks(rep, g)) == klein_fricke_blocks(rep, g), (rep, g)
            pairs += 1
    assert pairs == 168


def test_is_congruence_honours_the_closure_cap():
    rep = next(r for r in low_index_reps(7) if not is_congruence(r))
    with pytest.raises(BudgetError):
        is_congruence(rep, budgets=Budgets(closure_cap=10))
    with pytest.raises(BudgetError):
        congruence_gap_witness(rep, 24, budgets=Budgets(closure_cap=10))


def test_a_level_above_64_is_decided_under_the_default_cap():
    # PSL2(Z/105) has 483,840 elements, within the default closure cap, and
    # the walk stops at the first element of the principal congruence
    # subgroup that moves the basepoint
    rep = read_rep(str(Path(__file__).resolve().parent / "golden" / "level105_rep.json"))
    assert (rep.degree, rep_level(rep)) == (15, 105)
    assert is_congruence(rep) is False


def test_image_blocks_stop_once_one_block_is_left(monkeypatch):
    # the first edge of the walk over PSL2(Z/105) that moves the basepoint
    # joins every point of the level-105 rep under S and T, so the blocks
    # are read off the edges up to it rather than off all 483,840 matrices
    rep = read_rep(str(Path(__file__).resolve().parent / "golden" / "level105_rep.json"))
    walks = spy_walks(monkeypatch)
    assert image_blocks(rep, 105) == (0,) * 15
    [consumed] = [w.steps for w in walks]
    assert [i for i, (q, p, _) in enumerate(consumed) if q != p] == [len(consumed) - 1]
    assert len(consumed) < 483_840 // 10


def _congruence_by_containment(rep):
    n = rep_level(rep)
    if n == 1:
        return rep.degree == 1
    return all(rep.word_perm(w)[0] == 0 for w in principal_congruence_generators(n))


def test_is_congruence_agrees_with_containment_oracle_degree_6():
    # widened from degree 6 to every class of degree <= 9
    reps = low_index_reps(9)
    assert len(reps) == 42
    verdicts = [is_congruence(rep) for rep in reps]
    assert verdicts == [_congruence_by_containment(rep) for rep in reps]
    assert verdicts.count(False) == 18
    # the congruence command's reading on every class of degree <= 10: each
    # coset is its own orbit of the principal congruence subgroup of the level
    reps = low_index_reps(10)
    verdicts = [is_congruence(rep) for rep in reps]
    assert verdicts == [len(set(image_blocks(rep, rep_level(rep)))) == rep.degree for rep in reps]
    assert (len(reps), verdicts.count(False)) == (69, 43)


def test_is_congruence_agrees_with_hsus_odd_level_test():
    # a second oracle on every class of degree <= 12 of odd level above 1;
    # the even-level conditions of the same paper are not checked here
    reps = [rep for rep in low_index_reps(12) if rep_level(rep) % 2 == 1 and rep_level(rep) > 1]
    verdicts = [is_congruence(rep) for rep in reps]
    assert verdicts == [hsu_odd_level_congruence(rep) for rep in reps]
    assert (len(reps), verdicts.count(True)) == (53, 18)


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
        assert len(enumerate_group(psl2_context(m))) == rep.degree


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
    # the class's level 2 does not divide 3 and Gamma(3) leaves the subgroup,
    # so the walk alone would return the word TTT
    with pytest.raises(PreconditionError, match="no gap exists"):
        congruence_gap_witness(congruence_rep(2), 3)


def test_gap_witness_on_minimal_noncongruence_rep():
    rep = _minimal_noncongruence()
    witness = congruence_gap_witness(rep, 24)
    assert witness is not None
    assert witness["displaced_to"] != 0
    assert rep.word_perm(witness["word"])[0] == witness["displaced_to"]
    assert word_eval(witness["word"]) == witness["x"]
    assert witness["x"].det() == 1
    assert witness["x"].reduce(24) == Mat2.identity(24)
    # x lies in the image at every divisor of 24, and the blocks the
    # evidence reads say where else it does, as the closure oracle says
    for m in range(2, 25):
        member = psl2_canon(witness["x"].reduce(m)) in image_closure(rep, m)
        assert (image_blocks(rep, m)[witness["displaced_to"]] == 0) == member
        assert member or 24 % m != 0


def test_gap_witness_level_is_small_multiple_of_rep_level():
    rep = _minimal_noncongruence()
    level = rep_level(rep)
    # a witness exists at the representation's own level scaled by <= 24
    multiplier = 24 // level if level <= 24 and 24 % level == 0 else 1
    witness = congruence_gap_witness(rep, level * max(multiplier, 1))
    assert witness is not None


def test_gap_witness_seed_phase_can_find_witnesses():
    # a noncongruence subgroup contains no principal congruence subgroup, so
    # the walk finds a witness in the level-n kernel at every level n, whether
    # or not the subgroup's own level divides n; congruence_gap_witness takes
    # the walk's first edge with no fallback on this fact
    reps = [rep for rep in low_index_reps(9) if not is_congruence(rep)]
    assert _minimal_noncongruence() in reps
    for rep in reps:
        for level in range(2, 25):
            witness = congruence_gap_witness(rep, level)
            assert witness["displaced_to"] != 0
            assert witness["x"].reduce(level) == Mat2.identity(level)


def _schreier_scan_witness(rep, level):
    """The witness word of the earlier search: the first Schreier generator of
    the level's principal congruence subgroup, taken over the regular action
    of PSL2(Z/level), that moves the basepoint."""
    word = next(w for w in principal_congruence_generators(level) if rep.word_perm(w)[0] != 0)
    if word_eval(word).reduce(level) != Mat2.identity(level):
        word = ModularWord("SS") * word
    return word


def test_gap_witness_word_matches_the_schreier_scan_where_it_ran():
    # the Schreier scan ran whenever the subgroup's level divided the search
    # level; on every such pair of degree <= 9 and level <= 24 the walk
    # returns the same word
    pairs = 0
    for rep in low_index_reps(9):
        if is_congruence(rep):
            continue
        n = rep_level(rep)
        for level in range(n, 25, n):
            assert congruence_gap_witness(rep, level)["word"] == _schreier_scan_witness(rep, level)
            pairs += 1
    assert pairs == 46
