import random

import pytest
from hypothesis import given, settings, strategies as st

from cosetope.arith import (
    MAT_S,
    MAT_T,
    Mat2,
    _factorize,
    is_prime,
    psl2_group_order,
    sl2_group_order,
)
from cosetope.errors import BudgetError, ModulusMismatch, ValidationError
from cosetope.groupcore import SdElement, sd_mul
from t_util import (
    oracle_inv_det1,
    oracle_mat_add,
    oracle_mat_mul,
    oracle_mat_neg,
    oracle_mat_sub,
    oracle_sd_mul,
    random_word,
)


def rand_ambient(rng, bound=50):
    return Mat2.ambient(*(rng.randrange(-bound, bound + 1) for _ in range(4)))


def test_product_of_standard_generators():
    # hand multiplication: S*T = [[0,-1],[1,1]]
    assert MAT_S * MAT_T == Mat2.ambient(0, -1, 1, 1)


def test_identity_is_neutral():
    rng = random.Random(1)
    for _ in range(50):
        x = rand_ambient(rng)
        assert Mat2.identity() * x == x
        assert x * Mat2.identity() == x


def test_quotient_product_mod_5():
    x = Mat2.of_mod(2, 0, 0, 3, 5)
    y = Mat2.of_mod(1, 1, 0, 1, 5)
    assert x * y == Mat2.of_mod(2, 2, 0, 3, 5)


def test_det_examples():
    assert Mat2.identity().det() == 1
    assert MAT_S.det() == 1  # 0*0 - (-1)*1
    assert Mat2.ambient(2, 0, 0, 1).det() == 2


def test_det_quotient_is_the_canonical_residue():
    assert Mat2.of_mod(2, 0, 0, 3, 5).det() == 1
    assert Mat2.of_mod(0, 1, 1, 0, 5).det() == 4  # -1, canonical


def test_reduce_examples():
    assert Mat2.ambient(7, -1, 3, 5).reduce(5) == Mat2.of_mod(2, 4, 3, 0, 5)
    assert Mat2.identity().reduce(7) == Mat2.identity(7)


def test_reduce_is_idempotent_on_canonical_lift():
    rng = random.Random(2)
    for _ in range(200):
        x = rand_ambient(rng)
        m = rng.randrange(2, 13)
        once = x.reduce(m)
        assert once.lift().reduce(m) == once


def test_modulus_mismatch_rejected():
    with pytest.raises(ModulusMismatch):
        Mat2.of_mod(1, 0, 0, 1, 2) * Mat2.of_mod(1, 0, 0, 1, 3)


def test_small_modulus_rejected():
    with pytest.raises(ValidationError):
        Mat2.of_mod(1, 0, 0, 1, 1)
    with pytest.raises(ValidationError):
        Mat2.identity().reduce(0)


def test_reduce_between_quotients_requires_divisibility():
    x = Mat2.of_mod(5, 1, 2, 3, 6)
    assert x.reduce(3) == Mat2.of_mod(2, 1, 2, 0, 3)
    with pytest.raises(ValidationError):
        x.reduce(4)


def test_negative_entries_normalize_by_floored_modulo():
    assert Mat2.ambient(-1, -7, 13, -3).reduce(5) == Mat2.of_mod(4, 3, 3, 2, 5)


def test_det_multiplicative_per_modulus():
    rng = random.Random(3)
    for m in range(2, 13):
        for _ in range(400):
            x = rand_ambient(rng).reduce(m)
            y = rand_ambient(rng).reduce(m)
            assert (x * y).det() == x.det() * y.det() % m


def test_det_multiplicative_ambient():
    rng = random.Random(4)
    for _ in range(2000):
        x = rand_ambient(rng)
        y = rand_ambient(rng)
        assert (x * y).det() == x.det() * y.det()


def test_reduce_is_ring_homomorphism():
    rng = random.Random(5)
    for _ in range(2000):
        x = rand_ambient(rng)
        y = rand_ambient(rng)
        m = rng.randrange(2, 13)
        assert (x * y).reduce(m) == x.reduce(m) * y.reduce(m)
        assert (x + y).reduce(m) == x.reduce(m) + y.reduce(m)


def test_det_commutes_with_reduce():
    rng = random.Random(6)
    for _ in range(2000):
        x = rand_ambient(rng)
        m = rng.randrange(2, 13)
        assert x.reduce(m).det() == x.det() % m


def test_inverse_of_det1_matrices():
    rng = random.Random(7)
    from cosetope.modular import word_eval

    for _ in range(200):
        w = random_word(rng, 12)
        x = word_eval(w)
        assert x * x.inv_det1() == Mat2.identity()
        m = rng.randrange(2, 13)
        xm = x.reduce(m)
        assert xm * xm.inv_det1() == Mat2.identity(m)


def test_is_prime_matches_trial_division_and_stays_fast_on_huge_inputs():
    for n in range(-3, 5000):
        assert is_prime(n) == (n >= 2 and all(n % d for d in range(2, int(n ** 0.5) + 1)))
    # 3215031751 is a strong pseudoprime to bases 2, 3, 5 and 7
    assert not is_prime(3215031751)
    assert is_prime(2 ** 89 - 1) and is_prime(2 ** 127 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 89 - 1))


def test_group_order_helpers():
    assert sl2_group_order(1) == 1
    assert sl2_group_order(2) == 6
    assert sl2_group_order(3) == 24
    assert sl2_group_order(4) == 48
    assert sl2_group_order(5) == 120
    assert sl2_group_order(6) == 144
    assert sl2_group_order(12) == 1152
    assert psl2_group_order(2) == 6
    assert psl2_group_order(6) == 72


def test_factorize_matches_trial_division_on_small_moduli():
    for n in range(2, 3000):
        factors = _factorize(n)
        assert all(is_prime(p) for p in factors)
        product = 1
        for p, k in factors.items():
            product *= p ** k
        assert product == n


def test_factorize_accepts_provable_prime_cofactors_only():
    big = 1_000_000_000_000_000_003  # prime, far beyond the trial-division bound
    assert _factorize(big) == {big: 1}
    assert _factorize(4 * 3 * big) == {2: 2, 3: 1, big: 1}
    assert sl2_group_order(big) == big ** 3 - big
    with pytest.raises(BudgetError, match="1000000016000000063"):
        _factorize(1_000_000_007 * 1_000_000_009)  # two primes above the bound
    with pytest.raises(BudgetError, match="not provably prime"):
        _factorize(2 ** 89 - 1)  # prime, but beyond the range where is_prime is exact


# ---------------------------------------------------------------------------
# the unpacked arithmetic against the entrywise oracle (derandomized)

ORACLE_SETTINGS = settings(derandomize=True, deadline=None, database=None, max_examples=300)
ENTRIES = st.integers(-(10**30), 10**30)
MODULI = st.one_of(st.none(), st.integers(2, 97), st.just(2**64 + 13))


def mats(m):
    """Matrices with modulus ``m``: any integers ambient, canonical residues mod ``m``."""
    entries = st.tuples(ENTRIES, ENTRIES, ENTRIES, ENTRIES)
    return entries.map(lambda e: Mat2.ambient(*e) if m is None else Mat2.of_mod(*e, m))


def _exactly(result, expected, kind):
    assert type(result) is kind
    assert result == expected and tuple(result) == tuple(expected)
    assert hash(result) == hash(expected)
    assert tuple(getattr(result, name) for name in kind._fields) == tuple(expected)


@ORACLE_SETTINGS
@given(MODULI.flatmap(lambda m: st.tuples(mats(m), mats(m))))
def test_matrix_arithmetic_matches_the_entrywise_oracle(pair):
    x, y = pair
    _exactly(x * y, oracle_mat_mul(x, y), Mat2)
    _exactly(x + y, oracle_mat_add(x, y), Mat2)
    _exactly(x - y, oracle_mat_sub(x, y), Mat2)
    _exactly(-x, oracle_mat_neg(x), Mat2)
    _exactly(x.inv_det1(), oracle_inv_det1(x), Mat2)


def _sd_elements(m, degree):
    sigma = st.none() if degree is None else st.permutations(range(degree)).map(tuple)
    return st.tuples(mats(m), mats(m), sigma).map(lambda t: SdElement(*t))


@ORACLE_SETTINGS
@given(
    st.tuples(st.one_of(st.integers(2, 97), st.just(2**64 + 13)), st.one_of(st.none(), st.integers(1, 6))).flatmap(
        lambda md: st.tuples(_sd_elements(*md), _sd_elements(*md))
    )
)
def test_sd_mul_matches_the_entrywise_oracle(pair):
    x, y = pair
    product = sd_mul(x, y)
    _exactly(product, oracle_sd_mul(x, y), SdElement)
    assert type(product.a) is Mat2 and type(product.h) is Mat2


def _message(fn, *args):
    with pytest.raises(ModulusMismatch) as exc:
        fn(*args)
    return str(exc.value)


@ORACLE_SETTINGS
@given(st.tuples(MODULI, MODULI).filter(lambda mn: mn[0] != mn[1]).flatmap(lambda mn: st.tuples(mats(mn[0]), mats(mn[1]))))
def test_mixed_moduli_raise_the_oracles_mismatch(pair):
    x, y = pair
    for fast, slow in (
        (lambda u, v: u * v, oracle_mat_mul),
        (lambda u, v: u + v, oracle_mat_add),
        (lambda u, v: u - v, oracle_mat_sub),
    ):
        assert _message(fast, x, y) == _message(slow, x, y) == f"cannot combine moduli {x.m} and {y.m}"
    if x.m is not None and y.m is not None:
        u, v = SdElement(x, x, None), SdElement(y, y, None)
        assert _message(sd_mul, u, v) == _message(oracle_sd_mul, u, v)


def test_sd_mul_refuses_a_permutation_part_on_one_side_only():
    x = SdElement(Mat2.zero(3), Mat2.identity(3), None)
    y = SdElement(Mat2.zero(3), Mat2.identity(3), (0,))
    for fn in (sd_mul, oracle_sd_mul):
        with pytest.raises(ValidationError, match="with and without a permutation part"):
            fn(x, y)
        with pytest.raises(ValidationError, match="with and without a permutation part"):
            fn(y, x)
