import random

import pytest

from cosetope.arith import (
    MAT_S,
    MAT_T,
    Mat2,
    Residue,
    is_prime,
    psl2_group_order,
    sl2_group_order,
)
from cosetope.errors import ModulusMismatch, ValidationError


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


def test_det_quotient_returns_residue():
    x = Mat2.of_mod(2, 0, 0, 3, 5)
    assert x.det() == Residue(1, 5)
    assert x.det_int() == 1


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
    with pytest.raises(ModulusMismatch):
        Residue(1, 2) + Residue(1, 3)


def test_small_modulus_rejected():
    with pytest.raises(ValidationError):
        Mat2.of_mod(1, 0, 0, 1, 1)
    with pytest.raises(ValidationError):
        Residue.of(0, 1)
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
            assert (x * y).det() == x.det() * y.det()


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
        assert x.reduce(m).det() == Residue.of(x.det(), m)


def test_inverse_of_det1_matrices():
    rng = random.Random(7)
    from cosetope.modular import ModularWord, word_eval

    for _ in range(200):
        w = ModularWord.of(*[rng.choice((1, -1, 2, -2)) for _ in range(rng.randrange(0, 12))])
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
