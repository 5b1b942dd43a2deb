from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wilsonq.residues import Modulus, Residue, from_rational, is_prime, make_modulus, power_table

PRIMES = (3, 5, 7, 11, 13, 17, 101, 1999, 32003)


def test_make_modulus_powers():
    assert make_modulus(5, 2).value == 25
    # 7^6 by repeated multiplication, independent of **
    expected = 1
    for _ in range(6):
        expected *= 7
    assert make_modulus(7, 6).value == expected == 117649


def test_make_modulus_rejects_bad_input():
    with pytest.raises(ValueError):
        make_modulus(4, 2)
    with pytest.raises(ValueError):
        make_modulus(7, 0)
    with pytest.raises(ValueError):
        make_modulus(2, 3)  # odd primes only


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in known)
    assert is_prime(2**61 - 1)
    assert not is_prime(2**67 - 1)


def test_ring_op_examples():
    m25 = make_modulus(5, 2)
    assert (Residue(24, m25) + Residue(1, m25)).value == 0
    m49 = make_modulus(7, 2)
    assert (Residue(6, m49) * Residue(6, m49)).value == 36
    m343 = make_modulus(7, 3)
    assert (Residue(2, m343) ** 6).value == 64


def test_mixed_precision_reduces_to_min():
    a = Residue(100, make_modulus(5, 3))
    b = Residue(3, make_modulus(5, 2))
    out = a + b
    assert out.precision == 2
    assert out.value == (100 + 3) % 25


def test_prime_mismatch_rejected():
    a = Residue(1, make_modulus(5, 2))
    b = Residue(1, make_modulus(7, 2))
    with pytest.raises(ValueError, match="prime mismatch"):
        a + b


def test_directly_built_moduli_pair_as_interned():
    # make_modulus interns each modulus; an equal Modulus built directly is
    # another object and must still pair by value, at any precision mix
    direct, interned = Modulus(7, 3), make_modulus(7, 3)
    a, b = Residue(100, direct), Residue(300, interned)
    for x, y in ((a, b), (b, a), (a, Residue(5, Modulus(7, 3))), (a, a)):
        out = x * y + x - y
        assert out.value == (x.value * y.value + x.value - y.value) % 343
        assert out.modulus == interned
    low = Residue(12, Modulus(7, 2))
    for x in (a, b):
        out = x + low
        assert out.precision == 2 and out.value == (x.value + 12) % 49
        assert (low - x).value == (12 - x.value) % 49
    with pytest.raises(ValueError, match="prime mismatch"):
        a + Residue(1, Modulus(11, 3))
    with pytest.raises(ValueError, match="prime mismatch"):
        Residue(1, make_modulus(5, 3)) * b


def test_power_table_matches_pow():
    for p in (3, 7, 11, 101, 691):
        for e in (0, 1, 2, p - 3, p - 1):
            for mod in (p, p**7):
                want = [pow(v, e, mod) for v in range(1, p)]
                assert power_table(p, e, mod) == want, (p, e, mod)


def test_inverse_examples():
    m125 = make_modulus(5, 3)
    assert Residue(6, m125).inv().value == 21  # 6*21 = 126 = 125 + 1
    assert Residue(1, m125).inv().value == 1
    with pytest.raises(ValueError):
        Residue(5, m125).inv()


def test_inverse_exhaustive_small_moduli():
    for p in (3, 5, 7, 11, 13, 17, 19):
        r = 1
        while p ** (r + 1) <= 10**4:
            r += 1
        m = make_modulus(p, r)
        for a in range(1, m.value):
            if a % p == 0:
                continue
            assert (Residue(a, m).inv() * Residue(a, m)).value == 1


def test_shift_down_examples():
    assert Residue(50, make_modulus(5, 3)).shift_down(1).value == 10
    assert Residue(50, make_modulus(5, 3)).shift_down(1).precision == 2
    zero = Residue(0, make_modulus(7, 4)).shift_down(2)
    assert zero.value == 0 and zero.precision == 2
    big = Residue(721, make_modulus(7, 6)).shift_down(1)
    assert big.value == 103 and big.precision == 5  # 721 = 7 * 103


def test_shift_down_errors():
    a = Residue(3, make_modulus(5, 3))
    with pytest.raises(ValueError, match="insufficient valuation"):
        a.shift_down(1)
    with pytest.raises(ValueError):
        Residue(0, make_modulus(5, 3)).shift_down(3)


def test_valuation_examples():
    m = make_modulus(5, 3)
    assert Residue(50, m).valuation() == 2
    assert Residue(3, m).valuation() == 0
    assert Residue(0, m).valuation() == 3  # means "at least 3"


def test_rational_embedding_examples():
    assert from_rational(Fraction(1, 6), make_modulus(5, 3)).value == 21
    m = make_modulus(11, 4)
    assert from_rational(Fraction(-1), m).value == m.value - 1
    # 11/6 mod 49: inverse of 6 is 41 (6*41 = 246 = 5*49 + 1), 11*41 = 451 = 9*49 + 10
    got = from_rational(Fraction(11, 6), make_modulus(7, 2))
    assert (got * 6).value == 11
    assert got.value == 10
    with pytest.raises(ValueError):
        from_rational(Fraction(1, 5), make_modulus(5, 2))


@given(
    st.sampled_from(PRIMES),
    st.integers(1, 6),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=-(10**12), max_value=10**12),
    st.integers(min_value=-(10**12), max_value=10**12),
)
def test_ring_laws(p, r, x, y, z):
    m = make_modulus(p, r)
    a, b, c = Residue(x, m), Residue(y, m), Residue(z, m)
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + (-a) == 0


@given(st.sampled_from(PRIMES), st.integers(1, 6), st.integers(min_value=1, max_value=10**12))
def test_random_unit_inverse(p, r, x):
    m = make_modulus(p, r)
    if x % p == 0:
        x += 1
    a = Residue(x, m)
    assert (a.inv() * a).value == 1


@given(st.sampled_from(PRIMES), st.integers(1, 5), st.integers(0, 4),
       st.integers(min_value=0, max_value=10**12))
def test_shift_roundtrip(p, r, k, x):
    a = Residue(x, make_modulus(p, r))
    back = a.mul_p_power(k).shift_down(k)
    assert back == a


@given(
    st.sampled_from((7, 11, 13, 101)),
    st.integers(1, 6),
    st.integers(-(10**6), 10**6), st.integers(1, 10**4),
    st.integers(-(10**6), 10**6), st.integers(1, 10**4),
)
def test_rational_embedding_is_homomorphism(p, r, n1, d1, n2, d2):
    while d1 % p == 0:
        d1 += 1
    while d2 % p == 0:
        d2 += 1
    q1, q2 = Fraction(n1, d1), Fraction(n2, d2)
    m = make_modulus(p, r)
    total = q1 + q2
    if total.denominator % p:
        assert from_rational(q1, m) + from_rational(q2, m) == from_rational(total, m)
    prod = q1 * q2
    if prod.denominator % p:
        assert from_rational(q1, m) * from_rational(q2, m) == from_rational(prod, m)


def test_precision_trace_through_composite_expression():
    # (a*b shifted once, plus a constant, lifted twice) with the precision
    # contract checked at every step
    m = make_modulus(7, 5)
    a = Residue(7 * 3, m)
    b = Residue(10, m)
    prod = a * b
    assert prod.precision == 5
    shifted = prod.shift_down(1)
    assert shifted.precision == 4
    mixed = shifted + Residue(1, make_modulus(7, 3))
    assert mixed.precision == 3
    lifted = mixed.mul_p_power(2)
    assert lifted.precision == 5
    assert lifted.value == (30 + 1) * 49 % 7**5


def test_digits_and_int_compare():
    a = Residue(720, make_modulus(7, 4))
    assert a.digits() == [6, 4, 0, 2]  # 720 = 6 + 4*7 + 0*49 + 2*343
    assert a == 720
    assert a != 721
