from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wilsonq.residues import (P_LIMIT, R_LIMIT, Modulus, Residue, divide_exactly,
                              is_prime, make_modulus, power_table, ratio_mod)

PRIMES = (3, 5, 7, 11, 13, 17, 101, 1999, 32003)


def test_make_modulus_powers():
    assert make_modulus(5, 2).value == 25
    # 7^6 by repeated multiplication, independent of **
    assert make_modulus(7, 6).value == 7 * 7 * 7 * 7 * 7 * 7 == 117649


def test_make_modulus_rejects_bad_input():
    with pytest.raises(ValueError):
        make_modulus(4, 2)
    with pytest.raises(ValueError):
        make_modulus(7, 0)
    with pytest.raises(ValueError):
        make_modulus(2, 3)  # odd primes only
    with pytest.raises(ValueError, match=r"^precision exponent must be at most 12, got 13$"):
        make_modulus(7, R_LIMIT + 1)


def test_is_prime_small():
    known = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29}
    for n in range(2, 30):
        assert is_prime(n) == (n in known)


def test_is_prime_matches_a_sieve():
    # exact trial division: equal to a sieve of Eratosthenes at the bottom
    # and the top of the window, and False below 2
    sieve = bytearray([1]) * (P_LIMIT + 1)
    sieve[0] = sieve[1] = 0
    for q in range(2, int(P_LIMIT**0.5) + 1):
        if sieve[q]:
            sieve[q * q::q] = bytes(len(range(q * q, P_LIMIT + 1, q)))
    for n in [*range(-3, 10**4 + 1), *range(P_LIMIT - 10**4, P_LIMIT + 1)]:
        assert is_prime(n) == (n >= 0 and bool(sieve[n])), n


def test_power_table_matches_pow():
    for p in (3, 7, 11, 101, 691):
        for e in (0, 1, 2, p - 3, p - 1):
            for mod in (p, p**7):
                want = [pow(v, e, mod) for v in range(1, p)]
                assert power_table(p, e, mod) == want, (p, e, mod)


def test_shift_down_examples():
    # exact division by p^k is divide_exactly, on integers of either sign
    assert divide_exactly(50, 5, 1) == 10
    assert divide_exactly(50, 5, 2) == 2
    assert divide_exactly(0, 7, 2) == 0
    assert divide_exactly(721, 7, 1) == 103  # 721 = 7 * 103
    assert divide_exactly(-721, 7, 1) == -103
    assert divide_exactly(3, 5, 0) == 3


def test_shift_down_errors():
    with pytest.raises(ValueError, match="insufficient valuation: 3 not divisible by 5\\^1"):
        divide_exactly(3, 5, 1)
    with pytest.raises(ValueError, match="insufficient valuation: 50 not divisible by 5\\^3"):
        divide_exactly(50, 5, 3)
    with pytest.raises(ValueError, match="insufficient valuation"):
        divide_exactly(-1, 7, 1)


def test_rational_embedding_examples():
    assert ratio_mod(1, 6, 5, 125) == 21
    assert ratio_mod(-1, 1, 11, 11**4) == 11**4 - 1
    # 11/6 mod 49: inverse of 6 is 41 (6*41 = 246 = 5*49 + 1), 11*41 = 451 = 9*49 + 10
    got = ratio_mod(11, 6, 7, 49)
    assert got * 6 % 49 == 11
    assert got == 10
    with pytest.raises(ValueError, match="not coprime"):
        ratio_mod(1, 5, 5, 25)


@given(st.sampled_from(PRIMES), st.integers(1, 5), st.integers(0, 4),
       st.integers(min_value=0, max_value=10**12))
def test_shift_roundtrip(p, r, k, x):
    # dividing out p^k undoes multiplying by it, and stops one power short
    # of a unit's valuation
    value = x % p**r
    assert divide_exactly(value * p**k, p, k) == value
    if value % p:
        with pytest.raises(ValueError, match="insufficient valuation"):
            divide_exactly(value * p**k, p, k + 1)


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
    m = p**r

    def embed(q):
        return ratio_mod(q.numerator, q.denominator, p, m)

    total = q1 + q2
    if total.denominator % p:
        assert (embed(q1) + embed(q2)) % m == embed(total)
    prod = q1 * q2
    if prod.denominator % p:
        assert embed(q1) * embed(q2) % m == embed(prod)


def test_digits_and_int_compare():
    a = Residue(720, make_modulus(7, 4))
    assert a.digits() == [6, 4, 0, 2]  # 720 = 6 + 4*7 + 0*49 + 2*343
    assert a == 720
    assert a != 721
    # residues compare by (p, r, value), whichever Modulus object they hold
    assert Residue(720, Modulus(7, 4)) == a
    assert Residue(720, make_modulus(7, 3)) != a
    # a residue is never read at a precision it does not hold
    with pytest.raises(ValueError, match=r"^cannot raise precision from 4 to 5$"):
        a.reduce_to(5)
