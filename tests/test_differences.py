import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wilsonq.differences import (
    binom_diff_mod_p,
    forward_difference,
    q_power_sum_via_differences,
)
from wilsonq.harness import enumerate_primes
from wilsonq.oracles import q_power_sum, sh_mod
from wilsonq.residues import Residue, make_modulus
from math import comb


def _seq(m, fn):
    return lambda i: Residue(fn(i), m)


def test_forward_difference_base_cases():
    m = make_modulus(7, 3)
    f = _seq(m, lambda i: i**2)
    assert forward_difference(f, 1, 0, start=5) == Residue(25, m)
    assert forward_difference(f, 1, 2, start=0).value == 2  # 0 - 2*1 + 4
    g = _seq(m, lambda i: i)
    assert forward_difference(g, 1, 2, start=0).value == 0


def test_forward_difference_on_integers():
    # the same sum on plain integers, reduced once, as on residues
    m = make_modulus(7, 3)
    for h, n, start in ((1, 2, 0), (6, 3, 4), (6, 0, 9)):
        cube = lambda i: i**3 - 5 * i
        on_ints = forward_difference(cube, h, n, start=start)
        assert type(on_ints) is int
        assert Residue(on_ints, m) == forward_difference(_seq(m, cube), h, n, start=start)
    assert forward_difference(lambda i: i**3, 1, 3) == 6


def test_forward_difference_validates():
    m = make_modulus(7, 3)
    with pytest.raises(ValueError):
        forward_difference(_seq(m, lambda i: i), 0, 1)
    with pytest.raises(ValueError):
        forward_difference(_seq(m, lambda i: i), 1, -1)


@settings(max_examples=50)
@given(
    st.sampled_from((7, 11, 101)),
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(0, 3),
    st.integers(-(10**6), 10**6),
    st.integers(-(10**6), 10**6),
    st.lists(st.integers(-(10**6), 10**6), min_size=24, max_size=24),
    st.lists(st.integers(-(10**6), 10**6), min_size=24, max_size=24),
)
def test_linearity(p, r, h, n, a, b, fs, gs):
    m = make_modulus(p, r)
    f = _seq(m, lambda i: fs[i % 24])
    g = _seq(m, lambda i: gs[i % 24])
    combo = _seq(m, lambda i: a * fs[i % 24] + b * gs[i % 24])
    lhs = forward_difference(combo, h, n)
    rhs = a * forward_difference(f, h, n) + b * forward_difference(g, h, n)
    assert lhs == rhs


@settings(max_examples=50)
@given(
    st.sampled_from((7, 11)),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 3),
    st.integers(0, 3),
    st.lists(st.integers(-(10**6), 10**6), min_size=32, max_size=32),
)
def test_composition(p, r, h, n, k, fs):
    m = make_modulus(p, r)
    f = _seq(m, lambda i: fs[i % 32])
    once = forward_difference(f, h, n + k, start=0)
    inner = lambda s: forward_difference(f, h, k, start=s)
    twice = forward_difference(inner, h, n, start=0)
    assert once == twice


def test_binomial_difference_examples():
    assert binom_diff_mod_p(5, 1, 7).value == 6  # -C(4,0) = -1
    assert binom_diff_mod_p(5, 3, 11).value == 5  # -C(4,2) = -6
    assert binom_diff_mod_p(3, 5, 7).value == 0  # -C(2,4) = 0
    with pytest.raises(ValueError):
        binom_diff_mod_p(7, 1, 7)


def test_binomial_difference_closed_form_sample():
    for p in (11, 13):
        for k in range(1, 9):
            for n in range(1, 9):
                want = ((-1) ** k * comb(k - 1, n - 1)) % p
                assert binom_diff_mod_p(k, n, p).value == want, (p, k, n)


def test_q_sum_operator_form_examples():
    got = q_power_sum_via_differences(1, 5, 2)
    assert got.value == 20  # 0 + 3 + 16 + 51 = 70
    assert got == q_power_sum(1, 5, 2)
    # order 1 difference is just the modified sum at index p-1
    assert q_power_sum_via_differences(1, 7, 3) == sh_mod(6, 7, 3)
    assert q_power_sum_via_differences(2, 7, 2) == q_power_sum(2, 7, 2)


def test_q_sum_operator_form_full_range():
    # the operator route and the direct sums agree for every prime in
    # [11, 200], all n <= 6, all r <= 6
    for p in enumerate_primes(11, 200):
        for n in range(1, 7):
            for r in range(1, 7):
                assert q_power_sum_via_differences(n, p, r) == q_power_sum(n, p, r), (p, n, r)


def test_modified_sum_closed_form_on_grid():
    # for n = d(p-1): the modified sum equals the p-integral value (n times
    # the divided value, n a unit here) plus the two weighted divided terms,
    # mod p^r for r in {5, 6}, p > r + 1
    from wilsonq.bernoulli import bnpd

    for p in (11, 13):
        h = p - 1
        for r in (5, 6):
            modr = make_modulus(p, r)
            for d in range(1, 7):
                n = d * h
                lhs = sh_mod(n, p, r)
                rhs = (
                    n * bnpd(n, modr)
                    + (comb(n, 3) * bnpd(n - 2, make_modulus(p, r - 2))).mul_p_power(2)
                    + (comb(n, 5) * bnpd(n - 4, make_modulus(p, r - 4))).mul_p_power(4)
                )
                assert lhs == rhs, (p, r, d)


def test_difference_form_of_scaled_sums():
    # the two-block difference expansion of (p^(n-1)/n) Q_p(n) built straight
    # from the operator, before any coefficient tables
    from fractions import Fraction

    from wilsonq.bernoulli import bnpd
    from wilsonq.oracles import qtilde

    for p in (11, 13):
        h = p - 1
        for r in (5, 6):
            for n in range(1, r + 1):
                lead_mod = make_modulus(p, r)
                lead = (p - 1) * forward_difference(
                    lambda nu: bnpd(nu, lead_mod), h, n - 1, start=h
                )
                m2 = make_modulus(p, r - 2)
                t2 = forward_difference(
                    lambda nu: comb(nu, 3) * bnpd(nu - 2, m2), h, n, start=0
                )
                m4 = make_modulus(p, r - 4)
                t4 = forward_difference(
                    lambda nu: comb(nu, 5) * bnpd(nu - 4, m4), h, n, start=0
                )
                rhs = lead + Fraction(1, n) * (t2.mul_p_power(2) + t4.mul_p_power(4))
                assert rhs == qtilde(n, p, r), (p, r, n)
