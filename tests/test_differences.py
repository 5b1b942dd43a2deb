import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from reference_routes import binom_diff_mod_p, q_power_sum, q_power_sum_via_differences, sh_mod
from wilsonq.bernoulli import forward_difference
from wilsonq.harness import enumerate_primes
from wilsonq.residues import make_modulus, ratio_mod
from math import comb


def test_forward_difference_base_cases():
    square = lambda i: i**2
    assert forward_difference(square, 1, 0, start=5) == 25
    assert forward_difference(square, 1, 2, start=0) == 2  # 0 - 2*1 + 4
    assert forward_difference(lambda i: i, 1, 2, start=0) == 0


def test_forward_difference_on_integers():
    # the sum is left unreduced, and reducing the samples first gives the
    # same class
    mod = 7**3
    cube = lambda i: i**3 - 5 * i
    for h, n, start in ((1, 2, 0), (6, 3, 4), (6, 0, 9)):
        whole = forward_difference(cube, h, n, start=start)
        assert type(whole) is int
        reduced = forward_difference(lambda i: cube(i) % mod, h, n, start=start)
        assert whole % mod == reduced % mod
    assert forward_difference(cube, 6, 3, start=4) == 6 * 6**3  # above 7^3: unreduced
    assert forward_difference(lambda i: i**3, 1, 3) == 6


def test_forward_difference_validates():
    with pytest.raises(ValueError):
        forward_difference(lambda i: i, 0, 1)
    with pytest.raises(ValueError):
        forward_difference(lambda i: i, 1, -1)


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
    mod = p**r
    f = lambda i: fs[i % 24] % mod
    g = lambda i: gs[i % 24] % mod
    combo = lambda i: (a * fs[i % 24] + b * gs[i % 24]) % mod
    lhs = forward_difference(combo, h, n)
    rhs = a * forward_difference(f, h, n) + b * forward_difference(g, h, n)
    assert (lhs - rhs) % mod == 0


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
    f = lambda i: fs[i % 32] % p**r
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
                    n * bnpd(n, modr).value
                    + p**2 * comb(n, 3) * bnpd(n - 2, make_modulus(p, r - 2)).value
                    + p**4 * comb(n, 5) * bnpd(n - 4, make_modulus(p, r - 4)).value
                )
                assert lhs == rhs, (p, r, d)


def test_difference_form_of_scaled_sums():
    # the two-block difference expansion of (p^(n-1)/n) Q_p(n) built straight
    # from the operator, before any coefficient tables
    from wilsonq.bernoulli import bnpd
    from wilsonq.oracles import qtilde

    for p in (11, 13):
        h = p - 1
        for r in (5, 6):
            for n in range(1, r + 1):
                lead_mod = make_modulus(p, r)
                lead = (p - 1) * forward_difference(
                    lambda nu: bnpd(nu, lead_mod).value, h, n - 1, start=h
                )
                m2 = make_modulus(p, r - 2)
                t2 = forward_difference(
                    lambda nu: comb(nu, 3) * bnpd(nu - 2, m2).value, h, n, start=0
                )
                m4 = make_modulus(p, r - 4)
                t4 = forward_difference(
                    lambda nu: comb(nu, 5) * bnpd(nu - 4, m4).value, h, n, start=0
                )
                rhs = lead + ratio_mod(1, n, p, p**r) * (p**2 * t2 + p**4 * t4)
                assert rhs == qtilde(n, p, r), (p, r, n)
