import pytest

from reference_routes import q_power_sum, sh_mod
from wilsonq import oracles
from wilsonq.bernoulli import divided_set
from wilsonq.harness import enumerate_primes
from wilsonq.oracles import (
    factorial_mod,
    qtilde,
    qtilde_sums,
    wilson_quotient,
)


def test_q_power_sum_examples():
    # q_5: 0, 3, 16, 51 -> sum 70
    assert sum((a ** 4 - 1) // 5 for a in range(1, 5)) == 70
    assert q_power_sum(1, 5, 2).value == 20
    # q_7: 0, 9, 104, 585, 2232, 6665 -> 9595
    assert sum((a ** 6 - 1) // 7 for a in range(1, 7)) == 9595
    assert q_power_sum(1, 7, 5).value == 9595
    assert q_power_sum(2, 3, 1).value == 1


def test_qtilde_small_cases():
    # n=1 is the plain sum; higher n scale by p^(n-1)/n
    assert qtilde(1, 7, 5) == q_power_sum(1, 7, 5)
    got = qtilde(2, 7, 4)
    direct = sum(((a ** 6 - 1) // 7) ** 2 for a in range(1, 7))
    assert got.value == 7 * direct * pow(2, -1, 7**4) % 7**4


def test_sh_examples():
    assert sh_mod(0, 11, 3).value == 0
    # (S_4(5) - S_0(5))/5 = (354 - 4)/5 = 70
    assert sum(v**4 for v in range(1, 5)) == 354
    assert sh_mod(4, 5, 1).value == 70 % 5 == 0
    assert sh_mod(4, 5, 2).value == 70 % 25
    for p in (5, 7, 11):
        assert sh_mod(p - 1, p, 3) == q_power_sum(1, p, 3)


def test_sh_rejects_off_grid_index():
    # away from multiples of p-1 the difference has no factor p
    with pytest.raises(ValueError, match="insufficient valuation"):
        sh_mod(2, 5, 2)


def test_factorial_examples():
    assert factorial_mod(5, 2).value == 24
    assert factorial_mod(7, 2).value == 34  # 720 mod 49
    assert factorial_mod(7, 6).value == 720
    for p in enumerate_primes(3, 200):
        assert factorial_mod(p, 1).value == p - 1  # Wilson base case


def test_wilson_quotient_examples():
    assert wilson_quotient(5, 3).quotient.value == 5
    assert wilson_quotient(7, 5).quotient.value == 103
    assert wilson_quotient(13, 8).quotient.value == 36846277  # (12! + 1)/13


def test_wilson_record_invariants():
    for p in (5, 7, 11, 13, 101):
        rec = wilson_quotient(p, 4)
        assert rec.factorial.digits()[0] == p - 1
        assert rec.factorial == rec.quotient.value * p - 1
        assert rec.factorial.precision == 5 and rec.quotient.precision == 4


def test_wilson_matches_first_expansion_coefficient():
    # W_p = -(first divided Bernoulli value) mod p
    for p in (7, 11, 13, 17, 19):
        bs = divided_set(p)
        assert wilson_quotient(p, 1).quotient == -bs[(1, 0)].value, p


def test_one_pass_power_sums():
    # Q~_n = (p^(n-1)/n) Q_p(n) against the reference sum, and every lower
    # precision is a reduction of the top one
    for p in (7, 11, 13, 101):
        top = qtilde_sums(p, 6)
        for r in range(1, 7):
            sums = qtilde_sums(p, r)
            assert [x.precision for x in sums] == [r] * r, (p, r)
            for n in range(1, 7):
                if n > r:
                    assert qtilde(n, p, r) == 0, (p, r, n)
                    continue
                want = q_power_sum(n, p, r).value * p ** (n - 1) * pow(n, -1, p**r)
                assert sums[n - 1] == want, (p, r, n)
                assert sums[n - 1] == top[n - 1].reduce_to(r) == qtilde(n, p, r), (p, r, n)
    # some n <= r is a multiple of p
    for p, r in ((3, 3), (5, 5), (7, 8)):
        with pytest.raises(ValueError, match=rf"^need r < p, .* got p={p}, r={r}$"):
            qtilde_sums(p, r)


@pytest.mark.parametrize("p, r", [(7, 5), (11, 6), (101, 6)])
def test_qtilde_sums_builds_one_table(p, r, monkeypatch):
    # the Fermat quotients of every sum come from one table of v^(p-1) mod
    # p^(r+1), the one digit above the sums' precision that (x - 1) / p drops
    calls = []
    direct = oracles.power_table

    def counted(*args):
        calls.append(args)
        return direct(*args)

    monkeypatch.setattr(oracles, "power_table", counted)
    qtilde_sums(p, r)
    assert calls == [(p, p - 1, p ** (r + 1))]


def test_qtilde_needs_a_unit_power():
    # 1/n has no class mod p^r when p divides n; at n = p = r + 1 the sum
    # p^(p-2) Q_p(p) is not 0 mod p^r (5 * 7^5 at p = 7), and n starts at 1
    for n, p, r in ((3, 3, 3), (5, 5, 5), (7, 7, 6), (0, 7, 3), (-1, 7, 3)):
        with pytest.raises(ValueError, match=rf"^need 1 <= n < p = {p}, got n={n}$"):
            qtilde(n, p, r)
