import sys
import threading
from fractions import Fraction
from math import comb

import pytest

import reference_routes
from reference_routes import exact_bernoulli, power_sum_mod
from wilsonq import bernoulli
from wilsonq.bernoulli import (
    BernoulliEngine,
    bnpd,
    depths,
    divided_set,
    kummer_admissible,
    set_spec,
)
from wilsonq.formulas import _Acc
from wilsonq.residues import make_modulus, ratio_mod, split_p

F = Fraction


def test_exact_bernoulli_known_values():
    assert exact_bernoulli(0) == 1
    assert exact_bernoulli(1) == F(-1, 2)
    assert exact_bernoulli(2) == F(1, 6)
    assert exact_bernoulli(3) == 0
    assert exact_bernoulli(4) == F(-1, 30)
    assert exact_bernoulli(6) == F(1, 42)
    assert exact_bernoulli(12) == F(-691, 2730)


def test_exact_bernoulli_bound():
    with pytest.raises(ValueError):
        exact_bernoulli(3001)
    with pytest.raises(ValueError):
        exact_bernoulli(-1)


def test_power_sum_examples():
    assert power_sum_mod(1, make_modulus(5, 2)).value == 10  # 1+2+3+4
    assert power_sum_mod(0, make_modulus(7, 2)).value == 6
    # direct enumeration: 1^6 + ... + 6^6 = 67171
    total = sum(v**6 for v in range(1, 7))
    assert total == 67171
    assert power_sum_mod(6, make_modulus(7, 3)).value == total % 343 == 286


def test_engine_examples():
    # p*B_2 = 5/6
    assert BernoulliEngine(5).pb_value(2, 3) == 105
    assert BernoulliEngine(7).pb_value(3, 4) == 0
    # p*B_12 at p=7 against the exact oracle
    want = 7 * exact_bernoulli(12)
    want = ratio_mod(want.numerator, want.denominator, 7, 7**3)
    assert BernoulliEngine(7).pb_value(12, 3) == want
    assert BernoulliEngine(7).pb_value(1, 3) == ratio_mod(-7, 2, 7, 7**3)
    assert BernoulliEngine(7).pb_value(0, 3) == 7


def test_exact_memo_survives_racing_threads(monkeypatch):
    # the memo has no lock: threads extending it at once must leave the
    # values one thread alone computes
    want = [exact_bernoulli(m) for m in range(241)]
    monkeypatch.setattr(reference_routes, "_exact", [F(1), F(-1, 2)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=exact_bernoulli, args=(240,)) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert reference_routes._exact == want


def test_engine_rejects_small_primes():
    with pytest.raises(ValueError, match="below p = 7"):
        bnpd(10, make_modulus(7, 6))
    for p in (9, 2):
        with pytest.raises(ValueError, match=f"must be an odd prime, got {p}$"):
            BernoulliEngine(p)


def test_engine_serves_one_prime():
    # an engine of another prime would hand back its own p*B_m values
    # (224 for p*B_10 mod 11^3 from a p = 7 engine; the true value is 1110)
    assert BernoulliEngine(11).pb_value(10, 3) == 1110
    with pytest.raises(ValueError, match="engine built for p=7"):
        bnpd(10, make_modulus(11, 2), BernoulliEngine(7))
    with pytest.raises(ValueError, match="engine built for p=7"):
        divided_set(11, BernoulliEngine(7))


def test_engine_matches_exact_oracle_sample():
    # broad dense sample; the full mod-p^8 range lives in the acceptance suite
    for p, gmax in ((7, 6), (11, 8), (13, 8)):
        for m in range(0, 121, 2):
            exact = p * exact_bernoulli(m)
            for g in (1, 3, gmax):
                want = ratio_mod(exact.numerator, exact.denominator, p, p**g)
                assert BernoulliEngine(p).pb_value(m, g) == want, (p, m, g)


def test_dropped_recursion_terms_vanish():
    # terms beyond the cutoff K = min(m+1, g+1) have p-valuation >= g
    for p, g in ((7, 6), (11, 7), (13, 5)):
        for m in (10, 36, 60):
            for k in range(g + 2, min(m + 1, g + 12) + 1):
                term = comb(m, k - 1) * F(p ** (k - 1), k) * (p * exact_bernoulli(m + 1 - k))
                if term == 0:
                    continue
                val = split_p(abs(term.numerator), p)[0] - split_p(term.denominator, p)[0]
                assert val >= g, (p, g, m, k)


def test_von_staudt_clausen_structure():
    for p in (7, 11, 13, 17):
        for m in range(2, 80, 2):
            pb = BernoulliEngine(p).pb_value(m, 4)
            if m % (p - 1) == 0:
                assert (pb + 1) % p == 0  # p*B_m = -1 mod p at the pole
            else:
                assert pb % p == 0


def test_bnpd_examples():
    assert bnpd(-2, make_modulus(7, 2)).value == 0
    assert bnpd(0, make_modulus(7, 2)).value == 0
    # B_4/4 = -1/120 and 120 = 1 mod 7
    assert bnpd(4, make_modulus(7, 1)).value == 6
    # B_8/8 = -1/240, 240 = 2 mod 7, -inv(2) = -4 = 3
    assert bnpd(8, make_modulus(7, 1)).value == 3


def test_bnpd_matches_exact_rational():
    for p in (7, 11, 13):
        h = p - 1
        for m in list(range(2, 50, 2)) + [h, 2 * h, 3 * h, 4 * h]:
            r = 3 if p > 5 else 2
            if m % (p - 1) == 0:
                exact = (exact_bernoulli(m) + F(1, p) - 1) / m
            else:
                exact = exact_bernoulli(m) / m
            want = ratio_mod(exact.numerator, exact.denominator, p, p**r)
            assert bnpd(m, make_modulus(p, r)) == want, (p, m)


def test_bnpd_handles_index_divisible_by_p():
    # ord_7(98) = 2: numerator valuation must cover the division (Adams)
    exact = exact_bernoulli(98) / 98
    got = bnpd(98, make_modulus(7, 3))
    assert got == ratio_mod(exact.numerator, exact.denominator, 7, 7**3)


def test_bnpd_refuses_insufficient_valuation():
    # an engine whose p*B_m is off by one leaves a numerator that p does not
    # divide, and bnpd must refuse it rather than divide past it
    class OffByOne(BernoulliEngine):
        def pb_value(self, m, g):
            return (super().pb_value(m, g) + 1) % self.p**g

    for m in (4, 6, 12, 98):
        with pytest.raises(ValueError, match="insufficient valuation"):
            bnpd(m, make_modulus(7, 1), OffByOne(7))


def test_engine_fills_many_rows_without_recursion():
    # m = 6002 at p = 7 needs the 1000th v^(p-1) row
    assert BernoulliEngine(7).power_sum(6002, 3) == power_sum_mod(6002, make_modulus(7, 3)).value
    # 6002 = 2 + 1000 * (7 - 1): the Kummer class of index 2, B_2/2 = 1/12 = 3 mod 7
    assert bnpd(6002, make_modulus(7, 1)) == bnpd(2, make_modulus(7, 1))
    assert bnpd(2, make_modulus(7, 1)).value == 3


def test_bnpd_kummer_class_step():
    for p in (7, 11):
        for m in range(2, 40, 2):
            if m % (p - 1) == 0 or (m + p - 1) % p == 0 or m % p == 0:
                continue
            a = bnpd(m, make_modulus(p, 1))
            b = bnpd(m + (p - 1), make_modulus(p, 1))
            assert a == b, (p, m)


def test_divided_set_defaults_and_values():
    bs7 = divided_set(7)
    assert bs7[(1, 0)].precision == 5
    # (B_6 + 1/7 - 1)/6 = -5/36 and -5*inv(36) = 23 mod 49
    assert bs7[(1, 0)].reduce_to(2) == ratio_mod(-5, 36, 7, 49)
    assert bs7[(1, 0)].reduce_to(2).value == 23
    assert bs7[(1, 2)].reduce_to(1).value == 6  # same value as B_4/4 mod 7

    bs11 = divided_set(11)
    assert bs11[(1, 0)].precision == 6 and bs11[(1, 2)].precision == 4

    # the depth rule gives the set specs the paper's two ladders read
    specs = {
        7: {(1, 0): 5, (2, 0): 5, (3, 0): 5, (4, 0): 5, (5, 0): 5,
            (1, 2): 3, (2, 2): 3, (3, 2): 3, (1, 4): 1},
        11: {(1, 0): 6, (2, 0): 6, (3, 0): 6, (4, 0): 6, (5, 0): 6, (6, 0): 6,
             (1, 2): 4, (2, 2): 4, (3, 2): 4, (4, 2): 4, (1, 4): 2, (2, 4): 2},
    }
    for p in (7, 11):
        assert set_spec(depths(p)[-1]) == specs[p], p


def test_divided_set_is_its_spec():
    # the keys in the spec's order, each value at its spec precision
    for p in (7, 11, 13):
        spec = set_spec(depths(p)[-1])
        bs = divided_set(p)
        assert list(bs) == list(spec), p
        assert [value.precision for value in bs.values()] == list(spec.values()), p


def test_divided_set_kummer_pairs():
    for p in (7, 11, 13):
        bs = divided_set(p)
        first = bs[(1, 0)].reduce_to(1)
        for (n, d), value in bs.items():
            if d == 0:
                assert value.reduce_to(1) == first, (p, n)


def test_divided_set_missing_entry_and_bounds():
    t = _Acc(7, divided_set(7), 1)
    with pytest.raises(ValueError, match="missing cache entry"):
        t.b(6)
    with pytest.raises(ValueError, match="missing cache entry"):
        t.b4(2)
    with pytest.raises(ValueError):
        divided_set(5)


def test_kummer_admissible_bounds():
    # (p, r, n, admissible), worked by hand on both sides of each bound
    cases = [
        # on the grid: n > 0 and p > r + n/(p-1)
        (7, 5, 6, True), (7, 6, 6, False),
        (7, 4, 12, True), (7, 5, 12, False),
        (7, 1, 30, True), (7, 2, 30, False),
        (11, 9, 10, True), (11, 10, 10, False),
        (11, 8, 20, True), (11, 9, 20, False),
        # at start 0 and below the differences do not vanish (2 mod 7 at r = 1)
        (7, 1, 0, False), (7, 1, -6, False), (11, 3, 0, False),
        # off the grid: n > r
        (7, 1, 2, True), (7, 2, 2, False),
        (7, 3, 4, True), (7, 4, 4, False),
        (13, 3, 4, True), (13, 4, 4, False),
        (13, 3, 26, True), (13, 1, 34, True),
    ]
    for p, r, n, want in cases:
        assert kummer_admissible(p, r, n) is want, (p, r, n)
    found = bernoulli.kummer_differences(7, BernoulliEngine(7), [(0, 3), (-6, 3), (6, 3)])
    assert [(r, n) for r, n, _ in found] == [(1, 6), (2, 6), (3, 6)]


def test_power_sum_tables_match_direct():
    # rows inside the block and above it, indices with p | j, the fold of
    # the column p-3 onto the column 0 of the next row, and one engine asked
    # in rising and one in falling precision; p = 2003 at g = 7 is the
    # widest slot
    rows = bernoulli.BLOCK_ROWS
    for p in (7, 11, 101, 691, 2003):
        h = p - 1
        indices = (0, 1, 2, 4, 50, 99, 357, p - 3, h, p, 2 * h - 2, 2 * h,
                   (rows - 1) * h + p - 3, rows * h, rows * h + 2, (rows + 1) * h + 4,
                   3 * rows * h + p - 3, 40 * h + 2, p * h, p * (p + 1))
        want = {j: power_sum_mod(j, make_modulus(p, 7)).value for j in indices}
        for order in (range(1, 8), range(7, 0, -1)):
            engine = BernoulliEngine(p)
            for g in order:
                for j in indices:
                    assert engine.power_sum(j, g) == want[j] % p**g, (p, g, j)


def _count_power_sums(engine):
    calls = []
    direct = engine.power_sum

    def counted(j, g):
        calls.append((j, g))
        return direct(j, g)

    engine.power_sum = counted
    return calls


def test_engine_serves_any_precision_order():
    # one engine, asked in rising and in falling precision, agrees with a
    # fresh engine for every request; once an index is held at some
    # precision, lower requests are reductions and sum no new powers
    for p in (7, 11, 101):
        h, top = p - 1, min(p - 1, 7)
        indices = (0, 1, 2, 3, 4, 12, h, 2 * h - 2, 3 * h - 4, 5 * h, 6 * h - 2)
        for order in (range(1, top + 1), range(top, 0, -1)):
            engine = BernoulliEngine(p)
            calls = _count_power_sums(engine)
            for g in order:
                for m in indices:
                    got = engine.pb_value(m, g)
                    assert got == BernoulliEngine(p).pb_value(m, g), (p, m, g)
                if g == top:
                    after_top = len(calls)
            for g in range(1, top + 1):
                for m in indices:
                    engine.pb_value(m, g)
            assert after_top > 0 and len(calls) == after_top, (p, order)


def test_engine_is_shared_by_divided_values():
    p = 13
    engine = BernoulliEngine(p)
    calls = _count_power_sums(engine)
    bs = divided_set(p, engine)
    assert bs == divided_set(p)
    before = len(calls)
    for n, r in ((1, 6), (3, 2), (6, 1)):
        assert bnpd(n * (p - 1), make_modulus(p, r), engine) == bs[(n, 0)].reduce_to(r)
    assert len(calls) == before


def test_divided_set_builds_few_tables(monkeypatch):
    # at p = 691 the divided set reads the columns p-7, p-5, p-3 and 0:
    # one power table for the v^(p-1) rows of the block, one column pass at
    # p-7 (its v^2 fold holds p-5) and one at p-3 (its fold holds the
    # column 0 of the next row), at one precision, and nothing rebuilt
    p = 691
    tables, passes, rises = [], [], []
    direct_table = bernoulli.power_table

    def counted_table(p, e, mod):
        tables.append(e)
        return direct_table(p, e, mod)

    monkeypatch.setattr(bernoulli, "power_table", counted_table)
    engine = BernoulliEngine(p)
    column_pass, reset = engine._column_pass, engine._reset

    def counted_pass(j):
        passes.append(j)
        column_pass(j)

    def counted_reset(g):
        if g > engine.g:
            rises.append(g)
        reset(g)

    engine._column_pass, engine._reset = counted_pass, counted_reset
    divided_set(p, engine)
    assert tables == [p - 1, p - 7, p - 3] and rises == [7]
    assert passes == [5 * (p - 1) + p - 7, 5 * (p - 1) + p - 3]


def test_pb_value_skips_odd_sub_indices():
    # odd indices above 1 are zero and are never asked for
    engine = BernoulliEngine(101)
    asked = []
    direct = engine.pb_value

    def counted(m, g):
        asked.append(m)
        return direct(m, g)

    engine.pb_value = counted
    for m in (2, 4, 100, 598, 600):
        assert engine.pb_value(m, 7) == BernoulliEngine(101).pb_value(m, 7)
    assert 1 in asked and 0 in asked
    assert not [m for m in asked if m > 1 and m % 2]


def test_bnpd_row_memory_stays_flat():
    # index 600002 at p = 7 sits on row 100000: no row below it is held
    import tracemalloc

    tracemalloc.start()
    try:
        value = bnpd(600002, make_modulus(7, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value == bnpd(2, make_modulus(7, 1))
    assert peak < 2 * 2**20
