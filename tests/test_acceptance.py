"""Acceptance suite: every criterion at its stated range and tolerance.

All comparisons are bit-exact residue equalities; each test prints one
PASS line when its criterion holds over the full stated range.
"""
import io
from math import comb

import pytest

from reference_routes import binom_diff_mod_p, exact_bernoulli, ptilde_mismatches, q_power_sum
from wilsonq import harness
from wilsonq.bernoulli import BernoulliEngine, bnpd, forward_difference, kummer_admissible
from wilsonq.formulas import PTILDE
from wilsonq.harness import RunConfig, check_prime, enumerate_primes, run_and_report
from wilsonq.oracles import wilson_quotient
from wilsonq.residues import make_modulus, ratio_mod


def _sweep(pmin, pmax, tags):
    cfg = RunConfig(pmin=pmin, pmax=pmax, checks=frozenset(tags))
    results = []
    for p in enumerate_primes(pmin, pmax):
        results.extend(check_prime(p, cfg))
    return results


@pytest.fixture(scope="module")
def main_sweep():
    """One shared pass over 7..2000 for the three headline checks."""
    return _sweep(7, 2000, ["thm1", "thm2", "thm3"])


@pytest.fixture(scope="module")
def wide_sweep():
    """One shared pass over 3..500 for the formula-layer checks."""
    return _sweep(3, 500, ["props", "lemmas", "psi", "zero-exprs", "table3"])


def _tag(results, tag):
    return [r for r in results if r.tag == tag and not r.skipped]


def test_factorial_expansion_six_digits(main_sweep):
    rows = _tag(main_sweep, "thm1")
    primes = {r.p for r in rows}
    assert primes == set(enumerate_primes(7, 2000))
    assert [r for r in rows if not r.passed] == []
    print(f"\nPASS factorial expansion, six digits: {len(primes)} primes 7..2000, "
          f"{len(rows)} exact equalities")


def test_factorial_expansion_seven_digits(main_sweep):
    rows = _tag(main_sweep, "thm2")
    primes = {r.p for r in rows}
    assert primes == set(enumerate_primes(11, 2000))
    assert [r for r in rows if not r.passed] == []
    print(f"PASS factorial expansion, seven digits: {len(primes)} primes 11..2000, "
          f"{len(rows)} exact equalities")


def test_power_sum_congruences_both_levels(main_sweep):
    rows = _tag(main_sweep, "thm3")
    assert [r for r in rows if not r.passed] == []
    by_prime: dict[int, set[str]] = {}
    for r in rows:
        by_prime.setdefault(r.p, set()).add(r.case)
    for p in enumerate_primes(7, 2000):
        expected = {f"n={n}-mod-p^5" for n in range(1, 6)}
        if p >= 11:
            expected |= {f"n={n}-mod-p^6" for n in range(1, 7)}
        assert by_prime[p] == expected, p
    print(f"PASS scaled power-sum congruences: {len(rows)} cases exact across both moduli")


def test_spot_anchors():
    assert wilson_quotient(5, 3).quotient.value == 5
    assert wilson_quotient(7, 5).quotient.value == 103
    assert wilson_quotient(13, 8).quotient.value == 36846277
    assert q_power_sum(1, 7, 5).value == 9595
    print("PASS spot anchors: W_5=5, W_7=103, W_13=36846277, Q_7(1)=9595")


def test_coefficient_vector_form_vs_oracle(wide_sweep):
    rows = [r for r in _tag(wide_sweep, "props") if 11 <= r.p <= 500]
    primes = {r.p for r in rows}
    assert primes == set(enumerate_primes(11, 500))
    assert all(len([r for r in rows if r.p == p]) == 11 for p in primes)
    assert [r for r in rows if not r.passed] == []
    print(f"PASS coefficient-vector route vs direct oracle: {len(rows)} cases, "
          f"primes 11..500, both moduli")


def test_unreduced_lead_congruence(wide_sweep):
    rows = _tag(wide_sweep, "lemmas")
    assert [r.p for r in rows] == enumerate_primes(7, 500)
    assert {r.case for r in rows} == {"n=5-mod-p^5-unreduced-lead"}
    assert [r for r in rows if not r.passed] == []
    print(f"PASS (p-1)-lead form of the n=5 congruence mod p^5: {len(rows)} primes 7..500")


def test_wilson_through_power_sum_polynomials(wide_sweep):
    rows = _tag(wide_sweep, "psi")
    assert [r for r in rows if not r.passed] == []
    # one row per prime, at the top precision, which implies the lower ones
    assert [(r.p, r.case) for r in rows] == [
        (p, f"wilson-r={min(6, p - 1)}") for p in enumerate_primes(3, 500)]
    assert ptilde_mismatches(PTILDE) == {}
    print(f"PASS Wilson quotient through power-sum polynomials: {len(rows)} cases "
          f"(r = min(6, p-1), odd p in 3..500) plus the exact p-adic log expansion")


def test_kummer_congruence_suite():
    failures = []
    checked = 0
    for p in (7, 11, 13, 17):
        h = p - 1
        for r in (1, 2, 3):
            modulus = make_modulus(p, r)
            for n in range(2, 201, 2):
                if not kummer_admissible(p, r, n):
                    continue
                diff = forward_difference(lambda nu: bnpd(nu, modulus).value, h, r, start=n)
                checked += 1
                if diff % modulus.value:
                    failures.append((p, r, n))
    assert failures == []
    print(f"PASS higher-order congruence suite: {checked} vanishing differences, "
          f"r <= 3, even n <= 200, p in {{7, 11, 13, 17}}")


def test_engine_against_exact_oracle():
    checked = 0
    for p in enumerate_primes(11, 47):
        for m in range(0, 301, 2):
            exact = p * exact_bernoulli(m)
            want = ratio_mod(exact.numerator, exact.denominator, p, p**8)
            assert BernoulliEngine(p).pb_value(m, 8) == want, (p, m)
            checked += 1
    print(f"PASS engine vs exact-rational oracle: {checked} values mod p^8, "
          f"even m <= 300, primes 11..47")


def test_binomial_difference_closed_form():
    checked = 0
    for p in enumerate_primes(11, 101):
        for k in range(1, 9):
            for n in range(1, 9):
                want = ((-1) ** k * comb(k - 1, n - 1)) % p
                assert binom_diff_mod_p(k, n, p).value == want, (p, k, n)
                checked += 1
    print(f"PASS binomial-difference closed form: {checked} cases, "
          f"k, n <= 8, primes 11..101")


def test_zero_expressions_and_coefficient_tables(wide_sweep):
    zero_rows = [r for r in _tag(wide_sweep, "zero-exprs") if 11 <= r.p <= 500]
    table_rows = [r for r in _tag(wide_sweep, "table3") if 11 <= r.p <= 500]
    primes = set(enumerate_primes(11, 500))
    assert {r.p for r in zero_rows} == primes
    assert {r.p for r in table_rows} == primes
    assert [r for r in zero_rows + table_rows if not r.passed] == []
    # omega_1..omega_4 mod p on the depth-6 ladder alone, and no row for the
    # depth-5 ladder or the term groups of omega_5, whose agreement across
    # depths the kummer rows imply
    assert {r.case.split("-")[0] for r in table_rows} == {"depth6"}
    assert not [r for r in table_rows if r.case.startswith("omega5-reduction")]
    assert len(table_rows) == 4 * len(primes)
    print(f"PASS vanishing expressions and mod-p tables: "
          f"{len(zero_rows)} + {len(table_rows)} cases, primes 11..500")


def test_report_determinism_and_worker_independence(monkeypatch):
    # the sweep caps its workers at the CPUs the process may run on; offer it
    # 8, so that jobs=8 forks and merges 8 workers on any host
    monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    forked, fork = [], harness._forked_sweep

    def counted_fork(primes, cfg, workers):
        forked.append(workers)
        return fork(primes, cfg, workers)

    monkeypatch.setattr(harness, "_forked_sweep", counted_fork)
    base = dict(pmin=7, pmax=150, checks=frozenset(["thm1", "thm3"]), fmt="json")
    outputs = []
    for jobs in (1, 1, 8):
        buf = io.StringIO()
        assert run_and_report(RunConfig(**base, jobs=jobs), stream=buf) == 0
        outputs.append(buf.getvalue())
    assert forked == [8]
    assert outputs[0] == outputs[1], "repeat runs must be byte-identical"
    assert outputs[0] == outputs[2], "worker count must not affect the report"
    print("PASS determinism: byte-identical reports for repeat runs and jobs in {1, 8}")
