from fractions import Fraction
from math import factorial

import pytest

from wilsonq.bernoulli import divided_set
from wilsonq.differences import binom_diff_mod_p
from wilsonq.formulas import (
    COEFF_TABLES,
    _QTILDE_MAIN_L6,
    omega5_reduction_rows,
    omega_mod_p_rhs,
    omega_vector,
    qtilde_l5_n5_unreduced,
    qtilde_rhs,
    qtilde_via_coefficients,
    wilson_from_power_sums,
    zero_expression_suite,
)
from wilsonq.oracles import factorial_mod, qtilde, wilson_quotient
from wilsonq.residues import Residue, make_modulus

F = Fraction


def test_omega_zeroth_coefficient():
    bs = divided_set(7)
    omega = omega_vector(7, bs, depth=5)
    assert omega.omegas[0].value == 7**6 - 1
    assert omega.omegas[0].precision == 6


def test_omega_precision_ladder():
    bs = divided_set(11)
    omega = omega_vector(11, bs, depth=6)
    assert [w.precision for w in omega.omegas] == [7, 6, 5, 4, 3, 2, 1]


def test_factorial_expansion_examples():
    bs7 = divided_set(7)
    assert omega_vector(7, bs7, 5).factorial_form().value == 720
    bs11 = divided_set(11)
    assert omega_vector(11, bs11, 6).factorial_form().value == factorial(10) % 11**7


def test_wilson_form_matches_quotient():
    for p, depth in ((7, 5), (13, 6)):
        bs = divided_set(p)
        omega = omega_vector(p, bs, depth)
        for r in range(1, depth + 1):
            assert omega.wilson_form(r) == wilson_quotient(p, r).quotient, (p, r)


def test_first_coefficient_mod_p():
    bs = divided_set(7)
    omega = omega_vector(7, bs, 5)
    assert omega.omegas[1].reduce_to(1) == -bs.b(1, 1)


def test_depth6_reduces_to_depth5():
    for p in (11, 13, 17):
        bs = divided_set(p)
        w5 = omega_vector(p, bs, 5)
        w6 = omega_vector(p, bs, 6)
        for nu in range(1, 6):
            assert w6.omegas[nu].reduce_to(6 - nu) == w5.omegas[nu], (p, nu)


def test_omega_bounds():
    bs7 = divided_set(7)
    with pytest.raises(ValueError):
        omega_vector(7, bs7, depth=6)
    with pytest.raises(ValueError):
        omega_vector(7, bs7, depth=4)


def test_qtilde_rhs_examples():
    bs = divided_set(7)
    got = qtilde_rhs(1, 7, 5, bs)
    assert got.value == 9595  # the direct Fermat-quotient sum
    assert got == qtilde(1, 7, 5)


def test_qtilde_rhs_levels_consistent():
    for p in (11, 13):
        bs = divided_set(p)
        for n in range(1, 6):
            full = qtilde_rhs(n, p, 6, bs)
            reduced = qtilde_rhs(n, p, 5, bs)
            assert full.reduce_to(5) == reduced, (p, n)


def test_qtilde_structural_shape():
    # the n=6 congruence has no p^3 or p^5 contribution
    powers = {t for t, _ in _QTILDE_MAIN_L6[6]}
    assert powers == {0, 2, 4}


def test_qtilde_rhs_bounds():
    bs = divided_set(7)
    with pytest.raises(ValueError):
        qtilde_rhs(6, 7, 5, bs)
    with pytest.raises(ValueError):
        qtilde_rhs(1, 7, 6, bs)
    with pytest.raises(ValueError):
        qtilde_rhs(1, 7, 4, bs)


def test_three_way_agreement():
    # headline transcription, coefficient-vector route and direct sums all
    # produce identical residues
    for p in (11, 13, 17):
        bs = divided_set(p)
        for level in (5, 6):
            for n in range(1, level + 1):
                direct = qtilde(n, p, level)
                main = qtilde_rhs(n, p, level, bs)
                vectors = qtilde_via_coefficients(n, p, level=level)
                assert main == vectors == direct, (p, level, n)


def test_unreduced_lead_variant():
    # the n=5 depth-5 congruence holds with the leading factor written
    # either as -1 (the compact form) or as p-1
    for p in (7, 11, 13):
        bs = divided_set(p)
        direct = qtilde(5, p, 5)
        assert qtilde_rhs(5, p, 5, bs) == direct
        assert qtilde_l5_n5_unreduced(p, bs) == direct


def test_delta_vector_matches_binomial_difference():
    # the depth-5 p^4 coefficients of the order-5 column come from the
    # binomial-difference closed form
    delta = COEFF_TABLES.level5["delta"]
    for p in (11, 13, 101):
        m = make_modulus(p, 1)
        for n in range(1, 6):
            lhs = Residue(delta[n - 1].numerator, m)
            assert lhs == binom_diff_mod_p(5, n, p), (p, n)


def test_printed_coefficient_vectors():
    lvl5 = COEFF_TABLES.level5
    assert lvl5["alpha"] == (-1, 2, -3, -16, -10)
    assert lvl5["delta"] == (-1, -4, -6, -4, -1)
    assert lvl5["beta"] == (F(11, 6), F(-11, 3), -18, -12, 0)
    lvl6 = COEFF_TABLES.level6
    assert lvl6["eta"] == (F(137, 60), F(77, 6), F(47, 2), 18, 5, 0)
    assert lvl6["delta"] == (F(1, 6), 1, 1, 0, 0, 0)
    assert lvl6["epsilon"] == (-1, 2, 18, 32, 23, 6)


def test_wilson_from_power_sums_examples():
    # r=1 is the plain first expansion polynomial evaluated at Q_p(1)
    from wilsonq.oracles import q_power_sum

    for p in (5, 7, 11):
        assert wilson_from_power_sums(p, 1) == q_power_sum(1, p, 1)
        assert wilson_from_power_sums(p, 1) == wilson_quotient(p, 1).quotient
    assert wilson_from_power_sums(7, 5) == wilson_quotient(7, 5).quotient
    assert wilson_from_power_sums(11, 6) == wilson_quotient(11, 6).quotient
    with pytest.raises(ValueError):
        wilson_from_power_sums(5, 5)


def test_zero_expression_suite_passes():
    for p in (7, 11, 13):
        for item in zero_expression_suite(p, divided_set(p)):
            assert item.passed, (p, item.case, item.lhs)


def test_mod_p_coefficient_forms():
    for p in (7, 11, 13):
        bs = divided_set(p)
        w5 = omega_vector(p, bs, 5)
        for nu in range(0, 6):
            assert w5.omegas[nu].reduce_to(1) == omega_mod_p_rhs(nu, p, bs), (p, nu)
    for p in (11, 13):
        bs = divided_set(p)
        w6 = omega_vector(p, bs, 6)
        for nu in range(0, 7):
            assert w6.omegas[nu].reduce_to(1) == omega_mod_p_rhs(nu, p, bs), (p, nu)


def test_omega5_reduction_rows():
    for p in (11, 13, 17):
        for name, lhs, rhs in omega5_reduction_rows(p, divided_set(p)):
            assert lhs == rhs, (p, name)


def test_corrupted_coefficient_is_detected(monkeypatch):
    # the verification must be able to fail: perturb one transcription entry
    # and watch the end-to-end comparison break
    from wilsonq import formulas

    bs = divided_set(13)
    good = omega_vector(13, bs, 5).factorial_form()
    assert good == factorial_mod(13, 6)
    original = formulas._OMEGA_DEPTH5[1]
    monkeypatch.setitem(
        formulas._OMEGA_DEPTH5, 1, lambda t: original(t) + t.b(1)
    )
    bad = omega_vector(13, bs, 5).factorial_form()
    assert bad != factorial_mod(13, 6)


def test_corrupted_unreduced_lead_is_detected(monkeypatch):
    # the lemmas row must be able to fail: perturb one coefficient of the
    # lead block of the (p-1)-lead form and watch the row break
    from wilsonq import formulas
    from wilsonq.harness import RunConfig, check_prime

    cfg = RunConfig(pmin=7, pmax=13, checks=frozenset(["lemmas"]))
    (t0, lead), *rest = formulas.QTILDE_L5_N5_UNREDUCED
    assert t0 == 0
    for p in (7, 11, 13):
        assert [r.passed for r in check_prime(p, cfg)] == [True], p
    monkeypatch.setattr(
        formulas, "QTILDE_L5_N5_UNREDUCED",
        ((0, lambda t: lead(t) + (t.p - 1) * t.b(3)), *rest),
    )
    for p in (7, 11, 13):
        rows = check_prime(p, cfg)
        assert [(r.case, r.passed) for r in rows] == [("n=5-mod-p^5-unreduced-lead", False)], p


def test_factorial_expansion_equals_oracle_sample():
    for p in (7, 11, 13, 17, 19, 23):
        bs = divided_set(p)
        assert omega_vector(p, bs, 5).factorial_form() == factorial_mod(p, 6), p
        if p >= 11:
            assert omega_vector(p, bs, 6).factorial_form() == factorial_mod(p, 7), p
