import ast
import functools
import inspect
import re
from fractions import Fraction
from math import factorial
from pathlib import Path

import pytest

from displays import displays, divided_set_displays, form, kummer_relations
from reference_routes import Newton, binom_diff_mod_p, kummer_certificate
from wilsonq import formulas
from wilsonq.bernoulli import MIN_P, depths, divided_set, set_spec
from wilsonq.formulas import (
    COEFF_TABLES,
    PTILDE,
    QTILDE_L5_N5_UNREDUCED,
    _QTILDE_MAIN,
    factorial_form,
    omega_mod_p_rhs,
    omega_vector,
    qtilde_l5_n5_unreduced,
    qtilde_rhs,
    qtilde_via_coefficients,
    wilson_from_power_sums,
    zero_expressions,
)
from wilsonq.oracles import factorial_mod, qtilde, qtilde_sums, wilson_quotient
from wilsonq.residues import Residue, make_modulus

F = Fraction


def test_omega_zeroth_coefficient():
    bs = divided_set(7)
    omega = omega_vector(7, bs, depth=5)
    assert omega[0].value == 7**6 - 1
    assert omega[0].precision == 6


def test_omega_precision_ladder():
    bs = divided_set(11)
    omega = omega_vector(11, bs, depth=6)
    assert [w.precision for w in omega] == [7, 6, 5, 4, 3, 2, 1]


def test_factorial_expansion_examples():
    bs7 = divided_set(7)
    assert factorial_form(omega_vector(7, bs7, 5)).value == 720
    bs11 = divided_set(11)
    assert factorial_form(omega_vector(11, bs11, 6)).value == factorial(10) % 11**7


def test_first_coefficient_mod_p():
    bs = divided_set(7)
    omega = omega_vector(7, bs, 5)
    assert omega[1].reduce_to(1) == -bs[(1, 0)].value


def test_depth6_reduces_to_depth5():
    for p in (11, 13, 17):
        bs = divided_set(p)
        w5 = omega_vector(p, bs, 5)
        w6 = omega_vector(p, bs, 6)
        for nu in range(1, 6):
            assert w6[nu].reduce_to(6 - nu) == w5[nu], (p, nu)


def test_omega_bounds():
    bs7 = divided_set(7)
    for depth in (6, 4):
        with pytest.raises(ValueError):
            omega_vector(7, bs7, depth=depth)


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
    powers = {t for t, _ in _QTILDE_MAIN[6][6]}
    assert powers == {0, 2, 4}


def test_qtilde_rhs_bounds():
    bs = divided_set(7)
    for n, level in ((6, 5), (1, 6), (1, 4)):
        with pytest.raises(ValueError):
            qtilde_rhs(n, 7, level, bs)


def test_depth_bounds_keep_their_messages():
    bs = divided_set(7)
    with pytest.raises(ValueError, match=r"^depth 6 needs p >= 11, got 7$"):
        omega_vector(7, bs, 6)
    with pytest.raises(ValueError, match=r"^level 6 needs p >= 11, got 7$"):
        qtilde_rhs(1, 7, 6, bs)
    with pytest.raises(ValueError, match=r"^level 6 needs p >= 11, got 7$"):
        qtilde_via_coefficients(1, 7, 6, bs)
    with pytest.raises(ValueError, match=r"^level 5 supports n in 1..5, got 6$"):
        qtilde_via_coefficients(6, 7, 5, bs)
    with pytest.raises(ValueError, match=r"^need p >= 7, got 5$"):
        divided_set(5)


def test_three_way_agreement():
    # headline transcription, coefficient-vector route and direct sums all
    # produce identical residues
    for p in (7, 11, 13, 17):
        bs = divided_set(p)
        for level in depths(p):
            for n in range(1, level + 1):
                main, direct = qtilde_rhs(n, p, level, bs), qtilde(n, p, level)
                assert main == qtilde_via_coefficients(n, p, level, bs) == direct, (p, level, n)


def test_unreduced_lead_variant():
    # the n=5 depth-5 congruence holds with the lead written as -1 or as p-1
    for p in (7, 11, 13, 17):
        bs = divided_set(p)
        assert qtilde_rhs(5, p, 5, bs) == qtilde_l5_n5_unreduced(p, bs) == qtilde(5, p, 5), p


def test_delta_vector_matches_binomial_difference():
    # the depth-5 p^4 coefficients of the order-5 column come from the
    # binomial-difference closed form
    delta = COEFF_TABLES[5]["delta"]
    for p in (11, 13, 101):
        m = make_modulus(p, 1)
        for n in range(1, 6):
            lhs = Residue(delta[n - 1].numerator, m)
            assert lhs == binom_diff_mod_p(5, n, p), (p, n)


def test_printed_coefficient_vectors():
    lvl5 = COEFF_TABLES[5]
    assert lvl5["alpha"] == (-1, 2, -3, -16, -10)
    assert lvl5["delta"] == (-1, -4, -6, -4, -1)
    assert lvl5["beta"] == (F(11, 6), F(-11, 3), -18, -12, 0)
    lvl6 = COEFF_TABLES[6]
    assert lvl6["eta"] == (F(137, 60), F(77, 6), F(47, 2), 18, 5, 0)
    assert lvl6["delta"] == (F(1, 6), 1, 1, 0, 0, 0)
    assert lvl6["epsilon"] == (-1, 2, 18, 32, 23, 6)


def test_wilson_from_power_sums_examples():
    # r=1 is the plain first expansion polynomial evaluated at Q_p(1)
    from reference_routes import q_power_sum

    for p in (5, 7, 11):
        assert wilson_from_power_sums(qtilde_sums(p, 1)) == q_power_sum(1, p, 1)
        assert wilson_from_power_sums(qtilde_sums(p, 1)) == wilson_quotient(p, 1).quotient
    assert wilson_from_power_sums(qtilde_sums(7, 5)) == wilson_quotient(7, 5).quotient
    assert wilson_from_power_sums(qtilde_sums(11, 6)) == wilson_quotient(11, 6).quotient
    # the oracle refuses r >= p, so five sums at p = 5 are made by hand
    with pytest.raises(ValueError, match=r"^need odd p > r, got p=5, r=5$"):
        wilson_from_power_sums((Residue(0, make_modulus(5, 5)),) * 5)


def test_zero_expressions_vanish():
    for p in (7, 11, 13):
        for name, value in zero_expressions(p, divided_set(p)):
            assert value.value == 0, (p, name, value)


# -- every printed constant matters -------------------------------------------
#
# A display whose constant can be changed without changing its value checks
# nothing about that constant.  Each display is read in Newton form (see the
# certificate below), with y_{d,i} free for i below its family's length, as
# the kummer rows leave it.  A change with no monomial below the display's
# precision holds wherever those rows pass; one monomial below it changes the
# value at all but finitely many primes.


@functools.cache
def _lambdas_by_line(path):
    lambdas: dict[int, list[ast.Lambda]] = {}
    for node in ast.walk(ast.parse(Path(path).read_text())):
        if isinstance(node, ast.Lambda):
            lambdas.setdefault(node.lineno, []).append(node)
    return lambdas


def _lambda_node(display):
    """The AST of the lambda ``display``, found by its first line, which
    holds no other lambda."""
    [node] = _lambdas_by_line(inspect.getsourcefile(display))[display.__code__.co_firstlineno]
    return node


def _constants(node):
    """The integer constants of a display's AST: the coefficients, the t.F
    arguments and the exponents, but not the indices of t.b, t.b2 and t.b4
    or of a table."""
    indices = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Attribute) \
                and sub.func.attr in ("b", "b2", "b4"):
            indices.update(id(leaf) for arg in sub.args for leaf in ast.walk(arg))
        elif isinstance(sub, ast.Subscript):
            indices.update(id(leaf) for leaf in ast.walk(sub.slice))
    return [sub for sub in ast.walk(node) if isinstance(sub, ast.Constant)
            and type(sub.value) is int and id(sub) not in indices]


def _bumped(display):
    """(line, constant, variant) for each constant of the lambda ``display``,
    the variant being the display with that one constant raised by 1."""
    node = _lambda_node(display)
    for const in _constants(node):
        const.value += 1
        try:
            code = compile(ast.Expression(node), inspect.getsourcefile(display), "eval")
        finally:
            const.value -= 1
        yield const.lineno, const.value, eval(code, display.__globals__)


def _surviving_constants(entries):
    """(name, line, constant) for each constant of each (name, precision,
    display) that can be raised by 1 with no monomial of the change, in
    Newton form, below p^precision."""
    survivors = []
    for name, prec, display in entries:
        value = display(Newton)
        survivors += [(name, line, const) for line, const, variant in _bumped(display)
                      if all(pe >= prec for pe, _ in (variant(Newton) - value).terms)]
    return survivors


def _is_zero_expression(entry):
    return entry[0].startswith("ZERO_EXPRESSIONS[")


def test_every_constant_of_a_divided_set_display_matters():
    assert _surviving_constants(
        [e for e in divided_set_displays() if not _is_zero_expression(e)]) == []


def test_every_constant_of_a_zero_expression_matters():
    # a product of the differences the kummer rows check vanishes for any
    # constants, so it restates those rows and is not listed
    zero = [e for e in divided_set_displays() if _is_zero_expression(e)]
    assert len(zero) == len(formulas.ZERO_EXPRESSIONS)
    assert _surviving_constants(zero) == []


def test_constant_guard_names_a_restated_kummer_product(monkeypatch):
    # w41-compact, (3/2) (D b(1))^2 (1 + b(1)) = (3/2) p^2 y_{0,1}^2 (1 + y_{0,0}),
    # carries p^2 for any y_{0,0} and y_{0,1}, so none of its four constants matters
    restated = ("w41-compact", 2,
                lambda t: t.F(3, 2) * (t.b(1) - t.b(2)) ** 2 * (1 + t.b(1)))
    monkeypatch.setattr(formulas, "ZERO_EXPRESSIONS", (*formulas.ZERO_EXPRESSIONS, restated))
    survivors = _surviving_constants(divided_set_displays())
    assert sorted((name, const) for name, _, const in survivors) == [
        ("ZERO_EXPRESSIONS[w41-compact]", const) for const in (1, 2, 2, 3)]


def test_constant_guard_names_a_restated_family_product(monkeypatch):
    # bnd-d1-product, -(1/3) D b2(1) D b(1) = -(1/3) p^2 y_{2,1} y_{0,1}, carries
    # p^2 for any y_{2,1} and y_{0,1}, so neither of its two constants matters
    restated = ("bnd-d1-product", 2,
                lambda t: t.F(-1, 3) * (t.b2(1) - t.b2(2)) * (t.b(1) - t.b(2)))
    monkeypatch.setattr(formulas, "ZERO_EXPRESSIONS", (*formulas.ZERO_EXPRESSIONS, restated))
    survivors = _surviving_constants(divided_set_displays())
    assert sorted((name, const) for name, _, const in survivors) == [
        ("ZERO_EXPRESSIONS[bnd-d1-product]", const) for const in (1, 3)]


def _surviving_vector_entries(monkeypatch):
    """(level, vector name, n) for each entry of ``COEFF_TABLES`` that can be
    raised by 1 with no monomial of the change to props' form of Q~_n mod
    p^level, in Newton form, below p^level.  A block that reads the entry
    moves by p^t b_d(j)/n, whose monomial p^t y_{d,0} lies below it."""
    survivors = []
    for level, vectors in COEFF_TABLES.items():
        forms = {n: form(blocks) for n, blocks in formulas._QTILDE_VEC[level].items()}
        values = {n: forms[n](Newton) for n in forms}
        for name, vector in list(vectors.items()):
            for n in forms:
                monkeypatch.setitem(vectors, name, (*vector[:n - 1], vector[n - 1] + 1, *vector[n:]))
                if all(pe >= level for pe, _ in (forms[n](Newton) - values[n]).terms):
                    survivors.append((level, name, n))
            monkeypatch.setitem(vectors, name, vector)
    return survivors


def test_every_printed_coefficient_vector_entry_matters(monkeypatch):
    # all 113 entries, zeros included: 7 vectors of 5 at level 5 and 13 of 6
    # at level 6
    assert sum(map(len, COEFF_TABLES[5].values())) == 35
    assert sum(map(len, COEFF_TABLES[6].values())) == 78
    assert _surviving_vector_entries(monkeypatch) == []


def test_vector_guard_names_a_vector_no_block_reads(monkeypatch):
    # without eta in the p^5 block of level 6, nothing reads its six entries
    row = formulas._VEC_BLOCKS[6][5]
    monkeypatch.setitem(formulas._VEC_BLOCKS[6], 5, tuple(e for e in row if e[0] != "eta"))
    assert _surviving_vector_entries(monkeypatch) == [(6, "eta", n) for n in range(1, 7)]


def test_raised_vector_entry_fails_its_sweep_row(monkeypatch):
    # the guard reads the Newton form; the sweep reads the true set through
    # the same blocks, and eta's first entry raised by 1 moves the n=1 form
    # mod p^6 by p^5 b4(1), a unit at the regular prime 17
    from wilsonq.harness import RunConfig, check_prime

    cfg = RunConfig(pmin=17, pmax=17, checks=frozenset(["props"]))
    eta = COEFF_TABLES[6]["eta"]
    monkeypatch.setitem(COEFF_TABLES[6], "eta", (eta[0] + 1, *eta[1:]))
    assert [r.case for r in check_prime(17, cfg) if not r.passed] == ["n=1-mod-p^6"]


@pytest.mark.parametrize("p", [7, 11, 101, 1009])
def test_kummer_rows_take_the_windows_the_constant_guard_assumes(p):
    # the free y_{d,i} of the constant guard stand for exactly the rows on the
    # set's families: the i-fold difference from b_d(1), index p-1-d, mod p^i
    # for i below the family's length, each one row and no other
    from wilsonq.harness import PrimeRun, _check_kummer

    rows = _check_kummer(PrimeRun(p))
    families = {f"r={i}-n={p - 1 - d}": i for (n, d), r in set_spec(depths(p)[-1]).items()
                if n == 1 for i in range(1, r)}
    assert sorted(case for case, _, _ in rows) == sorted(families)
    for case, lhs, _ in rows:
        assert lhs.value == 0 and lhs.precision == families[case], case


# -- the relations Kummer's congruences imply ----------------------------------
#
# Written in Newton form b_d(j) = sum_{i<j} C(j-1, i) p^i y_{d,i}, a relation
# between displays with no monomial below its precision holds at every prime
# whose kummer rows pass, so it needs no row of its own.


def _kummer_windows(depth):
    """(d, i) for each family d of the depth's set and each i below its
    length that is 0 or an order whose row r=i-n=(p-1-d) the kummer check
    takes, at the smallest prime of the depth (whose top depth it is)."""
    from wilsonq.harness import PrimeRun, _check_kummer

    p = MIN_P[depth]
    cases = {case for case, _, _ in _check_kummer(PrimeRun(p))}
    return {(d, i) for (n, d), r in set_spec(depth).items() if n == 1 for i in range(r)
            if i == 0 or f"r={i}-n={p - 1 - d}" in cases}


def _certificate():
    return kummer_certificate(kummer_relations(), {depth: _kummer_windows(depth) for depth in MIN_P})


def test_kummer_rows_imply_every_listed_relation():
    # 5 zero expressions, 5 omega_nu across depths, 8 mod-p forms, 3
    # term-group pairs, 11 props forms against thm3's, the lemma form
    # against props' and 4 n=1 pairs across levels; no row compares an
    # omega_nu or a term group of omega_5 across depths, so this certificate
    # is where the two ladders are held to each other, and where every props
    # and lemmas row is held to a thm3 row
    relations = list(kummer_relations())
    assert len(relations) == 37
    assert len({name for name, *_ in relations}) == 37
    assert _certificate() == {}


def test_certificate_lists_each_ladder_against_table3():
    # table3 has rows for the deepest ladder a prime supports only, so each
    # ladder's omega_1..omega_4 is held to its mod-p form here, mod p
    listed = {name: (depth, precision) for name, depth, precision, _, _ in kummer_relations()}
    for depth in (5, 6):
        for nu in range(1, 5):
            assert listed[f"_OMEGA[{depth}][{nu}] - _OMEGA_MOD_P[{nu}]"] == (depth, 1)


def test_certificate_holds_every_props_and_lemmas_row_to_thm3():
    # each props form against thm3's at its level, and the lemma form against
    # props' n=5 form, so the kummer rows and a thm3 row imply each such row
    listed = {name: (depth, precision) for name, depth, precision, _, _ in kummer_relations()}
    for level in (5, 6):
        for n in range(1, level + 1):
            assert listed[f"props n={n}-mod-p^{level} - thm3 n={n}-mod-p^{level}"] == (level, level)
    assert listed["lemmas n=5-mod-p^5-unreduced-lead - props n=5-mod-p^5"] == (5, 5)


def test_certificate_needs_each_window_and_unit_denominators():
    # without the order-5 row on b, only the relations that read b(6) fail,
    # props' n=6 form leading with p-1 where thm3's leads with -1;
    # a 7 in a denominator is no unit at p = 7
    windows = {depth: _kummer_windows(depth) for depth in MIN_P}
    narrowed = {**windows, 6: windows[6] - {(0, 5)}}
    assert sorted(kummer_certificate(kummer_relations(), narrowed)) == [
        "_OMEGA[6][1] - _OMEGA[5][1]", "_OMEGA[6][1] - _OMEGA_MOD_P[1]",
        "props n=6-mod-p^6 - thm3 n=6-mod-p^6"]
    sevenths = ("sevenths", 5, 1, lambda t: t.F(1, 7) * t.p * t.b(1), None)
    assert list(kummer_certificate([sevenths], windows)) == ["sevenths"]


def test_certificate_names_a_perturbed_ladder_coefficient(monkeypatch):
    # b(1) b(2) = y_{0,0}^2 + p y_{0,0} y_{0,1} has a monomial without p, so
    # both relations that read the depth-6 omega_2 fail, and no other
    display = formulas._OMEGA[6][2]
    monkeypatch.setitem(formulas._OMEGA[6], 2, lambda t: display(t) + t.b(1) * t.b(2))
    assert sorted(_certificate()) == ["_OMEGA[6][2] - _OMEGA[5][2]",
                                      "_OMEGA[6][2] - _OMEGA_MOD_P[2]"]


def test_certificate_names_a_raised_zero_expression_constant(monkeypatch):
    # each constant of w31-raw, raised by 1 alone, fails that relation alone
    entries = formulas.ZERO_EXPRESSIONS
    [(at, (name, r, display))] = [(k, e) for k, e in enumerate(entries) if e[0] == "w31-raw"]
    variants = list(_bumped(display))
    assert variants
    for line, const, variant in variants:
        monkeypatch.setattr(formulas, "ZERO_EXPRESSIONS",
                            (*entries[:at], (name, r, variant), *entries[at + 1:]))
        assert list(_certificate()) == ["ZERO_EXPRESSIONS[w31-raw]"], (line, const)


def test_mod_p_coefficient_forms():
    # omega_1..omega_4 at each depth; omega_0 is -1 in every ladder
    for p in (7, 11, 13):
        bs = divided_set(p)
        for depth in depths(p):
            w = omega_vector(p, bs, depth)
            assert w[0].reduce_to(1).value == p - 1
            for nu in range(1, 5):
                assert w[nu].reduce_to(1) == omega_mod_p_rhs(nu, p, bs), (p, depth, nu)
    for nu in (0, 5):
        with pytest.raises(ValueError, match=f"no mod-p form for index {nu}"):
            omega_mod_p_rhs(nu, 11, divided_set(11))


def test_corrupted_coefficient_is_detected(monkeypatch):
    # the verification must be able to fail: perturb one transcription entry
    # and watch the end-to-end comparison break
    bs = divided_set(13)
    good = factorial_form(omega_vector(13, bs, 5))
    assert good == factorial_mod(13, 6)
    original = formulas._OMEGA[5][1]
    monkeypatch.setitem(
        formulas._OMEGA[5], 1, lambda t: original(t) + t.b(1)
    )
    bad = factorial_form(omega_vector(13, bs, 5))
    assert bad != factorial_mod(13, 6)


@pytest.mark.parametrize("name", ["pure-power-terms", "mixed-bnd2-terms", "bnd4-terms"])
def test_omega5_group_perturbation_is_seen_everywhere(monkeypatch, name):
    # omega_5 is transcribed once, as term groups: a depth-5 group off by 1
    # (not set to a value: b4(1) is 0 mod 37) must fail the depth-5
    # factorial at every prime, and the certificate's relation between the
    # group's two depths, which stands in for a row comparing them
    from wilsonq.harness import RunConfig, check_prime, enumerate_primes

    cfg = RunConfig(pmin=11, pmax=43, checks=frozenset(["thm1"]))
    watched = {("thm1", "factorial-mod-p^6")}
    primes = enumerate_primes(11, 43)
    for p in primes:
        rows = {(r.tag, r.case): r.passed for r in check_prime(p, cfg)}
        assert all(rows[key] for key in watched), p
    group = formulas._OMEGA5_TERMS[5][name]
    monkeypatch.setitem(formulas._OMEGA5_TERMS[5], name, lambda t: group(t) + 1)
    for p in primes:
        failed = {(r.tag, r.case) for r in check_prime(p, cfg) if not r.passed}
        assert watched <= failed, (p, watched - failed)
    assert f"_OMEGA5_TERMS[6][{name}] - _OMEGA5_TERMS[5][{name}]" in _certificate()


def test_corrupted_unreduced_lead_is_detected(monkeypatch):
    # the lemmas row must be able to fail: perturb one coefficient of the
    # lead block of the (p-1)-lead form and watch the row break
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
        assert factorial_form(omega_vector(p, bs, 5)) == factorial_mod(p, 6), p
        if p >= 11:
            assert factorial_form(omega_vector(p, bs, 6)) == factorial_mod(p, 7), p


# -- the integer path ----------------------------------------------------------


def test_accessor_above_stored_precision_is_an_error_row(monkeypatch):
    # omega_1 of the depth-6 ladder asks for b(1) mod p^6; a set holding it
    # only mod p^5 must not be read past its digits
    from wilsonq import harness
    from wilsonq.harness import RunConfig, check_prime

    def short_set(p, engine):
        bset = divided_set(p, engine)
        bset[(1, 0)] = bset[(1, 0)].reduce_to(5)
        return bset

    monkeypatch.setattr(harness, "divided_set", short_set)
    rows = check_prime(11, RunConfig(pmin=11, pmax=11, checks=frozenset(["thm2"])))
    assert [(r.case, r.passed) for r in rows] == [("error", False)]
    assert "cannot raise precision from 5 to 6" in rows[0].lhs


def test_accessor_fraction_needs_a_unit_denominator():
    t = formulas._Acc(7, divided_set(7), 3)
    assert t.F(1, 2) * 2 % 7**3 == 1
    assert t.F(-5, 24) * 24 % 7**3 == -5 % 7**3
    for den in (7, 14):
        with pytest.raises(ValueError, match="not coprime"):
            t.F(1, den)


def test_display_returning_a_fraction_raises(monkeypatch):
    # a stray Fraction must never be wrapped as a residue and reported
    stray = lambda t: F(1, 2) * t.b(1)  # noqa: E731
    bs = divided_set(11)
    monkeypatch.setitem(formulas._OMEGA[5], 2, stray)
    with pytest.raises(TypeError, match="Fraction"):
        omega_vector(11, bs, 5)
    monkeypatch.setitem(formulas._OMEGA_MOD_P, 2, stray)
    with pytest.raises(TypeError, match="Fraction"):
        omega_mod_p_rhs(2, 11, bs)
    (t0, lead), *rest = formulas.QTILDE_L5_N5_UNREDUCED
    monkeypatch.setattr(formulas, "QTILDE_L5_N5_UNREDUCED", ((t0, lead), *rest, (4, stray)))
    with pytest.raises(TypeError, match="Fraction"):
        qtilde_l5_n5_unreduced(11, bs)
    monkeypatch.setattr(formulas, "ZERO_EXPRESSIONS", (("stray", 2, stray),))
    with pytest.raises(TypeError, match="Fraction"):
        zero_expressions(11, bs)


def test_block_counts_only_mod_its_precision(monkeypatch):
    # the block of p^t holds a class mod p^(level-t): p^(level-t) is 0 there
    # and so contributes nothing, while p^(level-t-1) lifts to p^(level-1)
    p, level = 13, 6
    bs = divided_set(p)
    base = qtilde_rhs(1, p, level, bs)
    blocks = formulas._QTILDE_MAIN[6][1]
    for t_pow in (2, 3, 4, 5):
        for e, shift in ((level - t_pow, 0), (level - t_pow - 1, p ** (level - 1))):
            monkeypatch.setitem(formulas._QTILDE_MAIN[6], 1,
                                (*blocks, (t_pow, lambda t, e=e: p**e)))
            assert qtilde_rhs(1, p, level, bs) == base.value + shift, (t_pow, e)


def test_every_lambda_is_a_listed_display():
    # a display in a table that tests/displays.py does not read would escape
    # every guard, and no evaluator builds a display per call
    lambdas = {node for nodes in _lambdas_by_line(inspect.getsourcefile(formulas)).values()
               for node in nodes}
    assert lambdas == {_lambda_node(display) for _, _, display in displays()}


def test_displays_stay_on_the_integer_path():
    # every display, the printed-vector blocks too, takes rationals from t.F,
    # never from the module-level Fraction
    offenders = [
        (call.lineno, call.func.id)
        for node in {_lambda_node(display) for _, _, display in displays()}
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
        and call.func.id in ("F", "Fraction")
    ]
    assert offenders == []


def test_each_block_is_written_once():
    # the p^6 forms open with the p^5 forms' own leading blocks, and the
    # (p-1)-lead lemma form reuses the p^6 lead block; tuples compare their
    # lambdas by identity, so a second transcription fails here
    for n, k in ((1, 4), (2, 3), (3, 2), (4, 1)):
        assert _QTILDE_MAIN[6][n][:k] == _QTILDE_MAIN[5][n][:k], n
    assert QTILDE_L5_N5_UNREDUCED[0] is _QTILDE_MAIN[6][5][0]
    assert QTILDE_L5_N5_UNREDUCED[1:] == _QTILDE_MAIN[5][5][1:]


def test_no_two_lambdas_share_a_body():
    # one pair is two displays that happen to coincide: omega_5's depth-5
    # bnd4 group and the p^4 block of the compact n=5 form mod p^5 (a block
    # the p^6 forms share with the p^5 forms, or a printed-vector block for
    # each n, is one lambda, read once here)
    first: dict = {}
    for name, _, display in displays():
        first.setdefault(_lambda_node(display), name)
    names_by_body: dict[str, list[str]] = {}
    for node, name in first.items():
        names_by_body.setdefault(ast.dump(node.body), []).append(name)
    repeated = [names for names in names_by_body.values() if len(names) > 1]
    assert repeated == [["_OMEGA5_TERMS[5][bnd4-terms]", "_QTILDE_MAIN[5][5] p^4"]]


def test_state_for_another_prime_is_refused():
    # a divided set taken at p = 11 must not be read at p = 13
    bs11 = divided_set(11)
    calls = (lambda: omega_vector(13, bs11, 5),
             lambda: qtilde_rhs(3, 13, 5, bs11))
    for call in calls:
        with pytest.raises(ValueError, match=r"p=11, read at p=13"):
            call()


def _package_imports(module):
    """The modules of the package that ``module`` imports, which the package
    always does relatively."""
    found = set()
    for node in ast.walk(ast.parse(inspect.getsource(module))):
        if isinstance(node, ast.ImportFrom) and node.level:
            found |= {node.module} if node.module else {alias.name for alias in node.names}
    return found


def test_the_two_sides_meet_only_in_the_harness():
    # the brute-force side (oracles) and the closed forms (formulas, over the
    # Bernoulli engine) read nothing of each other: the harness hands the
    # oracle's sums to wilson_from_power_sums.  Both share residues, whose
    # power_table test_shared_power_table_fault_is_seen covers
    from wilsonq import bernoulli, oracles

    assert {module.__name__: _package_imports(module)
            for module in (oracles, bernoulli, formulas)} == {
        "wilsonq.oracles": {"residues"},
        "wilsonq.bernoulli": {"residues"},
        "wilsonq.formulas": {"bernoulli", "residues"},
    }


def test_the_package_exports_the_readme_library_alone():
    # the names the README's python blocks import from wilsonq are the
    # package's __all__, and they are bound there; no other function is, so
    # everything else is imported from its own module
    import wilsonq

    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    names = [alias.name for block in re.findall(r"```python\n(.*?)```", readme, re.S)
             for node in ast.walk(ast.parse(block))
             if isinstance(node, ast.ImportFrom) and node.module == "wilsonq"
             for alias in node.names]
    assert sorted(wilsonq.__all__) == sorted(names) and names
    assert all(callable(getattr(wilsonq, name)) for name in names)
    assert {name for name, value in vars(wilsonq).items()
            if not name.startswith("_") and not inspect.ismodule(value)} == set(names)


def test_power_sum_display_covers_the_top_precision():
    # PrimeRun.top is at most max(MIN_P), and psi evaluates PTILDE at run.top
    assert len(PTILDE) == max(MIN_P)
    for sums in ((), qtilde_sums(13, len(PTILDE) + 1)):
        with pytest.raises(ValueError, match=rf"^need 1 <= r <= 6, got {len(sums)}$"):
            wilson_from_power_sums(sums)
