from fractions import Fraction
from math import prod

from reference_routes import MultiPoly, generated_ptilde, ptilde_mismatches, symbolic
from wilsonq import formulas
from wilsonq.formulas import PTILDE
from wilsonq.harness import RunConfig, check_prime, enumerate_primes

F = Fraction


def test_multipoly_algebra():
    x1, x2 = MultiPoly.var(1), MultiPoly.var(2)
    square = (x1 + x2) ** 2
    assert square == x1**2 + 2 * x1 * x2 + x2**2
    assert (x1 - x1) == MultiPoly()
    assert (F(1, 2) * x1 + F(1, 2) * x1) == x1
    p = MultiPoly.p_var()
    assert (p * x1).terms == {(1, (("x1", 1),)): F(1)}
    # a monomial lists only its variables, by name
    y = MultiPoly.named("y0_1")
    assert (y * x1 * p * y).terms == {(1, (("x1", 1), ("y0_1", 2))): F(1)}


def test_second_family_matches_manual_form():
    # p(x1 - x1^2/2) - x2 at x1=3, x2=4, p=11, mod 11^3
    got = PTILDE[2](formulas._Acc(11, {}, 3), 3, 4) % 11**3
    inv2 = pow(2, -1, 11**3)
    want = (11 * (3 - inv2 * 9) - 4) % 11**3
    assert got == want
    assert symbolic(PTILDE[1]) == MultiPoly.var(1)


def test_ptilde_equals_the_log_expansion():
    # the transcribed display, member by member and term by term, against
    # W_p = (1 - exp(L))/p expanded from the p-adic log
    generated = generated_ptilde()
    assert sorted(generated) == sorted(PTILDE) == list(range(1, 7))
    assert ptilde_mismatches(PTILDE) == {}


def test_log_expansion_names_a_corrupted_coefficient():
    # PTILDE[3] plus p*x1*x2, so that coefficient reads 2 in place of 1:
    # the check names nu = 3 and that monomial, and nothing else
    family = dict(PTILDE)
    family[3] = lambda t, x1, x2, x3: PTILDE[3](t, x1, x2, x3) + t.p * x1 * x2
    assert ptilde_mismatches(family) == {3: MultiPoly({(1, (("x1", 1), ("x2", 1))): F(1)})}


def test_every_ptilde_coefficient_matters(monkeypatch):
    # each monomial of each member, added once more to its builder, fails a
    # psi row at some prime in 3..60; the untouched display fails none
    cfg = RunConfig(3, 60, frozenset(["psi"]))
    primes = enumerate_primes(3, 60)

    def failed() -> bool:
        rows = [row for p in primes for row in check_prime(p, cfg)]
        assert all(row.case != "error" for row in rows), rows
        return not all(row.passed for row in rows)

    assert not failed()
    survivors = []
    for nu, build in list(PTILDE.items()):
        for pe, exps in symbolic(build).terms:
            def mutant(t, *xs, build=build, pe=pe, exps=exps):
                return build(t, *xs) + t.p**pe * prod(xs[int(x[1:]) - 1] ** e for x, e in exps)
            monkeypatch.setitem(formulas.PTILDE, nu, mutant)
            if not failed():
                survivors.append((nu, pe, exps))
        monkeypatch.setitem(formulas.PTILDE, nu, build)
    assert survivors == []
