import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wilsonq
from reference_routes import generated_ptilde, ptilde_mismatches
from wilsonq.polys import PTILDE, MultiPoly, ptilde_eval
from wilsonq.residues import Residue, make_modulus

F = Fraction


def test_multipoly_algebra():
    x1, x2 = MultiPoly.var(1), MultiPoly.var(2)
    square = (x1 + x2) ** 2
    assert square == x1**2 + 2 * x1 * x2 + x2**2
    assert (x1 - x1) == MultiPoly()
    assert (F(1, 2) * x1 + F(1, 2) * x1) == x1
    p = MultiPoly.p_var()
    assert (p * x1).terms == {(1, (1, 0, 0, 0, 0, 0)): F(1)}


def test_multipoly_evaluate_guards():
    m = make_modulus(7, 2)
    with pytest.raises(ValueError, match="negative power"):
        bad = MultiPoly({(-1, (1, 0, 0, 0, 0, 0)): F(1)})
        bad.evaluate([Residue(1, m)])
    with pytest.raises(ValueError, match="no value"):
        MultiPoly.var(3).evaluate([Residue(1, m)])
    with pytest.raises(ValueError, match="denominator 14 not coprime to 7"):
        MultiPoly.const(F(1, 14)).evaluate([Residue(1, m)])


def test_second_family_matches_manual_form():
    # p(x1 - x1^2/2) - x2 at x1=3, x2=4, p=11, mod 11^3
    m = make_modulus(11, 3)
    got = ptilde_eval(2, [Residue(3, m), Residue(4, m)])
    inv2 = pow(2, -1, 11**3)
    want = (11 * (3 - inv2 * 9) - 4) % 11**3
    assert got.value == want
    assert PTILDE[1] == MultiPoly.var(1)


def test_eval_argument_counts():
    m = make_modulus(7, 2)
    with pytest.raises(ValueError, match="need exactly 2 values"):
        ptilde_eval(2, [Residue(1, m)])
    with pytest.raises(ValueError, match="index out of range"):
        ptilde_eval(7, [Residue(1, m)] * 7)


def test_ptilde_equals_the_log_expansion():
    # the transcribed display, member by member and term by term, against
    # W_p = (1 - exp(L))/p expanded from the p-adic log
    generated = generated_ptilde()
    assert sorted(generated) == sorted(PTILDE) == list(range(1, 7))
    assert ptilde_mismatches(PTILDE) == {}


def test_log_expansion_names_a_corrupted_coefficient():
    # one coefficient of PTILDE[3] changed, p*x1*x2 from 1 to 2: the check
    # names nu = 3 and that monomial, and nothing else
    monomial = (1, (1, 1, 0, 0, 0, 0))
    corrupted = dict(PTILDE[3].terms)
    assert corrupted[monomial] == 1
    corrupted[monomial] = F(2)
    family = dict(PTILDE)
    family[3] = MultiPoly(corrupted)
    assert ptilde_mismatches(family) == {3: MultiPoly({monomial: F(1)})}


def test_tables_built_on_first_use():
    # the headline checks never touch PTILDE, so importing the package and
    # running them must not build it
    src = Path(wilsonq.__file__).resolve().parents[1]
    script = (
        "import wilsonq\n"
        "from wilsonq import polys\n"
        "from wilsonq.harness import RunConfig, check_prime\n"
        "rows = check_prime(11, RunConfig(11, 11, frozenset(['thm1', 'thm2', 'thm3'])))\n"
        "assert rows and all(r.passed for r in rows)\n"
        "before = polys._ptilde.cache_info().currsize\n"
        "assert len(wilsonq.PTILDE) == 6\n"
        "print(before, polys._ptilde.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]
