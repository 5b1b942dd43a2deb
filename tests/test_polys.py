import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import wilsonq
from wilsonq.polys import (
    PSI,
    PTILDE,
    MultiPoly,
    psi_eval,
    psi_ptilde_consistency,
    psi_ptilde_diffs,
    ptilde_eval,
)
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


def test_multipoly_rescale():
    x1, x2 = MultiPoly.var(1), MultiPoly.var(2)
    poly = x2 + x1**2
    out = poly.rescale_vars([F(1), F(2)] + [F(1)] * 4, [0, 1, 0, 0, 0, 0])
    # x2 -> 2*x2/p ; x1 -> x1
    assert out.terms == {
        (-1, (0, 1, 0, 0, 0, 0)): F(2),
        (0, (2, 0, 0, 0, 0, 0)): F(1),
    }


def test_multipoly_evaluate_guards():
    m = make_modulus(7, 2)
    with pytest.raises(ValueError, match="negative power"):
        bad = MultiPoly({(-1, (1, 0, 0, 0, 0, 0)): F(1)})
        bad.evaluate([Residue(1, m)])
    with pytest.raises(ValueError, match="no value"):
        MultiPoly.var(3).evaluate([Residue(1, m)])
    with pytest.raises(ValueError, match="denominator 14 not coprime to 7"):
        MultiPoly.const(F(1, 14)).evaluate([Residue(1, m)])


def test_first_family_table_values():
    m = make_modulus(11, 3)
    one = Residue(1, m)
    assert psi_eval(1, [Residue(9, m)]).value == 9
    assert psi_eval(2, [one, one]).value == 0  # 2 - 1 - 1
    assert psi_eval(3, [one, one, one]).value == 3  # 6-6+1+3-3+2
    # coefficient count sanity for the largest entries
    assert len(PSI[5].terms) == 18
    assert len(PSI[6].terms) == 29


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
    with pytest.raises(ValueError):
        psi_eval(2, [Residue(1, m)])
    with pytest.raises(ValueError):
        ptilde_eval(7, [Residue(1, m)] * 7)


def test_scaling_identity_exact():
    assert psi_ptilde_diffs() == {}
    assert psi_ptilde_consistency()


def test_scaling_identity_detects_drift():
    # corrupting one coefficient must break the identity
    original = PTILDE[3]
    try:
        PTILDE[3] = original + MultiPoly.var(1)
        assert not psi_ptilde_consistency()
        assert 3 in psi_ptilde_diffs()
    finally:
        PTILDE[3] = original


def test_tables_built_on_first_use():
    # the headline checks never touch PSI or PTILDE, so importing the
    # package and running them must not build the tables
    src = Path(wilsonq.__file__).resolve().parents[1]
    script = (
        "import wilsonq\n"
        "from wilsonq import polys\n"
        "from wilsonq.harness import RunConfig, check_prime\n"
        "rows = check_prime(11, RunConfig(11, 11, frozenset(['thm1', 'thm2', 'thm3'])))\n"
        "assert rows and all(r.passed for r in rows)\n"
        "before = polys._families.cache_info().currsize\n"
        "assert len(wilsonq.PSI) == len(wilsonq.PTILDE) == 6\n"
        "print(before, polys._families.cache_info().currsize)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == ["0", "1"]
