"""The n-fold forward difference operator with step h, over residue-valued
integer sequences, plus the operator-form route to Fermat-quotient power sums.
"""
from __future__ import annotations

from math import comb
from typing import Callable, TypeVar

from .oracles import sh_mod
from .residues import Residue, make_modulus

#: Residues, or plain integers a caller reduces itself.
Value = TypeVar("Value", Residue, int)

#: A pure map from integer index to a value; indices <= 0 are the caller's
#: business (divided Bernoulli evaluators return zero there).
Evaluator = Callable[[int], Value]


def forward_difference(f: Evaluator[Value], h: int, n: int, start: int = 0) -> Value:
    """sum_{v=0}^{n} C(n, v) (-1)^(n-v) f(start + v*h).

    The sum takes only integer multiples, negation and addition, so it works
    on residues (binomial weights embed into their ring) and on plain
    integers alike; the result has the evaluator's type.  The evaluator is
    called at exactly the n+1 sample points.
    """
    if n < 0:
        raise ValueError("order must be non-negative")
    if h < 1:
        raise ValueError("step must be >= 1")
    acc: Residue | None = None
    for v in range(n + 1):
        term = comb(n, v) * f(start + v * h)
        if (n - v) % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def binom_diff_mod_p(k: int, n: int, p: int) -> Residue:
    """n-fold difference (step p-1) of v -> C(v, k) at v = 0, mod p.

    Closed form (-1)^k C(k-1, n-1) for p > k; computed here by the direct
    alternating sum so the closed form stays an independent check.
    """
    if k < 1 or n < 1:
        raise ValueError("need k, n >= 1")
    if p <= k:
        raise ValueError(f"need p > k, got p={p}, k={k}")
    total = sum(comb(n, v) * (-1) ** (n - v) * comb(v * (p - 1), k) for v in range(n + 1))
    return Residue(total, make_modulus(p, 1))


def q_power_sum_via_differences(n: int, p: int, r: int) -> Residue:
    """Q_p(n) mod p^r as the (n-1)-fold backward shift of the n-fold
    difference of the modified power sums at index 0.

    The difference is taken at precision r + n - 1 so the shift lands
    exactly on precision r.
    """
    if n < 1:
        raise ValueError("power must be >= 1")
    prec = r + n - 1
    diff = forward_difference(lambda nu: sh_mod(nu, p, prec), p - 1, n, start=0)
    return diff.shift_down(n - 1)
