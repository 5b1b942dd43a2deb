"""Brute-force ground truth: the scaled power sums of Fermat quotients,
factorials and the Wilson quotient, all modulo prime powers.

Nothing in this module knows about Bernoulli numbers; every value is obtained
by direct summation or multiplication so it can serve as the independent side
of each verification.
"""
from __future__ import annotations

from operator import mul
from typing import NamedTuple

from .residues import R_LIMIT, Residue, divide_exactly, make_modulus, power_table


def qtilde_sums(p: int, r: int) -> tuple[Residue, ...]:
    """(Q~_1, ..., Q~_r) mod p^r, Q~_n = (p^(n-1)/n) * Q_p(n), for r < p: one
    pass over the Fermat quotients, each quotient's powers taken as unreduced
    running products (a quotient is below p^r, so its r-th power is below
    p^(r*r)); each sum is scaled, then reduced once."""
    modulus = make_modulus(p, r)
    if r >= p:
        raise ValueError(f"need r < p, where n = 1..r are units; got p={p}, r={r}")
    quotients = [(x - 1) // p for x in power_table(p, p - 1, p ** (r + 1))]
    sums, powers = [sum(quotients)], quotients
    for _ in range(r - 1):
        powers = list(map(mul, powers, quotients))
        sums.append(sum(powers))
    return tuple(Residue(total * p**n * pow(n + 1, -1, modulus.value), modulus)
                 for n, total in enumerate(sums))


def qtilde(n: int, p: int, r: int) -> Residue:
    """Q~_n mod p^r from :func:`qtilde_sums`, for 1 <= n < p; zero for
    n > r, where p^(n-1)/n vanishes mod p^r."""
    if not 1 <= n < p:
        raise ValueError(f"need 1 <= n < p = {p}, got n={n}")
    return qtilde_sums(p, r)[n - 1] if n <= r else Residue(0, make_modulus(p, r))


def factorial_mod(p: int, r: int) -> Residue:
    """(p-1)! mod p^r by sequential multiplication."""
    modulus = make_modulus(p, r)
    m = modulus.value
    acc = 1
    for v in range(2, p):
        acc = acc * v % m
    return Residue(acc, modulus)


class WilsonRecord(NamedTuple):
    """(p-1)! mod p^(r+1) and the Wilson quotient mod p^r."""

    factorial: Residue
    quotient: Residue


def wilson_quotient(p: int, r: int) -> WilsonRecord:
    """W_p = ((p-1)! + 1)/p mod p^r, from the factorial at one extra digit."""
    if r < 1:
        raise ValueError("precision must be >= 1")
    if r + 1 > R_LIMIT:
        raise ValueError(f"precision exponent must be at most {R_LIMIT} in the working "
                         f"precision r + 1 = {r + 1} of the factorial, got {r}")
    fact = factorial_mod(p, r + 1)
    quotient = Residue(divide_exactly(fact.value + 1, p, 1), make_modulus(p, r))
    return WilsonRecord(factorial=fact, quotient=quotient)
