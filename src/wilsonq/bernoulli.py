"""Bernoulli numbers modulo prime powers, pole-free.

Everything here works with p*B_m rather than B_m: the product is always
p-integral (the denominator of B_m carries p to at most the first power, and
only when p-1 divides m), so every intermediate stays a true ``Residue``.

Two independent routes are provided:

* :func:`exact_bernoulli` - exact rationals from the defining recurrence,
  the slow reference oracle;
* :func:`bernoulli_times_p` - p*B_m mod p^g from power sums of 1..p-1 via

      p*B_m = S_m(p) - sum_{k=2}^{K} C(m, k-1) * (p^(k-1)/k) * p*B_(m+1-k),

  a rearrangement of the closed form of S_m as a polynomial in p.  The term
  for k carries p^(k-1) (after removing any factor p from k), so the cutoff
  K = min(m+1, g+1) is exact at working precision g; a unit test checks that
  raising K further changes nothing.  The recursion drops at least one digit
  of precision per level, so each target index touches at most g smaller
  indices.

Derived quantities: the p-integral value (pole removed when p-1 | m), its
divided form value/m, and a per-prime set of the divided values at the
index families n(p-1)-d for even d.  The depth policy lives here alone:
``MIN_P`` maps each depth R (the expansion of (p-1)! mod p^(R+1)) to the
smallest prime it holds for, :func:`depths` lists the depths a prime
supports and :func:`set_spec` the set values a depth reads.

One prime's power-sum tables and p*B_m values live in a
:class:`BernoulliEngine`, an optional trailing argument of every function
built on it; a call without one works on a throwaway engine.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from operator import mul
from threading import Lock

from .residues import Modulus, Residue, is_prime, make_modulus, power_table

ORACLE_BOUND = 3000

# -- exact rational oracle --------------------------------------------------

_exact: list[Fraction] = [Fraction(1), Fraction(-1, 2)]
_exact_lock = Lock()


def exact_bernoulli(n: int) -> Fraction:
    """Exact B_n from sum_{k=0}^{m-1} C(m+1, k) B_k = -(m+1) B_m, memoized.

    Odd indices above 1 are zero, so the sum only visits even k plus the
    single B_1 term.  Intended as a reference oracle; capped at
    ORACLE_BOUND because the cost is quadratic with fast-growing numerators.
    """
    if n < 0:
        raise ValueError("index must be non-negative")
    if n > ORACLE_BOUND:
        raise ValueError(f"oracle bound exceeded: {n} > {ORACLE_BOUND}")
    if n % 2 == 1 and n > 1:
        return Fraction(0)
    with _exact_lock:
        while len(_exact) <= n:
            m = len(_exact)
            if m % 2 == 1:
                _exact.append(Fraction(0))
                continue
            s = sum(comb(m + 1, k) * _exact[k] for k in range(0, m, 2))
            s += comb(m + 1, 1) * _exact[1]
            _exact.append(-s / (m + 1))
        return _exact[n]


# -- power sums --------------------------------------------------------------


class BernoulliEngine:
    """One prime's Bernoulli state: batched power sums S_j(p) mod p^g and a
    memo of p*B_m keyed by index.

    Writing j = k(p-1) + c, the term v^j factors as (v^(p-1))^k * v^c, so a
    row table of v^(p-1) powers and a column table of v^c powers over
    v = 1..p-1 turn each S_j into one dot product.  The v^(p-1) row comes
    from :func:`power_table`, and so does a column whose neighbour c-2 is
    not held; any other column is that neighbour times a v^2 table.
    ``pb_value`` sums its recursion terms before its own power sum, so the
    columns a target index needs are requested in ascending order, each one
    step above the last, and only the lowest is a power table.
    The tables sit at the highest precision asked so far; each memo entry
    holds its value at the highest precision it was computed at, and a lower
    request is served by reduction.
    """

    def __init__(self, p: int):
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        self.p = p
        self.g = 0
        self._pb: dict[int, tuple[int, int]] = {}

    def _reset(self, g: int) -> None:
        if g <= self.g:
            return
        self.g = g
        self.mod = self.p**g
        self._cols: dict[int, list[int]] = {}
        self._squares = [v * v % self.mod for v in range(1, self.p)]
        self._wrows: dict[int, list[int]] = {0: [1] * (self.p - 1)}

    def _column(self, c: int) -> list[int]:
        col = self._cols.get(c)
        if col is not None:
            return col
        m = self.mod
        below = self._cols.get(c - 2)
        if below is None:
            col = power_table(self.p, c, m)
        else:
            col = [x * y % m for x, y in zip(below, self._squares)]
        self._cols[c] = col
        return col

    def _wrow(self, k: int) -> list[int]:
        row = self._wrows.get(k)
        if row is not None:
            return row
        p, m = self.p, self.mod
        if k == 1:
            row = power_table(p, p - 1, m)
        else:
            w1, prev = self._wrow(1), self._wrow(k - 1)
            row = [a * b % m for a, b in zip(prev, w1)]
        self._wrows[k] = row
        return row

    def power_sum(self, j: int, g: int) -> int:
        """S_j(p) mod p^g, raising the table precision to g if needed."""
        self._reset(g)
        m = self.p**g
        if j == 0:
            return (self.p - 1) % m
        k, c = divmod(j, self.p - 1)
        row = self._wrow(k)
        if c == 0:
            return sum(row) % m
        return sum(map(mul, row, self._column(c))) % m

    def pb_value(self, m: int, g: int) -> int:
        """p*B_m mod p^g as a plain integer."""
        p = self.p
        mod = p**g
        held = self._pb.get(m)
        if held is not None and held[0] >= g:
            return held[1] % mod
        if m == 0:
            value = p % mod
        elif m == 1:
            value = -p * pow(2, -1, mod) % mod
        elif m % 2 == 1:
            value = 0
        else:
            # The recursion asks for lower precisions; rising to g first
            # keeps their tables instead of rebuilding them at g.
            self._reset(g)
            value = 0
            for k in range(2, min(m + 1, g + 1) + 1):
                e, unit = k - 1, k
                while unit % p == 0:
                    unit //= p
                    e -= 1
                if e >= g:
                    continue
                sub = self.pb_value(m + 1 - k, g - e)
                term = comb(m, k - 1) * p**e % mod * pow(unit, -1, mod) % mod * sub % mod
                value = (value - term) % mod
            value = (value + self.power_sum(m, g)) % mod
        self._pb[m] = (g, value)
        return value


def bernoulli_times_p(m: int, p: int, g: int, engine: BernoulliEngine | None = None) -> Residue:
    """p*B_m mod p^g via the power-sum recursion; requires p > g."""
    if m < 0:
        raise ValueError("index must be non-negative")
    if g < 1:
        raise ValueError("precision must be >= 1")
    if p <= g:
        raise ValueError(f"need p > g for unit denominators, got p={p}, g={g}")
    engine = engine or BernoulliEngine(p)
    return Residue(engine.pb_value(m, g), make_modulus(p, g))


# -- p-integral and divided values -------------------------------------------


def bnp(m: int, modulus: Modulus, engine: BernoulliEngine | None = None) -> Residue:
    """The p-integral value: 0 at m=0, B_m + 1/p - 1 when p-1 | m, else B_m.

    Computed from p*B_m at one extra digit; the final shift by p is exact by
    the von Staudt-Clausen structure of the denominator, and a valuation
    failure here would mean the engine itself is broken.
    """
    p, r = modulus.p, modulus.r
    if m == 0:
        return Residue(0, modulus)
    pb = bernoulli_times_p(m, p, r + 1, engine)
    if m > 0 and m % (p - 1) == 0:
        pb = pb + (1 - p)
    return pb.shift_down(1)


def bnpd(m: int, modulus: Modulus, engine: BernoulliEngine | None = None) -> Residue:
    """The divided p-integral value (.../m for m >= 1, zero for m <= 0).

    When p^e | m the division needs e extra digits, which exist because the
    numerator has matching valuation (Adams / Carlitz); if it does not, the
    shift raises, making the implicit integrality claim executable.  The
    working precision is the exact need r + 1 + e, which must stay below p.
    """
    p, r = modulus.p, modulus.r
    if m <= 0:
        return Residue(0, modulus)
    e, unit = 0, m
    while unit % p == 0:
        unit //= p
        e += 1
    g = r + 1 + e
    if g >= p:
        raise ValueError(
            f"precision p^{r} for index {m} unreachable at p={p} "
            f"(needs working precision {g})"
        )
    pb = bernoulli_times_p(m, p, g, engine)
    if m % (p - 1) == 0:
        pb = pb + (1 - p)
    divided = pb.shift_down(1 + e)
    return (divided * Residue(pow(unit, -1, divided.modulus.value), divided.modulus)).reduce_to(r)


def kummer_admissible(p: int, r: int, n: int) -> bool:
    """Whether the r-fold difference with step p-1 of the divided values,
    started at index n, is claimed to vanish mod p^r: on the (p-1)-grid it
    needs p > r + n/(p-1), off the grid n > r."""
    h = p - 1
    if n % h == 0:
        return p > r + n // h
    return n > r


#: Depth R -> the smallest prime whose expansion of (p-1)! mod p^(R+1) the
#: paper states: the set spec, the coefficient ladder and the power-sum level
#: of that depth.
MIN_P = {5: 7, 6: 11}


def depths(p: int) -> tuple[int, ...]:
    """The depths prime p supports, ascending (empty below MIN_P[5])."""
    return tuple(depth for depth, min_p in MIN_P.items() if p >= min_p)


def set_spec(depth: int) -> dict[tuple[int, int], int]:
    """(n, d) -> r: the divided value at index n(p-1) - d, stated mod p^r,
    for every even d < depth, n = 1..depth-d and r = depth-d.  Each family is
    listed from its top index down, d = 0 first, so a build in this order
    raises the engine's precision once and finds the lower indices held."""
    return {(n, d): depth - d for d in range(0, depth, 2) for n in range(depth - d, 0, -1)}


@dataclass
class DividedBernoulliSet:
    """Per-prime cache of divided Bernoulli values at the two index families.

    ``bn[n]`` holds the value at index n(p-1) (pole removed), ``bnd[(n, d)]``
    the value at index n(p-1)-d, each at its own stated precision.
    """

    p: int
    bn: dict[int, Residue] = field(default_factory=dict)
    bnd: dict[tuple[int, int], Residue] = field(default_factory=dict)

    def b(self, n: int, prec: int | None = None) -> Residue:
        try:
            value = self.bn[n]
        except KeyError:
            raise ValueError(f"missing cache entry: index family n={n} (p={self.p})")
        return value if prec is None else value.reduce_to(prec)

    def bd(self, n: int, d: int, prec: int | None = None) -> Residue:
        try:
            value = self.bnd[(n, d)]
        except KeyError:
            raise ValueError(f"missing cache entry: (n={n}, d={d}) (p={self.p})")
        return value if prec is None else value.reduce_to(prec)


def divided_set(p: int, engine: BernoulliEngine | None = None) -> DividedBernoulliSet:
    """Populate a DividedBernoulliSet for prime p >= MIN_P[5] with the spec of
    the deepest depth p supports."""
    supported = depths(p)
    if not supported:
        raise ValueError(f"need p >= {min(MIN_P.values())}, got {p}")
    engine = engine or BernoulliEngine(p)
    h = p - 1
    out = DividedBernoulliSet(p)
    for (n, d), r in set_spec(supported[-1]).items():
        value = bnpd(n * h - d, make_modulus(p, r), engine)
        if d:
            out.bnd[(n, d)] = value
        else:
            out.bn[n] = value
    return out
