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

Derived quantities: the divided value B_m/m (pole removed when p-1 | m),
which :func:`bnpd` alone computes from p*B_m, and a per-prime dict of the
divided values at the index families n(p-1)-d for even d.  The depth policy
lives here alone: ``MIN_P`` maps each depth R (the expansion of (p-1)! mod
p^(R+1)) to the smallest prime it holds for, :func:`depths` lists the depths
a prime supports and :func:`set_spec` the set values a depth reads.

One prime's power-sum tables and p*B_m values live in a
:class:`BernoulliEngine`, an optional trailing argument of every function
built on it; a call without one works on a throwaway engine.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from operator import mul

from .residues import Modulus, Residue, is_prime, make_modulus, power_table

ORACLE_BOUND = 3000

# -- exact rational oracle --------------------------------------------------

_exact: list[Fraction] = [Fraction(1), Fraction(-1, 2)]


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
    # Stored at index m, not appended: racing callers write equal values to one slot.
    while len(_exact) <= n:
        m = len(_exact)
        if m % 2 == 1:
            _exact[m:m + 1] = [Fraction(0)]
            continue
        s = sum(comb(m + 1, k) * _exact[k] for k in range(0, m, 2))
        s += comb(m + 1, 1) * _exact[1]
        _exact[m:m + 1] = [-s / (m + 1)]
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
        self._wrows: list[list[int]] = [[1] * (self.p - 1)]

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
        # Filled upward from the highest row held: row 1 is a power table,
        # each row above it the row below times row 1.
        rows, m = self._wrows, self.mod
        while len(rows) <= k:
            rows.append(power_table(self.p, self.p - 1, m) if len(rows) == 1
                        else [a * b % m for a, b in zip(rows[-1], rows[1])])
        return rows[k]

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
    """p*B_m mod p^g via the power-sum recursion on an engine for p; needs p > g."""
    if m < 0:
        raise ValueError("index must be non-negative")
    if g < 1:
        raise ValueError("precision must be >= 1")
    if p <= g:
        raise ValueError(f"need p > g for unit denominators, got p={p}, g={g} at index {m}")
    engine = engine or BernoulliEngine(p)
    if engine.p != p:
        raise ValueError(f"engine built for p={engine.p}, asked for p={p}")
    return Residue(engine.pb_value(m, g), make_modulus(p, g))


# -- divided values ----------------------------------------------------------


def bnpd(m: int, modulus: Modulus, engine: BernoulliEngine | None = None) -> Residue:
    """The divided p-integral value B_m/m for m >= 1, with the pole removed
    (B_m + 1/p - 1 in place of B_m) when p-1 | m; zero for m <= 0.

    Computed from p*B_m at working precision g = r + 1 + e, where p^e | m: the
    division by p^(1+e) is exact because the numerator has matching valuation
    (von Staudt-Clausen, Adams / Carlitz); if it does not, this raises, making
    the implicit integrality claim executable.  g must stay below p.
    """
    p, r = modulus.p, modulus.r
    if m <= 0:
        return Residue(0, modulus)
    e, unit = 0, m
    while unit % p == 0:
        unit //= p
        e += 1
    g = r + 1 + e
    pb = bernoulli_times_p(m, p, g, engine).value
    if m % (p - 1) == 0:
        pb += 1 - p
    shift = p ** (1 + e)
    if pb % shift:
        raise ValueError(f"insufficient valuation: {pb} not divisible by {p}^{1 + e}")
    return Residue(pb // shift * pow(unit, -1, modulus.value), modulus)


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


#: One prime's divided set: (n, d) -> the divided value at index n(p-1) - d,
#: with the keys, order and precisions of its ``set_spec``.
DividedSet = dict[tuple[int, int], Residue]


def divided_set(p: int, engine: BernoulliEngine | None = None) -> DividedSet:
    """The divided set of prime p >= MIN_P[5], at the spec of the deepest
    depth p supports."""
    supported = depths(p)
    if not supported:
        raise ValueError(f"need p >= {min(MIN_P.values())}, got {p}")
    engine = engine or BernoulliEngine(p)
    return {(n, d): bnpd(n * (p - 1) - d, make_modulus(p, r), engine)
            for (n, d), r in set_spec(supported[-1]).items()}
