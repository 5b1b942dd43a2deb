"""Bernoulli numbers modulo prime powers, pole-free.

Everything here works with p*B_m rather than B_m: the product is always
p-integral (the denominator of B_m carries p to at most the first power, and
only when p-1 divides m), so every intermediate is an integer mod p^g.

p*B_m mod p^g has one route, :meth:`BernoulliEngine.pb_value`, from power
sums of 1..p-1 via

      p*B_m = S_m(p) - sum_{k=2}^{K} C(m, k-1) * (p^(k-1)/k) * p*B_(m+1-k),

a rearrangement of the closed form of S_m as a polynomial in p.  The term
for k carries p^(k-1) (after removing any factor p from k), so the cutoff
K = min(m+1, g+1) is exact at working precision g; a unit test checks that
raising K further changes nothing.  The recursion drops at least one digit
of precision per level, so each target index touches at most g smaller
indices.  The second route, exact rationals from the defining recurrence,
is a test-only reference and lives beside the tests.

Derived quantities: the divided value B_m/m (pole removed when p-1 | m),
which :func:`bnpd` alone computes from p*B_m on an engine for its own
prime, and a per-prime dict of the divided values at the index families
n(p-1)-d for even d.  Kummer's congruences are written here too:
:func:`kummer_admissible` says which r-fold forward differences (step p-1)
of the divided values vanish mod p^r.  The sweep's ``kummer`` check takes
them on the divided set, and :func:`kummer_differences` from any start, for
the ``wilsonq kummer`` scan.  The depth policy lives here alone: ``MIN_P``
maps each depth R (the expansion of (p-1)! mod p^(R+1)) to the smallest
prime it holds for, :func:`depths` lists the depths a prime supports and
:func:`set_spec` the set values a depth reads.

One prime's power-sum tables and p*B_m values live in a
:class:`BernoulliEngine`, an optional trailing argument of every function
built on it; a call without one works on a throwaway engine.
"""
from __future__ import annotations

from collections.abc import Callable, Iterable
from itertools import repeat
from math import comb
from operator import lshift, mul, or_
from operator import mod as imod

from .residues import (R_LIMIT, Modulus, Residue, divide_exactly, make_modulus,
                       power_table, split_p)

# -- power sums --------------------------------------------------------------


class BernoulliEngine:
    """One prime's Bernoulli state: power sums S_j(p) mod p^g, memoized by
    index, and a memo of p*B_m keyed by index.

    Writing j = k(p-1) + c and w_v = v^(p-1), the term v^j is w_v^k * v^c.
    The engine holds a block of BLOCK_ROWS rows w_v^0 .. w_v^(BLOCK_ROWS-1)
    and their multiples by v^2, packed into one integer per v: each value
    sits in its own slot, wide enough that a sum of p-1 products with a
    reduced column entry cannot carry into the next slot.  On a miss at j
    the engine builds one column, v^(K(p-1)+c) with K the first row of the
    block that holds row k (K = 0 inside the block), and one column pass,
    the sum over v of packed[v] * column[v], holds S at c and at c+2 (the
    v^2 fold) at the BLOCK_ROWS rows K, K+1, ...; each slot, reduced mod
    p^g, fills the S_j memo.  No row above the block is ever held.
    ``pb_value`` sums its recursion terms before its own power sum, so a
    target's first miss is two below its own column, and one pass serves
    both.  The block and the sums sit at the highest precision asked so far;
    each p*B_m memo entry holds its value at the highest precision it was
    computed at, and a lower request is served by reduction.
    """

    def __init__(self, p: int):
        make_modulus(p, 1)  # refuses p unless an odd prime of the window
        self.p = p
        self.g = 0
        self._pb: dict[int, tuple[int, int]] = {}

    def _reset(self, g: int) -> None:
        if g <= self.g:
            return
        self.g = g
        self.mod = mod = make_modulus(self.p, g).value
        # A slot holds a sum of p-1 products of a reduced column entry and a
        # block entry below mod * (p-1)^2.
        self._slot = ((self.p - 1) ** 3 * (mod - 1) ** 2).bit_length()
        self._sums: dict[int, int] = {}
        self._packed = self._pack()

    def _pack(self) -> list[int]:
        """The block at the current precision, one packed integer per v:
        slot i holds w_v^i reduced mod p^g, and slot BLOCK_ROWS + i holds
        v^2 times slot i, left unreduced so that one multiplication of the
        low half by v^2 fills the high half."""
        p, mod, rows, slot = self.p, self.mod, BLOCK_ROWS, self._slot
        w = row = power_table(p, p - 1, mod)
        low = list(map(or_, map(lshift, w, repeat(slot)), repeat(1)))
        for i in range(2, rows):
            row = list(map(imod, map(mul, row, w), repeat(mod)))
            low = list(map(or_, low, map(lshift, row, repeat(slot * i))))
        squares = map(mul, range(1, p), range(1, p))
        return list(map(or_, low, map(lshift, map(mul, low, squares), repeat(slot * rows))))

    def _column_pass(self, j: int) -> None:
        """Fill the S memo at j's column and the column two above, for
        every row of the block that holds j's row."""
        p, mod, rows, slot = self.p, self.mod, BLOCK_ROWS, self._slot
        k, c = divmod(j, p - 1)
        base = (k - k % rows) * (p - 1) + c
        total = sum(map(mul, self._packed, power_table(p, base, mod)))
        mask = (1 << slot) - 1
        for lift in (0, 2):
            for i in range(rows):
                self._sums[base + i * (p - 1) + lift] = (total & mask) % mod
                total >>= slot

    def power_sum(self, j: int, g: int) -> int:
        """S_j(p) mod p^g, raising the table precision to g if needed."""
        self._reset(g)
        if j not in self._sums:
            self._column_pass(j)
        return self._sums[j] % self.p**g

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
            # Odd k reach the even sub-indices m+1-k; of the odd ones only
            # index 1 (k = m) is non-zero.
            top = min(m + 1, g + 1)
            ks = list(range(3, top + 1, 2))
            if m <= top:
                ks.append(m)
            value = 0
            for k in ks:
                # The weight p^(k-1)/k is p^e / unit; at e >= g the term vanishes.
                v, unit = split_p(k, p)
                e = k - 1 - v
                if e < g:
                    value -= (comb(m, k - 1) * p**e * pow(unit, -1, mod) % mod
                              * self.pb_value(m + 1 - k, g - e))
            value = (value + self.power_sum(m, g)) % mod
        self._pb[m] = (g, value)
        return value


# -- divided values ----------------------------------------------------------


def bnpd(m: int, modulus: Modulus, engine: BernoulliEngine | None = None) -> Residue:
    """The divided p-integral value B_m/m for m >= 1, with the pole removed
    (B_m + 1/p - 1 in place of B_m) when p-1 | m; zero for m <= 0.

    Computed from p*B_m at working precision g = r + 1 + e, where p^e | m: the
    division by p^(1+e) is exact because the numerator has matching valuation
    (von Staudt-Clausen, Adams / Carlitz); if it does not, this raises, making
    the implicit integrality claim executable.  g must stay below p and at
    most R_LIMIT, and is checked before any table is built; an engine built
    for another prime is refused.
    """
    p, r = modulus.p, modulus.r
    if m <= 0:
        return Residue(0, modulus)
    e, unit = split_p(m, p)
    g = r + 1 + e
    if g > R_LIMIT or g >= p:
        raise ValueError(f"precision exponent must be at most {R_LIMIT} and below p = {p} in "
                         f"the working precision g = r + 1 + v_p(m) = {g} at index {m}, "
                         f"got {r}")
    engine = engine or BernoulliEngine(p)
    if engine.p != p:
        raise ValueError(f"engine built for p={engine.p}, asked for p={p}")
    pb = engine.pb_value(m, g)
    if m % (p - 1) == 0:
        pb += 1 - p
    return Residue(divide_exactly(pb, p, 1 + e) * pow(unit, -1, modulus.value), modulus)


def kummer_admissible(p: int, r: int, n: int) -> bool:
    """Whether the r-fold difference with step p-1 of the divided values,
    started at index n, is claimed to vanish mod p^r: on the (p-1)-grid it
    needs n > 0 and p > r + n/(p-1), off the grid n > r.  Start 0 and the
    grid points below it are no claim: their differences do not vanish."""
    h = p - 1
    if n % h == 0:
        return n > 0 and p > r + n // h
    return n > r


def forward_difference(f: Callable[[int], int], h: int, n: int, start: int = 0) -> int:
    """sum_{v=0}^{n} C(n, v) (-1)^(n-v) f(start + v*h) on integers, left
    unreduced for the caller.  The evaluator is called at exactly the n+1
    sample points."""
    if n < 0:
        raise ValueError("order must be non-negative")
    if h < 1:
        raise ValueError("step must be >= 1")
    return sum((-1) ** (n - v) * comb(n, v) * f(start + v * h) for v in range(n + 1))


def kummer_differences(p: int, engine: BernoulliEngine,
                       windows: Iterable[tuple[int, int]]) -> list[tuple[int, int, Residue]]:
    """The ``wilsonq kummer`` scan's evaluator, over arbitrary starts:
    (r, n, value) for each window (n, top) and admissible r = 1..top, once
    per (r, n), by r and then in the windows' order: the r-fold difference
    with step p-1 of the divided values from index n, taken mod p^r, which
    Kummer's congruences claim is 0.  Each distinct index is evaluated once,
    at the highest order that reads it (the orders are walked from the top
    down), and held as an integer representative.  Each difference is taken
    on those integers and reduced once, into its row's residue."""
    h = p - 1
    cases = sorted(dict.fromkeys((r, n) for n, top in windows for r in range(1, top + 1)
                                 if kummer_admissible(p, r, n)), key=lambda case: -case[0])
    held: dict[int, int] = {}
    for r, n in cases:
        modulus = make_modulus(p, r)
        for index in range(n, n + r * h + 1, h):
            if index not in held:
                held[index] = bnpd(index, modulus, engine).value
    return [(r, n, Residue(forward_difference(held.__getitem__, h, r, start=n),
                           make_modulus(p, r)))
            for r, n in sorted(cases, key=lambda case: case[0])]


#: Depth R -> the smallest prime whose expansion of (p-1)! mod p^(R+1) the
#: paper states: the set spec, the coefficient ladder and the power-sum level
#: of that depth.
MIN_P = {5: 7, 6: 11}

#: Rows w_v^0 .. w_v^(BLOCK_ROWS-1) an engine's block holds.  The divided set
#: of the deepest depth R reads the columns p-1-d for d = 2, 4, .. at rows
#: 0..R-1 and the column 0 at rows 1..R, which the v^2 fold of the column
#: p-3 holds.
BLOCK_ROWS = max(MIN_P)


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
