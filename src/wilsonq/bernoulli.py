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
divided form value/m, and a per-prime cache of the divided values at the
index families n(p-1) and n(p-1)-d for d in {2, 4}.
"""
from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from threading import Lock

from .residues import Modulus, Residue, is_prime, make_modulus

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


def power_sum_mod(n: int, modulus: Modulus) -> Residue:
    """S_n(p) = 1^n + 2^n + ... + (p-1)^n mod p^r by direct summation."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    p, m = modulus.p, modulus.value
    return Residue(sum(pow(v, n, m) for v in range(1, p)) % m, modulus)


class _PrimeTables:
    """Per-prime batched power sums: S_j(p) mod p^g for many j.

    Writing j = k(p-1) + c, the term v^j factors as (v^(p-1))^k * v^c, so a
    row table of v^(p-1) powers and a column table of small v^c powers turn
    each S_j into one dot product.  Columns are filled in short ascending
    runs so that the descending index pattern of the Bernoulli recursion
    hits cached neighbours.
    """

    _STEP_WINDOW = 16

    def __init__(self, p: int, g: int):
        self.p = p
        self.g = 0
        self._reset(g)

    def _reset(self, g: int) -> None:
        if g <= self.g:
            return
        self.g = g
        self.mod = self.p**g
        self._cols: dict[int, list[int]] = {}
        self._wrows: dict[int, list[int]] = {0: [1] * self.p}

    def _column(self, c: int) -> list[int]:
        col = self._cols.get(c)
        if col is not None:
            return col
        p, m = self.p, self.mod
        base = None
        for back in range(1, self._STEP_WINDOW + 1):
            if c - back in self._cols:
                base = c - back
                break
        if base is None:
            base = max(0, c - self._STEP_WINDOW)
            self._cols[base] = [pow(v, base, m) for v in range(p)]
        for cc in range(base + 1, c + 1):
            if cc not in self._cols:
                prev = self._cols[cc - 1]
                self._cols[cc] = [x * v % m for v, x in enumerate(prev)]
        return self._cols[c]

    def _wrow(self, k: int) -> list[int]:
        row = self._wrows.get(k)
        if row is not None:
            return row
        p, m = self.p, self.mod
        if k == 1:
            row = [pow(v, p - 1, m) for v in range(p)]
        else:
            w1, prev = self._wrow(1), self._wrow(k - 1)
            row = [a * b % m for a, b in zip(prev, w1)]
        self._wrows[k] = row
        return row

    def power_sum(self, j: int, g: int) -> int:
        """S_j(p) mod p^g for g <= table precision."""
        if g > self.g:
            raise ValueError("table precision too low")
        m = self.p**g
        if j == 0:
            return (self.p - 1) % m
        k, c = divmod(j, self.p - 1)
        row = self._wrow(k)
        if c == 0:
            return sum(row[1:]) % m
        col = self._column(c)
        return sum(a * b for a, b in zip(row[1:], col[1:])) % m


class _PrimeCache:
    def __init__(self, p: int, g: int):
        self.tables = _PrimeTables(p, g)
        self.pb: dict[tuple[int, int], int] = {}


_caches: OrderedDict[int, _PrimeCache] = OrderedDict()
_caches_lock = Lock()
_MAX_CACHED_PRIMES = 4


def _cache_for(p: int, g: int) -> _PrimeCache:
    with _caches_lock:
        cache = _caches.get(p)
        if cache is None:
            if not is_prime(p):
                raise ValueError(f"{p} is not prime")
            cache = _PrimeCache(p, g)
            _caches[p] = cache
            while len(_caches) > _MAX_CACHED_PRIMES:
                _caches.popitem(last=False)
        else:
            cache.tables._reset(g)
            _caches.move_to_end(p)
        return cache


def clear_caches() -> None:
    """Drop all per-prime memoization (tests and memory control)."""
    with _caches_lock:
        _caches.clear()


def _pb_value(cache: _PrimeCache, m: int, g: int) -> int:
    """p*B_m mod p^g as a plain integer."""
    key = (m, g)
    cached = cache.pb.get(key)
    if cached is not None:
        return cached
    p = cache.tables.p
    mod = p**g
    if m == 0:
        value = p % mod
    elif m == 1:
        value = -p * pow(2, -1, mod) % mod
    elif m % 2 == 1:
        value = 0
    else:
        value = cache.tables.power_sum(m, g)
        for k in range(2, min(m + 1, g + 1) + 1):
            e, unit = k - 1, k
            while unit % p == 0:
                unit //= p
                e -= 1
            if e >= g:
                continue
            sub = _pb_value(cache, m + 1 - k, g - e)
            term = comb(m, k - 1) * p**e % mod * pow(unit, -1, mod) % mod * sub % mod
            value = (value - term) % mod
    cache.pb[key] = value
    return value


def bernoulli_times_p(m: int, p: int, g: int) -> Residue:
    """p*B_m mod p^g via the power-sum recursion; requires p > g."""
    if m < 0:
        raise ValueError("index must be non-negative")
    if g < 1:
        raise ValueError("precision must be >= 1")
    if p <= g:
        raise ValueError(f"need p > g for unit denominators, got p={p}, g={g}")
    cache = _cache_for(p, g)
    return Residue(_pb_value(cache, m, g), make_modulus(p, g))


# -- p-integral and divided values -------------------------------------------


def bnp(m: int, modulus: Modulus) -> Residue:
    """The p-integral value: 0 at m=0, B_m + 1/p - 1 when p-1 | m, else B_m.

    Computed from p*B_m at one extra digit; the final shift by p is exact by
    the von Staudt-Clausen structure of the denominator, and a valuation
    failure here would mean the engine itself is broken.
    """
    p, r = modulus.p, modulus.r
    if m == 0:
        return Residue(0, modulus)
    pb = bernoulli_times_p(m, p, r + 1)
    if m > 0 and m % (p - 1) == 0:
        pb = pb + (1 - p)
    return pb.shift_down(1)


def bnpd(m: int, modulus: Modulus) -> Residue:
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
    pb = bernoulli_times_p(m, p, g)
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


#: (n -> precision) and ((n, d) -> precision) requests for the two depths.
SET_SPEC_DEPTH6 = (
    {1: 6, 2: 6, 3: 6, 4: 6, 5: 6, 6: 6},
    {(1, 2): 4, (2, 2): 4, (3, 2): 4, (4, 2): 4, (1, 4): 2, (2, 4): 2},
)
SET_SPEC_DEPTH5 = (
    {1: 5, 2: 5, 3: 5, 4: 5, 5: 5},
    {(1, 2): 3, (2, 2): 3, (3, 2): 3, (1, 4): 1},
)


def divided_set(
    p: int,
    bn_spec: dict[int, int] | None = None,
    bnd_spec: dict[tuple[int, int], int] | None = None,
) -> DividedBernoulliSet:
    """Populate a DividedBernoulliSet for prime p >= 7.

    Defaults cover the six-coefficient expansion for p >= 11 and the
    five-coefficient one below that.
    """
    if p < 7:
        raise ValueError(f"need p >= 7, got {p}")
    if bn_spec is None and bnd_spec is None:
        bn_spec, bnd_spec = SET_SPEC_DEPTH6 if p >= 11 else SET_SPEC_DEPTH5
    bn_spec = bn_spec or {}
    bnd_spec = bnd_spec or {}
    h = p - 1
    out = DividedBernoulliSet(p)
    for n, r in sorted(bn_spec.items(), reverse=True):
        out.bn[n] = bnpd(n * h, make_modulus(p, r))
    for (n, d), r in sorted(bnd_spec.items(), reverse=True):
        out.bnd[(n, d)] = bnpd(n * h - d, make_modulus(p, r))
    return out
