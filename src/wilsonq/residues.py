"""Residues modulo prime powers, and the integer rules that build them.

A ``Residue`` is a record: a canonical representative in [0, p^r) together
with its ``Modulus`` (p, r).  Every computation runs on plain integers; the
rules that go beyond ``%`` are written here once: :func:`ratio_mod`, a
rational a/b mod a power of p, :func:`split_p`, which splits the power of p
off an integer, and :func:`divide_exactly`, division by p^k that refuses a
value p^k does not divide.
"""
from __future__ import annotations

from functools import lru_cache
from math import isqrt

#: The top of the prime window, the size bound on p for every command.  One
#: prime's state is its Bernoulli engine's packed block and columns plus the
#: divided set built on them: at depth 6 its tracemalloc peak is 750 B per
#: v = 1..p-1 at p = 40009 and 802 B at p = 100003, growing with log p.  At
#: this bound that is about 220 MB per worker process.  ``kummer`` takes its
#: ``--nmax`` up to the same bound, and its memory grows with the starts: the
#: worst accepted ``--rmax`` there at p = 1009 is 10 (at 11 the index 2018
#: needs g = 13), and ``kummer --primes 1009 --nmax 262144 --rmax 10``
#: peaks at 336 MB RSS in 27 s, against 142 MB in 16 s at ``--rmax 3``
#: (2-core Intel Xeon, Python 3.11.7).
P_LIMIT = 2**18
#: The bound on the precision exponent r of every modulus p^r, checked before
#: p^r is formed.  ``verify`` builds at most p^7, ``wilson --prec r`` builds
#: p^(r+1), and the tests' operator route to Q_p(6) mod p^6 builds p^12;
#: ``wilson`` and ``bnpd`` refuse a working precision above it before building
#: anything.  The engine's packed block widens with its working precision
#: g = r + 1 + v_p(m): the worst accepted case,
#: ``bernoulli --p 262139 --m 4 --prec 11`` (g = 12, the largest prime under
#: P_LIMIT), peaks at 354 MB RSS in 3.6 s, against 242 MB at ``--prec 6``.
R_LIMIT = 12


def check_window(pmin: int, pmax: int) -> None:
    """Refuse a prime window outside 2 <= pmin <= pmax <= P_LIMIT."""
    if pmin < 2:
        raise ValueError(f"primes start at 2, got {pmin}")
    if pmin > pmax:
        raise ValueError(f"empty range: pmin={pmin} > pmax={pmax}")
    if pmax > P_LIMIT:
        raise ValueError(f"p must be at most {P_LIMIT}, the size bound on one prime's "
                         f"tables; got {pmax}")


def is_prime(n: int) -> bool:
    """Exact trial division up to isqrt(n), at most 511 divisors on the
    window; False below 2, and n above P_LIMIT is refused."""
    if n < 2:
        return False
    check_window(n, n)
    return all(n % q for q in range(2, isqrt(n) + 1))


def power_table(p: int, e: int, mod: int) -> list[int]:
    """[v^e mod mod for v = 1..p-1].

    v -> v^e is completely multiplicative, so only prime v take a ``pow``;
    every other entry is the product of the entries at its smallest prime
    factor and at the cofactor, both already filled.
    """
    spf = [0] * p
    # Descending q, so the smallest factor writes last.  A composite q marks
    # only multiples of its own prime factors, which overwrite those marks.
    for q in range(isqrt(p - 1), 1, -1):
        spf[q * q::q] = [q] * len(range(q * q, p, q))
    table = [0, 1 % mod] + [0] * (p - 2)
    for v in range(2, p):
        q = spf[v]
        table[v] = pow(v, e, mod) if q == 0 else table[q] * table[v // q] % mod
    del table[0]
    return table


class Modulus:
    """A prime power p^r with p >= 3 prime and 1 <= r <= R_LIMIT.  Every
    command builds one before its tables, so p passes the prime window rule
    here, and r the precision bound."""

    __slots__ = ("p", "r", "value")

    def __init__(self, p: int, r: int):
        if r < 1:
            raise ValueError(f"precision exponent must be >= 1, got {r}")
        if r > R_LIMIT:
            raise ValueError(f"precision exponent must be at most {R_LIMIT}, got {r}")
        check_window(p, p)
        if p < 3 or not is_prime(p):
            raise ValueError(f"modulus base must be an odd prime, got {p}")
        self.p = p
        self.r = r
        self.value = p**r

    def __repr__(self) -> str:
        return f"Modulus({self.p}, {self.r})"


@lru_cache(maxsize=4096)
def make_modulus(p: int, r: int) -> Modulus:
    """Validated, cached construction of p^r."""
    return Modulus(p, r)


class Residue:
    """A class modulo p^r, stored as the least non-negative representative."""

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: Modulus):
        self.value = value % modulus.value
        self.modulus = modulus

    @property
    def p(self) -> int:
        return self.modulus.p

    @property
    def precision(self) -> int:
        return self.modulus.r

    def reduce_to(self, r: int) -> Residue:
        """Weaken to precision r <= current precision."""
        if r == self.precision:
            return self
        if r > self.precision:
            raise ValueError(f"cannot raise precision from {self.precision} to {r}")
        return Residue(self.value, make_modulus(self.p, r))

    def digits(self) -> list[int]:
        """Base-p digits, least significant first, exactly r of them."""
        out, v = [], self.value
        for _ in range(self.precision):
            v, d = divmod(v, self.p)
            out.append(d)
        return out

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Residue):
            return (self.p, self.precision, self.value) == (other.p, other.precision, other.value)
        if isinstance(other, int):
            return self.value == other % self.modulus.value
        return NotImplemented

    __hash__ = None  # mutable-by-convention value type; not meant for hashing

    def __repr__(self) -> str:
        return f"Residue({self.value} mod {self.p}^{self.precision})"


def ratio_mod(a: int, b: int, p: int, mod: int) -> int:
    """The rational a/b as an integer mod ``mod``, a power of p: a * b^-1,
    refused when p divides b."""
    if b % p == 0:
        raise ValueError(f"denominator {b} not coprime to {p}")
    return a * pow(b, -1, mod) % mod


def split_p(n: int, p: int) -> tuple[int, int]:
    """(e, unit) with n = p^e * unit and p not dividing unit, for n >= 1."""
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e, n


def divide_exactly(value: int, p: int, k: int) -> int:
    """value / p^k, refused when p^k does not divide value."""
    quotient, rest = divmod(value, p**k)
    if rest:
        raise ValueError(f"insufficient valuation: {value} not divisible by {p}^{k}")
    return quotient
