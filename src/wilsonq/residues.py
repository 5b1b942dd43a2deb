"""Exact arithmetic in Z/p^r Z with explicit precision tracking.

A ``Residue`` is a canonical representative in [0, p^r) together with its
``Modulus`` (p, r).  All operations are pure; mixed-precision operands with
the same p are silently reduced to the smaller precision, which is how
congruences are weakened when moving down a chain of moduli.  Division by p
is only available through :meth:`Residue.shift_down`, which spends precision
explicitly, and its inverse :meth:`Residue.mul_p_power`, which gains it.
"""
from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import isqrt

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
#: The least strong pseudoprime to all of ``_MR_BASES``: below it the test is exact.
PRIME_BOUND = 318665857834031151167461
#: The size bound on p for every command.  One prime's state is its
#: Bernoulli engine's packed block and columns plus the divided set built on
#: them: at depth 6 its tracemalloc peak is 750 B per v = 1..p-1 at
#: p = 40009 and 802 B at p = 100003, growing with log p.  At this bound
#: that is about 220 MB per worker process.
P_LIMIT = 2**18
#: The bound on the precision exponent r of every modulus p^r, checked before
#: p^r is formed.  ``verify`` builds at most p^7, ``wilson --prec r`` builds
#: p^(r+1), and the tests' operator route to Q_p(6) mod p^6 builds p^12.  The
#: engine's packed block widens with its working precision g = r + 1 + v_p(m):
#: the worst accepted case, ``bernoulli --p 262139 --m 4 --prec 11`` (g = 12,
#: the largest prime under P_LIMIT), peaks at 354 MB RSS in 3.6 s, against
#: 242 MB at ``--prec 6``.
R_LIMIT = 12


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, exact for n < PRIME_BOUND."""
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def check_window(pmin: int, pmax: int) -> None:
    """Refuse a prime window outside 2 <= pmin <= pmax < PRIME_BOUND, the
    range where :func:`is_prime` is exact."""
    if pmin < 2:
        raise ValueError(f"primes start at 2, got {pmin}")
    if pmin > pmax:
        raise ValueError(f"empty range: pmin={pmin} > pmax={pmax}")
    if pmax >= PRIME_BOUND:
        raise ValueError(f"p must be below {PRIME_BOUND}, where primality tests stay exact; "
                         f"got {pmax}")


def check_size(p: int) -> None:
    """Refuse p above P_LIMIT, before any table of p-1 entries is built."""
    if p > P_LIMIT:
        raise ValueError(f"p must be at most {P_LIMIT}, the size bound on one prime's "
                         f"tables; got {p}")


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
    and the size bound here, and r the precision bound."""

    __slots__ = ("p", "r", "value")

    def __init__(self, p: int, r: int):
        if r < 1:
            raise ValueError(f"precision exponent must be >= 1, got {r}")
        if r > R_LIMIT:
            raise ValueError(f"precision exponent must be at most {R_LIMIT}, got {r}")
        check_window(p, p)
        check_size(p)
        if p < 3 or not is_prime(p):
            raise ValueError(f"modulus base must be an odd prime, got {p}")
        self.p = p
        self.r = r
        self.value = p**r

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Modulus) and self.p == other.p and self.r == other.r

    def __hash__(self) -> int:
        return hash((self.p, self.r))

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

    # -- coercion ---------------------------------------------------------

    def _pair(self, other) -> tuple[int, int, Modulus] | None:
        """Return (self value, other value, shared modulus), or None.

        Integers and p-integral Fractions embed at self's modulus; two
        residues must share p and are reduced to the smaller precision.
        """
        if isinstance(other, Residue):
            if other.modulus is self.modulus:  # make_modulus interns each modulus
                return self.value, other.value, self.modulus
            if other.p != self.p:
                raise ValueError(f"prime mismatch: {self.p} vs {other.p}")
            if other.precision == self.precision:
                return self.value, other.value, self.modulus
            m = make_modulus(self.p, min(self.precision, other.precision))
            return self.value % m.value, other.value % m.value, m
        if isinstance(other, int):
            return self.value, other % self.modulus.value, self.modulus
        if isinstance(other, Fraction):
            return self.value, from_rational(other, self.modulus).value, self.modulus
        return None

    # -- ring operations --------------------------------------------------

    def __add__(self, other) -> Residue:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return Residue(a + b, m)

    __radd__ = __add__

    def __sub__(self, other) -> Residue:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return Residue(a - b, m)

    def __rsub__(self, other) -> Residue:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return Residue(b - a, m)

    def __mul__(self, other) -> Residue:
        pair = self._pair(other)
        if pair is None:
            return NotImplemented
        a, b, m = pair
        return Residue(a * b, m)

    __rmul__ = __mul__

    def __neg__(self) -> Residue:
        return Residue(-self.value, self.modulus)

    def __pow__(self, n: int) -> Residue:
        if n < 0:
            raise ValueError("negative exponent; use inv() for unit inverses")
        return Residue(pow(self.value, n, self.modulus.value), self.modulus)

    def inv(self) -> Residue:
        """Multiplicative inverse; the value must be a unit (not divisible by p)."""
        if self.value % self.p == 0:
            raise ValueError(f"{self.value} is not a unit mod {self.p}^{self.precision}")
        return Residue(pow(self.value, -1, self.modulus.value), self.modulus)

    # -- p-adic structure -------------------------------------------------

    def valuation(self) -> int:
        """Largest k <= r with p^k dividing the value; r itself means 'at least r'."""
        if self.value == 0:
            return self.precision
        v, k = self.value, 0
        while v % self.p == 0:
            v //= self.p
            k += 1
        return k

    def shift_down(self, k: int) -> Residue:
        """Exact division by p^k, spending k digits of precision.

        The class must have valuation >= k and k must be < r, so the result
        is a well-defined class modulo p^(r-k).
        """
        if k == 0:
            return self
        if k < 0:
            raise ValueError("shift must be non-negative")
        if k >= self.precision:
            raise ValueError(f"cannot shift by {k}: only {self.precision} digits held")
        pk = self.p**k
        if self.value % pk != 0:
            raise ValueError(
                f"insufficient valuation: {self.value} not divisible by {self.p}^{k}"
            )
        return Residue(self.value // pk, make_modulus(self.p, self.precision - k))

    def mul_p_power(self, k: int) -> Residue:
        """Exact multiplication by p^k, gaining k digits of precision."""
        if k < 0:
            raise ValueError("power must be non-negative")
        if k == 0:
            return self
        return Residue(self.value * self.p**k, make_modulus(self.p, self.precision + k))

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

    def is_zero(self) -> bool:
        return self.value == 0

    # -- comparison -------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Residue):
            return (
                self.p == other.p
                and self.precision == other.precision
                and self.value == other.value
            )
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


def from_rational(q: Fraction | int, modulus: Modulus) -> Residue:
    """Embed a p-integral rational (an int is q/1) by :func:`ratio_mod`."""
    return Residue(ratio_mod(q.numerator, q.denominator, modulus.p, modulus.value), modulus)
