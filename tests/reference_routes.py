"""Second routes to values the package computes one way, read only by tests.

* :func:`exact_bernoulli` - exact rational B_n from the defining recurrence,
  the reference for the engine's p*B_m and the divided values;
* :func:`q_power_sum` - one Fermat-quotient power sum Q_p(n) by direct
  summation, the reference for ``oracles.qtilde_sums``;
* :func:`power_sum_mod` and :func:`sh_mod` - plain and modified power sums
  by direct summation, the reference for the Bernoulli engine's tables;
* :func:`binom_diff_mod_p` and :func:`q_power_sum_via_differences` - the
  operator form of the Fermat-quotient power sums, by forward differences;
* :class:`MultiPoly` - exact polynomials in p and named variables, and
  :func:`symbolic`, which reads a display builder as one in the scaled power
  sums x_k;
* :func:`generated_ptilde` - the PTILDE display derived afresh from the
  p-adic log, and :func:`ptilde_mismatches` against a transcription;
* :class:`Newton`, which reads a divided-set display as a polynomial in the
  Newton coefficients of its families, and :func:`kummer_certificate`, which
  holds that the Kummer congruences on them imply a relation between displays.
"""
from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable

from wilsonq.bernoulli import forward_difference
from wilsonq.residues import Modulus, Residue, divide_exactly, make_modulus

ORACLE_BOUND = 3000

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
    # m is read once per step and the value stored at index m, not appended:
    # racing callers then write equal values to one slot.
    while (m := len(_exact)) <= n:
        if m % 2 == 1:
            _exact[m:m + 1] = [Fraction(0)]
            continue
        s = sum(comb(m + 1, k) * _exact[k] for k in range(0, m, 2))
        s += comb(m + 1, 1) * _exact[1]
        _exact[m:m + 1] = [-s / (m + 1)]
    return _exact[n]


def q_power_sum(n: int, p: int, r: int) -> Residue:
    """Q_p(n) = sum of n-th powers of all Fermat quotients, mod p^r."""
    if n < 1:
        raise ValueError("power must be >= 1")
    modulus = make_modulus(p, r)
    m, up = modulus.value, p ** (r + 1)
    quotients = ((pow(a, p - 1, up) - 1) // p for a in range(1, p))
    return Residue(sum(pow(q, n, m) for q in quotients) % m, modulus)


def power_sum_mod(n: int, modulus: Modulus) -> Residue:
    """S_n(p) = 1^n + 2^n + ... + (p-1)^n mod p^r by direct summation."""
    if n < 0:
        raise ValueError("exponent must be non-negative")
    p, m = modulus.p, modulus.value
    return Residue(sum(pow(v, n, m) for v in range(1, p)) % m, modulus)


def sh_mod(n: int, p: int, r: int) -> Residue:
    """Modified power sum (S_n(p) - S_0(p))/p mod p^r, with value 0 at n=0.

    Only defined (p-adically) when S_n(p) = S_0(p) mod p, which holds exactly
    when p-1 divides n -- the indices the difference operators sample.
    """
    modulus = make_modulus(p, r)
    if n == 0:
        return Residue(0, modulus)
    up = make_modulus(p, r + 1)
    diff = power_sum_mod(n, up).value - power_sum_mod(0, up).value
    return Residue(divide_exactly(diff, p, 1), modulus)


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
    diff = forward_difference(lambda nu: sh_mod(nu, p, prec).value, p - 1, n, start=0)
    return Residue(divide_exactly(diff, p, n - 1), make_modulus(p, r))


#: The scaled power sums x_1..x_NVARS that PTILDE reads.
NVARS = 6

# term key: (exponent of p, ((name, exponent), ...)), the names sorted and
# each exponent positive, so a monomial lists only the variables it holds.
Monomial = tuple[tuple[str, int], ...]
Key = tuple[int, Monomial]


def _times(a: Monomial, b: Monomial) -> Monomial:
    exps = dict(a)
    for name, e in b:
        exps[name] = exps.get(name, 0) + e
    return tuple(sorted(exps.items()))


class MultiPoly:
    """Exact polynomials in p and sparse named variables."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def const(cls, q) -> "MultiPoly":
        return cls({(0, ()): Fraction(q)})

    @classmethod
    def named(cls, name: str) -> "MultiPoly":
        return cls({(0, ((name, 1),)): Fraction(1)})

    @classmethod
    def var(cls, i: int) -> "MultiPoly":
        """The scaled power sum x_i, named ``x<i>``."""
        if not 1 <= i <= NVARS:
            raise ValueError(f"variable index out of range: {i}")
        return cls.named(f"x{i}")

    @classmethod
    def p_var(cls) -> "MultiPoly":
        return cls({(1, ()): Fraction(1)})

    def _coerce(self, other) -> "MultiPoly | None":
        if isinstance(other, MultiPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return MultiPoly.const(other)
        return None

    def __add__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out = dict(self.terms)
        for k, v in other.terms.items():
            out[k] = out.get(k, Fraction(0)) + v
        return MultiPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "MultiPoly":
        return MultiPoly({k: -v for k, v in self.terms.items()})

    def __sub__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "MultiPoly":
        return -(self - other)

    def __mul__(self, other) -> "MultiPoly":
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        out: dict[Key, Fraction] = {}
        for (pa, ea), va in self.terms.items():
            for (pb, eb), vb in other.terms.items():
                key = (pa + pb, _times(ea, eb))
                out[key] = out.get(key, Fraction(0)) + va * vb
        return MultiPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "MultiPoly":
        if n < 0:
            raise ValueError("negative power")
        out = MultiPoly.const(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __eq__(self, other: object) -> bool:
        return isinstance(other, MultiPoly) and self.terms == other.terms

    __hash__ = None

    def __repr__(self) -> str:
        if not self.terms:
            return "MultiPoly(0)"
        bits = []
        for (pe, exps), coeff in sorted(self.terms.items()):
            mono = [f"p^{pe}"] if pe else []
            mono += [f"{name}^{e}" for name, e in exps]
            bits.append(f"{coeff}*" + "*".join(mono) if mono else f"{coeff}")
        return "MultiPoly(" + " + ".join(bits) + ")"


def symbolic(display: Callable[..., int]) -> MultiPoly:
    """A display builder read as a polynomial: called with :class:`Newton`,
    whose ``t.p`` is the p symbol and ``t.F`` is ``Fraction``, and x_k (one
    per argument after ``t``) the k-th symbol."""
    nargs = display.__code__.co_argcount - 1
    return display(Newton, *(MultiPoly.var(k) for k in range(1, nargs + 1)))


def _newton(d: int, j: int) -> MultiPoly:
    """b_d(j), the divided value at index j(p-1) - d, in Newton form
    sum_{i<j} C(j-1, i) p^i y_{d,i}: p^i y_{d,i} is the i-fold forward
    difference (step p-1) of the family from b_d(1), named ``y<d>_<i>``."""
    return MultiPoly({(i, ((f"y{d}_{i}", 1),)): Fraction(comb(j - 1, i)) for i in range(j)})


class Newton:
    """The accessor that reads a divided-set display as a polynomial in p and
    the y_{d,i}, for :func:`kummer_certificate` and the constant guards."""

    p = MultiPoly.p_var()
    F = Fraction

    @staticmethod
    def b(n: int) -> MultiPoly:
        return _newton(0, n)

    @staticmethod
    def b2(n: int) -> MultiPoly:
        return _newton(2, n)

    @staticmethod
    def b4(n: int) -> MultiPoly:
        return _newton(4, n)


def _is_unit_from_7(q: Fraction) -> bool:
    """Whether q's denominator has no prime factor >= 7, so q is p-integral
    at every prime from 7."""
    den = q.denominator
    for small in (2, 3, 5):
        while den % small == 0:
            den //= small
    return den == 1


def kummer_certificate(relations, windows: dict[int, set[tuple[int, int]]]) -> dict[str, str]:
    """name -> the first reason, for each relation (name, depth, precision,
    lhs, rhs) that the Kummer congruences on the families do not imply.
    With each family in Newton form (:func:`_newton`), lhs - rhs (rhs None
    for 0) must carry p^precision in every monomial, have coefficients
    p-integral from p = 7, and read y_{d,i} only for (d, i) in
    ``windows[depth]``: i = 0, where y_{d,0} is the value b_d(1), or an
    order whose difference the kummer rows claim vanishes mod p^i at that
    depth.  Then lhs == rhs mod p^precision at every prime whose kummer rows
    pass, since each y_{d,i} it reads is p-integral there.  Empty when every
    relation is implied."""
    failures = {}
    for name, depth, precision, lhs, rhs in relations:
        diff = lhs(Newton) - (rhs(Newton) if rhs else 0)
        for (pe, exps), coeff in sorted(diff.terms.items()):
            monomial = MultiPoly({(pe, exps): coeff})
            outside = [v for v, _ in exps
                       if tuple(map(int, v[1:].split("_"))) not in windows[depth]]
            if pe < precision:
                failures[name] = f"{monomial} lies below p^{precision}"
            elif not _is_unit_from_7(coeff):
                failures[name] = f"{monomial} is not p-integral at every prime from 7"
            elif outside:
                failures[name] = f"{monomial} reads {outside} outside the kummer windows"
            else:
                continue
            break
    return failures


def _weight(key) -> int:
    """A monomial's weight: p counts 1, x_k counts k-1."""
    pe, exps = key
    return pe + sum((int(name[1:]) - 1) * e for name, e in exps)


def generated_ptilde() -> dict[int, MultiPoly]:
    """The display W_p = sum_nu PTILDE[nu], derived from the p-adic log.

    ((p-1)!)^(p-1) = prod_a (1 + p q_a) over the Fermat quotients q_a, and
    (p-1)! = p W_p - 1 with p-1 even, so log(1 - p W_p) is
    L = (p/(p-1)) sum_k (-1)^(k+1) x_k with x_k = (p^(k-1)/k) Q_p(k), and
    W_p = (1 - exp(L))/p.  Expanded with p/(p-1) = -(p + p^2 + ...), every
    term of L has weight at least 1, so the terms of p W_p up to weight
    NVARS need L^k for k <= NVARS only; member nu collects weight nu.
    """
    def cut(poly: MultiPoly) -> MultiPoly:
        return MultiPoly({key: c for key, c in poly.terms.items() if _weight(key) <= NVARS})

    p = MultiPoly.p_var()
    log = cut(-sum(p**k for k in range(1, NVARS + 1))
              * sum((-1) ** (k + 1) * MultiPoly.var(k) for k in range(1, NVARS + 1)))
    p_wilson, power = MultiPoly(), MultiPoly.const(1)
    for k in range(1, NVARS + 1):
        power = cut(power * log) * Fraction(1, k)
        p_wilson -= power
    members: dict[int, dict] = {nu: {} for nu in range(1, NVARS + 1)}
    for (pe, exps), c in p_wilson.terms.items():
        members[_weight((pe, exps))][pe - 1, exps] = c
    return {nu: MultiPoly(terms) for nu, terms in members.items()}


def ptilde_mismatches(family: dict[int, Callable[..., int]]) -> dict[int, MultiPoly]:
    """nu -> the builder family[nu], read by :func:`symbolic`, minus its
    generated member, for every nu = 1..NVARS where the two differ; empty
    when the transcription is exact."""
    generated = generated_ptilde()
    diffs = {nu: symbolic(family[nu]) - generated[nu] for nu in generated}
    return {nu: diff for nu, diff in diffs.items() if diff.terms}
