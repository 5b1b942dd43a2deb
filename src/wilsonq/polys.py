"""Multivariate polynomials with exact rational coefficients in x_1..x_6 and
an indeterminate p, and the two hard-coded families expressing the Wilson
quotient through Fermat-quotient power sums:

* PSI[n]     -- integer polynomials in the raw power sums Q_p(1..n);
* PTILDE[n]  -- rational polynomials in p and the scaled sums (p^(k-1)/k)Q_p(k).

The two families are related by rescaling each variable; the symbolic
identity (with all negative powers of p cancelling) is checked by
:func:`psi_ptilde_consistency`.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import factorial
from typing import Sequence

from .residues import Residue, ratio_mod

NVARS = 6

# term key: (exponent of p, (e1, ..., e6)); p exponents may go negative
# during substitution but must clear before evaluation.
Key = tuple[int, tuple[int, ...]]


class MultiPoly:
    __slots__ = ("terms",)

    def __init__(self, terms: dict[Key, Fraction] | None = None):
        self.terms = {k: v for k, v in (terms or {}).items() if v != 0}

    @classmethod
    def const(cls, q) -> "MultiPoly":
        return cls({(0, (0,) * NVARS): Fraction(q)})

    @classmethod
    def var(cls, i: int) -> "MultiPoly":
        if not 1 <= i <= NVARS:
            raise ValueError(f"variable index out of range: {i}")
        exps = [0] * NVARS
        exps[i - 1] = 1
        return cls({(0, tuple(exps)): Fraction(1)})

    @classmethod
    def p_var(cls) -> "MultiPoly":
        return cls({(1, (0,) * NVARS): Fraction(1)})

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
                key = (pa + pb, tuple(x + y for x, y in zip(ea, eb)))
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
            mono += [f"x{i + 1}^{e}" for i, e in enumerate(exps) if e]
            bits.append(f"{coeff}*" + "*".join(mono) if mono else f"{coeff}")
        return "MultiPoly(" + " + ".join(bits) + ")"

    def rescale_vars(self, factors: Sequence[Fraction], p_drops: Sequence[int]) -> "MultiPoly":
        """Substitute x_i -> factors[i-1] * x_i * p^(-p_drops[i-1]).

        Monomials map to monomials, so no expansion is needed.
        """
        out: dict[Key, Fraction] = {}
        for (pe, exps), coeff in self.terms.items():
            scale = coeff
            shift = pe
            for i, e in enumerate(exps):
                if e:
                    scale *= factors[i] ** e
                    shift -= p_drops[i] * e
            key = (shift, exps)
            out[key] = out.get(key, Fraction(0)) + scale
        return MultiPoly(out)

    def evaluate(self, values: Sequence[Residue]) -> Residue:
        """Evaluate at x_i = values[i-1] with p set to the shared prime.

        All coefficient denominators must be units and every p exponent must
        be non-negative by evaluation time.  Each term is a plain integer
        product, reduced once in the sum.
        """
        if not values:
            raise ValueError("need at least one value to fix the modulus")
        modulus = values[0].modulus
        p, m = modulus.p, modulus.value
        acc = 0
        for (pe, exps), coeff in self.terms.items():
            if pe < 0:
                raise ValueError("negative power of p at evaluation time")
            term = ratio_mod(coeff.numerator, coeff.denominator, p, m) * p**pe
            for i, e in enumerate(exps):
                if e:
                    if i >= len(values):
                        raise ValueError(f"variable x{i + 1} has no value")
                    term *= values[i].value ** e
            acc += term
        return Residue(acc, modulus)


@cache
def _families() -> tuple[dict[int, MultiPoly], dict[int, MultiPoly]]:
    """(PSI, PTILDE), built on first use: no sweep check but ``psi`` needs
    them, and building them is most of this module's import cost."""
    _x1, _x2, _x3, _x4, _x5, _x6 = (MultiPoly.var(i) for i in range(1, 7))
    _p = MultiPoly.p_var()
    _F = Fraction

    # Wilson-quotient expansion polynomials in the raw power sums.
    PSI: dict[int, MultiPoly] = {
        1: _x1,
        2: 2 * _x1 - _x1**2 - _x2,
        3: 6 * _x1 - 6 * _x1**2 + _x1**3 + 3 * _x1 * _x2 - 3 * _x2 + 2 * _x3,
        4: (24 * _x1 - 36 * _x1**2 + 12 * _x1**3 - _x1**4 - 6 * _x1**2 * _x2
            + 24 * _x1 * _x2 - 8 * _x1 * _x3 - 12 * _x2 - 3 * _x2**2 + 8 * _x3 - 6 * _x4),
        5: (120 * _x1 - 240 * _x1**2 + 120 * _x1**3 - 20 * _x1**4 + _x1**5
            + 10 * _x1**3 * _x2 - 90 * _x1**2 * _x2 + 20 * _x1**2 * _x3
            + 180 * _x1 * _x2 + 15 * _x1 * _x2**2 - 80 * _x1 * _x3 + 30 * _x1 * _x4
            - 60 * _x2 - 30 * _x2**2 + 20 * _x2 * _x3 + 40 * _x3 - 30 * _x4 + 24 * _x5),
        6: (720 * _x1 - 1800 * _x1**2 + 1200 * _x1**3 - 300 * _x1**4 + 30 * _x1**5
            - _x1**6 - 15 * _x1**4 * _x2 + 240 * _x1**3 * _x2 - 40 * _x1**3 * _x3
            - 1080 * _x1**2 * _x2 - 45 * _x1**2 * _x2**2 + 360 * _x1**2 * _x3
            - 90 * _x1**2 * _x4 + 1440 * _x1 * _x2 + 270 * _x1 * _x2**2
            - 120 * _x1 * _x2 * _x3 - 720 * _x1 * _x3 + 360 * _x1 * _x4
            - 144 * _x1 * _x5 - 360 * _x2 - 270 * _x2**2 - 15 * _x2**3
            + 240 * _x2 * _x3 - 90 * _x2 * _x4 + 240 * _x3 - 40 * _x3**2
            - 180 * _x4 + 144 * _x5 - 120 * _x6),
    }

    # The same expansions rewritten in the scaled power sums, with p explicit.
    PTILDE: dict[int, MultiPoly] = {
        1: _x1,
        2: _p * (_x1 - _F(1, 2) * _x1**2) - _x2,
        3: (_p**2 * (_x1 - _x1**2 + _F(1, 6) * _x1**3)
            + _p * (_x1 * _x2 - _x2) + _x3),
        4: (_p**3 * (_x1 - _F(3, 2) * _x1**2 + _F(1, 2) * _x1**3 - _F(1, 24) * _x1**4)
            + _p**2 * (2 * _x1 * _x2 - _F(1, 2) * _x1**2 * _x2 - _x2)
            + _p * (-_F(1, 2) * _x2**2 - _x1 * _x3 + _x3) - _x4),
        5: (_p**4 * (_x1 - 2 * _x1**2 + _x1**3 - _F(1, 6) * _x1**4 + _F(1, 120) * _x1**5)
            + _p**3 * (3 * _x1 * _x2 - _F(3, 2) * _x1**2 * _x2 + _F(1, 6) * _x1**3 * _x2 - _x2)
            + _p**2 * (_F(1, 2) * _x1 * _x2**2 - _x2**2 - 2 * _x1 * _x3
                       + _F(1, 2) * _x1**2 * _x3 + _x3)
            + _p * (_x2 * _x3 + _x1 * _x4 - _x4) + _x5),
        6: (_p**5 * (_x1 - _F(5, 2) * _x1**2 + _F(5, 3) * _x1**3 - _F(5, 12) * _x1**4
                     + _F(1, 24) * _x1**5 - _F(1, 720) * _x1**6)
            + _p**4 * (4 * _x1 * _x2 - 3 * _x1**2 * _x2 + _F(2, 3) * _x1**3 * _x2
                       - _F(1, 24) * _x1**4 * _x2 - _x2)
            + _p**3 * (_F(3, 2) * _x1 * _x2**2 - _F(1, 4) * _x1**2 * _x2**2
                       - _F(3, 2) * _x2**2 - 3 * _x1 * _x3 + _F(3, 2) * _x1**2 * _x3
                       - _F(1, 6) * _x1**3 * _x3 + _x3)
            + _p**2 * (-_x1 * _x2 * _x3 + 2 * _x2 * _x3 - _F(1, 6) * _x2**3
                       + 2 * _x1 * _x4 - _F(1, 2) * _x1**2 * _x4 - _x4)
            + _p * (-_F(1, 2) * _x3**2 - _x2 * _x4 - _x1 * _x5 + _x5) - _x6),
    }
    return PSI, PTILDE


def __getattr__(name: str):
    if name == "PSI":
        return _families()[0]
    if name == "PTILDE":
        return _families()[1]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _family_eval(family: int, nu: int, values: Sequence[Residue]) -> Residue:
    """Evaluate member ``nu`` of family 0 (PSI) or 1 (PTILDE) at ``values``."""
    if not 1 <= nu <= 6:
        raise ValueError(f"index out of range: {nu}")
    if len(values) != nu:
        raise ValueError(f"need exactly {nu} values, got {len(values)}")
    return _families()[family][nu].evaluate(values)


def psi_eval(nu: int, values: Sequence[Residue]) -> Residue:
    """Evaluate the raw-sum expansion polynomial at the given residues."""
    return _family_eval(0, nu, values)


def ptilde_eval(nu: int, values: Sequence[Residue]) -> Residue:
    """Evaluate the scaled-sum expansion polynomial; p comes from the values'
    modulus and all denominators (divisors of 720) must be units there."""
    return _family_eval(1, nu, values)


def psi_ptilde_diffs() -> dict[int, MultiPoly]:
    """Symbolic mismatches between the two families under the rescaling
    x_k -> k * x_k / p^(k-1); empty everywhere means consistent."""
    psi, ptilde = _families()
    factors = [Fraction(k) for k in range(1, NVARS + 1)]
    drops = list(range(NVARS))
    out: dict[int, MultiPoly] = {}
    for n in range(1, 7):
        substituted = psi[n].rescale_vars(factors, drops)
        scaled = MultiPoly.p_var() ** (n - 1) * Fraction(1, factorial(n)) * substituted
        diff = scaled - ptilde[n]
        if diff.terms:
            out[n] = diff
    return out


def psi_ptilde_consistency() -> bool:
    """True when the rescaling identity holds exactly for every index."""
    return not psi_ptilde_diffs()
