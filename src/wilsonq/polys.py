"""Multivariate polynomials with exact rational coefficients in x_1..x_6 and
an indeterminate p, and the paper's display of the Wilson quotient through
the scaled Fermat-quotient power sums x_k = (p^(k-1)/k) Q_p(k):

    W_p = sum over nu of PTILDE[nu](p, x_1, ..., x_nu)  (mod p^r, nu <= r),

where every monomial of PTILDE[nu] has weight nu-1 (p has weight 1, x_k
weight k-1), so the members past nu = r vanish mod p^r.  The display is
transcribed once, here; the tests derive it afresh from the p-adic log,
W_p = (1 - exp(L))/p with L = (p/(p-1)) sum_k (-1)^(k+1) x_k.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cache
from typing import Sequence

from .residues import Residue, ratio_mod

NVARS = 6

# term key: (exponent of p, (e1, ..., e6)); the p exponent must be
# non-negative by evaluation time.
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
def _ptilde() -> dict[int, MultiPoly]:
    """PTILDE, built on first use: no sweep check but ``psi`` needs it, and
    building it is most of this module's import cost."""
    _x1, _x2, _x3, _x4, _x5, _x6 = (MultiPoly.var(i) for i in range(1, 7))
    _p = MultiPoly.p_var()
    _F = Fraction
    return {
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


def __getattr__(name: str):
    if name == "PTILDE":
        return _ptilde()
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def ptilde_eval(nu: int, values: Sequence[Residue]) -> Residue:
    """Evaluate PTILDE[nu] at x_k = values[k-1]; p comes from the values'
    modulus and all denominators (divisors of 720) must be units there."""
    if not 1 <= nu <= 6:
        raise ValueError(f"index out of range: {nu}")
    if len(values) != nu:
        raise ValueError(f"need exactly {nu} values, got {len(values)}")
    return _ptilde()[nu].evaluate(values)
