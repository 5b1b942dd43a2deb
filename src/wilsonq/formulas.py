"""Closed-form right-hand sides over divided Bernoulli numbers.

Every display is transcribed exactly once into a small builder function; the
modulus each coefficient is stated at travels with it, and evaluation never
exceeds that stated precision.  Contributions carrying an explicit power p^t
are built at precision (target - t) and lifted exactly, so each final value
is a well-defined class at the target modulus.

Naming: b(n) is the divided Bernoulli value at index n(p-1) with the pole
removed, b2(n)/b4(n) the values at indices n(p-1)-2 and n(p-1)-4.  The
expansion coefficients of (p-1)! in base p are called omega_0..omega_R, with
omega_nu stated modulo p^(R+1-nu).
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .bernoulli import DividedBernoulliSet, bnpd
from .differences import forward_difference
from .oracles import qtilde
from .polys import ptilde_eval
from .residues import Residue, make_modulus
from .results import CheckResult

F = Fraction


class _Acc:
    """Accessor handing out set values at one fixed precision."""

    __slots__ = ("p", "_set", "prec")

    def __init__(self, p: int, bset: DividedBernoulliSet, prec: int):
        self.p = p
        self._set = bset
        self.prec = prec

    def b(self, n: int) -> Residue:
        return self._set.b(n, self.prec)

    def b2(self, n: int) -> Residue:
        return self._set.bd(n, 2, self.prec)

    def b4(self, n: int) -> Residue:
        return self._set.bd(n, 4, self.prec)


# -- factorial / Wilson-quotient expansion coefficients ----------------------

_OMEGA_DEPTH5: dict[int, Callable[[_Acc], Residue]] = {
    1: lambda t: -5 * t.b(1) + 10 * t.b(2) - 10 * t.b(3) + 5 * t.b(4) - t.b(5),
    2: lambda t: (F(-5, 2) * t.b(1) ** 2 + F(15, 2) * t.b(2) ** 2 + F(5, 2) * t.b(3) ** 2
                  + t.b(1) * t.b(4) - 9 * t.b(2) * t.b(3)),
    3: lambda t: (F(-1, 2) * t.b(1) * t.b(2) ** 2
                  - t.b(1) ** 2 * (F(5, 3) * t.b(1) - F(5, 2) * t.b(2) + F(1, 2) * t.b(3))
                  - t.b2(1) + t.b2(2) - F(1, 3) * t.b2(3)),
    4: lambda t: (F(-5, 24) * t.b(1) ** 4 + F(1, 6) * t.b(1) ** 3 * t.b(2)
                  - F(2, 3) * t.b(1) * t.b2(1) + F(1, 3) * t.b(2) * t.b2(2)),
    5: lambda t: (F(-1, 120) * t.b(1) ** 5 - F(1, 6) * t.b(1) ** 2 * t.b2(1)
                  - F(1, 5) * t.b4(1)),
}

_OMEGA_DEPTH6: dict[int, Callable[[_Acc], Residue]] = {
    1: lambda t: (-6 * t.b(1) + 15 * t.b(2) - 20 * t.b(3) + 15 * t.b(4)
                  - 6 * t.b(5) + t.b(6)),
    2: lambda t: (t.b(1) * (F(-13, 2) * t.b(1) + 15 * t.b(2) - 9 * t.b(3) + 2 * t.b(4))
                  + t.b(2) * (F(-7, 2) * t.b(2) + 3 * t.b(4) - t.b(5))
                  - F(1, 2) * t.b(3) ** 2),
    3: lambda t: (t.b(1) ** 2 * (F(-10, 3) * t.b(1) + F(15, 2) * t.b(2)
                                 - 3 * t.b(3) + F(1, 2) * t.b(4))
                  + t.b(2) ** 2 * (-3 * t.b(1) + F(1, 6) * t.b(2))
                  + t.b(1) * t.b(2) * t.b(3)
                  - F(4, 3) * t.b2(1) + 2 * t.b2(2) - F(4, 3) * t.b2(3) + F(1, 3) * t.b2(4)),
    4: lambda t: (t.b(1) ** 3 * (F(-5, 8) * t.b(1) + t.b(2) - F(1, 6) * t.b(3))
                  - F(1, 4) * t.b(1) ** 2 * t.b(2) ** 2
                  - t.b(1) * t.b2(1) + t.b(2) * t.b2(2) - F(1, 3) * t.b(3) * t.b2(3)),
    5: lambda t: (F(-1, 20) * t.b(1) ** 5 + F(1, 24) * t.b(1) ** 4 * t.b(2)
                  - F(1, 3) * t.b(1) * t.b(2) * t.b2(1)
                  - F(1, 2) * t.b(1) ** 2 * t.b2(2)
                  + F(2, 3) * t.b(1) * t.b(2) * t.b2(2)
                  - F(2, 5) * t.b4(1) + F(1, 5) * t.b4(2)),
    6: lambda t: (F(-1, 720) * t.b(1) ** 6 - F(1, 18) * t.b(1) ** 3 * t.b2(1)
                  - F(1, 18) * t.b2(1) ** 2 - F(1, 5) * t.b(1) * t.b4(1)),
}


@dataclass(frozen=True)
class OmegaVector:
    """Expansion coefficients omega_0..omega_depth of (p-1)! in powers of p,
    each at its own stated precision (p^(depth+1-nu) for omega_nu)."""

    p: int
    omegas: tuple[Residue, ...]

    @property
    def depth(self) -> int:
        return len(self.omegas) - 1

    def factorial_form(self) -> Residue:
        """sum omega_nu p^nu, an exact class modulo p^(depth+1)."""
        top = self.depth + 1
        acc = Residue(0, make_modulus(self.p, top))
        for nu, w in enumerate(self.omegas):
            acc = acc + w.reduce_to(top - nu).mul_p_power(nu)
        return acc

    def wilson_form(self, r: int | None = None) -> Residue:
        """sum_{nu=1..r} omega_nu p^(nu-1) modulo p^r (default r = depth)."""
        r = self.depth if r is None else r
        if not 1 <= r <= self.depth:
            raise ValueError(f"need 1 <= r <= {self.depth}")
        acc = Residue(0, make_modulus(self.p, self.depth))
        for nu in range(1, r + 1):
            acc = acc + self.omegas[nu].reduce_to(self.depth + 1 - nu).mul_p_power(nu - 1)
        return acc.reduce_to(r)


def omega_vector(p: int, bset: DividedBernoulliSet, depth: int) -> OmegaVector:
    """The coefficient ladder at depth 5 (p >= 7) or depth 6 (p >= 11)."""
    if depth == 5:
        table, min_p = _OMEGA_DEPTH5, 7
    elif depth == 6:
        table, min_p = _OMEGA_DEPTH6, 11
    else:
        raise ValueError(f"unsupported depth {depth}")
    if p < min_p:
        raise ValueError(f"depth {depth} needs p >= {min_p}, got {p}")
    top = depth + 1
    omegas = [Residue(-1, make_modulus(p, top))]
    for nu in range(1, depth + 1):
        omegas.append(table[nu](_Acc(p, bset, top - nu)))
    return OmegaVector(p=p, omegas=tuple(omegas))


# -- congruences for the scaled power sums (p^(n-1)/n) Q_p(n) ----------------
#
# Each form is a list of (t, builder): the builder produces the coefficient of
# p^t at precision (level - t).  The leading block carries no power of p.
# The level-6 forms hold for p >= 11, the level-5 ones for p >= 7.

_Blocks = Sequence[tuple[int, Callable[[_Acc], Residue]]]

_QTILDE_MAIN_L6: dict[int, _Blocks] = {
    1: ((0, lambda t: (t.p - 1) * t.b(1)),
        (2, lambda t: -t.b2(1)),
        (3, lambda t: F(11, 6) * t.b2(1)),
        (4, lambda t: -(t.b2(1) + t.b4(1))),
        (5, lambda t: F(1, 6) * t.b2(1) + F(137, 60) * t.b4(1))),
    2: ((0, lambda t: (t.p - 1) * (t.b(2) - t.b(1))),
        (2, lambda t: t.b2(1) - 2 * t.b2(2)),
        (3, lambda t: F(-11, 6) * t.b2(1) + F(13, 3) * t.b2(2)),
        (4, lambda t: t.b2(1) - 3 * t.b2(2) + t.b4(1) - 3 * t.b4(2)),
        (5, lambda t: F(1, 2) * t.b2(1) + F(77, 12) * t.b4(1))),
    3: ((0, lambda t: (t.p - 1) * (t.b(3) - 2 * t.b(2) + t.b(1))),
        (2, lambda t: -t.b2(1) + 4 * t.b2(2) - F(10, 3) * t.b2(3)),
        (3, lambda t: F(11, 6) * t.b2(1) - F(26, 3) * t.b2(2) + F(47, 6) * t.b2(3)),
        (4, lambda t: 5 * t.b2(1) - 6 * t.b2(2) + 6 * t.b4(1) - 8 * t.b4(2)),
        (5, lambda t: F(1, 3) * t.b2(1) + F(47, 6) * t.b4(1))),
    4: ((0, lambda t: (t.p - 1) * (t.b(4) - 3 * t.b(3) + 3 * t.b(2) - t.b(1))),
        (2, lambda t: t.b2(1) - 6 * t.b2(2) + 10 * t.b2(3) - 5 * t.b2(4)),
        (3, lambda t: F(21, 2) * t.b2(1) - 24 * t.b2(2) + F(27, 2) * t.b2(3)),
        (4, lambda t: 3 * t.b2(1) - 3 * t.b2(2) + 8 * t.b4(1) - 9 * t.b4(2)),
        (5, lambda t: F(9, 2) * t.b4(1))),
    5: ((0, lambda t: (t.p - 1) * (t.b(5) - 4 * t.b(4) + 6 * t.b(3) - 4 * t.b(2) + t.b(1))),
        (2, lambda t: 6 * t.b2(1) - 20 * t.b2(2) + 22 * t.b2(3) - 8 * t.b2(4)),
        (3, lambda t: 6 * t.b2(1) - 12 * t.b2(2) + 6 * t.b2(3)),
        (4, lambda t: F(23, 5) * t.b4(1) - F(24, 5) * t.b4(2)),
        (5, lambda t: t.b4(1))),
    6: ((0, lambda t: -(t.b(6) - 5 * t.b(5) + 10 * t.b(4) - 10 * t.b(3) + 5 * t.b(2) - t.b(1))),
        (2, lambda t: F(10, 3) * t.b2(1) - 10 * t.b2(2) + 10 * t.b2(3) - F(10, 3) * t.b2(4)),
        (4, lambda t: t.b4(1) - t.b4(2))),
}

_QTILDE_MAIN_L5: dict[int, _Blocks] = {
    1: ((0, lambda t: (t.p - 1) * t.b(1)),
        (2, lambda t: -t.b2(1)),
        (3, lambda t: F(11, 6) * t.b2(1)),
        (4, lambda t: -(t.b2(1) + t.b4(1)))),
    2: ((0, lambda t: (t.p - 1) * (t.b(2) - t.b(1))),
        (2, lambda t: t.b2(1) - 2 * t.b2(2)),
        (3, lambda t: F(-11, 6) * t.b2(1) + F(13, 3) * t.b2(2)),
        (4, lambda t: -(2 * t.b2(1) + 2 * t.b4(1)))),
    3: ((0, lambda t: (t.p - 1) * (t.b(3) - 2 * t.b(2) + t.b(1))),
        (2, lambda t: -t.b2(1) + 4 * t.b2(2) - F(10, 3) * t.b2(3)),
        (3, lambda t: -6 * t.b2(1) + 7 * t.b2(2)),
        (4, lambda t: -(t.b2(1) + 2 * t.b4(1)))),
    4: ((0, lambda t: (t.p - 1) * (t.b(4) - 3 * t.b(3) + 3 * t.b(2) - t.b(1))),
        (2, lambda t: -4 * t.b2(1) + 9 * t.b2(2) - 5 * t.b2(3)),
        (3, lambda t: -3 * t.b2(1) + 3 * t.b2(2)),
        (4, lambda t: -t.b4(1))),
    5: ((0, lambda t: -(t.b(5) - 4 * t.b(4) + 6 * t.b(3) - 4 * t.b(2) + t.b(1))),
        (2, lambda t: -2 * t.b2(1) + 4 * t.b2(2) - 2 * t.b2(3)),
        (4, lambda t: F(-1, 5) * t.b4(1))),
}

#: The depth-5 congruence for n=5 with its leading factor left as (p-1)
#: instead of the compacted -1.  The two variants differ by p times the fourth
#: difference of b(1..5), which vanishes mod p^5 only by Kummer's congruence,
#: so both are tested.
QTILDE_L5_N5_UNREDUCED: _Blocks = (
    (0, lambda t: (t.p - 1) * (t.b(5) - 4 * t.b(4) + 6 * t.b(3) - 4 * t.b(2) + t.b(1))),
    (2, lambda t: -2 * t.b2(1) + 4 * t.b2(2) - 2 * t.b2(3)),
    (4, lambda t: F(-1, 5) * t.b4(1)),
)


def _eval_blocks(blocks: _Blocks, p: int, bset: DividedBernoulliSet, level: int) -> Residue:
    acc = Residue(0, make_modulus(p, level))
    for t_pow, build in blocks:
        value = build(_Acc(p, bset, level - t_pow))
        acc = acc + value.mul_p_power(t_pow)
    return acc


def _check_level(n: int, p: int, level: int) -> None:
    if level == 6:
        if not 1 <= n <= 6:
            raise ValueError(f"level 6 supports n in 1..6, got {n}")
        if p < 11:
            raise ValueError(f"level 6 needs p >= 11, got {p}")
    elif level == 5:
        if not 1 <= n <= 5:
            raise ValueError(f"level 5 supports n in 1..5, got {n}")
        if p < 7:
            raise ValueError(f"level 5 needs p >= 7, got {p}")
    else:
        raise ValueError(f"unsupported level {level}")


def qtilde_rhs(n: int, p: int, level: int, bset: DividedBernoulliSet) -> Residue:
    """Closed form of (p^(n-1)/n) Q_p(n) mod p^level over divided Bernoulli
    numbers (level 6 for p >= 11, level 5 for p >= 7)."""
    _check_level(n, p, level)
    table = _QTILDE_MAIN_L6 if level == 6 else _QTILDE_MAIN_L5
    return _eval_blocks(table[n], p, bset, level)


def qtilde_l5_n5_unreduced(p: int, bset: DividedBernoulliSet) -> Residue:
    """The (p-1)-leading variant of the depth-5, n=5 congruence."""
    return _eval_blocks(QTILDE_L5_N5_UNREDUCED, p, bset, 5)


# -- coefficient-vector form --------------------------------------------------


@dataclass(frozen=True)
class CoefficientTables:
    """The per-n coefficient vectors of the two difference-operator
    expansions, exactly as printed."""

    level5: Mapping[str, tuple[Fraction, ...]]
    level6: Mapping[str, tuple[Fraction, ...]]


def _fr(*xs) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in xs)


COEFF_TABLES = CoefficientTables(
    level5={
        "alpha": _fr(-1, 2, -3, -16, -10),
        "alpha_p": _fr(0, -4, 12, 36, 20),
        "alpha_pp": _fr(0, 0, -10, -20, -10),
        "beta": _fr(F(11, 6), F(-11, 3), -18, -12, 0),
        "beta_p": _fr(0, F(26, 3), 21, 12, 0),
        "gamma": _fr(-1, -4, -3, 0, 0),
        "delta": _fr(-1, -4, -6, -4, -1),
    },
    level6={
        "alpha": _fr(-1, 2, -3, 4, 30, 20),
        "alpha_p": _fr(0, -4, 12, -24, -100, -60),
        "alpha_pp": _fr(0, 0, -10, 40, 110, 60),
        "alpha_ppp": _fr(0, 0, 0, -20, -40, -20),
        "beta": _fr(F(11, 6), F(-11, 3), F(11, 2), 42, 30, 0),
        "beta_p": _fr(0, F(26, 3), -26, -96, -60, 0),
        "beta_pp": _fr(0, 0, F(47, 2), 54, 30, 0),
        "gamma": _fr(-1, 2, 15, 12, 0, 0),
        "gamma_p": _fr(0, -6, -18, -12, 0, 0),
        "delta": _fr(F(1, 6), 1, 1, 0, 0, 0),
        "epsilon": _fr(-1, 2, 18, 32, 23, 6),
        "epsilon_p": _fr(0, -6, -24, -36, -24, -6),
        "eta": _fr(F(137, 60), F(77, 6), F(47, 2), 18, 5, 0),
    },
)

# per power of p: (vector name, index offset d, family multiplier j) so the
# block is sum over entries of vec[n] * value_at(j(p-1) - d).
_VEC_BLOCKS_L5 = {
    2: (("alpha", 2, 1), ("alpha_p", 2, 2), ("alpha_pp", 2, 3)),
    3: (("beta", 2, 1), ("beta_p", 2, 2)),
    4: (("gamma", 2, 1), ("delta", 4, 1)),
}
_VEC_BLOCKS_L6 = {
    2: (("alpha", 2, 1), ("alpha_p", 2, 2), ("alpha_pp", 2, 3), ("alpha_ppp", 2, 4)),
    3: (("beta", 2, 1), ("beta_p", 2, 2), ("beta_pp", 2, 3)),
    4: (("gamma", 2, 1), ("gamma_p", 2, 2), ("epsilon", 4, 1), ("epsilon_p", 4, 2)),
    5: (("delta", 2, 1), ("eta", 4, 1)),
}


def qtilde_via_coefficients(
    n: int,
    p: int,
    tables: CoefficientTables = COEFF_TABLES,
    level: int = 6,
) -> Residue:
    """(p^(n-1)/n) Q_p(n) mod p^level from the difference-operator expansion
    with the printed coefficient vectors, evaluating divided Bernoulli values
    directly (no prebuilt set)."""
    _check_level(n, p, level)
    h = p - 1
    vectors = tables.level6 if level == 6 else tables.level5
    blocks = _VEC_BLOCKS_L6 if level == 6 else _VEC_BLOCKS_L5

    lead_mod = make_modulus(p, level)
    lead = (p - 1) * forward_difference(
        lambda nu: bnpd(nu, lead_mod), h, n - 1, start=h
    )
    rest = Residue(0, lead_mod)
    for t_pow, entries in blocks.items():
        prec = level - t_pow
        combo = Residue(0, make_modulus(p, prec))
        for name, d, j in entries:
            coeff = vectors[name][n - 1]
            if coeff:
                combo = combo + coeff * bnpd(j * h - d, make_modulus(p, prec))
        rest = rest + combo.mul_p_power(t_pow)
    return lead + F(1, n) * rest


# -- Wilson quotient through power sums ---------------------------------------


def wilson_from_power_sums(p: int, r: int) -> Residue:
    """W_p mod p^r as the sum of the scaled expansion polynomials evaluated
    at the directly computed scaled power sums; needs odd p > r."""
    if not 1 <= r <= 6:
        raise ValueError(f"need 1 <= r <= 6, got {r}")
    if p <= r or p == 2:
        raise ValueError(f"need odd p > r, got p={p}, r={r}")
    values = [qtilde(nu, p, r) for nu in range(1, r + 1)]
    acc = Residue(0, make_modulus(p, r))
    for nu in range(1, r + 1):
        acc = acc + ptilde_eval(nu, values[:nu])
    return acc


# -- zero expressions ----------------------------------------------------------
#
# Combinations of divided Bernoulli values that vanish at the stated power of
# p; these are the cancellations that compact the raw coefficient collections
# into the closed forms above.

ZERO_EXPRESSIONS: tuple[tuple[str, int, Callable[[_Acc], Residue]], ...] = (
    ("second-diff-square", 4,
     lambda t: F(5, 2) * (t.b(1) - 2 * t.b(2) + t.b(3)) ** 2),
    ("d1-times-d2", 3,
     lambda t: -2 * (t.b(1) - t.b(2)) * (t.b(1) - 2 * t.b(2) + t.b(3))),
    ("w41-compact", 2,
     lambda t: F(3, 2) * (t.b(1) - t.b(2)) ** 2 * (1 + t.b(1))),
    ("w41-raw", 2,
     lambda t: (F(3, 2) * t.b(1) ** 2 - 2 * t.b(1) * t.b(2) - F(1, 2) * t.b(2) ** 2
                + t.b(2) * t.b(3)
                + t.b(1) * (F(5, 2) * t.b(1) ** 2 - 5 * t.b(1) * t.b(2)
                            + t.b(1) * t.b(3) + F(3, 2) * t.b(2) ** 2))),
    ("bnd-d1-product", 2,
     lambda t: F(-1, 3) * (t.b2(1) - t.b2(2)) * (t.b(1) - t.b(2))),
    ("d1-times-d4", 5,
     lambda t: (t.b(1) - t.b(2)) * (t.b(1) - 4 * t.b(2) + 6 * t.b(3)
                                    - 4 * t.b(4) + t.b(5))),
    ("d2sq-plus-d1d3", 4,
     lambda t: (-((t.b(1) - 2 * t.b(2) + t.b(3)) ** 2)
                - 2 * (t.b(1) - t.b(2)) * (t.b(1) - 3 * t.b(2) + 3 * t.b(3) - t.b(4)))),
    ("w31-raw", 4,
     lambda t: (t.b(1) * (4 * t.b(1) - 16 * t.b(2) + 14 * t.b(3) - 6 * t.b(4) + t.b(5))
                + t.b(2) * (10 * t.b(2) - 10 * t.b(3) + 2 * t.b(4)) + t.b(3) ** 2)),
    ("cubic-combination", 3,
     lambda t: (F(1, 2) * (t.b(1) - 2 * t.b(2) + t.b(3)) ** 2
                - F(1, 2) * (t.b(1) - t.b(2)) ** 3
                - 3 * (t.b(1) - t.b(2)) * (t.b(1) - 2 * t.b(2) + t.b(3)) * (1 + t.b(1)))),
    ("w41-raw-deep", 3,
     lambda t: (t.b(1) * (F(5, 2) * t.b(1) - 6 * t.b(2) + 2 * t.b(3))
                + t.b(1) ** 2 * (F(9, 2) * t.b(1) - F(27, 2) * t.b(2) + 6 * t.b(3) - t.b(4))
                + t.b(2) * (t.b(2) + 2 * t.b(3) - t.b(4) - 3 * t.b(1) * t.b(3))
                + t.b(2) ** 2 * (F(15, 2) * t.b(1) - F(1, 2) * t.b(2))
                - F(1, 2) * t.b(3) ** 2)),
    ("bnd-second-diff", 3,
     lambda t: ((3 * (t.b(1) - 2 * t.b(2) + t.b(3)) - (t.b(1) - t.b(2)))
                * (t.b2(1) - 2 * t.b2(2) + t.b2(3)))),
    ("w51-raw", 2,
     lambda t: (t.b(1) * (t.b(1) - F(9, 2) * t.b(2) ** 2 + t.b(1) * t.b(2) ** 2)
                + t.b(2) * (-2 * t.b(2) + F(1, 2) * t.b(2) ** 2)
                + t.b(1) ** 2 * (F(1, 2) * t.b(1) + 3 * t.b(2) - 3 * t.b(3) + F(1, 2) * t.b(4))
                + t.b(1) ** 3 * (F(3, 2) * t.b(1) - 3 * t.b(2) + F(1, 2) * t.b(3))
                + t.b(3) * (-t.b(1) + 2 * t.b(2) + 3 * t.b(1) * t.b(2)))),
    ("w51-compact", 2,
     lambda t: (F(1, 2) * (t.b(1) - t.b(2)) ** 2
                * (4 + 5 * t.b(1) + 2 * t.b(1) ** 2 + t.b(2)))),
    ("w52-raw", 2,
     lambda t: (t.b2(1) * (F(17, 6) * t.b(1) - 12 * t.b(2) + F(56, 3) * t.b(3)
                           - 11 * t.b(4) + F(11, 6) * t.b(5))
                + t.b2(2) * (-5 * t.b(1) + F(49, 3) * t.b(2) - F(55, 3) * t.b(3)
                             + F(19, 3) * t.b(4))
                + t.b2(3) * (2 * t.b(1) - 5 * t.b(2) + F(10, 3) * t.b(3)))),
    ("w52-compact", 2,
     lambda t: 2 * (t.b2(1) - t.b2(2)) * (t.b(1) - t.b(2))),
    ("bnd-d1-square", 2,
     lambda t: (t.b2(1) - t.b2(2)) * (t.b(1) - t.b(2)) ** 2),
)


def zero_expression_suite(p: int, bset: DividedBernoulliSet) -> list[CheckResult]:
    """Evaluate every recorded vanishing combination at its stated modulus."""
    out = []
    for name, r, build in ZERO_EXPRESSIONS:
        value = build(_Acc(p, bset, r))
        out.append(
            CheckResult(
                p=p, tag="zero-exprs", case=name,
                lhs=str(value.value), rhs="0", modulus=str(p**r),
                passed=value.is_zero(),
            )
        )
    return out


# -- first-order (mod p) forms of the expansion coefficients -------------------

_OMEGA_MOD_P: dict[int, Callable[[_Acc], Residue]] = {
    1: lambda t: -t.b(1),
    2: lambda t: F(-1, 2) * t.b(1) ** 2,
    3: lambda t: F(-1, 6) * t.b(1) ** 3 - F(1, 3) * t.b2(1),
    4: lambda t: F(-1, 24) * t.b(1) ** 4 - F(1, 3) * t.b(1) * t.b2(1),
    5: lambda t: (F(-1, 120) * t.b(1) ** 5 - F(1, 6) * t.b(1) ** 2 * t.b2(1)
                  - F(1, 5) * t.b4(1)),
    6: lambda t: (F(-1, 720) * t.b(1) ** 6 - F(1, 18) * t.b(1) ** 3 * t.b2(1)
                  - F(1, 5) * t.b(1) * t.b4(1) - F(1, 18) * t.b2(1) ** 2),
}


def omega_mod_p_rhs(nu: int, p: int, bset: DividedBernoulliSet) -> Residue:
    """The single-digit (mod p) closed form of omega_nu, 0 <= nu <= 6."""
    if nu == 0:
        return Residue(-1, make_modulus(p, 1))
    if nu not in _OMEGA_MOD_P:
        raise ValueError(f"no mod-p form for index {nu}")
    return _OMEGA_MOD_P[nu](_Acc(p, bset, 1))


def omega5_reduction_rows(p: int, bset: DividedBernoulliSet) -> list[tuple[str, Residue, Residue]]:
    """The three term groups of omega_5 mod p^2 next to their mod-p images;
    each pair must agree mod p."""
    t = _Acc(p, bset, 1)
    rows = [
        ("pure-power-terms",
         F(-1, 20) * t.b(1) ** 5 + F(1, 24) * t.b(1) ** 4 * t.b(2),
         F(-1, 120) * t.b(1) ** 5),
        ("mixed-bnd2-terms",
         (F(-1, 3) * t.b(1) * t.b(2) * t.b2(1) - F(1, 2) * t.b(1) ** 2 * t.b2(2)
          + F(2, 3) * t.b(1) * t.b(2) * t.b2(2)),
         F(-1, 6) * t.b(1) ** 2 * t.b2(1)),
        ("bnd4-terms",
         F(-2, 5) * t.b4(1) + F(1, 5) * t.b4(2),
         F(-1, 5) * t.b4(1)),
    ]
    return rows
