"""Closed-form right-hand sides over divided Bernoulli numbers.

Every display is transcribed exactly once into a small builder function; the
modulus each coefficient is stated at travels with it, and evaluation never
exceeds that stated precision.  A builder receives an accessor ``t`` fixed at
one precision r: ``t.b(n)``, ``t.b2(n)`` and ``t.b4(n)`` are the set values
as integer representatives mod p^r (asking for more digits than the set
holds raises), and ``t.F(a, b)`` is a * b^-1 mod p^r (raising when p divides
b).  A display is thus plain integer arithmetic on representatives at its
stated precision; its result must be an ``int``, and it becomes a
``Residue`` once, when the display is done.  Contributions carrying an
explicit power p^t are built at precision (target - t) and summed by
:func:`_lift`, so each final value is a well-defined class at the target
modulus.

One display reads no divided set: ``PTILDE``, the Wilson quotient through
the scaled Fermat-quotient power sums Q~_n = (p^(n-1)/n) Q_p(n), whose
builders take the sums as integer representatives after ``t`` (there ``t``
only supplies ``t.p`` and ``t.F``); the caller hands in the sums, and this
module imports nothing from ``oracles``.  The coefficient-vector route,
:func:`qtilde_via_coefficients`, evaluates the printed vectors as blocks of
the same shape as the closed forms', through the same evaluator.

Naming: b(n) is the divided Bernoulli value at index n(p-1) with the pole
removed, b2(n)/b4(n) the values at indices n(p-1)-2 and n(p-1)-4.  The
expansion coefficients of (p-1)! in base p are called omega_0..omega_R, with
omega_nu stated modulo p^(R+1-nu); a ladder is the plain tuple of them, and
:func:`factorial_form` lifts it to (p-1)! mod p^(R+1).
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Iterable, Sequence

from .bernoulli import MIN_P, DividedSet, forward_difference
from .residues import Residue, make_modulus, ratio_mod

F = Fraction


class _Acc:
    """Accessor handing out set values as integers at one fixed precision;
    the only reader of a divided set."""

    __slots__ = ("p", "_set", "prec", "mod")

    def __init__(self, p: int, bset: DividedSet, prec: int):
        self.p = p
        self._set = bset
        self.prec = prec
        self.mod = make_modulus(p, prec).value

    def _int(self, n: int, d: int) -> int:
        value = self._set.get((n, d))
        if value is None:
            raise ValueError(f"missing cache entry: (n={n}, d={d}) (p={self.p})")
        if value.modulus.p != self.p:
            raise ValueError(f"divided set built for p={value.modulus.p}, read at p={self.p}")
        if value.modulus.r < self.prec:
            raise ValueError(f"cannot raise precision from {value.precision} to {self.prec}")
        return value.value % self.mod

    def b(self, n: int) -> int:
        return self._int(n, 0)

    def b2(self, n: int) -> int:
        return self._int(n, 2)

    def b4(self, n: int) -> int:
        return self._int(n, 4)

    def F(self, a: int, b: int) -> int:
        """The rational a/b as an integer mod p^prec; b must be a unit."""
        return ratio_mod(a, b, self.p, self.mod)


#: A transcribed display: an integer representative at its accessor's precision.
_Display = Callable[[_Acc], int]


def _residue(value: int, p: int, prec: int) -> Residue:
    """Wrap an assembled integer as its class mod p^prec; anything but an
    ``int`` (a stray ``Fraction``, say) means a display left the integer
    path and is refused rather than reported."""
    if not isinstance(value, int):
        raise TypeError(f"closed form gave {type(value).__name__}, not int")
    return Residue(value, make_modulus(p, prec))


def _lift(terms: Iterable[tuple[int, int]], p: int, level: int) -> Residue:
    """sum x * p^t over the (t, x) pairs as a class mod p^level, which is
    well defined when each x is known mod p^(level - t)."""
    return _residue(sum(x * p**t for t, x in terms), p, level)


# -- factorial / Wilson-quotient expansion coefficients ----------------------

#: Depth -> the named term groups of omega_5 at that depth, stated mod
#: p^(depth-4); omega_5 is their sum, and each depth-6 group agrees mod p
#: with the depth-5 group of its name.
_OMEGA5_TERMS: dict[int, dict[str, _Display]] = {
    5: {
        "pure-power-terms": lambda t: t.F(-1, 120) * t.b(1) ** 5,
        "mixed-bnd2-terms": lambda t: t.F(-1, 6) * t.b(1) ** 2 * t.b2(1),
        "bnd4-terms": lambda t: t.F(-1, 5) * t.b4(1),
    },
    6: {
        "pure-power-terms": lambda t: t.F(-1, 20) * t.b(1) ** 5 + t.F(1, 24) * t.b(1) ** 4 * t.b(2),
        "mixed-bnd2-terms": lambda t: (t.F(-1, 3) * t.b(1) * t.b(2) * t.b2(1)
                                       - t.F(1, 2) * t.b(1) ** 2 * t.b2(2)
                                       + t.F(2, 3) * t.b(1) * t.b(2) * t.b2(2)),
        "bnd4-terms": lambda t: t.F(-2, 5) * t.b4(1) + t.F(1, 5) * t.b4(2),
    },
}

#: Depth -> nu -> the display of omega_nu, stated mod p^(depth+1-nu).
_OMEGA: dict[int, dict[int, _Display]] = {
    5: {
        1: lambda t: -5 * t.b(1) + 10 * t.b(2) - 10 * t.b(3) + 5 * t.b(4) - t.b(5),
        2: lambda t: (t.F(-5, 2) * t.b(1) ** 2 + t.F(15, 2) * t.b(2) ** 2 + t.F(5, 2) * t.b(3) ** 2
                      + t.b(1) * t.b(4) - 9 * t.b(2) * t.b(3)),
        3: lambda t: (t.F(-1, 2) * t.b(1) * t.b(2) ** 2
                      - t.b(1) ** 2 * (t.F(5, 3) * t.b(1) - t.F(5, 2) * t.b(2) + t.F(1, 2) * t.b(3))
                      - t.b2(1) + t.b2(2) - t.F(1, 3) * t.b2(3)),
        4: lambda t: (t.F(-5, 24) * t.b(1) ** 4 + t.F(1, 6) * t.b(1) ** 3 * t.b(2)
                      - t.F(2, 3) * t.b(1) * t.b2(1) + t.F(1, 3) * t.b(2) * t.b2(2)),
        5: lambda t: sum(group(t) for group in _OMEGA5_TERMS[5].values()),
    },
    6: {
        1: lambda t: (-6 * t.b(1) + 15 * t.b(2) - 20 * t.b(3) + 15 * t.b(4)
                      - 6 * t.b(5) + t.b(6)),
        2: lambda t: (t.b(1) * (t.F(-13, 2) * t.b(1) + 15 * t.b(2) - 9 * t.b(3) + 2 * t.b(4))
                      + t.b(2) * (t.F(-7, 2) * t.b(2) + 3 * t.b(4) - t.b(5))
                      - t.F(1, 2) * t.b(3) ** 2),
        3: lambda t: (t.b(1) ** 2 * (t.F(-10, 3) * t.b(1) + t.F(15, 2) * t.b(2)
                                     - 3 * t.b(3) + t.F(1, 2) * t.b(4))
                      + t.b(2) ** 2 * (-3 * t.b(1) + t.F(1, 6) * t.b(2))
                      + t.b(1) * t.b(2) * t.b(3)
                      - t.F(4, 3) * t.b2(1) + 2 * t.b2(2) - t.F(4, 3) * t.b2(3)
                      + t.F(1, 3) * t.b2(4)),
        4: lambda t: (t.b(1) ** 3 * (t.F(-5, 8) * t.b(1) + t.b(2) - t.F(1, 6) * t.b(3))
                      - t.F(1, 4) * t.b(1) ** 2 * t.b(2) ** 2
                      - t.b(1) * t.b2(1) + t.b(2) * t.b2(2) - t.F(1, 3) * t.b(3) * t.b2(3)),
        5: lambda t: sum(group(t) for group in _OMEGA5_TERMS[6].values()),
        6: lambda t: (t.F(-1, 720) * t.b(1) ** 6 - t.F(1, 18) * t.b(1) ** 3 * t.b2(1)
                      - t.F(1, 18) * t.b2(1) ** 2 - t.F(1, 5) * t.b(1) * t.b4(1)),
    },
}


def omega_vector(p: int, bset: DividedSet, depth: int) -> tuple[Residue, ...]:
    """The coefficient ladder omega_0..omega_depth at a depth of ``_OMEGA``,
    omega_nu mod p^(depth+1-nu), for p from ``MIN_P[depth]``."""
    if depth not in _OMEGA:
        raise ValueError(f"unsupported depth {depth}")
    if p < MIN_P[depth]:
        raise ValueError(f"depth {depth} needs p >= {MIN_P[depth]}, got {p}")
    top = depth + 1
    omegas = [Residue(-1, make_modulus(p, top))]
    for nu in range(1, depth + 1):
        omegas.append(_residue(_OMEGA[depth][nu](_Acc(p, bset, top - nu)), p, top - nu))
    return tuple(omegas)


def factorial_form(omegas: Sequence[Residue]) -> Residue:
    """sum omega_nu p^nu over a ladder, a class mod p^len(omegas)."""
    return _lift(enumerate(w.value for w in omegas), omegas[0].p, len(omegas))


# -- congruences for the scaled power sums (p^(n-1)/n) Q_p(n) ----------------
#
# Each form is a list of (t, builder): the builder produces the coefficient of
# p^t at precision (level - t).  The leading block carries no power of p.
# The forms of each level (depth) hold for p >= MIN_P[level].

_Blocks = Sequence[tuple[int, _Display]]

_QTILDE_MAIN: dict[int, dict[int, _Blocks]] = {
    5: {
        1: ((0, lambda t: (t.p - 1) * t.b(1)),
            (2, lambda t: -t.b2(1)),
            (3, lambda t: t.F(11, 6) * t.b2(1)),
            (4, lambda t: -(t.b2(1) + t.b4(1)))),
        2: ((0, lambda t: (t.p - 1) * (t.b(2) - t.b(1))),
            (2, lambda t: t.b2(1) - 2 * t.b2(2)),
            (3, lambda t: t.F(-11, 6) * t.b2(1) + t.F(13, 3) * t.b2(2)),
            (4, lambda t: -(2 * t.b2(1) + 2 * t.b4(1)))),
        3: ((0, lambda t: (t.p - 1) * (t.b(3) - 2 * t.b(2) + t.b(1))),
            (2, lambda t: -t.b2(1) + 4 * t.b2(2) - t.F(10, 3) * t.b2(3)),
            (3, lambda t: -6 * t.b2(1) + 7 * t.b2(2)),
            (4, lambda t: -(t.b2(1) + 2 * t.b4(1)))),
        4: ((0, lambda t: (t.p - 1) * (t.b(4) - 3 * t.b(3) + 3 * t.b(2) - t.b(1))),
            (2, lambda t: -4 * t.b2(1) + 9 * t.b2(2) - 5 * t.b2(3)),
            (3, lambda t: -3 * t.b2(1) + 3 * t.b2(2)),
            (4, lambda t: -t.b4(1))),
        5: ((0, lambda t: -(t.b(5) - 4 * t.b(4) + 6 * t.b(3) - 4 * t.b(2) + t.b(1))),
            (2, lambda t: -2 * t.b2(1) + 4 * t.b2(2) - 2 * t.b2(3)),
            (4, lambda t: t.F(-1, 5) * t.b4(1))),
    },
}

#: The p^6 forms open with the p^5 forms' leading blocks, unchanged.
_QTILDE_MAIN[6] = {
    1: (*_QTILDE_MAIN[5][1][:4],
        (5, lambda t: t.F(1, 6) * t.b2(1) + t.F(137, 60) * t.b4(1))),
    2: (*_QTILDE_MAIN[5][2][:3],
        (4, lambda t: t.b2(1) - 3 * t.b2(2) + t.b4(1) - 3 * t.b4(2)),
        (5, lambda t: t.F(1, 2) * t.b2(1) + t.F(77, 12) * t.b4(1))),
    3: (*_QTILDE_MAIN[5][3][:2],
        (3, lambda t: t.F(11, 6) * t.b2(1) - t.F(26, 3) * t.b2(2) + t.F(47, 6) * t.b2(3)),
        (4, lambda t: 5 * t.b2(1) - 6 * t.b2(2) + 6 * t.b4(1) - 8 * t.b4(2)),
        (5, lambda t: t.F(1, 3) * t.b2(1) + t.F(47, 6) * t.b4(1))),
    4: (*_QTILDE_MAIN[5][4][:1],
        (2, lambda t: t.b2(1) - 6 * t.b2(2) + 10 * t.b2(3) - 5 * t.b2(4)),
        (3, lambda t: t.F(21, 2) * t.b2(1) - 24 * t.b2(2) + t.F(27, 2) * t.b2(3)),
        (4, lambda t: 3 * t.b2(1) - 3 * t.b2(2) + 8 * t.b4(1) - 9 * t.b4(2)),
        (5, lambda t: t.F(9, 2) * t.b4(1))),
    5: ((0, lambda t: (t.p - 1) * (t.b(5) - 4 * t.b(4) + 6 * t.b(3) - 4 * t.b(2) + t.b(1))),
        (2, lambda t: 6 * t.b2(1) - 20 * t.b2(2) + 22 * t.b2(3) - 8 * t.b2(4)),
        (3, lambda t: 6 * t.b2(1) - 12 * t.b2(2) + 6 * t.b2(3)),
        (4, lambda t: t.F(23, 5) * t.b4(1) - t.F(24, 5) * t.b4(2)),
        (5, lambda t: t.b4(1))),
    6: ((0, lambda t: -(t.b(6) - 5 * t.b(5) + 10 * t.b(4) - 10 * t.b(3) + 5 * t.b(2) - t.b(1))),
        (2, lambda t: (t.F(10, 3) * t.b2(1) - 10 * t.b2(2) + 10 * t.b2(3)
                       - t.F(10, 3) * t.b2(4))),
        (4, lambda t: t.b4(1) - t.b4(2))),
}

#: The depth-5 congruence for n=5 with its leading factor left as (p-1)
#: instead of the compacted -1: the p^6 form's lead block, then the compact
#: form's p^2 and p^4 blocks.  The two variants differ by p times the fourth
#: difference of b(1..5), which vanishes mod p^5 only by Kummer's congruence,
#: so both are tested.
QTILDE_L5_N5_UNREDUCED: _Blocks = (_QTILDE_MAIN[6][5][0], *_QTILDE_MAIN[5][5][1:])


def _eval_blocks(blocks: _Blocks, p: int, bset: DividedSet, level: int) -> Residue:
    return _lift(((t, build(_Acc(p, bset, level - t))) for t, build in blocks), p, level)


def _check_level(n: int, p: int, level: int) -> None:
    if level not in MIN_P:
        raise ValueError(f"unsupported level {level}")
    if not 1 <= n <= level:
        raise ValueError(f"level {level} supports n in 1..{level}, got {n}")
    if p < MIN_P[level]:
        raise ValueError(f"level {level} needs p >= {MIN_P[level]}, got {p}")


def qtilde_rhs(n: int, p: int, level: int, bset: DividedSet) -> Residue:
    """Closed form of (p^(n-1)/n) Q_p(n) mod p^level over divided Bernoulli
    numbers, for p >= MIN_P[level]."""
    _check_level(n, p, level)
    return _eval_blocks(_QTILDE_MAIN[level][n], p, bset, level)


def qtilde_l5_n5_unreduced(p: int, bset: DividedSet) -> Residue:
    """The (p-1)-leading variant of the depth-5, n=5 congruence."""
    return _eval_blocks(QTILDE_L5_N5_UNREDUCED, p, bset, 5)


# -- coefficient-vector form --------------------------------------------------


#: Level -> the per-n coefficient vectors of the difference-operator
#: expansion at that level, exactly as printed.
COEFF_TABLES: dict[int, dict[str, tuple[int | Fraction, ...]]] = {
    5: {
        "alpha": (-1, 2, -3, -16, -10),
        "alpha_p": (0, -4, 12, 36, 20),
        "alpha_pp": (0, 0, -10, -20, -10),
        "beta": (F(11, 6), F(-11, 3), -18, -12, 0),
        "beta_p": (0, F(26, 3), 21, 12, 0),
        "gamma": (-1, -4, -3, 0, 0),
        "delta": (-1, -4, -6, -4, -1),
    },
    6: {
        "alpha": (-1, 2, -3, 4, 30, 20),
        "alpha_p": (0, -4, 12, -24, -100, -60),
        "alpha_pp": (0, 0, -10, 40, 110, 60),
        "alpha_ppp": (0, 0, 0, -20, -40, -20),
        "beta": (F(11, 6), F(-11, 3), F(11, 2), 42, 30, 0),
        "beta_p": (0, F(26, 3), -26, -96, -60, 0),
        "beta_pp": (0, 0, F(47, 2), 54, 30, 0),
        "gamma": (-1, 2, 15, 12, 0, 0),
        "gamma_p": (0, -6, -18, -12, 0, 0),
        "delta": (F(1, 6), 1, 1, 0, 0, 0),
        "epsilon": (-1, 2, 18, 32, 23, 6),
        "epsilon_p": (0, -6, -24, -36, -24, -6),
        "eta": (F(137, 60), F(77, 6), F(47, 2), 18, 5, 0),
    },
}

# Level -> per power of p: (vector name, index offset d, family multiplier j)
# so the block is sum over entries of vec[n] * value_at(j(p-1) - d).
_VEC_BLOCKS = {
    5: {
        2: (("alpha", 2, 1), ("alpha_p", 2, 2), ("alpha_pp", 2, 3)),
        3: (("beta", 2, 1), ("beta_p", 2, 2)),
        4: (("gamma", 2, 1), ("delta", 4, 1)),
    },
    6: {
        2: (("alpha", 2, 1), ("alpha_p", 2, 2), ("alpha_pp", 2, 3), ("alpha_ppp", 2, 4)),
        3: (("beta", 2, 1), ("beta_p", 2, 2), ("beta_pp", 2, 3)),
        4: (("gamma", 2, 1), ("gamma_p", 2, 2), ("epsilon", 4, 1), ("epsilon_p", 4, 2)),
        5: (("delta", 2, 1), ("eta", 4, 1)),
    },
}


def _difference_lead(n: int) -> _Display:
    return lambda t: (t.p - 1) * forward_difference(t.b, 1, n - 1, start=1)


def _vector_block(level: int, t_pow: int, n: int) -> _Display:
    return lambda t: t.F(1, n) * sum(
        t.F(c.numerator, c.denominator) * (t.b2(j) if d == 2 else t.b4(j))
        for name, d, j in _VEC_BLOCKS[level][t_pow] if (c := COEFF_TABLES[level][name][n - 1]))


#: Level -> n -> the difference-operator form, in blocks as ``_QTILDE_MAIN``:
#: (p-1) times the (n-1)-th forward difference of b(1..n), then for each p^t
#: of ``_VEC_BLOCKS[level]`` 1/n times each vector's n-th entry against
#: b2(j) or b4(j), zeros read nothing.  A block reads both tables when run.
_QTILDE_VEC: dict[int, dict[int, _Blocks]] = {
    level: {n: ((0, _difference_lead(n)), *((t_pow, _vector_block(level, t_pow, n)) for t_pow in rows))
            for n in range(1, level + 1)}
    for level, rows in _VEC_BLOCKS.items()}


def qtilde_via_coefficients(n: int, p: int, level: int, bset: DividedSet) -> Residue:
    """(p^(n-1)/n) Q_p(n) mod p^level from the difference-operator expansion
    with the printed coefficient vectors (``_QTILDE_VEC``), read from the same
    divided set as :func:`qtilde_rhs`."""
    _check_level(n, p, level)
    return _eval_blocks(_QTILDE_VEC[level][n], p, bset, level)


# -- Wilson quotient through power sums ---------------------------------------

#: nu -> the member of weight nu-1 (p weighs 1, x_k weighs k-1) in the display
#: W_p = sum_{nu <= r} PTILDE[nu](t, x_1, ..., x_nu) mod p^r at the scaled
#: power sums x_k = (p^(k-1)/k) Q_p(k); the members past nu = r vanish mod p^r.
PTILDE: dict[int, Callable[..., int]] = {
    1: lambda t, x1: x1,
    2: lambda t, x1, x2: t.p * (x1 - t.F(1, 2) * x1**2) - x2,
    3: lambda t, x1, x2, x3: (t.p**2 * (x1 - x1**2 + t.F(1, 6) * x1**3)
                              + t.p * (x1 * x2 - x2) + x3),
    4: lambda t, x1, x2, x3, x4: (
        t.p**3 * (x1 - t.F(3, 2) * x1**2 + t.F(1, 2) * x1**3 - t.F(1, 24) * x1**4)
        + t.p**2 * (2 * x1 * x2 - t.F(1, 2) * x1**2 * x2 - x2)
        + t.p * (-t.F(1, 2) * x2**2 - x1 * x3 + x3) - x4),
    5: lambda t, x1, x2, x3, x4, x5: (
        t.p**4 * (x1 - 2 * x1**2 + x1**3 - t.F(1, 6) * x1**4 + t.F(1, 120) * x1**5)
        + t.p**3 * (3 * x1 * x2 - t.F(3, 2) * x1**2 * x2 + t.F(1, 6) * x1**3 * x2 - x2)
        + t.p**2 * (t.F(1, 2) * x1 * x2**2 - x2**2 - 2 * x1 * x3 + t.F(1, 2) * x1**2 * x3 + x3)
        + t.p * (x2 * x3 + x1 * x4 - x4) + x5),
    6: lambda t, x1, x2, x3, x4, x5, x6: (
        t.p**5 * (x1 - t.F(5, 2) * x1**2 + t.F(5, 3) * x1**3 - t.F(5, 12) * x1**4
                  + t.F(1, 24) * x1**5 - t.F(1, 720) * x1**6)
        + t.p**4 * (4 * x1 * x2 - 3 * x1**2 * x2 + t.F(2, 3) * x1**3 * x2
                    - t.F(1, 24) * x1**4 * x2 - x2)
        + t.p**3 * (t.F(3, 2) * x1 * x2**2 - t.F(1, 4) * x1**2 * x2**2 - t.F(3, 2) * x2**2
                    - 3 * x1 * x3 + t.F(3, 2) * x1**2 * x3 - t.F(1, 6) * x1**3 * x3 + x3)
        + t.p**2 * (-x1 * x2 * x3 + 2 * x2 * x3 - t.F(1, 6) * x2**3
                    + 2 * x1 * x4 - t.F(1, 2) * x1**2 * x4 - x4)
        + t.p * (-t.F(1, 2) * x3**2 - x2 * x4 - x1 * x5 + x5) - x6),
}


def wilson_from_power_sums(sums: Sequence[Residue]) -> Residue:
    """W_p mod p^r as the sum of the ``PTILDE`` members evaluated at the
    directly computed scaled power sums ``sums`` = (Q~_1, .., Q~_r), each mod
    p^r or finer, which the caller takes from the oracle; p and r are read
    from the sums, and need odd p > r."""
    r = len(sums)
    if not 1 <= r <= len(PTILDE):
        raise ValueError(f"need 1 <= r <= {len(PTILDE)}, got {r}")
    p = sums[0].p
    if p <= r or p == 2:
        raise ValueError(f"need odd p > r, got p={p}, r={r}")
    xs = [x.reduce_to(r).value for x in sums]
    t = _Acc(p, {}, r)
    return _residue(sum(PTILDE[nu](t, *xs[:nu]) for nu in range(1, r + 1)), p, r)


# -- zero expressions ----------------------------------------------------------
#
# Combinations of divided Bernoulli values that vanish at the stated power of
# p, the cancellations that compact the raw collections into the closed forms.
# Products of the differences the kummer rows check would restate those rows.

ZERO_EXPRESSIONS: tuple[tuple[str, int, _Display], ...] = (
    ("w41-raw", 2,
     lambda t: (t.F(3, 2) * t.b(1) ** 2 - 2 * t.b(1) * t.b(2) - t.F(1, 2) * t.b(2) ** 2
                + t.b(2) * t.b(3)
                + t.b(1) * (t.F(5, 2) * t.b(1) ** 2 - 5 * t.b(1) * t.b(2)
                            + t.b(1) * t.b(3) + t.F(3, 2) * t.b(2) ** 2))),
    ("w31-raw", 4,
     lambda t: (t.b(1) * (4 * t.b(1) - 16 * t.b(2) + 14 * t.b(3) - 6 * t.b(4) + t.b(5))
                + t.b(2) * (10 * t.b(2) - 10 * t.b(3) + 2 * t.b(4)) + t.b(3) ** 2)),
    ("w41-raw-deep", 3,
     lambda t: (t.b(1) * (t.F(5, 2) * t.b(1) - 6 * t.b(2) + 2 * t.b(3))
                + t.b(1) ** 2 * (t.F(9, 2) * t.b(1) - t.F(27, 2) * t.b(2) + 6 * t.b(3) - t.b(4))
                + t.b(2) * (t.b(2) + 2 * t.b(3) - t.b(4) - 3 * t.b(1) * t.b(3))
                + t.b(2) ** 2 * (t.F(15, 2) * t.b(1) - t.F(1, 2) * t.b(2))
                - t.F(1, 2) * t.b(3) ** 2)),
    ("w51-raw", 2,
     lambda t: (t.b(1) * (t.b(1) - t.F(9, 2) * t.b(2) ** 2 + t.b(1) * t.b(2) ** 2)
                + t.b(2) * (-2 * t.b(2) + t.F(1, 2) * t.b(2) ** 2)
                + t.b(1) ** 2 * (t.F(1, 2) * t.b(1) + 3 * t.b(2) - 3 * t.b(3) + t.F(1, 2) * t.b(4))
                + t.b(1) ** 3 * (t.F(3, 2) * t.b(1) - 3 * t.b(2) + t.F(1, 2) * t.b(3))
                + t.b(3) * (-t.b(1) + 2 * t.b(2) + 3 * t.b(1) * t.b(2)))),
    ("w52-raw", 2,
     lambda t: (t.b2(1) * (t.F(17, 6) * t.b(1) - 12 * t.b(2) + t.F(56, 3) * t.b(3)
                           - 11 * t.b(4) + t.F(11, 6) * t.b(5))
                + t.b2(2) * (-5 * t.b(1) + t.F(49, 3) * t.b(2) - t.F(55, 3) * t.b(3)
                             + t.F(19, 3) * t.b(4))
                + t.b2(3) * (2 * t.b(1) - 5 * t.b(2) + t.F(10, 3) * t.b(3)))),
)


def zero_expressions(p: int, bset: DividedSet) -> list[tuple[str, Residue]]:
    """Every recorded vanishing combination, evaluated at its stated modulus."""
    return [(name, _residue(build(_Acc(p, bset, r)), p, r)) for name, r, build in ZERO_EXPRESSIONS]


# -- first-order (mod p) forms of the expansion coefficients -------------------

#: nu -> omega_nu mod p; omega_0 is -1, and each top display is stated mod p.
_OMEGA_MOD_P: dict[int, _Display] = {
    1: lambda t: -t.b(1),
    2: lambda t: t.F(-1, 2) * t.b(1) ** 2,
    3: lambda t: t.F(-1, 6) * t.b(1) ** 3 - t.F(1, 3) * t.b2(1),
    4: lambda t: t.F(-1, 24) * t.b(1) ** 4 - t.F(1, 3) * t.b(1) * t.b2(1),
}


def omega_mod_p_rhs(nu: int, p: int, bset: DividedSet) -> Residue:
    """The single-digit (mod p) closed form of omega_nu, 1 <= nu <= 4."""
    if nu not in _OMEGA_MOD_P:
        raise ValueError(f"no mod-p form for index {nu}")
    return _residue(_OMEGA_MOD_P[nu](_Acc(p, bset, 1)), p, 1)

