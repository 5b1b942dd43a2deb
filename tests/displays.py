"""The one list of the displays transcribed in ``wilsonq.formulas``.

Every guard over the displays reads this list, and
``tests/test_formulas.py::test_every_lambda_is_a_listed_display`` holds that
each lambda of the module is the code of some entry.  A display in a table
this list does not read fails that test instead of escaping every guard.

Each entry is (name, precision, display): the display is read at the
precision its evaluator states, so a value mod p^precision is all it claims.
"""
from __future__ import annotations

from itertools import product
from typing import Callable, Iterator, Sequence

from wilsonq import formulas

Entry = tuple[str, int, Callable[..., int]]


def divided_set_displays() -> Iterator[Entry]:
    """Every display over a divided set: the omega ladders and their term
    groups, the mod-p forms, each block of the power-sum forms and the zero
    expressions."""
    for depth, ladder in formulas._OMEGA.items():
        for nu, display in ladder.items():
            yield f"_OMEGA[{depth}][{nu}]", depth + 1 - nu, display
    for depth, groups in formulas._OMEGA5_TERMS.items():
        for name, display in groups.items():
            yield f"_OMEGA5_TERMS[{depth}][{name}]", depth - 4, display
    for nu, display in formulas._OMEGA_MOD_P.items():
        yield f"_OMEGA_MOD_P[{nu}]", 1, display
    # a block the p^6 forms share with the p^5 forms is an entry at each level
    for level, forms in formulas._QTILDE_MAIN.items():
        for n, blocks in forms.items():
            for t_pow, display in blocks:
                yield f"_QTILDE_MAIN[{level}][{n}] p^{t_pow}", level - t_pow, display
    for name, r, display in formulas.ZERO_EXPRESSIONS:
        yield f"ZERO_EXPRESSIONS[{name}]", r, display


def form(blocks: Sequence[tuple[int, Callable[..., int]]]) -> Callable[..., int]:
    """A power-sum form as one display: the sum of p^t times each (t, block)."""
    return lambda t: sum(t.p ** t_pow * block(t) for t_pow, block in blocks)


#: (name, depth, precision, lhs, rhs): lhs - rhs, or lhs alone where rhs is
#: None, vanishes mod p^precision at every prime of that depth and above.
Relation = tuple[str, int, int, Callable[..., int], Callable[..., int] | None]


def kummer_relations() -> Iterator[Relation]:
    """Every relation among the divided-set displays that follows from the
    Kummer congruences on the set's families alone, at the lower of its
    sides' stated precisions: each zero expression against 0 at the depth-5
    set, each depth-6 omega_nu against the depth-5 one, each ladder's
    omega_1..omega_4 against its mod-p form, each depth-6 term group of
    omega_5 against the depth-5 group of its name, each props form against
    thm3's, the lemma form against props' n=5 form, and each n=1 form mod
    p^6 against each n=1 form mod p^5."""
    entries = {name: (prec, display) for name, prec, display in divided_set_displays()}
    # each power-sum form a sweep row reads, named by the row's tag and case
    for tag, table in (("thm3", formulas._QTILDE_MAIN), ("props", formulas._QTILDE_VEC)):
        entries.update((f"{tag} n={n}-mod-p^{level}", (level, form(blocks)))
                       for level, forms in table.items() for n, blocks in forms.items())
    entries["lemmas n=5-mod-p^5-unreduced-lead"] = 5, form(formulas.QTILDE_L5_N5_UNREDUCED)

    def pair(lhs: str, rhs: str, depth: int) -> Relation:
        (lhs_prec, lhs_display), (rhs_prec, rhs_display) = entries[lhs], entries[rhs]
        return f"{lhs} - {rhs}", depth, min(lhs_prec, rhs_prec), lhs_display, rhs_display

    for name, (prec, display) in entries.items():
        if name.startswith("ZERO_EXPRESSIONS["):
            yield name, 5, prec, display, None
    for nu in range(1, 6):
        yield pair(f"_OMEGA[6][{nu}]", f"_OMEGA[5][{nu}]", 6)
    for depth in (5, 6):
        for nu in formulas._OMEGA_MOD_P:
            yield pair(f"_OMEGA[{depth}][{nu}]", f"_OMEGA_MOD_P[{nu}]", depth)
    for group in formulas._OMEGA5_TERMS[6]:
        yield pair(f"_OMEGA5_TERMS[6][{group}]", f"_OMEGA5_TERMS[5][{group}]", 6)
    for level, forms in formulas._QTILDE_MAIN.items():
        for n in forms:
            yield pair(f"props n={n}-mod-p^{level}", f"thm3 n={n}-mod-p^{level}", level)
    yield pair("lemmas n=5-mod-p^5-unreduced-lead", "props n=5-mod-p^5", 5)
    for lhs, rhs in product(("props", "thm3"), repeat=2):
        yield pair(f"{lhs} n=1-mod-p^6", f"{rhs} n=1-mod-p^5", 6)


def displays() -> Iterator[Entry]:
    """Every display: those over a divided set; the blocks of the printed-vector
    forms, whose printed constants are the ``COEFF_TABLES`` entries the vector
    guard reads (their own 1/n and family switch are none, and some blocks
    are 0 at every prime, so the constant guard does not read them); then the
    members of ``PTILDE``, which read the scaled power sums at len(PTILDE)
    digits."""
    yield from divided_set_displays()
    for level, forms in formulas._QTILDE_VEC.items():
        for n, blocks in forms.items():
            for t_pow, display in blocks:
                yield f"_QTILDE_VEC[{level}][{n}] p^{t_pow}", level - t_pow, display
    for nu, display in formulas.PTILDE.items():
        yield f"PTILDE[{nu}]", len(formulas.PTILDE), display
