"""The charged-word model of multipartitions.

A charged word is one strictly decreasing run of positive integers per
component: embed_to_charged pads component i to its charge s_i, and
charged_to_multipartition inverts it.  The wedge operators wedge_f_op /
wedge_e_op move one entry of a given residue mod e up or down, the bead
moves of `fock` on each run.  They are the independent realization that
`selftest` (and the tests) compare with the box operators; no other
command imports this module.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Sequence

from .errors import InvalidInputError, UnsupportedParameterError
from .fock import _bead_moves
from .partitions import Multipartition


class ChargedWord(NamedTuple):
    """One strictly decreasing integer run per component; the run for a
    component of charge s lists the s charged beta numbers."""

    runs: tuple[tuple[int, ...], ...]

    def __str__(self):
        return "|".join(",".join(str(a) for a in run) for run in self.runs)


def _exact_int(x, what: str) -> int:
    """x itself when it is an int (a bool is not), else InvalidInputError."""
    if isinstance(x, bool) or not isinstance(x, int):
        raise InvalidInputError(f"{what} {x!r} is not an integer")
    return x


def _validate_word(runs: Sequence[Sequence[int]]) -> ChargedWord:
    packed = []
    for run in runs:
        t = tuple(_exact_int(a, "charged word entry") for a in run)
        if any(t[k] <= t[k + 1] for k in range(len(t) - 1)):
            raise InvalidInputError(f"run {t} is not strictly decreasing")
        packed.append(t)
    return ChargedWord(tuple(packed))


def embed_to_charged(lam: Multipartition, charges: Sequence[int]) -> ChargedWord:
    """Charged word of lam: component i of charge s_i becomes the run
    (s_i + lam_k - k + 1) for k = 1..s_i, entries strictly decreasing
    and >= 1.  Each entry equals the charged content of the box that a
    raising move at that row would add."""
    if len(charges) != lam.level:
        raise InvalidInputError(
            f"expected {lam.level} charges, got {len(charges)}"
        )
    runs = []
    for i, comp in enumerate(lam):
        s = _exact_int(charges[i], "charge")
        if s < 1:
            raise InvalidInputError(f"charge {s} for component {i} must be >= 1")
        if len(comp) > s:
            raise InvalidInputError(f"charge {s} too small for component {i} of length {len(comp)}")
        runs.append(tuple(s + comp.row(k) - k + 1 for k in range(1, s + 1)))
    return ChargedWord(tuple(runs))


def charged_to_multipartition(word: ChargedWord) -> Multipartition:
    """Inverse of embed_to_charged where defined; entries must give
    weakly decreasing nonnegative rows."""
    comps = []
    for run in word.runs:
        s = len(run)
        parts = [run[k - 1] - s + k - 1 for k in range(1, s + 1)]
        if any(x < 0 for x in parts):
            raise InvalidInputError(f"run {run} has no partition preimage")
        comps.append(parts)
    return Multipartition(comps)


def wedge_f_op(word: ChargedWord, i: int, e: int) -> dict[ChargedWord, Fraction]:
    """Raising operator on charged words: each entry a with a = i mod e
    moves to a+1, coefficient +1; moves blocked by an occupied slot are
    dropped.  Runs are independent of one another."""
    return _wedge_word_op(word, i, e, raise_=True)


def wedge_e_op(word: ChargedWord, i: int, e: int) -> dict[ChargedWord, Fraction]:
    """Lowering operator on charged words: each entry a with a-1 = i
    mod e moves to a-1 when that slot is free and stays positive.
    Entries never drop below 1, matching the positive-index wedge
    space that charged words of partitions span."""
    return _wedge_word_op(word, i, e, raise_=False)


def _wedge_word_op(
    word: ChargedWord, i: int, e: int, raise_: bool
) -> dict[ChargedWord, Fraction]:
    if e < 2:
        raise UnsupportedParameterError(f"wedge operators need e >= 2, got {e}")
    word = _validate_word(word.runs)
    # raising a -> a+1 and lowering a+1 -> a both need a = i mod e; distinct
    # moves give distinct words, so no two terms add up
    step, floor = (1, None) if raise_ else (-1, 1)
    return {
        ChargedWord(word.runs[:ri] + (tuple(moved),) + word.runs[ri + 1 :]): Fraction(sign)
        for ri, run in enumerate(word.runs)
        for moved, _, sign in _bead_moves(run, step, floor, lambda a: (a - i) % e == 0)
    }
