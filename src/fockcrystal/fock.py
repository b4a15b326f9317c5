"""Operators on the labels of the level-l Fock space, as term maps.

A term map lists, for each component partition of a label, the terms that
replace it; `operator_matrix` reads one between two graded pieces, with
integer entries.  Terms above a truncation degree raise
TruncationOverflowError rather than being dropped.  Realized here:

  * box_term_map: f_z / e_z, the sum of additions (removals) of a single
            box of a given residue, no signs;
  * heisenberg_term_map: B_d / B_{-d}, adding or removing d*e-ribbons
            componentwise with sign (-1)^height, found either directly
            ("ribbon") or through the abacus bead model ("wedge").

Of the Fock-space code, `fock matrix` runs only this module.  Fock
vectors, the subspaces and the filtration live in `fockspace`, the
charged words in `charged`.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

from .errors import (
    InvalidInputError,
    TruncationOverflowError,
    UnsupportedParameterError,
)
from .params import CherednikParams, Residue, reject_integer_kappa
from .partitions import (
    Box,
    Multipartition,
    Partition,
    RibbonMove,
    enumerate_multipartitions,
    ribbon_additions,
    ribbon_removals,
)


def _check_truncation(degree: int, truncation: int) -> None:
    if degree > truncation:
        raise TruncationOverflowError(f"term of degree {degree} exceeds truncation {truncation}")


class TermMap(NamedTuple):
    """An operator termwise, as a sum over components: `component_moves(i, p)`
    lists the (partition, integer coefficient) terms that replace component i
    of a label of `params.level` when it is p.  The maps built here compute
    each list once and hand the same list out again, so callers only read it.
    When every label has a term, each of degree `raising` above it, a label
    that would overflow a truncation is rejected before any term is built;
    `raising` is 0 otherwise."""

    params: CherednikParams
    component_moves: Callable[[int, Partition], Iterable[tuple[Partition, int]]]
    raising: int = 0

    def moves(self, lam: Multipartition) -> list[tuple[Multipartition, int]]:
        """The (label, coefficient) terms of the image of lam."""
        return [
            (lam.replace_component(i, mu), w)
            for i, comp in enumerate(lam)
            for mu, w in self.component_moves(i, comp)
        ]


def _cell_moves(
    params: CherednikParams, i: int, p: Partition, remove: bool, z: Optional[Residue] = None
) -> list:
    """(residue, result) of each one-box removal (or addition) on p,
    component i of a label; only those of residue z when z is given, whose
    residue is read before the cell moves, so no other shape is built."""
    cells = p.removable_cells() if remove else p.addable_cells()
    move = p.remove_cell if remove else p.add_cell
    residues = ((params.residue(Box(x, y, i)), x, y) for x, y in cells)
    return [(r, move(x, y)) for r, x, y in residues if z is None or r == z]


def _box_moves(lam: Multipartition, params: CherednikParams, remove: bool) -> Iterator[tuple]:
    """(residue, result) for each single-box removal (or addition) on lam."""
    for i, comp in enumerate(lam):
        for z, p in _cell_moves(params, i, comp, remove):
            yield z, lam.replace_component(i, p)


def box_term_map(params: CherednikParams, z: Residue, remove: bool) -> TermMap:
    """f_z (or e_z) termwise: each single-box addition (or removal) of
    residue z, coefficient 1.  z must be a residue some box can have."""
    reject_integer_kappa(params)
    if z.class_id not in range(len(params.classes)):
        raise InvalidInputError(f"no box has residue {z}: class ids 0..{len(params.classes) - 1}")
    if params.e is not None and z.value not in range(params.e):
        raise InvalidInputError(f"no box has residue {z}: values 0..{params.e - 1}")
    # a residue depends on the component, so the terms are read once per (i, p)
    terms = lru_cache(maxsize=None)(
        lambda i, p: [(mu, 1) for _, mu in _cell_moves(params, i, p, remove, z)]
    )
    return TermMap(params, terms)


def _bead_moves(
    beads: Sequence[int],
    step: int,
    floor: Optional[int],
    keep: Optional[Callable[[int], bool]] = None,
) -> Iterator[tuple[list[int], int, int]]:
    """Every move of one bead of the strictly decreasing `beads` by `step`
    onto a free position (at or above `floor`, when given), as the new
    decreasing bead list, the number of beads jumped and the sign
    (-1)^(beads jumped).  `keep`, when given, selects moves by the lower
    end of the jump."""
    occupied = set(beads)
    for b in beads:
        target = b + step
        if (floor is not None and target < floor) or target in occupied:
            continue
        lo, hi = min(b, target), max(b, target)
        if keep is not None and not keep(lo):
            continue
        jumped = sum(1 for x in beads if lo < x < hi)
        moved = sorted([x for x in beads if x != b] + [target], reverse=True)
        yield moved, jumped, -1 if jumped % 2 else 1


def _wedge_moves(p: Partition, step: int) -> list[RibbonMove]:
    """All bead moves by `step` on the abacus of p; a move jumping k beads
    adds or removes a |step|-ribbon of height k.

    Beads sit at beta_k = p_k - k + W for k = 1..W; the window size
    W = len(p) + |step| is large enough that every legal move, including
    promotions out of the untouched tail, has both endpoints visible.
    A removal longer than |p| cannot happen, so it builds no window.
    """
    if -step > p.size:
        return []
    window = len(p) + abs(step)
    betas = [p.row(k) - k + window for k in range(1, window + 1)]
    # bead k at x gives part x - window + k, zero past the last row
    return [
        RibbonMove(Partition._trusted(
            x - window + k for k, x in enumerate(moved, 1) if x > window - k
        ), h, sign)
        for moved, h, sign in _bead_moves(betas, step, floor=0)
    ]


def heisenberg_term_map(
    d: int, params: CherednikParams, model: str, remove: bool
) -> TermMap:
    """B_d (or B_{-d}) componentwise: one d*e-ribbon added to (or removed
    from) a single component, with sign (-1)^(ribbon height), found as a
    ribbon or as a bead move on the abacus.  Every label takes a B_d
    ribbon (on its first row), so the B_d map has `raising` = d*e."""
    reject_integer_kappa(params)
    if params.e is None:
        raise UnsupportedParameterError(
            "Heisenberg operators need rational kappa (finite quantization e)"
        )
    if d < 1:
        raise InvalidInputError(f"Heisenberg degree must be >= 1, got {d}")
    length = d * params.e
    if model == "ribbon":
        moves, step = (ribbon_removals if remove else ribbon_additions), length
    elif model == "wedge":
        moves, step = _wedge_moves, -length if remove else length
    else:
        raise InvalidInputError(f"unknown Heisenberg model {model!r}")

    # ribbons and bead moves do not depend on the component: one list per partition
    terms = lru_cache(maxsize=None)(lambda p: [(mv.result, mv.sign) for mv in moves(p, step)])
    return TermMap(params, lambda i, p: terms(p), 0 if remove else length)


def operator_matrix(
    term_map: TermMap, degree_from: int, degree_to: int
) -> tuple[list[Multipartition], list[Multipartition], dict[tuple[int, int], int]]:
    """Matrix of a term map between graded pieces of its parameters'
    level: returns the row basis (degree_to), column basis (degree_from),
    and the sparse integer entry dict keyed by (row, column).  A term above
    max(degree_from, degree_to) raises TruncationOverflowError, before any
    is built when the map has a `raising` degree; any other term outside
    degree_to InvalidInputError."""
    cols = enumerate_multipartitions(term_map.params.level, degree_from)
    rows = enumerate_multipartitions(term_map.params.level, degree_to)
    row_index = {lam: r for r, lam in enumerate(rows)}
    truncation = max(degree_from, degree_to)
    _check_truncation(degree_from + term_map.raising, truncation)
    entries: dict[tuple[int, int], int] = {}
    for j, lam in enumerate(cols):
        for i, comp in enumerate(lam):
            head, tail = lam[:i], lam[i + 1 :]
            for mu, w in term_map.component_moves(i, comp):
                r = row_index.get(head + (mu,) + tail)
                if r is None:  # every label of degree_to is a row
                    size = lam.size - comp.size + mu.size
                    _check_truncation(size, truncation)
                    raise InvalidInputError(
                        f"operator image leaves degree {degree_to}: got degree {size}"
                    )
                entries[(r, j)] = w  # distinct moves give distinct terms
    return rows, cols, entries
