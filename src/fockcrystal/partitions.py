"""Partitions, multipartitions, boxes, and border-strip moves.

Conventions used throughout the package:
  * partitions are weakly decreasing tuples of positive integers,
  * a box is a triple (x, y, comp) with x the column index, y the row
    index, both starting at 1, and comp the component index starting at 0,
  * the content of a box is x - y.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterable, Iterator, NamedTuple

from .errors import InvalidInputError, InvalidMoveError


class Box(NamedTuple):
    x: int
    y: int
    comp: int

    @property
    def content(self) -> int:
        return self.x - self.y


class RibbonMove(NamedTuple):
    """One way of adding or removing a border strip.

    ``height`` is the number of rows spanned minus one and ``sign`` is
    (-1) ** height.
    """

    result: "Partition"
    height: int
    sign: int


class Partition(tuple):
    """An integer partition: the tuple of its positive parts, weakly
    decreasing.  It equals and hashes as that plain tuple."""

    __slots__ = ()

    def __new__(cls, parts=()):
        parts = tuple(parts)
        for p in parts:
            if isinstance(p, bool) or not isinstance(p, int):
                raise InvalidInputError(f"partition part {p!r} is not an integer")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise InvalidInputError(f"parts not weakly decreasing: {parts}")
        if parts and parts[-1] < 0:
            raise InvalidInputError(f"negative part in {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        return tuple.__new__(cls, parts)

    @classmethod
    def _trusted(cls, parts: Iterable[int]) -> "Partition":
        """Partition(parts) unchecked, for the valid shape a move just built."""
        return tuple.__new__(cls, parts)

    def __repr__(self) -> str:
        return f"Partition({list(self)})"

    @property
    def size(self) -> int:
        return sum(self)

    def row(self, y: int) -> int:
        """Length of row y (1-based); zero beyond the last row."""
        return self[y - 1] if 1 <= y <= len(self) else 0

    def transpose(self) -> "Partition":
        if not self:
            return self
        return Partition(sum(1 for p in self if p >= x) for x in range(1, self[0] + 1))

    def cells(self) -> Iterator[tuple[int, int]]:
        for y, p in enumerate(self, start=1):
            for x in range(1, p + 1):
                yield (x, y)

    def addable_cells(self) -> list[tuple[int, int]]:
        """Cells (x, y) whose addition keeps the shape a partition, y ascending."""
        out = []
        for y in range(1, len(self) + 2):
            above = self.row(y - 1) if y > 1 else None
            here = self.row(y)
            if above is None or here < above:
                out.append((here + 1, y))
        return out

    def removable_cells(self) -> list[tuple[int, int]]:
        out = []
        for y in range(1, len(self) + 1):
            if self.row(y) > self.row(y + 1):
                out.append((self.row(y), y))
        return out

    def add_cell(self, x: int, y: int) -> "Partition":
        if not (0 < y <= len(self) + 1 and x == self.row(y) + 1 and (y == 1 or self[y - 2] >= x)):
            raise InvalidMoveError(f"cannot add cell {(x, y)} to {tuple(self)}")
        return Partition._trusted(self[: y - 1] + (x,) + self[y:])

    def remove_cell(self, x: int, y: int) -> "Partition":
        if not (0 < y <= len(self) and x == self[y - 1] > self.row(y + 1)):
            raise InvalidMoveError(f"cannot remove cell {(x, y)} from {tuple(self)}")
        return Partition._trusted(self[: y - 1] + ((x - 1,) if x > 1 else ()) + self[y:])


def ribbon_additions(p: Partition, length: int) -> list[RibbonMove]:
    """All partitions obtained from p by adding a border strip of the
    given length, with heights and signs."""
    if length <= 0:
        raise InvalidInputError("ribbon length must be positive")
    moves = []
    for y2 in range(1, len(p) + length + 1):
        for y1 in range(max(1, y2 - length + 1), y2 + 1):
            # row y1 of the result is forced by the total size; the rows
            # below it each start one column right of the previous row's end
            top = p.row(y2) + length - (y2 - y1)
            if top <= p.row(y1):
                continue
            if y1 > 1 and top > p.row(y1 - 1):
                continue
            rows = list(p) + [0] * max(0, y2 - len(p))
            rows[y1 - 1] = top
            for y in range(y1 + 1, y2 + 1):
                rows[y - 1] = p.row(y - 1) + 1
            moves.append(RibbonMove(Partition._trusted(rows), y2 - y1, (-1) ** (y2 - y1)))
    moves.sort(reverse=True)  # by result; distinct moves give distinct results
    return moves


def ribbon_removals(p: Partition, length: int) -> list[RibbonMove]:
    if length <= 0:
        raise InvalidInputError("ribbon length must be positive")
    moves = []
    for y2 in range(1, len(p) + 1):
        for y1 in range(max(1, y2 - length + 1), y2 + 1):
            last = p.row(y1) - length + (y2 - y1)
            if not (max(p.row(y2 + 1), 0) <= last <= p.row(y2) - 1):
                continue
            rows = list(p)
            for y in range(y1, y2):
                rows[y - 1] = p.row(y + 1) - 1
            rows[y2 - 1] = last
            shape = Partition._trusted(r for r in rows if r)  # empty rows trail
            moves.append(RibbonMove(shape, y2 - y1, (-1) ** (y2 - y1)))
    moves.sort(reverse=True)  # by result; distinct moves give distinct results
    return moves


class Multipartition(tuple):
    """A label: the tuple of its partitions, indexed by component 0 ..
    level-1.  It equals and hashes as that plain tuple of tuples."""

    __slots__ = ()

    def __new__(cls, components):
        comps = tuple(c if isinstance(c, Partition) else Partition(c) for c in components)
        if not comps:
            raise InvalidInputError("a multipartition needs at least one component")
        return tuple.__new__(cls, comps)

    @classmethod
    def _trusted(cls, comps: Iterable[Partition]) -> "Multipartition":
        """Multipartition(comps) unchecked, for the Partitions a move just built."""
        return tuple.__new__(cls, comps)

    def __repr__(self) -> str:
        return f"Multipartition({[list(c) for c in self]})"

    @property
    def level(self) -> int:
        return len(self)

    @property
    def size(self) -> int:
        return sum(map(sum, self))

    def boxes(self) -> Iterator[Box]:
        for i, c in enumerate(self):
            for x, y in c.cells():
                yield Box(x, y, i)

    def addable_boxes(self) -> list[Box]:
        return [Box(x, y, i) for i, c in enumerate(self) for x, y in c.addable_cells()]

    def removable_boxes(self) -> list[Box]:
        return [Box(x, y, i) for i, c in enumerate(self) for x, y in c.removable_cells()]

    def add_box(self, box: Box) -> "Multipartition":
        return self.replace_component(box.comp, self[box.comp].add_cell(box.x, box.y))

    def remove_box(self, box: Box) -> "Multipartition":
        return self.replace_component(box.comp, self[box.comp].remove_cell(box.x, box.y))

    def replace_component(self, i: int, p: Partition) -> "Multipartition":
        comps = list(self)
        comps[i] = p
        return Multipartition._trusted(comps)

    def transpose(self) -> "Multipartition":
        """Componentwise conjugate; component order is unchanged."""
        return Multipartition([c.transpose() for c in self])

    def sort_key(self):
        """Canonical order: smaller size first; then earlier components
        first by larger size, then reverse lexicographically larger parts."""
        return (self.size, tuple((-c.size, tuple(-p for p in c)) for c in self))


@lru_cache(maxsize=None)
def _partition_tuples(n: int, max_part: int) -> tuple[tuple[int, ...], ...]:
    if n == 0:
        return ((),)
    out = []
    for first in range(min(n, max_part), 0, -1):
        for rest in _partition_tuples(n - first, first):
            out.append((first,) + rest)
    return tuple(out)


def enumerate_partitions(n: int) -> list[Partition]:
    """All partitions of n in reverse lexicographic order, (n) first."""
    if n < 0:
        raise InvalidInputError("cannot enumerate partitions of a negative integer")
    return [Partition._trusted(t) for t in _partition_tuples(n, n)]


def enumerate_multipartitions(level: int, n: int) -> list[Multipartition]:
    """All level-tuples of partitions of total size n, in the canonical
    order given by Multipartition.sort_key."""
    if level < 1:
        raise InvalidInputError("level must be at least 1")
    if n < 0:
        raise InvalidInputError("total size must be nonnegative")
    if level == 1:
        return [Multipartition._trusted((p,)) for p in enumerate_partitions(n)]
    out = []
    for first in range(n, -1, -1):
        tails = enumerate_multipartitions(level - 1, n - first)
        for head in enumerate_partitions(first):
            for tail in tails:
                out.append(Multipartition._trusted((head,) + tail))
    return out


def divide_with_remainder(nu: Partition, e: int) -> tuple[Partition, Partition]:
    """Split nu = e * quot + rem (partwise) with quot and rem partitions,
    every column multiplicity of rem below e, and rem as large as possible.

    The remainder is built from the bottom row up: each row keeps as many
    cells as it can without its excess over the row below reaching e.
    """
    if e < 1:
        raise InvalidInputError("modulus must be a positive integer")
    rem_rows: list[int] = []
    below = 0
    for part in reversed(nu):
        below += (part - below) % e
        rem_rows.append(below)
    rem_rows.reverse()
    rem = Partition(rem_rows)
    quot = Partition((p - r) // e for p, r in zip(nu, rem_rows))
    return quot, rem
