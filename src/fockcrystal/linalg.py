"""Exact, fraction-free linear algebra on sparse rows.

A vector is a mapping {column: value} with int or Fraction values; zero
entries may be left out.  Each row is stored as a primitive integer
vector (denominators cleared, content divided out), which spans the
same line.  A span is kept in reduced echelon form: every row leads at
its own pivot column and is zero at every other pivot column.  Rows are
reduced Gauss-Jordan style by integer cross-multiplication followed by
division by the gcd, in the fraction-free manner of Bareiss (1968), so
no Fraction arithmetic happens during elimination.  A Fraction appears
only when a kernel vector is written out.

Over a fixed column order the reduced row echelon form of a matrix is
unique, so the kernel basis with a 1 in each free column does not depend
on the order in which rows were inserted.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping, Union

Scalar = Union[int, Fraction]
Row = dict[int, int]


def _primitive(vec: Mapping[int, Scalar]) -> Row:
    """The primitive integer row on the line through vec."""
    entries = [(c, x) for c, x in vec.items() if x]
    den = lcm(*(x.denominator for _, x in entries))
    row = {c: x.numerator * (den // x.denominator) for c, x in entries}
    return _divide_content(row)


def _divide_content(row: Row) -> Row:
    g = gcd(*row.values())
    if g > 1:
        return {c: x // g for c, x in row.items()}
    return row


def _eliminate(row: Row, col: int, pivot_row: Row) -> Row:
    """row with its entry at col cancelled by a multiple of pivot_row."""
    a, b = pivot_row[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    out = {c: a * x for c, x in row.items()}
    for c, y in pivot_row.items():
        x = out.get(c, 0) - b * y
        if x:
            out[c] = x
        else:
            del out[c]
    return _divide_content(out)


class RowSpan:
    """A growing subspace of Q^ncols kept in reduced echelon form.

    ``rows`` maps each pivot column to its primitive integer row."""

    def __init__(self, ncols: int):
        self.ncols = ncols
        self.rows: dict[int, Row] = {}

    @property
    def dim(self) -> int:
        return len(self.rows)

    def insert(self, vec: Mapping[int, Scalar]) -> bool:
        """Reduce vec against the span; add it if independent."""
        return self._add(_primitive(vec))

    def _add(self, row: Row) -> bool:
        # Stored rows vanish at each other's pivots, so cancelling one
        # pivot never brings back another: one pass in any order suffices.
        for piv in [c for c in row if c in self.rows]:
            row = _eliminate(row, piv, self.rows[piv])
        if not row:
            return False
        col = min(row)
        for piv, other in self.rows.items():
            if col in other:
                self.rows[piv] = _eliminate(other, col, row)
        self.rows[col] = row
        return True


def kernel_basis(
    rows: Iterable[Mapping[int, Scalar]], ncols: int
) -> list[dict[int, Fraction]]:
    """Basis of the right kernel of the matrix with the given rows, one
    sparse vector per free column in ascending order: 1 in its own free
    column, 0 in every other free column."""
    span = RowSpan(ncols)
    for row in rows:
        span._add(_primitive(row))
    basis = []
    for fc in range(ncols):
        if fc in span.rows:
            continue
        vec = {fc: Fraction(1)}
        for pc, row in span.rows.items():
            if fc in row:
                vec[pc] = -Fraction(row[fc], row[pc])
        basis.append(vec)
    return basis
