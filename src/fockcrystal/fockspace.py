"""Fock vectors and the subspaces of the filtration.

A Fock vector is a finite rational combination of multipartitions of one
level, truncated at a degree bound: producing a term above the bound
raises TruncationOverflowError rather than silently dropping it.
`singular_subspace` is the joint kernel of all lowering operators in a
fixed degree, and `filtration_dims` the dimensions of the
two-parameter filtration it generates under raising operators and
Heisenberg monomials, every p of one q from a single run.  Both apply
the term maps of `fock` to rows directly.

`fock singular`, `fock filtration` and `selftest` import this module; it
is the one module that imports `linalg`.  The operators on vectors and
the plethysm classes are in `fockvectors`, which no command but
`selftest` loads.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import Optional, Union

from .errors import InvalidInputError
from .fock import _box_moves, _check_truncation, heisenberg_term_map
from .linalg import Row, RowSpan, kernel_basis
from .params import CherednikParams, Residue, reject_integer_kappa
from .partitions import Multipartition, enumerate_multipartitions, enumerate_partitions

Scalar = Union[int, Fraction]


class FockVector:
    """Finite rational combination of multipartitions of one level.

    Entries of degree above ``truncation`` are rejected loudly; zero
    coefficients are dropped on construction.
    """

    __slots__ = ("level", "truncation", "entries")

    def __init__(
        self,
        level: int,
        truncation: int,
        entries: Optional[dict[Multipartition, Scalar]] = None,
    ):
        if level < 1:
            raise InvalidInputError(f"level must be >= 1, got {level}")
        if truncation < 0:
            raise InvalidInputError(f"truncation must be >= 0, got {truncation}")
        self.level = level
        self.truncation = truncation
        clean: dict[Multipartition, Fraction] = {}
        for lam, coeff in (entries or {}).items():
            if lam.level != level:
                raise InvalidInputError(
                    f"term {lam} has level {lam.level}, expected {level}"
                )
            _check_truncation(lam.size, truncation)
            c = Fraction(coeff)
            if c != 0:
                clean[lam] = c
        self.entries = clean

    def coeff(self, lam: Multipartition) -> Fraction:
        return self.entries.get(lam, Fraction(0))

    def items(self) -> list[tuple[Multipartition, Fraction]]:
        """Terms sorted by degree then the canonical multipartition order."""
        return sorted(self.entries.items(), key=lambda kv: kv[0].sort_key())

    def is_zero(self) -> bool:
        return not self.entries

    def __add__(self, other: "FockVector") -> "FockVector":
        if self.level != other.level:
            raise InvalidInputError("cannot add vectors of different levels")
        merged = dict(self.entries)
        for lam, c in other.entries.items():
            merged[lam] = merged.get(lam, Fraction(0)) + c
        return FockVector(
            self.level, max(self.truncation, other.truncation), merged
        )

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, r: Scalar) -> "FockVector":
        f = Fraction(r)
        return FockVector(
            self.level,
            self.truncation,
            {lam: c * f for lam, c in self.entries.items()},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FockVector):
            return NotImplemented
        return self.level == other.level and self.entries == other.entries

    def __hash__(self):
        return hash((self.level, frozenset(self.entries.items())))

    def __repr__(self):
        if self.is_zero():
            return "FockVector(0)"
        terms = " + ".join(f"({c})*|{lam}>" for lam, c in self.items())
        return f"FockVector({terms})"


def singular_subspace(n: int, params: CherednikParams) -> list[FockVector]:
    """Basis of the degree-n joint kernel of every lowering operator:
    all e_z for residues z present on degree-n multipartitions, and all
    Heisenberg b_minus_op of degree d with d*e <= n when kappa is
    rational.  Returned vectors have truncation n."""
    if n < 0:
        raise InvalidInputError(f"degree must be >= 0, got {n}")
    reject_integer_kappa(params)
    return list(_singular_subspace_cached(n, params))


@lru_cache(maxsize=None)
def _singular_subspace_cached(n: int, params: CherednikParams) -> tuple[FockVector, ...]:
    basis = enumerate_multipartitions(params.level, n)

    # One pass over the basis fills the matrix of every e_z at once:
    # the row of (z, mu) holds a 1 in column j when removing one box of
    # residue z from basis[j] gives mu (distinct boxes give distinct mu).
    e_rows: dict[Residue, dict[Multipartition, dict[int, int]]] = {}
    for j, lam in enumerate(basis):
        for z, mu in _box_moves(lam, params, remove=True):
            e_rows.setdefault(z, {}).setdefault(mu, {})[j] = 1
    rows = [row for z in sorted(e_rows) for row in e_rows[z].values()]
    e = params.e
    if e is not None:
        for d in range(1, n // e + 1):
            term_map = heisenberg_term_map(d, params, "ribbon", remove=True)
            b_rows: dict[Multipartition, dict[int, int]] = {}
            for j, lam in enumerate(basis):
                for mu, sign in term_map.moves(lam):
                    b_rows.setdefault(mu, {})[j] = sign
            rows.extend(b_rows.values())

    return tuple(
        FockVector(params.level, n, {basis[i]: c for i, c in vec.items()})
        for vec in kernel_basis(rows, len(basis))
    )


def filtration_dims(p: int, q: int, n: int, params: CherednikParams) -> list[int]:
    """The dimensions of the degree-n slice of the filtration space built
    from singular vectors by at most q units of Heisenberg raising and at
    most k single-box raisings, for k = 0..min(p, n), from one run of
    raising layers; the last is the dimension at p.  A run to p makes the
    same inserts in the same order as a run to k < p over its first k
    layers, and after n layers every vector has degree >= n, so no layer
    adds more.

    Vectors are homogeneous integer rows over the degree's basis: each
    singular vector is scaled by its common denominator once, and
    positive scaling leaves RowSpan's primitive rows, hence every
    decision, as they are.  Each multipartition's moves are read once
    per run."""
    if p < 0 or q < 0 or n < 0:
        raise InvalidInputError("filtration indices must be >= 0")
    reject_integer_kappa(params)
    e = params.e
    # no layer past n adds a vector, no monomial of degree above n // e
    # stays in degree n
    p, q = min(p, n), min(q, n // e) if e is not None else 0

    bases = [enumerate_multipartitions(params.level, g) for g in range(n + 1)]
    indexes = [{lam: i for i, lam in enumerate(basis)} for basis in bases]
    spans = [RowSpan(len(basis)) for basis in bases]
    b_maps = {
        d: heisenberg_term_map(d, params, "ribbon", remove=False) for d in range(1, q + 1)
    }

    @lru_cache(maxsize=None)
    def moves(g: int, i: int, d: int) -> list[tuple]:
        """(residue, column) of each one-box raising of column i of
        degree g when d = 0, else (sign, column) of each B_d term."""
        lam = bases[g][i]
        if d == 0:
            return [(z, indexes[g + 1][mu]) for z, mu in _box_moves(lam, params, remove=False)]
        return [(sign, indexes[g + d * e][mu]) for mu, sign in b_maps[d].moves(lam)]

    layer: list[tuple[int, Row]] = []
    for g in range(n + 1):
        for sing in singular_subspace(g, params):
            den = math.lcm(*(c.denominator for c in sing.entries.values()))
            base = {
                indexes[g][lam]: c.numerator * (den // c.denominator)
                for lam, c in sing.entries.items()
            }
            for total in range(min(q, (n - g) // e) + 1 if e else 1):
                for mono in enumerate_partitions(total):
                    row, deg = base, g
                    for d in mono:
                        out: Row = {}
                        for i, c in row.items():
                            for sign, j in moves(deg, i, d):
                                out[j] = out.get(j, 0) + c * sign
                        row, deg = {j: c for j, c in out.items() if c}, deg + d * e
                    if row and spans[deg].insert(row):
                        layer.append((deg, row))

    dims = [spans[n].dim]
    while layer and len(dims) <= p:
        next_layer = []
        for deg, row in layer:
            if deg >= n:
                continue
            # f_z(row) for every residue z, from one pass over row's terms
            images: dict[Residue, Row] = {}
            for i, c in row.items():
                for z, j in moves(deg, i, 0):
                    terms = images.setdefault(z, {})
                    terms[j] = terms.get(j, 0) + c
            for z in sorted(images):
                image = {j: c for j, c in images[z].items() if c}
                if image and spans[deg + 1].insert(image):
                    next_layer.append((deg + 1, image))
        layer = next_layer
        dims.append(spans[n].dim)
    return dims + dims[-1:] * (p + 1 - len(dims))
