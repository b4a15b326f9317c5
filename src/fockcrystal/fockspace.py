"""Fock vectors and the subspaces of the filtration.

A Fock vector is a finite rational combination of multipartitions of one
level and of any degrees; it carries no degree bound.
`singular_subspace` is the joint kernel of all lowering operators in a
fixed degree, and `filtration_dims` the dimensions of the
two-parameter filtration it generates under raising operators and
Heisenberg monomials, every p of one q from a single run.  Both read
each label's raising moves from one process-life table; e_z and B_{-d}
are the transposes of f_z and B_d, so no code here lowers.

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
from .fock import _box_moves, heisenberg_term_map
from .linalg import Row, RowSpan, kernel_basis
from .params import CherednikParams, Residue, reject_integer_kappa
from .partitions import Multipartition, enumerate_multipartitions, enumerate_partitions

Scalar = Union[int, Fraction]


class FockVector:
    """Finite rational combination of multipartitions of one level, of
    any degrees; zero coefficients are dropped on construction."""

    __slots__ = ("level", "entries")

    def __init__(self, level: int, entries: Optional[dict[Multipartition, Scalar]] = None):
        if level < 1:
            raise InvalidInputError(f"level must be >= 1, got {level}")
        self.level = level
        clean: dict[Multipartition, Fraction] = {}
        for lam, coeff in (entries or {}).items():
            if lam.level != level:
                raise InvalidInputError(
                    f"term {lam} has level {lam.level}, expected {level}"
                )
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
        return FockVector(self.level, merged)

    def __sub__(self, other: "FockVector") -> "FockVector":
        return self + other.scale(-1)

    def scale(self, r: Scalar) -> "FockVector":
        f = Fraction(r)
        return FockVector(self.level, {lam: c * f for lam, c in self.entries.items()})

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
    rational.  Every returned vector is homogeneous of degree n."""
    if n < 0:
        raise InvalidInputError(f"degree must be >= 0, got {n}")
    reject_integer_kappa(params)
    basis = enumerate_multipartitions(params.level, n)
    return [
        FockVector(params.level, {basis[i]: c for i, c in vec.items()})
        for vec in _singular_kernel(n, params)
    ]


@lru_cache(maxsize=None)
def _raisings(params: CherednikParams, g: int, d: int) -> tuple[list[tuple], ...]:
    """One list per label of degree g, in basis order: for d = 0 the
    (residue, column in degree g + 1) of each one-box raising, else the
    (sign, column in degree g + d*e) of each B_d ribbon term.  Built once
    per process; the singular kernels and every filtration run only read it."""
    top = g + (d * params.e if d else 1)
    index = {lam: i for i, lam in enumerate(enumerate_multipartitions(params.level, top))}
    basis = enumerate_multipartitions(params.level, g)
    if d == 0:
        return tuple([(z, index[mu]) for z, mu in _box_moves(lam, params)] for lam in basis)
    b_d = heisenberg_term_map(d, params, "ribbon", remove=False)
    return tuple([(sign, index[mu]) for mu, sign in b_d.moves(lam)] for lam in basis)


@lru_cache(maxsize=None)
def _singular_kernel(n: int, params: CherednikParams) -> tuple[dict[int, Fraction], ...]:
    """kernel_basis of the degree-n lowering maps.  On the label basis e_z
    and B_{-d} are the transposes of f_z and B_d: the e_z row at (mu, z)
    holds a 1 at each raising of mu by a box of residue z, and the B_{-d}
    row at mu the terms of B_d mu."""
    rows = [
        {j: 1 for y, j in raisings if y == z}
        for raisings in (_raisings(params, n - 1, 0) if n else ())
        for z in dict.fromkeys(z for z, _ in raisings)
    ]
    e = params.e
    for d in range(1, n // e + 1) if e is not None else ():
        rows.extend({j: sign for sign, j in terms} for terms in _raisings(params, n - d * e, d))
    return tuple(kernel_basis(rows, len(enumerate_multipartitions(params.level, n))))


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
    decision, as they are.  Monomials and raising layers read the move
    tables of `_raisings`, which the singular kernels read too."""
    if p < 0 or q < 0 or n < 0:
        raise InvalidInputError("filtration indices must be >= 0")
    reject_integer_kappa(params)
    e = params.e
    # no layer past n adds a vector, no monomial of degree above n // e
    # stays in degree n
    p, q = min(p, n), min(q, n // e) if e is not None else 0

    spans = [RowSpan() for _ in range(n + 1)]
    layer: list[tuple[int, Row]] = []
    for g in range(n + 1):
        for sing in _singular_kernel(g, params):
            den = math.lcm(*(c.denominator for c in sing.values()))
            base = {i: c.numerator * (den // c.denominator) for i, c in sing.items()}
            for total in range(min(q, (n - g) // e) + 1 if e else 1):
                for mono in enumerate_partitions(total):
                    row, deg = base, g
                    for d in mono:
                        table, out = _raisings(params, deg, d), {}
                        for i, c in row.items():
                            for sign, j in table[i]:
                                out[j] = out.get(j, 0) + c * sign
                        row, deg = {j: c for j, c in out.items() if c}, deg + d * e
                    if row and spans[deg].insert(row):
                        layer.append((deg, row))

    box_raisings = [_raisings(params, g, 0) for g in range(n)]
    dims = [spans[n].dim]
    while layer and len(dims) <= p:
        next_layer = []
        for deg, row in layer:
            if deg >= n:
                continue
            # f_z(row) for every residue z, from one pass over row's terms
            images: dict[Residue, Row] = {}
            for i, c in row.items():
                for z, j in box_raisings[deg][i]:
                    terms = images.setdefault(z, {})
                    terms[j] = terms.get(j, 0) + c
            for z in sorted(images):
                image = {j: c for j, c in images[z].items() if c}
                if image and spans[deg + 1].insert(image):
                    next_layer.append((deg + 1, image))
        layer = next_layer
        dims.append(spans[n].dim)
    return dims + dims[-1:] * (p + 1 - len(dims))
