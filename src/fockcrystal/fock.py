"""Level-l Fock space with exact rational coefficients.

A Fock vector is a finite linear combination of multipartitions of a
fixed level, truncated at a degree bound: producing a term above the
bound raises TruncationOverflowError rather than silently dropping it.
On this space we realize:

  * f_z_op / e_z_op: sum of additions (removals) of a single box of a
            given residue, no signs;
  * b_plus_op / b_minus_op: degree-d Heisenberg operators, adding or
            removing d*e-ribbons componentwise with sign (-1)^height,
            available both directly ("ribbon") and through the abacus
            bead model ("wedge");
  * plethysm_class: the class of the plethysm s_mu[p_e] expanded over
            partitions, via Murnaghan-Nakayama characters;
  * singular_subspace / filtration_dim(s): the joint kernel of all
            lowering operators in a fixed degree, and dimensions of the
            two-parameter filtration it generates under raising
            operators and Heisenberg monomials, every p of one q from
            a single run;
  * embed_to_charged and the wedge operators wedge_f_op / wedge_e_op on
            charged words, the strictly-decreasing integer tuples that
            realize multipartitions once each component is padded to a
            fixed positive charge.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .errors import (
    InvalidInputError,
    TruncationOverflowError,
    UnsupportedParameterError,
)
from .linalg import Row, RowSpan, kernel_basis
from .params import CherednikParams, Residue, reject_integer_kappa
from .partitions import (
    Box,
    Multipartition,
    Partition,
    RibbonMove,
    enumerate_multipartitions,
    enumerate_partitions,
    ribbon_additions,
    ribbon_removals,
)

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

    def degrees(self) -> list[int]:
        return sorted({lam.size for lam in self.entries})

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

    def __mul__(self, r: Scalar) -> "FockVector":
        return self.scale(r)

    __rmul__ = __mul__

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


def _check_truncation(degree: int, truncation: int) -> None:
    if degree > truncation:
        raise TruncationOverflowError(f"term of degree {degree} exceeds truncation {truncation}")


def basis_vector(lam: Multipartition, truncation: int) -> FockVector:
    return FockVector(lam.level, truncation, {lam: Fraction(1)})


def inner_product(u: FockVector, v: FockVector) -> Fraction:
    """Standard bilinear form with the multipartition basis orthonormal."""
    if u.level != v.level:
        raise InvalidInputError("inner product needs equal levels")
    small, big = (u, v) if len(u.entries) <= len(v.entries) else (v, u)
    return sum(
        (c * big.entries[lam] for lam, c in small.entries.items() if lam in big.entries),
        Fraction(0),
    )


class TermMap(NamedTuple):
    """An operator termwise, as a sum over components: `component_moves(i, p)`
    lists the (partition, integer coefficient) terms that replace component i
    of a label of `params.level` when it is p.  When every label has a term,
    each of degree `raising` above it, a label that would overflow a truncation
    is rejected before any term is built; `raising` is 0 otherwise."""

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


def _apply_termwise(v: FockVector, term_map: TermMap) -> FockVector:
    if v.level != term_map.params.level:
        raise InvalidInputError(
            f"vector level {v.level} does not match parameter level {term_map.params.level}"
        )
    for lam in v.entries:
        _check_truncation(lam.size + term_map.raising, v.truncation)
    out: dict[Multipartition, Fraction] = {}
    for lam, c in v.entries.items():
        for mu, w in term_map.moves(lam):
            out[mu] = out.get(mu, Fraction(0)) + c * w
    return FockVector(v.level, v.truncation, out)


def _cell_moves(params: CherednikParams, i: int, p: Partition, remove: bool) -> list:
    """(residue, result) of each one-box removal (or addition) on p, component i of a label."""
    cells = p.removable_cells() if remove else p.addable_cells()
    move = p.remove_cell if remove else p.add_cell
    return [(params.residue(Box(x, y, i)), move(x, y)) for x, y in cells]


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
    return TermMap(
        params, lambda i, p: [(mu, 1) for r, mu in _cell_moves(params, i, p, remove) if r == z]
    )


def f_z_op(v: FockVector, z: Residue, params: CherednikParams) -> FockVector:
    """Sum of all single-box additions of residue z, coefficient 1."""
    return _apply_termwise(v, box_term_map(params, z, remove=False))


def e_z_op(v: FockVector, z: Residue, params: CherednikParams) -> FockVector:
    """Sum of all single-box removals of residue z, coefficient 1."""
    return _apply_termwise(v, box_term_map(params, z, remove=True))


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

    raising = 0 if remove else length
    return TermMap(params, lambda i, p: [(mv.result, mv.sign) for mv in moves(p, step)], raising)


def b_plus_op(
    v: FockVector, d: int, params: CherednikParams, model: str = "ribbon"
) -> FockVector:
    """Degree-d raising Heisenberg operator: add one d*e-ribbon to a
    single component, sign (-1)^(ribbon height).  Every label takes at
    least one ribbon, so a label that would overflow the truncation is
    rejected before any ribbon is built."""
    return _apply_termwise(v, heisenberg_term_map(d, params, model, remove=False))


def b_minus_op(
    v: FockVector, d: int, params: CherednikParams, model: str = "ribbon"
) -> FockVector:
    """Degree-d lowering Heisenberg operator, adjoint to b_plus_op."""
    return _apply_termwise(v, heisenberg_term_map(d, params, model, remove=True))


def _mn_character(mu: tuple[int, ...], rho: tuple[int, ...]) -> int:
    """Symmetric group character chi^mu(rho) by Murnaghan-Nakayama."""
    return _mn_column(rho)[Partition(mu)]


@lru_cache(maxsize=None)
def _mn_column(rho: tuple[int, ...]) -> Counter:
    """chi^lambda(rho) for every lambda of size |rho|.  Murnaghan-Nakayama
    strips signed ribbons of lengths rho[0], rho[1], ... from lambda down
    to the empty shape; read backwards, that adds ribbons of lengths
    rho[-1], ..., rho[0] to the empty shape, so one signed sum of shapes
    per step gives every lambda at once and each column is built once."""
    layer = Counter({Partition(()): 1})
    for length in reversed(rho):
        above: Counter = Counter()
        for shape, coeff in layer.items():
            for mv in ribbon_additions(shape, length):
                above[mv.result] += mv.sign * coeff
        layer = above
    return layer


def _z_rho(rho: Partition) -> int:
    return math.prod(
        part**m * math.factorial(m) for part, m in Counter(rho).items()
    )


def plethysm_class(mu, e: int) -> FockVector:
    """Class of s_mu[p_e] in the level-1 Fock space, truncation e*|mu|.

    Expands s_mu = sum_rho chi^mu(rho)/z_rho * p_rho and substitutes
    p_d -> B_d acting on the vacuum, so the result is the alternating
    sum of e*|mu|-sized terms whose coefficients are the e-ribbon
    tableau signs.
    """
    mu = Partition(mu)
    if e < 2:
        raise UnsupportedParameterError(
            f"plethysm classes need quantization e >= 2, got {e}"
        )
    n = mu.size
    truncation = e * n
    params = CherednikParams(1, Fraction(-1, e), [0])
    vacuum = Multipartition([[]])
    acc = FockVector(1, truncation)
    for rho in enumerate_partitions(n):
        chi = _mn_character(mu, rho)
        if chi == 0:
            continue
        vec = basis_vector(vacuum, truncation)
        for part in rho:
            vec = b_plus_op(vec, part, params, model="ribbon")
        acc = acc + vec.scale(Fraction(chi, _z_rho(rho)))
    return acc


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


def filtration_dim(p: int, q: int, n: int, params: CherednikParams) -> int:
    """Dimension of the degree-n slice of the filtration space built
    from singular vectors by at most q units of Heisenberg raising and
    at most p single-box raisings."""
    return filtration_dims(p, q, n, params)[-1]


def filtration_dims(p: int, q: int, n: int, params: CherednikParams) -> list[int]:
    """[filtration_dim(k, q, n, params) for k = 0..min(p, n)],
    from one run of raising layers.  A run to p makes the same inserts
    in the same order as a run to k < p over its first k layers, and
    after n layers every vector has degree >= n, so no layer adds more.

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
    component_terms: dict[tuple, list] = {}  # (i, partition) -> its terms, read once per call
    entries: dict[tuple[int, int], int] = {}
    for j, lam in enumerate(cols):
        for i, comp in enumerate(lam):
            terms = component_terms.get((i, comp))
            if terms is None:
                terms = component_terms[i, comp] = list(term_map.component_moves(i, comp))
            head, tail = lam[:i], lam[i + 1 :]
            for mu, w in terms:
                r = row_index.get(head + (mu,) + tail)
                if r is None:  # every label of degree_to is a row
                    size = lam.size - comp.size + mu.size
                    _check_truncation(size, truncation)
                    raise InvalidInputError(
                        f"operator image leaves degree {degree_to}: got degree {size}"
                    )
                entries[(r, j)] = w  # distinct moves give distinct terms
    return rows, cols, entries
