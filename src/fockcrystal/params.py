"""Exact parameter model for cyclotomic rational Cherednik categories O.

A parameter set for G(l,1,n) is a nonzero kappa together with l charges.
kappa is a `Fraction` r/e in lowest terms (then e is the denominator
driving all modular arithmetic) or None, the symbolic irrational
(e = infinity).  Charges are pairs (a, b) standing for a + b/kappa, kept
split so membership tests against the lattices Z, (1/kappa)Z and
Z + (1/kappa)Z stay exact in the symbolic case.

Derived scalars:
  h_i  = kappa*s_i - i/l
  c_b  = kappa*l*(x - y) + l*h_i = kappa*l*cont(b) - i   (cont charged)
h_i is the c-function weight that `c_keys` and `hecke_exponents` use;
`rank_one_verma_hom` takes the rank-one lowest weight, which is -h_i.
Residues and c-values are compiled to integers per component when a
`CherednikParams` is built, so no box builds a Fraction.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple, Optional, Sequence, Union

from .errors import InvalidInputError, UnsupportedParameterError
from .partitions import Box

RationalLike = Union[int, str, Fraction]
# A c-value as an integer key (see `CherednikParams.c_keys`)
CKey = Union[int, tuple[int, int]]


def _frac(x: RationalLike) -> Fraction:
    """x as a Fraction.  A float or bool is refused: Fraction would take a
    float's binary value, so 0.1 would give e = 2**55."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, (float, bool)):
        raise InvalidInputError(f"expected an exact rational number, got {x!r}")
    try:
        return Fraction(x)
    except (ValueError, ZeroDivisionError) as exc:
        raise InvalidInputError(f"cannot parse rational {x!r}") from exc


# Records are NamedTuples: immutable, hashed and ordered as the tuple of
# their fields.  A record that checks or normalises its fields does so in
# the __new__ of a subclass, since a NamedTuple may not define __new__.
class _ChargeValue(NamedTuple):
    a: Fraction
    b: Fraction


class ChargeValue(_ChargeValue):
    """The value a + b/kappa with exact rational a, b."""

    __slots__ = ()

    def __new__(cls, a: RationalLike, b: RationalLike = 0):
        return tuple.__new__(cls, (_frac(a), _frac(b)))

    def __add__(self, other: "ChargeValue") -> "ChargeValue":
        return ChargeValue(self.a + other.a, self.b + other.b)

    def __sub__(self, other: "ChargeValue") -> "ChargeValue":
        return ChargeValue(self.a - other.a, self.b - other.b)

    def shift(self, t: RationalLike) -> "ChargeValue":
        return ChargeValue(self.a + _frac(t), self.b)

    def collapse(self, kappa: Optional[Fraction]) -> Fraction:
        if kappa is None:
            raise UnsupportedParameterError("cannot collapse a charge at symbolic kappa")
        return self.a + self.b / kappa

    def __repr__(self) -> str:
        if self.b == 0:
            return f"ChargeValue({self.a})"
        return f"ChargeValue({self.a}, {self.b})"


class Residue(NamedTuple):
    """Label of a box-equivalence class: the component class and the
    normalized content, an integer mod e (plain integer when e = inf).
    Residues sort by class, then value."""

    class_id: int
    value: int

    def __str__(self) -> str:
        return f"{self.class_id}:{self.value}"


class KappaDenominatorWall(NamedTuple):
    d: int


class ChargeDifferenceWall(NamedTuple):
    i: int
    j: int
    m: int


WallDescriptor = Union[KappaDenominatorWall, ChargeDifferenceWall]


class HeckeExponents(NamedTuple):
    """Multiplicative Hecke parameters as exponents: parameter =
    exp(2*pi*sqrt(-1)*t) with each t reduced mod 1."""

    q_exp: Fraction
    Q_exp: tuple[Fraction, ...]


class _CherednikParams(NamedTuple):
    level: int
    kappa: Optional[Fraction]
    s: tuple[ChargeValue, ...]
    classes: tuple[tuple[int, ...], ...]
    bases: tuple[tuple[int, int], ...]
    c_keys: tuple[int, int, tuple]


class CherednikParams(_CherednikParams):
    """The one constructor of a parameter point.  `kappa` is None (symbolic)
    or anything `Fraction` takes; each charge is a `ChargeValue`, a number
    or string a, or a pair (a, b) for a + b/kappa.

    `classes`, `bases` and `c_keys` are derived, not passed (copy and
    pickle pass the rest).  `classes`: {0..l-1} split by s_i - s_j in
    Z + (1/kappa)Z, ordered by least member.  `bases[i]`: (class id, base)
    of component i, whose box of content c has residue value (base + c)
    mod e (no mod at symbolic kappa).  `c_keys`: (D, step, c_bases), one
    positive integer D scaling every c-value to an integer key; the box of
    content c in component i has key c_bases[i] + step*c = D*c_b at
    rational kappa, and (u_i + step*c, v_i) = D*(u, v) for
    c_b = u*kappa + v at symbolic kappa, where c_bases[i] = (u_i, v_i)."""

    __slots__ = ()

    def __new__(cls, level: int, kappa: Optional[RationalLike], s: Sequence):
        if kappa is not None:
            kappa = _frac(kappa)
            if kappa == 0:
                raise InvalidInputError("kappa must be nonzero")
        if level < 1:
            raise InvalidInputError("level must be at least 1")
        s = tuple(ChargeValue(*c) if isinstance(c, (tuple, list)) else ChargeValue(c) for c in s)
        if len(s) != level:
            raise InvalidInputError(f"expected {level} charges, got {len(s)}")
        classes: list[list[int]] = []
        bases: list[tuple[int, int]] = []
        for i in range(level):
            for cid, members in enumerate(classes):
                if _in_mixed_lattice(s[i] - s[members[0]], kappa):
                    members.append(i)
                    break
            else:
                cid = len(classes)
                classes.append([i])
            bases.append((cid, _residue_base(s[i], s[classes[cid][0]], kappa)))
        keys = _c_keys(level, kappa, s)
        return tuple.__new__(cls, (level, kappa, s, tuple(map(tuple, classes)), tuple(bases), keys))

    def __getnewargs__(self):
        return (self.level, self.kappa, self.s)

    @property
    def e(self) -> Optional[int]:
        """Denominator of kappa in lowest terms; None stands for infinity."""
        return None if self.kappa is None else self.kappa.denominator

    def charged_content(self, b: Box) -> ChargeValue:
        if not 0 <= b.comp < self.level:
            raise InvalidInputError(f"component {b.comp} out of range")
        return self.s[b.comp].shift(b.x - b.y)

    def c_of_box(self, b: Box) -> CKey:
        """c_b = kappa*l*cont(b) - comp as its integer key (see `c_keys`):
        keys sort as the c-values do, lexicographically at symbolic kappa."""
        if not 0 <= b.comp < self.level:
            raise InvalidInputError(f"component {b.comp} out of range")
        _, step, c_bases = self.c_keys
        base = c_bases[b.comp]
        if self.kappa is None:
            return (base[0] + step * (b.x - b.y), base[1])
        return base + step * (b.x - b.y)

    def box_equivalent(self, b1: Box, b2: Box) -> bool:
        d = self.charged_content(b1) - self.charged_content(b2)
        return _in_kappa_inv_lattice(d, self.kappa)

    def class_of_component(self, i: int) -> int:
        if not 0 <= i < self.level:
            raise InvalidInputError(f"component {i} out of range")
        return self.bases[i][0]

    def residue(self, b: Box) -> Residue:
        if not 0 <= b.comp < self.level:
            raise InvalidInputError(f"component {b.comp} out of range")
        cid, base = self.bases[b.comp]
        e = self.e
        value = base + b.x - b.y
        return Residue(cid, value if e is None else value % e)

    def __repr__(self) -> str:
        kappa = "~" if self.kappa is None else self.kappa
        return f"CherednikParams(l={self.level}, kappa={kappa}, s={list(self.s)})"


def reject_integer_kappa(params: CherednikParams) -> None:
    """Reject integer kappa (e = 1); only the `params` diagnostics take it."""
    if params.e == 1:
        raise UnsupportedParameterError(
            "integer kappa (e = 1) is outside the supported parameter range"
        )


def reject_level_mismatch(lam, params: CherednikParams) -> None:
    """Reject a label whose number of components is not the level."""
    if lam.level != params.level:
        raise InvalidInputError(f"{lam} does not have level {params.level}")


def _in_kappa_inv_lattice(d: ChargeValue, kappa: Optional[Fraction]) -> bool:
    """d in (1/kappa)Z."""
    if kappa is not None:
        scaled = kappa * d.collapse(kappa)
        return scaled.denominator == 1
    return d.a == 0 and d.b.denominator == 1


def _in_mixed_lattice(d: ChargeValue, kappa: Optional[Fraction]) -> bool:
    """d in Z + (1/kappa)Z."""
    if kappa is not None:
        # Z + (e/r)Z = (1/r)Z when gcd(e, r) = 1
        return (d.collapse(kappa) * abs(kappa.numerator)).denominator == 1
    return d.a.denominator == 1 and d.b.denominator == 1


def _c_keys(level: int, kappa: Optional[Fraction], s: tuple[ChargeValue, ...]) -> tuple:
    """`CherednikParams.c_keys`.  With s_i = a + b/kappa, the box of
    content c in component i has c_b = u*kappa + v, u = l*(a + c) and
    v = l*b - i; D is the least positive integer making the keys integers."""
    if kappa is not None:
        step = kappa * level
        c_bases = [step * c.a + level * c.b - i for i, c in enumerate(s)]
        scale = math.lcm(step.denominator, *(c.denominator for c in c_bases))
        return scale, int(step * scale), tuple(int(c * scale) for c in c_bases)
    c_bases = [(level * c.a, level * c.b - i) for i, c in enumerate(s)]
    scale = math.lcm(*(x.denominator for pair in c_bases for x in pair))
    return scale, scale * level, tuple((int(u * scale), int(v * scale)) for u, v in c_bases)


def _residue_base(si: ChargeValue, rep: ChargeValue, kappa: Optional[Fraction]) -> int:
    """The base of a component of charge si whose class representative
    has charge rep.  si - rep lies in Z + (1/kappa)Z, which is (1/r)Z at
    kappa = +-r/e, so r times it is an integer."""
    if kappa is None:
        return int(si.a - rep.a) + math.floor(rep.a)
    r, e = abs(kappa.numerator), kappa.denominator
    scaled = r * (si - rep).collapse(kappa) + math.floor(r * rep.collapse(kappa))
    return int(scaled) * pow(r, -1, e) % e


def is_essential_charge_wall(
    params: CherednikParams, i: int, j: int, m: int
) -> bool:
    """Whether s_i - s_j = m defines an essential wall, i.e. the parameter
    point can reach the wall inside its own (1/kappa)Z charge lattice."""
    d = (params.s[i] - params.s[j]).shift(-m)
    return _in_kappa_inv_lattice(d, params.kappa)


def essential_walls(params: CherednikParams, n: int) -> list[WallDescriptor]:
    """Parameter hyperplanes relevant for rank n: the kappa-denominator
    wall when 2 <= e <= n, and each charge wall s_i - s_j = m with i < j,
    |m| < n, whose defining difference lies in (1/kappa)Z."""
    if n < 1:
        raise InvalidInputError("rank n must be at least 1")
    walls: list[WallDescriptor] = []
    if params.e is not None and 2 <= params.e <= n:
        walls.append(KappaDenominatorWall(params.e))
    for i in range(params.level):
        for j in range(i + 1, params.level):
            for m in range(-(n - 1), n):
                if is_essential_charge_wall(params, i, j, m):
                    walls.append(ChargeDifferenceWall(i, j, m))
    return walls


def hecke_exponents(params: CherednikParams) -> HeckeExponents:
    """q = exp(2*pi*i*kappa) and Q_i = exp(2*pi*i*(h_i + i/l)) as exact
    exponents mod 1.  Needs rational kappa."""
    kv = params.kappa
    if kv is None:
        raise UnsupportedParameterError("Hecke exponents need rational kappa")
    q_exp = kv - math.floor(kv)
    Q = []
    for i in range(params.level):
        t = kv * params.s[i].collapse(params.kappa)
        Q.append(t - math.floor(t))
    return HeckeExponents(q_exp, tuple(Q))


def rank_one_verma_hom(
    level: int, h: Sequence[RationalLike], k: int, j: int
) -> tuple[int, Optional[int]]:
    """Dimension of the Hom space between rank-one standard modules with
    lowest h-weights h_k, h_j, together with the witness degree.  This h
    is the rank-one lowest weight h_i = i/l - kappa*s_i, the negative of
    the c-function weight of the module docstring (selftest `rank-one`).

    A nonzero map exists exactly when n := l*(h_j - h_k) is a nonnegative
    integer congruent to j - k mod l (the degree-n coefficient
    n + l*h_{j-n} - l*h_j vanishes precisely then).
    """
    if level < 1:
        raise InvalidInputError("level must be at least 1")
    if not 0 <= k < level or not 0 <= j < level:
        raise InvalidInputError("component indices out of range")
    hs = [_frac(x) for x in h]
    if len(hs) != level:
        raise InvalidInputError(f"expected {level} h-values")
    n = level * (hs[j] - hs[k])
    if n.denominator != 1 or n < 0 or (int(n) - (j - k)) % level != 0:
        return (0, None)
    return (1, int(n))


def normalize_for_support(
    params: CherednikParams,
) -> tuple[CherednikParams, bool]:
    """Reduce to kappa < 0 for the Heisenberg depth, whose asymptotic
    chambers are set up there: positive rational kappa maps to (-kappa, -s)
    with a transpose flag for the labels.  Symbolic kappa carries no sign
    and is returned unchanged.  The crystal depth needs no reduction."""
    if params.kappa is None or params.kappa < 0:
        return params, False
    return _flipped(params), True


@lru_cache
def _flipped(params: CherednikParams) -> CherednikParams:
    """(-kappa, -s), built once per params record: a support table asks
    for it once per label."""
    return CherednikParams(
        params.level, -params.kappa, tuple(ChargeValue(-c.a, -c.b) for c in params.s)
    )
