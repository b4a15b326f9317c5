"""Parameter diagnostics: essential walls, Hecke exponents and rank-one
morphisms.  The `params`, `support`, `wallcross` and `rank1` commands
load this module; `crystal` and `fock` do not."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Optional, Sequence, Union

from .errors import InvalidInputError, UnsupportedParameterError
from .params import CherednikParams, RationalLike, _frac, _in_kappa_inv_lattice


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
    the c-function weight of the `params` docstring (selftest `rank-one`).

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
