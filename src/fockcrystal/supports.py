"""Supports of simple modules: the depth pair (p, q) and W_{p,q}.

p is the Kac-Moody crystal depth.  q comes from the commuting Heisenberg
crystal: in an asymptotic chamber (one charge far below the others) it
is the quotient size of division with remainder; a general chamber is
reduced to an asymptotic one by a chain of wall-crossing bijections, one
per essential charge wall between the two chambers.

Each single crossing is the unique size-preserving isomorphism between
the two-component generic-kappa crystals sitting on either side of the
wall.  It is computed by walking the source vertex up to its highest
weight vertex, matching that vertex with the target side's highest
weight vertex of the same size, and replaying the recorded path.  The
image of every vertex on a walked path is remembered per (m, direction)
for the life of the process, so a later walk stops at the first vertex
already mapped.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional, Union

from .crystal import f_tilde, is_singular, km_depth, raising_walk
from .errors import InternalInvariantError, InvalidInputError, UnsupportedParameterError
from .params import (
    CherednikParams,
    ChargeDifferenceWall,
    is_essential_charge_wall,
    make_params,
    normalize_for_support,
    reject_integer_kappa,
    reject_level_mismatch,
)
from .partitions import Multipartition, Partition, divide_with_remainder

PartitionPair = tuple[Partition, Partition]


class SupportDescriptor(NamedTuple):
    """Support of a simple: Supp L = closure of X(W_{p,q}) with
    W_{p,q} = G(l,1,n-p-eq) x Sym_e^q inside G(l,1,n)."""

    p: int
    q: int
    stabilizer: tuple
    dim_support: int
    finite_dimensional: bool


class WallCrossStep(NamedTuple):
    """One essential charge wall s_i - s_j = m together with the side
    entered: "up" moves s_j downward through the wall (the difference
    s_i - s_j increases), "down" is the inverse."""

    wall: ChargeDifferenceWall
    direction: str = "up"


def _require_rational(params: CherednikParams, what: str) -> int:
    if not params.kappa.is_rational:
        raise UnsupportedParameterError(f"{what} needs rational kappa")
    reject_integer_kappa(params)
    return params.kappa.e


def _check_asymptotic(lam: Multipartition, j: int, params: CherednikParams) -> None:
    reject_level_mismatch(lam, params)
    if not 0 <= j < params.level:
        raise InvalidInputError(f"component {j} out of range")
    if params.level == 1:
        return
    n = lam.size
    sj = params.s[j].collapse(params.kappa)
    for i in range(params.level):
        if i != j and not sj < params.s[i].collapse(params.kappa) - n:
            raise UnsupportedParameterError(
                f"charges are not asymptotic in component {j}: "
                f"s_{j} must sit below s_{i} - {n}"
            )


def asymptotic_q(
    lam: Multipartition, j: int, params: CherednikParams
) -> tuple[int, Partition, Partition]:
    """q together with the division witness, valid when s_j lies below
    every other charge by more than |lam|."""
    e = _require_rational(params, "asymptotic q")
    _check_asymptotic(lam, j, params)
    quot, rem = divide_with_remainder(lam.component(j), e)
    return quot.size, quot, rem


def _slinf_e_tilde(nu: Partition, content: int) -> Optional[Partition]:
    """Raising operator of the generic-kappa one-component crystal: each
    diagonal carries at most one boundary cell, so no signature is needed."""
    for x, y in nu.removable_cells():
        if x - y == content:
            return nu.remove_cell(x, y)
    return None


def heis_e_asymptotic(
    lam: Multipartition, j: int, content: int, params: CherednikParams
) -> Optional[Multipartition]:
    """One Heisenberg raising step in an asymptotic chamber: divide the
    j-th component, raise the quotient at the given content, recombine."""
    e = _require_rational(params, "the asymptotic Heisenberg operator")
    _check_asymptotic(lam, j, params)
    quot, rem = divide_with_remainder(lam.component(j), e)
    up = _slinf_e_tilde(quot, content)
    if up is None:
        return None
    rows = max(len(up), len(rem))
    merged = Partition(e * up.row(y) + rem.row(y) for y in range(1, rows + 1))
    return lam.replace_component(j, merged)


@lru_cache(maxsize=None)
def _transport_side_params(m: int, upper: bool) -> CherednikParams:
    # The lower side carries slot charges (0, m); the upper side shifts
    # the second slot by one kappa-inverse unit, which swaps the order of
    # equal-content boxes between the two slots.
    return make_params(2, None, [(0, 0), (m, 1 if upper else 0)])


def _match_highest_weight(
    top: Multipartition, direction: str, dst: CherednikParams
) -> Multipartition:
    """The same-size highest weight vertex across the wall: swap the
    components and conjugate."""
    first, second = top.components
    empty_slot = second if direction == "down" else first
    if len(empty_slot) != 0:
        raise InternalInvariantError(
            f"transport reached unexpected highest weight vertex {top}"
        )
    target = Multipartition([second.transpose(), first.transpose()])
    if not is_singular(target, dst):
        raise InternalInvariantError(
            f"matched vertex {target} is not highest weight across the wall"
        )
    return target


# (m, direction) -> {source vertex: its image across the wall}.  The
# walk below is deterministic and the isomorphism unique, so an image
# stored for a vertex met on some walk is the one its own walk gives.
_TRANSPORTED: dict[tuple[int, str], dict[Multipartition, Multipartition]] = {}


def level2_transport(
    pair: Union[PartitionPair, Multipartition], m: int, direction: str = "up"
) -> PartitionPair:
    """The unique size-preserving crystal isomorphism between the
    two-component generic-kappa crystals with slot charges (0, m) on the
    two sides of a wall.

    Walks up (`raising_walk`) until it meets a vertex already mapped or
    a highest weight vertex, which it maps to the same-size highest
    weight vertex across the wall (swap the components and conjugate);
    then replays the path down.  The image of every vertex on the path is remembered per
    (m, direction) for the life of the process.
    """
    if direction not in ("up", "down"):
        raise InvalidInputError(f"unknown transport direction {direction!r}")
    src = _transport_side_params(m, upper=(direction == "down"))
    dst = _transport_side_params(m, upper=(direction == "up"))
    cur = pair if isinstance(pair, Multipartition) else Multipartition(pair)
    if cur.level != 2:
        raise InvalidInputError("transport expects a pair of partitions")
    memo = _TRANSPORTED.setdefault((m, direction), {})
    path = list(raising_walk(cur, src, memo))
    top = path[-1][2] if path else cur
    if top not in memo:
        memo[top] = _match_highest_weight(top, direction, dst)
    target = memo[top]
    for vertex, z, _ in reversed(path):
        target = f_tilde(target, z, dst)
        if target is None:
            raise InternalInvariantError("path replay died; the crystals do not match")
        memo[vertex] = target
    return target.components


def wall_cross(
    lam: Multipartition, step: WallCrossStep, params: CherednikParams
) -> Multipartition:
    """Apply the wall-crossing bijection for one essential charge wall to
    the labels of simples; components off the wall's pair are untouched."""
    reject_integer_kappa(params)
    reject_level_mismatch(lam, params)
    wall = step.wall
    if not isinstance(wall, ChargeDifferenceWall):
        raise UnsupportedParameterError("only charge walls are crossed")
    if wall.i == wall.j or not (
        0 <= wall.i < params.level and 0 <= wall.j < params.level
    ):
        raise InvalidInputError(f"bad wall pair ({wall.i}, {wall.j})")
    if not is_essential_charge_wall(params, wall.i, wall.j, wall.m):
        raise InvalidInputError(
            f"wall s_{wall.i} - s_{wall.j} = {wall.m} is not essential here"
        )
    pi, pj = level2_transport(
        (lam.component(wall.i), lam.component(wall.j)), -wall.m, step.direction
    )
    return lam.replace_component(wall.i, pi).replace_component(wall.j, pj)


@lru_cache(maxsize=None)
def _class_crossings(
    params: CherednikParams,
    members: tuple[int, ...],
    lowering: Optional[int],
    n: int,
) -> tuple[int, tuple[tuple[int, int], ...]]:
    """The component j a class lowers and the walls (i, m) it crosses on
    the way to its asymptotic chamber at rank n, in crossing order."""
    svals = {i: params.s[i].collapse(params.kappa) for i in members}
    if lowering is None:
        j = min(members, key=lambda i: (svals[i], i))
    else:
        j = lowering
        if j not in members:
            raise InvalidInputError(f"component {j} is not in class {members}")
    crossings = []
    for i in members:
        if i == j:
            continue
        delta = svals[i] - svals[j]
        for m in range(-(n - 1), n):
            if not is_essential_charge_wall(params, i, j, m):
                continue
            # a start exactly on the wall counts as below it only for the
            # pair ordering given by the i e-perturbation s_i + i*eps
            if m > delta or (m == delta and i < j):
                crossings.append((svals[i] - m, i, m))
    crossings.sort(key=lambda t: (-t[0], t[1]))
    return j, tuple((i, m) for _, i, m in crossings)


def _class_q(
    lam: Multipartition,
    members: tuple[int, ...],
    params: CherednikParams,
    lowering: Optional[int] = None,
) -> int:
    j, walls = _class_crossings(params, members, lowering, lam.size)
    cur = lam
    for i, m in walls:
        pi, pj = level2_transport((cur.component(i), cur.component(j)), -m, "up")
        cur = cur.replace_component(i, pi).replace_component(j, pj)
    quot, _ = divide_with_remainder(cur.component(j), params.kappa.e)
    return quot.size


def heis_q(
    lam: Multipartition,
    params: CherednikParams,
    lowering: Optional[dict[int, int]] = None,
) -> int:
    """The Heisenberg depth, summed over charge classes.  Each class is
    transported to an asymptotic chamber by lowering one designated
    component through every essential wall ahead of it; the optional
    ``lowering`` map overrides the designated component per class id (the
    result is independent of the choice, which the tests exercise)."""
    reject_level_mismatch(lam, params)
    normalized, flip = normalize_for_support(params)
    lam = lam.transpose() if flip else lam
    if not normalized.kappa.is_rational:
        return 0
    _require_rational(normalized, "the Heisenberg depth")
    total = 0
    for cid, members in enumerate(normalized.component_classes()):
        pick = lowering.get(cid) if lowering else None
        total += _class_q(lam, members, normalized, pick)
    return total


def support(
    lam: Multipartition, params: CherednikParams, n: Optional[int] = None
) -> SupportDescriptor:
    """Full support descriptor of the simple labelled by lam."""
    reject_level_mismatch(lam, params)
    if n is None:
        n = lam.size
    elif n != lam.size:
        raise InvalidInputError(f"rank {n} does not match |lam| = {lam.size}")
    normalized, flip = normalize_for_support(params)
    work = lam.transpose() if flip else lam
    level = normalized.level
    if normalized.kappa.is_rational:
        e = _require_rational(normalized, "support computation")
        q = heis_q(work, normalized)
    else:
        e, q = None, 0
    p = km_depth(work, normalized)
    residual = n - p - (e * q if e is not None else 0)
    if residual < 0:
        raise InternalInvariantError(
            f"support invariant p + e*q <= n violated for {lam}: ({p}, {q})"
        )
    if level >= 2:
        dim = p + q
    else:
        dim = max(p + q + (1 if residual > 0 else 0) - 1, 0)
    return SupportDescriptor(
        p=p,
        q=q,
        stabilizer=(level, residual, e, q),
        dim_support=dim,
        finite_dimensional=(dim == 0),
    )
