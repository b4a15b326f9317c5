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
crystal operators there need no parameters: each slot has at most one
boundary cell per residue, so every signature has at most two entries.
The image of every vertex on a walked path is remembered per
(m, direction) for the life of the process, so a later walk stops at
the first vertex already mapped.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Optional

from .crystal import km_depth
from .errors import InternalInvariantError, InvalidInputError, UnsupportedParameterError
from .params import ChargeValue, CherednikParams, reject_integer_kappa, reject_level_mismatch
from .partitions import Multipartition, Partition, divide_with_remainder
from .walls import ChargeDifferenceWall, is_essential_charge_wall

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
    if params.kappa is None:
        raise UnsupportedParameterError(f"{what} needs rational kappa")
    reject_integer_kappa(params)
    return params.e


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
    quot, rem = divide_with_remainder(lam[j], e)
    return quot.size, quot, rem


@lru_cache(maxsize=None)
def _boundary(nu: Partition) -> dict[int, tuple[int, int, str]]:
    """Content -> the one removable ("-") or addable ("+") cell of nu on
    that diagonal: at generic kappa, a slot's whole signature there."""
    cells = {x - y: (x, y, "+") for x, y in nu.addable_cells()}
    cells.update((x - y, (x, y, "-")) for x, y in nu.removable_cells())
    return cells


def heis_e_asymptotic(
    lam: Multipartition, j: int, content: int, params: CherednikParams
) -> Optional[Multipartition]:
    """One Heisenberg raising step in an asymptotic chamber: divide the
    j-th component, raise the quotient at the given content, recombine."""
    e = _require_rational(params, "the asymptotic Heisenberg operator")
    _check_asymptotic(lam, j, params)
    quot, rem = divide_with_remainder(lam[j], e)
    cell = _boundary(quot).get(content)
    if cell is None or cell[2] != "-":
        return None
    up = quot.remove_cell(cell[0], cell[1])
    rows = max(len(up), len(rem))
    merged = Partition(e * up.row(y) + rem.row(y) for y in range(1, rows + 1))
    return lam.replace_component(j, merged)


def _two_slot_move(
    pair: PartitionPair, z: int, m: int, upper: bool, sign: str
) -> Optional[PartitionPair]:
    """e~ (sign "-") or f~ (sign "+") at residue z of the generic-kappa
    crystal on pairs with slot charges (0, m), below or above the wall: a
    cell of content c in slot k has residue c + k*m, so the z-signature
    holds at most one cell per slot, slot 1 first below the wall and
    slot 0 first above it, and only the word "-+" cancels."""
    order = (0, 1) if upper else (1, 0)
    word = [(k, *cell) for k in order if (cell := _boundary(pair[k]).get(z - k * m))]
    signs = "".join(t[3] for t in word)
    if signs == "-+" or sign not in signs:
        return None
    k, x, y, _ = word[signs.index("-")] if sign == "-" else word[signs.rindex("+")]
    nu = pair[k].remove_cell(x, y) if sign == "-" else pair[k].add_cell(x, y)
    return (nu, pair[1]) if k == 0 else (pair[0], nu)


def _two_slot_raise(
    pair: PartitionPair, m: int, upper: bool
) -> Optional[tuple[int, PartitionPair]]:
    """The raise by the smallest removable residue that acts, as
    (residue, vertex above); None at a highest weight vertex."""
    residues = {
        c + k * m for k in (0, 1) for c, cell in _boundary(pair[k]).items() if cell[2] == "-"
    }
    for z in sorted(residues):
        above = _two_slot_move(pair, z, m, upper, "-")
        if above is not None:
            return z, above
    return None


def _match_highest_weight(top: PartitionPair, direction: str, m: int) -> PartitionPair:
    """The same-size highest weight vertex across the wall: swap the
    components and conjugate."""
    first, second = top
    empty_slot = second if direction == "down" else first
    if len(empty_slot) != 0:
        raise InternalInvariantError(
            f"transport reached unexpected highest weight vertex {Multipartition(top)}"
        )
    target = (second.transpose(), first.transpose())
    if _two_slot_raise(target, m, upper=(direction == "up")) is not None:
        raise InternalInvariantError(
            f"matched vertex {Multipartition(target)} is not highest weight across the wall"
        )
    return target


# (m, direction) -> {source vertex: its image across the wall}.  The
# walk below is deterministic and the isomorphism unique, so an image
# stored for a vertex met on some walk is the one its own walk gives.
_TRANSPORTED: dict[tuple[int, str], dict[PartitionPair, PartitionPair]] = {}


def level2_transport(
    pair: PartitionPair, m: int, direction: str = "up"
) -> PartitionPair:
    """The unique size-preserving crystal isomorphism between the
    two-component generic-kappa crystals with slot charges (0, m) on the
    two sides of a wall.  `pair` is two partitions, such as a level-2
    label; the image is a plain pair.

    Walks up (`_two_slot_raise`) until it meets a vertex already mapped
    or a highest weight vertex, which it maps to the same-size highest
    weight vertex across the wall (swap the components and conjugate);
    then replays the path down.  The image of every vertex on the path
    is remembered per (m, direction) for the life of the process.
    """
    if direction not in ("up", "down"):
        raise InvalidInputError(f"unknown transport direction {direction!r}")
    upper = direction == "down"
    cur = Multipartition(pair)
    if cur.level != 2:
        raise InvalidInputError("transport expects a pair of partitions")
    memo = _TRANSPORTED.setdefault((m, direction), {})
    path = []
    while cur not in memo:
        step = _two_slot_raise(cur, m, upper)
        if step is None:
            memo[cur] = _match_highest_weight(cur, direction, m)
            break
        path.append((cur, step[0]))
        cur = step[1]
    target = memo[cur]
    for vertex, z in reversed(path):
        target = _two_slot_move(target, z, m, not upper, "+")
        if target is None:
            raise InternalInvariantError("path replay died; the crystals do not match")
        memo[vertex] = target
    return target


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
    pi, pj = level2_transport((lam[wall.i], lam[wall.j]), -wall.m, step.direction)
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
    # s_j meets the wall s_i - s_j = m at s_i - m + (i - j)*eps: of two
    # walls at one position, the one with the larger i comes first
    crossings.sort(key=lambda t: (-t[0], -t[1]))
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
        pi, pj = level2_transport((cur[i], cur[j]), -m, "up")
        cur = cur.replace_component(i, pi).replace_component(j, pj)
    quot, _ = divide_with_remainder(cur[j], params.e)
    return quot.size


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
    for it once per label.  The charge a + b/kappa negated is
    -a + b/(-kappa), so at -kappa it is the pair (-a, b)."""
    return CherednikParams(
        params.level, -params.kappa, tuple(ChargeValue(-c.a, c.b) for c in params.s)
    )


def heis_q(
    lam: Multipartition,
    params: CherednikParams,
    lowering: Optional[dict[int, int]] = None,
) -> int:
    """The Heisenberg depth, summed over charge classes.  Each class is
    transported to an asymptotic chamber by lowering one designated
    component through every essential wall ahead of it; the optional
    ``lowering`` map overrides the designated component per class id (the
    result is independent of the choice, which the tests exercise).  At
    positive kappa it is the depth of lam transposed at (-kappa, -s)."""
    reject_level_mismatch(lam, params)
    normalized, flip = normalize_for_support(params)
    lam = lam.transpose() if flip else lam
    if normalized.kappa is None:
        return 0
    reject_integer_kappa(normalized)
    total = 0
    for cid, members in enumerate(normalized.classes):
        pick = lowering.get(cid) if lowering else None
        total += _class_q(lam, members, normalized, pick)
    return total


def support(lam: Multipartition, params: CherednikParams) -> SupportDescriptor:
    """Full support descriptor of the simple labelled by lam, of rank |lam|."""
    q = heis_q(lam, params)
    p = km_depth(lam, params)
    e = params.e
    residual = lam.size - p - (e * q if e is not None else 0)
    if residual < 0:
        raise InternalInvariantError(
            f"support invariant p + e*q <= n violated for {lam}: ({p}, {q})"
        )
    if params.level >= 2:
        dim = p + q
    else:
        dim = max(p + q + (1 if residual > 0 else 0) - 1, 0)
    return SupportDescriptor(
        p=p,
        q=q,
        stabilizer=(params.level, residual, e, q),
        dim_support=dim,
        finite_dimensional=(dim == 0),
    )
