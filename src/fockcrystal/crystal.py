"""Crystal operators on multipartitions via the signature rule.

For a residue z, the addable and removable z-boxes are listed in
ascending c-value (the "decreasing box order": smaller boxes carry the
larger c) with + for addable and - for removable.  Erasing consecutive
"-+" pairs leaves a reduced word "+...+-...-"; the raising operator
removes the box of the leftmost -, the lowering operator adds the box of
the rightmost +.
"""

from __future__ import annotations

from collections import deque
from typing import Container, Iterator, NamedTuple, Optional

from .errors import InvalidInputError
from .params import CherednikParams, Residue, reject_integer_kappa, reject_level_mismatch
from .partitions import Box, Multipartition, enumerate_multipartitions


class Signature(NamedTuple):
    residue: Residue
    entries: tuple[tuple[Box, str], ...]

    @property
    def word(self) -> str:
        return "".join(sign for _, sign in self.entries)


def relevant_residues(
    lam: Multipartition,
    params: CherednikParams,
    addable: bool = True,
    removable: bool = True,
) -> list[Residue]:
    """Residues carried by the addable/removable boxes of lam, sorted."""
    reject_level_mismatch(lam, params)
    seen = set()
    if addable:
        seen.update(params.residue(b) for b in lam.addable_boxes())
    if removable:
        seen.update(params.residue(b) for b in lam.removable_boxes())
    return sorted(seen)


def z_signature(
    lam: Multipartition, z: Residue, params: CherednikParams
) -> Signature:
    """The addable (+) and removable (-) z-boxes of lam in ascending c.
    No two of them share a c-value (selftest `signature_keys`)."""
    reject_integer_kappa(params)
    reject_level_mismatch(lam, params)
    entries = [
        (b, "+") for b in lam.addable_boxes() if params.residue(b) == z
    ] + [(b, "-") for b in lam.removable_boxes() if params.residue(b) == z]
    entries.sort(key=lambda entry: params.c_of_box(entry[0]))
    return Signature(z, tuple(entries))


def reduce_signature(sig: Signature) -> Signature:
    stack: list[tuple[Box, str]] = []
    for entry in sig.entries:
        if entry[1] == "+" and stack and stack[-1][1] == "-":
            stack.pop()
        else:
            stack.append(entry)
    return Signature(sig.residue, tuple(stack))


def e_tilde(
    lam: Multipartition, z: Residue, params: CherednikParams
) -> Optional[Multipartition]:
    reduced = reduce_signature(z_signature(lam, z, params))
    for box, sign in reduced.entries:
        if sign == "-":
            return lam.remove_box(box)
    return None


def f_tilde(
    lam: Multipartition, z: Residue, params: CherednikParams
) -> Optional[Multipartition]:
    reduced = reduce_signature(z_signature(lam, z, params))
    for box, sign in reversed(reduced.entries):
        if sign == "+":
            return lam.add_box(box)
    return None


def raising_walk(
    lam: Multipartition, params: CherednikParams, known: Container = ()
) -> Iterator[tuple[Multipartition, Residue, Multipartition]]:
    """Raise lam by the first residue whose e~ acts until a highest weight
    vertex or a vertex in `known`, yielding each step as (vertex, residue,
    vertex above); a step is computed only when it is asked for."""
    while lam not in known:
        for z in relevant_residues(lam, params, addable=False):
            above = e_tilde(lam, z, params)
            if above is not None:
                yield lam, z, above
                lam = above
                break
        else:
            return


def is_singular(lam: Multipartition, params: CherednikParams) -> bool:
    """True when every raising operator kills lam."""
    reject_integer_kappa(params)
    return next(raising_walk(lam, params), None) is None


# params -> {vertex: km_depth} for every vertex on a walked path
_DEPTHS: dict[CherednikParams, dict[Multipartition, int]] = {}


def km_depth(lam: Multipartition, params: CherednikParams) -> int:
    """Number of raising steps from lam to its highest weight vertex.  The
    crystal comes from a highest weight categorical action, so each
    component has one highest weight vertex and every raising step removes
    one box: every maximal chain of raising operators from lam has this
    length, and one walk measures it."""
    reject_integer_kappa(params)
    memo = _DEPTHS.setdefault(params, {})
    path = [lam] + [above for _, _, above in raising_walk(lam, params, memo)]
    top = memo.setdefault(path[-1], 0)
    memo.update((vertex, top + k) for k, vertex in enumerate(reversed(path)))
    return memo[lam]


class CrystalGraph(NamedTuple):
    params: CherednikParams
    nodes: tuple[Multipartition, ...]
    edges: tuple[tuple[Multipartition, Residue, Multipartition], ...]


def _node_key(lam: Multipartition):
    return (lam.size, lam.sort_key())


def _assemble_graph(
    params: CherednikParams, node_set: set[Multipartition], size_bound: int
) -> CrystalGraph:
    nodes = sorted(node_set, key=_node_key)
    edges = []
    for lam in nodes:
        if lam.size >= size_bound:
            continue
        for z in relevant_residues(lam, params, removable=False):
            target = f_tilde(lam, z, params)
            if target is not None and target in node_set:
                edges.append((lam, z, target))
    edges.sort(key=lambda t: (_node_key(t[0]), t[1]))
    return CrystalGraph(params, tuple(nodes), tuple(edges))


def crystal_component(
    lam: Multipartition, params: CherednikParams, size_bound: int
) -> CrystalGraph:
    """Closure of lam under raising and lowering operators, with lowering
    stopped at the size bound."""
    reject_integer_kappa(params)
    if size_bound < lam.size:
        raise InvalidInputError("size bound below the starting multipartition")
    seen = {lam}
    queue = deque([lam])
    while queue:
        cur = queue.popleft()
        moves = []
        for z in relevant_residues(cur, params, addable=False):
            moves.append(e_tilde(cur, z, params))
        if cur.size < size_bound:
            for z in relevant_residues(cur, params, removable=False):
                moves.append(f_tilde(cur, z, params))
        for nxt in moves:
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return _assemble_graph(params, seen, size_bound)


def crystal_graph(level: int, n_max: int, params: CherednikParams) -> CrystalGraph:
    """Full crystal on all multipartitions of the level up to size n_max."""
    reject_integer_kappa(params)
    node_set = {
        lam
        for n in range(n_max + 1)
        for lam in enumerate_multipartitions(level, n)
    }
    return _assemble_graph(params, node_set, n_max)
