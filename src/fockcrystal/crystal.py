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


def relevant_residues(lam: Multipartition, params: CherednikParams) -> list[Residue]:
    """Residues carried by the addable and removable boxes of lam, sorted."""
    return sorted(_signatures(lam, params))


def _signatures(
    lam: Multipartition, params: CherednikParams
) -> dict[Residue, list[tuple[Box, str]]]:
    """Every signature of lam from one pass over its boxes: each residue
    carried by an addable (+) or removable (-) box maps to its entries in
    ascending c.  No two of them share a c-value (selftest
    `signature_keys`)."""
    reject_level_mismatch(lam, params)
    groups: dict[Residue, list[tuple[Box, str]]] = {}
    for sign, boxes in (("+", lam.addable_boxes()), ("-", lam.removable_boxes())):
        for b in boxes:
            groups.setdefault(params.residue(b), []).append((b, sign))
    for entries in groups.values():
        entries.sort(key=lambda entry: params.c_of_box(entry[0]))
    return groups


def z_signature(
    lam: Multipartition, z: Residue, params: CherednikParams
) -> Signature:
    """The addable (+) and removable (-) z-boxes of lam in ascending c."""
    reject_integer_kappa(params)
    return Signature(z, tuple(_signatures(lam, params).get(z, ())))


def _reduce(entries) -> list[tuple[Box, str]]:
    stack: list[tuple[Box, str]] = []
    for entry in entries:
        if entry[1] == "+" and stack and stack[-1][1] == "-":
            stack.pop()
        else:
            stack.append(entry)
    return stack


def reduce_signature(sig: Signature) -> Signature:
    return Signature(sig.residue, tuple(_reduce(sig.entries)))


def _raised(lam: Multipartition, entries) -> Optional[Multipartition]:
    """e~ on the signature `entries` of lam: remove the leftmost - box."""
    for box, sign in _reduce(entries):
        if sign == "-":
            return lam.remove_box(box)
    return None


def _lowered(lam: Multipartition, entries) -> Optional[Multipartition]:
    """f~ on the signature `entries` of lam: add the rightmost + box."""
    for box, sign in reversed(_reduce(entries)):
        if sign == "+":
            return lam.add_box(box)
    return None


def e_tilde(
    lam: Multipartition, z: Residue, params: CherednikParams
) -> Optional[Multipartition]:
    return _raised(lam, z_signature(lam, z, params).entries)


def f_tilde(
    lam: Multipartition, z: Residue, params: CherednikParams
) -> Optional[Multipartition]:
    return _lowered(lam, z_signature(lam, z, params).entries)


def raising_walk(
    lam: Multipartition, params: CherednikParams, known: Container = ()
) -> Iterator[tuple[Multipartition, Residue, Multipartition]]:
    """Raise lam by the first residue whose e~ acts until a highest weight
    vertex or a vertex in `known`, yielding each step as (vertex, residue,
    vertex above); a step is computed only when it is asked for."""
    while lam not in known:
        sigs = _signatures(lam, params)
        for z in sorted(sigs):
            above = _raised(lam, sigs[z])
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


def _assemble_graph(
    params: CherednikParams, node_set: set[Multipartition], size_bound: int
) -> CrystalGraph:
    """The f~ edges among node_set, in the order of their source and then
    of their residue."""
    nodes = sorted(node_set, key=Multipartition.sort_key)
    edges = []
    for lam in nodes:
        if lam.size >= size_bound:
            continue
        sigs = _signatures(lam, params)
        for z in sorted(sigs):
            target = _lowered(lam, sigs[z])
            if target is not None and target in node_set:
                edges.append((lam, z, target))
    return CrystalGraph(params, tuple(nodes), tuple(edges))


def graph_depths(graph: CrystalGraph) -> dict[Multipartition, int]:
    """km_depth of every vertex, read off the edges: a vertex with no
    incoming edge has depth 0, and an f~ edge adds one.  Edges come in the
    order of their source's size, so each source's depth is final before
    it is read.  This needs a graph closed under e~, as both builders give:
    then every vertex that is not highest weight has an incoming edge."""
    depth = dict.fromkeys(graph.nodes, 0)
    for src, _, dst in graph.edges:
        depth[dst] = depth[src] + 1
    return depth


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
        sigs = _signatures(cur, params).values()
        moves = [_raised(cur, entries) for entries in sigs]
        if cur.size < size_bound:
            moves += [_lowered(cur, entries) for entries in sigs]
        for nxt in moves:
            if nxt is not None and nxt not in seen:
                seen.add(nxt)
                queue.append(nxt)
    return _assemble_graph(params, seen, size_bound)


def crystal_graph(n_max: int, params: CherednikParams) -> CrystalGraph:
    """Full crystal on all multipartitions of the level up to size n_max."""
    reject_integer_kappa(params)
    node_set = {
        lam
        for n in range(n_max + 1)
        for lam in enumerate_multipartitions(params.level, n)
    }
    return _assemble_graph(params, node_set, n_max)
