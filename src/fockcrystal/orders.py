"""Highest-weight orders on multipartitions.

Two orders drive the theory: the coarse one compares total c-values,
the fine one asks for a box-by-box matching.  The fine order refines the
coarse one, which the test suite checks exhaustively on small ranks.
"""

from __future__ import annotations

from .params import (
    C_ZERO,
    ChargeValue,
    CherednikParams,
    CValue,
    KappaValue,
    _in_kappa_inv_lattice,
    cvalue_integer_difference,
)
from .partitions import Multipartition


def c_lambda(lam: Multipartition, params: CherednikParams) -> CValue:
    total = C_ZERO
    for b in lam.boxes():
        total = total + params.c_of_box(b)
    return total


def leq_c(tau: Multipartition, xi: Multipartition, params: CherednikParams) -> bool:
    """tau <=_c xi: equality, or c_tau - c_xi a strictly positive integer."""
    if tau == xi:
        return True
    d = cvalue_integer_difference(c_lambda(tau, params), c_lambda(xi, params), params.kappa)
    return d is not None and d > 0


def _box_data(b, params: CherednikParams) -> tuple[ChargeValue, CValue]:
    """What the box order reads of a box: its charged content and c-value."""
    return params.charged_content(b), params.c_of_box(b)


def _data_leq(d1, d2, kappa: KappaValue) -> bool:
    """box_leq on the boxes' `_box_data`."""
    (cont1, c1), (cont2, c2) = d1, d2
    if not _in_kappa_inv_lattice(cont1 - cont2, kappa):
        return False
    d = cvalue_integer_difference(c1, c2, kappa)
    return d is not None and d >= 0


def box_leq(b1, b2, params: CherednikParams) -> bool:
    """b1 <= b2 in the box order: equivalent boxes whose c-difference
    c_{b1} - c_{b2} is a nonnegative integer (smaller boxes have the
    larger c-value)."""
    return _data_leq(_box_data(b1, params), _box_data(b2, params), params.kappa)


def preceq(lam: Multipartition, lam2: Multipartition, params: CherednikParams) -> bool:
    """lam precedes lam2 when their boxes admit a perfect matching with
    every box of lam below its partner in the box order."""
    if lam.size != lam2.size:
        return False
    left = [_box_data(b, params) for b in lam.boxes()]
    right = [_box_data(b, params) for b in lam2.boxes()]
    adj = [
        [j for j, d2 in enumerate(right) if _data_leq(d1, d2, params.kappa)]
        for d1 in left
    ]
    return _max_bipartite_matching(adj, len(right)) == len(left)


def _max_bipartite_matching(adj: list[list[int]], n_right: int) -> int:
    """Size of a maximum matching, by augmenting paths (Kuhn).  Each path
    is walked with an explicit stack, so its length is not bounded by the
    recursion limit."""
    match_right = [-1] * n_right
    count = 0
    for root in range(len(adj)):
        seen = [False] * n_right
        # lefts[k] reaches lefts[k + 1] through rights[k] = its partner
        lefts, rights, todo = [root], [], [iter(adj[root])]
        while todo:
            for j in todo[-1]:
                if not seen[j]:
                    seen[j] = True
                    break
            else:
                todo.pop()
                lefts.pop()
                if rights:
                    rights.pop()
                continue
            rights.append(j)
            if match_right[j] == -1:
                for i, r in zip(lefts, rights):
                    match_right[r] = i
                count += 1
                break
            lefts.append(match_right[j])
            todo.append(iter(adj[match_right[j]]))
    return count
