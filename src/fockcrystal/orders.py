"""Highest-weight orders on multipartitions.

Two orders drive the theory: the coarse one compares total c-values,
the fine one asks for a box-by-box matching.  The fine order refines the
coarse one, which the test suite checks exhaustively on small ranks.

Boxes are equivalent exactly when they have the same residue, and the
c-values of equivalent boxes differ by an integer, so a box lies below
exactly the boxes of its residue with no larger c-value.  The matching
therefore exists iff each residue has equally many boxes in both labels
and the first label's c-values, sorted descending, dominate the second's
termwise: the fine order is sorted per-residue dominance.

All-pairs callers compare every label with every other, so each label's
c-value and sorted keys are computed once per (label, params) and kept
for the life of the process.
"""

from __future__ import annotations

from functools import lru_cache

from .params import (
    C_ZERO,
    CherednikParams,
    CValue,
    c_sort_key,
    cvalue_integer_difference,
    reject_level_mismatch,
)
from .partitions import Multipartition


@lru_cache(maxsize=None)
def c_lambda(lam: Multipartition, params: CherednikParams) -> CValue:
    reject_level_mismatch(lam, params)
    return sum((params.c_of_box(b) for b in lam.boxes()), C_ZERO)


def leq_c(tau: Multipartition, xi: Multipartition, params: CherednikParams) -> bool:
    """tau <=_c xi: equality, or c_tau - c_xi a strictly positive integer."""
    reject_level_mismatch(tau, params)  # c_lambda checks both when tau != xi
    if tau == xi:
        return True
    d = cvalue_integer_difference(c_lambda(tau, params), c_lambda(xi, params), params.kappa)
    return d is not None and d > 0


def box_leq(b1, b2, params: CherednikParams) -> bool:
    """b1 <= b2 in the box order: equivalent boxes whose c-difference
    c_{b1} - c_{b2} is a nonnegative integer (smaller boxes have the
    larger c-value)."""
    if not params.box_equivalent(b1, b2):
        return False
    d = cvalue_integer_difference(params.c_of_box(b1), params.c_of_box(b2), params.kappa)
    return d is not None and d >= 0


@lru_cache(maxsize=None)
def _residues_and_c(lam: Multipartition, params: CherednikParams) -> tuple:
    """lam's boxes as (residue, c-value) sort keys, in descending order."""
    reject_level_mismatch(lam, params)
    keys = [
        (params.residue(b), c_sort_key(params.c_of_box(b), params.kappa))
        for b in lam.boxes()
    ]
    return tuple(sorted(keys, reverse=True))


def preceq(lam: Multipartition, lam2: Multipartition, params: CherednikParams) -> bool:
    """lam precedes lam2 when their boxes admit a perfect matching with
    every box of lam below its partner in the box order.  Sorted by
    residue, then by descending c-value, the two lists line up residue by
    residue exactly when each residue has equally many boxes in both."""
    left, right = _residues_and_c(lam, params), _residues_and_c(lam2, params)
    return len(left) == len(right) and all(
        z == z2 and c >= c2 for (z, c), (z2, c2) in zip(left, right)
    )
