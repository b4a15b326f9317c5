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

C-values are the integer keys of `CherednikParams.c_of_box`, scaled by
the record's D.  All-pairs callers compare every label with every
other, so each label's c-value and sorted keys are computed once per
(label, params) and kept for the life of the process.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Optional

from .params import CherednikParams, CKey, reject_level_mismatch
from .partitions import Multipartition


@lru_cache(maxsize=None)
def c_lambda(lam: Multipartition, params: CherednikParams) -> CKey:
    """The sum of lam's box keys: D*c_lam, or (D*u, D*v) at symbolic kappa."""
    reject_level_mismatch(lam, params)
    keys = [params.c_of_box(b) for b in lam.boxes()]
    if params.kappa is not None:
        return sum(keys)
    return (sum(u for u, _ in keys), sum(v for _, v in keys))


def _c_difference(k1: CKey, k2: CKey, params: CherednikParams) -> Optional[int]:
    """c1 - c2 for the keys k1, k2 when it is an exact integer, else None."""
    scale = params.c_keys[0]
    if params.kappa is None:
        if k1[0] != k2[0]:
            return None
        k1, k2 = k1[1], k2[1]
    d, rest = divmod(k1 - k2, scale)
    return None if rest else d


def leq_c(tau: Multipartition, xi: Multipartition, params: CherednikParams) -> bool:
    """tau <=_c xi: equality, or c_tau - c_xi a strictly positive integer."""
    reject_level_mismatch(tau, params)  # c_lambda checks both when tau != xi
    if tau == xi:
        return True
    d = _c_difference(c_lambda(tau, params), c_lambda(xi, params), params)
    return d is not None and d > 0


def box_leq(b1, b2, params: CherednikParams) -> bool:
    """b1 <= b2 in the box order: equivalent boxes (equal residues) whose
    c-difference c_{b1} - c_{b2} is a nonnegative integer (smaller boxes
    have the larger c-value)."""
    if params.residue(b1) != params.residue(b2):
        return False
    d = _c_difference(params.c_of_box(b1), params.c_of_box(b2), params)
    return d is not None and d >= 0


@lru_cache(maxsize=None)
def _residues_and_c(lam: Multipartition, params: CherednikParams) -> tuple:
    """lam's boxes as (residue, c-value key) pairs, in descending order."""
    reject_level_mismatch(lam, params)
    keys = [(params.residue(b), params.c_of_box(b)) for b in lam.boxes()]
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
