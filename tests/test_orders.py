"""Highest-weight orders: the coarse c-function order, the box order,
and the matching order, with a brute-force permutation oracle and the
refinement property between the two."""

from fractions import Fraction
from itertools import permutations

import pytest

from fockcrystal import (
    Box,
    CherednikParams,
    Multipartition,
    c_lambda,
    enumerate_multipartitions,
    leq_c,
    preceq,
)
from fockcrystal import orders, selftest
from fockcrystal.selftest import GOLDEN


def make_lam(components):
    return Multipartition(components)


def box_leq(b1, b2, params):
    """b1 <= b2 in the box order: equivalent boxes (equal residues) whose
    c-difference c_{b1} - c_{b2} is a nonnegative integer (smaller boxes
    have the larger c-value)."""
    if params.residue(b1) != params.residue(b2):
        return False
    d = orders._c_difference(params.c_of_box(b1), params.c_of_box(b2), params)
    return d is not None and d >= 0


def brute_preceq(lam, mu, params):
    if lam.size != mu.size:
        return False
    below = [[box_leq(b, c, params) for c in mu.boxes()] for b in lam.boxes()]
    return any(
        all(row[p] for row, p in zip(below, perm))
        for perm in permutations(range(len(below)))
    )


class TestCLambda:
    def test_golden_fixture(self):
        # -18*kappa - 6 = 3 at kappa = -1/2, and the golden scale D is 1
        lam = make_lam([[2, 2], [3, 1, 1, 1]])
        assert GOLDEN.c_keys[0] == 1
        assert c_lambda(lam, GOLDEN) == 3

    def test_level_one_fixture(self):
        p = CherednikParams(1, Fraction(-1, 2), [0])
        assert Fraction(c_lambda(make_lam([[2]]), p), p.c_keys[0]) == Fraction(-1, 2)
        # c = (-2*kappa - 1) + (0*kappa - 1) at symbolic kappa, with D = 1
        q = CherednikParams(2, None, [0, -1])
        assert c_lambda(make_lam([[], [2]]), q) == (-2, -2)

    def test_additive_over_boxes(self):
        lam = make_lam([[2, 1], [1]])
        assert c_lambda(lam, GOLDEN) == sum(GOLDEN.c_of_box(b) for b in lam.boxes())
        p = CherednikParams(2, None, [0, -1])
        keys = [p.c_of_box(b) for b in lam.boxes()]
        assert c_lambda(lam, p) == tuple(map(sum, zip(*keys)))


class TestLeqC:
    def test_reflexive(self):
        for lam in enumerate_multipartitions(2, 3):
            assert leq_c(lam, lam, GOLDEN)

    def test_golden_fixtures(self):
        # c-values: ((1),(1)) -> 0, ((2),()) -> -1, ((),(2)) -> -1
        pair = make_lam([[1], [1]])
        row = make_lam([[2], []])
        other = make_lam([[], [2]])
        assert leq_c(pair, row, GOLDEN)
        assert not leq_c(row, pair, GOLDEN)
        assert not leq_c(row, other, GOLDEN)
        assert not leq_c(other, row, GOLDEN)

    def test_irrational_needs_matching_kappa_part(self):
        p = CherednikParams(2, None, [0, -1])
        assert not leq_c(make_lam([[1], []]), make_lam([[], [1]]), p)
        assert not leq_c(make_lam([[], [1]]), make_lam([[1], []]), p)

    def test_antisymmetric_on_small_ranks(self):
        for n in range(4):
            nodes = enumerate_multipartitions(2, n)
            for lam in nodes:
                for mu in nodes:
                    if lam != mu:
                        assert not (leq_c(lam, mu, GOLDEN) and leq_c(mu, lam, GOLDEN))


class TestBoxOrder:
    def test_golden_fixture(self):
        # c-values 3 and 0 on equivalent boxes: larger c sits lower
        assert box_leq(Box(1, 4, 1), Box(2, 2, 0), GOLDEN)
        assert not box_leq(Box(2, 2, 0), Box(1, 4, 1), GOLDEN)

    def test_requires_equivalence(self):
        assert not box_leq(Box(1, 1, 0), Box(1, 1, 1), GOLDEN)
        assert not box_leq(Box(1, 1, 1), Box(1, 1, 0), GOLDEN)

    def test_reflexive_and_transitive_sample(self):
        boxes = [Box(x, y, c) for c in (0, 1) for x in (1, 2, 3) for y in (1, 2, 3)]
        for b in boxes:
            assert box_leq(b, b, GOLDEN)
        for b1 in boxes:
            for b2 in boxes:
                for b3 in boxes:
                    if box_leq(b1, b2, GOLDEN) and box_leq(b2, b3, GOLDEN):
                        assert box_leq(b1, b3, GOLDEN)


    @pytest.mark.parametrize("params", selftest.GRID, ids=lambda p: f"grid-l{p.level}")
    def test_same_residue_and_no_smaller_c(self, params):
        """The box order is residue equality plus the c-value order that
        preceq sorts by."""
        boxes = {
            b
            for n in range(4)
            for lam in enumerate_multipartitions(params.level, n)
            for b in lam.boxes()
        }

        key = params.c_of_box
        for b1 in boxes:
            for b2 in boxes:
                want = params.residue(b1) == params.residue(b2) and key(b1) >= key(b2)
                assert box_leq(b1, b2, params) == want, (b1, b2)


class TestPreceq:
    def test_size_mismatch(self):
        assert not preceq(make_lam([[1], []]), make_lam([[1], [1]]), GOLDEN)
        for n in range(3):
            for lam in enumerate_multipartitions(2, n):
                for mu in enumerate_multipartitions(2, n + 1):
                    assert not preceq(lam, mu, GOLDEN) and not preceq(mu, lam, GOLDEN)

    def test_reflexive(self):
        for lam in enumerate_multipartitions(2, 3):
            assert preceq(lam, lam, GOLDEN)

    def test_matches_permutation_oracle_level_two(self):
        for n in range(5):
            nodes = enumerate_multipartitions(2, n)
            for lam in nodes:
                for mu in nodes:
                    assert preceq(lam, mu, GOLDEN) == brute_preceq(lam, mu, GOLDEN)

    def test_matches_permutation_oracle_level_one(self):
        p = CherednikParams(1, Fraction(-1, 3), [0])
        for n in range(6):
            nodes = enumerate_multipartitions(1, n)
            for lam in nodes:
                for mu in nodes:
                    assert preceq(lam, mu, p) == brute_preceq(lam, mu, p)

    @pytest.mark.parametrize(
        "params",
        [
            CherednikParams(3, Fraction(-1, 3), [0, 1, -1]),
            CherednikParams(2, None, [0, -1]),
        ],
        ids=["level3", "irrational"],
    )
    def test_matches_permutation_oracle(self, params):
        for n in range(5):
            nodes = enumerate_multipartitions(params.level, n)
            for lam in nodes:
                for mu in nodes:
                    assert preceq(lam, mu, params) == brute_preceq(lam, mu, params)

    def test_refines_c_order(self):
        samples = [
            GOLDEN,
            CherednikParams(2, Fraction(-2, 3), [0, Fraction(1, 2)]),
            CherednikParams(1, Fraction(-1, 2), [0]),
            CherednikParams(2, None, [0, -1]),
        ]
        for params in samples:
            selftest.order_refinement(params, 4)

