"""Support descriptors: asymptotic Heisenberg depth via division,
wall-crossing bijections with their invariance properties, and the
(p, q) tables that decide finite-dimensionality."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcrystal import (
    ChargeDifferenceWall,
    CherednikParams,
    InvalidInputError,
    KappaDenominatorWall,
    Multipartition,
    Partition,
    UnsupportedParameterError,
    WallCrossStep,
    asymptotic_q,
    enumerate_multipartitions,
    enumerate_partitions,
    heis_e_asymptotic,
    heis_q,
    level2_transport,
    support,
    wall_cross,
)
from fockcrystal import cli, crystal, params, selftest, supports

GOLDEN = CherednikParams(2, Fraction(-1, 2), [0, -1])
FAR = CherednikParams(2, Fraction(-1, 2), [0, -3])
ASYM = CherednikParams(2, Fraction(-1, 2), [0, -10])
UP_WALL = WallCrossStep(ChargeDifferenceWall(0, 1, 1), "up")


class TestAsymptoticQ:
    def test_division_witness(self):
        q, quot, rem = asymptotic_q(Multipartition([[], [4]]), 1, ASYM)
        assert (q, quot, rem) == (2, Partition([2]), Partition([]))

    def test_remainder_only(self):
        q, quot, rem = asymptotic_q(Multipartition([[1], [2, 1]]), 1, ASYM)
        assert (q, quot, rem) == (0, Partition([]), Partition([2, 1]))

    def test_needs_asymptotic_chamber(self):
        with pytest.raises(UnsupportedParameterError):
            asymptotic_q(Multipartition([[], [4]]), 0, ASYM)
        with pytest.raises(UnsupportedParameterError):
            asymptotic_q(Multipartition([[], [4]]), 1, GOLDEN)

    def test_component_range(self):
        with pytest.raises(InvalidInputError):
            asymptotic_q(Multipartition([[], [4]]), 2, ASYM)

    def test_needs_rational_kappa(self):
        p = CherednikParams(2, None, [0, -10])
        with pytest.raises(UnsupportedParameterError):
            asymptotic_q(Multipartition([[], [4]]), 1, p)


class TestAsymptoticHeisenberg:
    def test_raises_quotient(self):
        lam = Multipartition([[], [4]])
        assert heis_e_asymptotic(lam, 1, 1, ASYM) == Multipartition([[], [2]])
        assert heis_e_asymptotic(lam, 1, 0, ASYM) is None

    def test_recombines_with_remainder(self):
        lam = Multipartition([[], [5, 1]])
        assert heis_e_asymptotic(lam, 1, 1, ASYM) == Multipartition([[], [3, 1]])

    def test_lowers_q_by_one(self):
        for n in range(6):
            for part in enumerate_partitions(n):
                lam = Multipartition([[], part])
                q0 = asymptotic_q(lam, 1, ASYM)[0]
                for content in range(-n, n + 1):
                    up = heis_e_asymptotic(lam, 1, content, ASYM)
                    if up is not None:
                        assert up.size == lam.size - 2
                        assert asymptotic_q(up, 1, ASYM)[0] == q0 - 1


class TestTransport:
    def test_swap_at_central_charge(self):
        assert level2_transport((Partition([1]), Partition([])), 0, "up") == (
            Partition([]),
            Partition([1]),
        )
        assert level2_transport((Partition([2]), Partition([])), 0, "up") == (
            Partition([]),
            Partition([2]),
        )
        assert level2_transport((Partition([1, 1]), Partition([])), 0, "up") == (
            Partition([]),
            Partition([1, 1]),
        )

    def test_down_inverts_up(self):
        for n in range(5):
            for lam in enumerate_multipartitions(2, n):
                pair = (lam[0], lam[1])
                for m in (-1, 0, 1):
                    crossed = level2_transport(pair, m, "up")
                    assert level2_transport(crossed, m, "down") == pair

    def test_size_preserved_and_bijective(self):
        for m in (-1, 0, 2):
            for n in range(5):
                nodes = enumerate_multipartitions(2, n)
                images = set()
                for lam in nodes:
                    out = level2_transport(lam, m, "up")
                    assert out[0].size + out[1].size == n
                    images.add(out)
                assert len(images) == len(nodes)

    def test_direction_validated(self):
        with pytest.raises(InvalidInputError):
            level2_transport((Partition([]), Partition([])), 0, "sideways")

    def test_memo_does_not_depend_on_call_order(self, monkeypatch):
        monkeypatch.setattr(supports, "_TRANSPORTED", {})
        pairs = [
            (lam[0], lam[1])
            for n in range(6)
            for lam in enumerate_multipartitions(2, n)
        ]
        for m in range(-2, 3):
            for direction, back in (("up", "down"), ("down", "up")):
                supports._TRANSPORTED.clear()
                in_order = [level2_transport(p, m, direction) for p in pairs]
                supports._TRANSPORTED.clear()
                reversed_order = [
                    level2_transport(p, m, direction) for p in reversed(pairs)
                ][::-1]
                cold = []
                for p in pairs:
                    supports._TRANSPORTED.clear()
                    cold.append(level2_transport(p, m, direction))
                assert in_order == reversed_order == cold, (m, direction)
                for pair, image in zip(pairs, in_order):
                    assert level2_transport(image, m, back) == pair, (m, direction)


class TestTwoSlotRule:
    """The two-slot rule `level2_transport` walks is the signature rule of
    the generic-kappa crystal on pairs, below and above the wall."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(0, 8).flatmap(lambda n: st.sampled_from(enumerate_multipartitions(2, n))),
        st.integers(-8, 8),
        st.booleans(),
    )
    def test_matches_generic_crystal(self, lam, m, upper):
        selftest.transport_crystal(m, upper, [lam])

    def test_transport_reads_no_residues(self, capsys, monkeypatch, tmp_path):
        def residue(self, box):
            raise AssertionError("transport read a residue")

        monkeypatch.setattr(params.CherednikParams, "residue", residue)
        monkeypatch.setattr(supports, "_TRANSPORTED", {})
        path = tmp_path / "params.json"
        path.write_text(json.dumps({"level": 2, "kappa": {"num": -1, "den": 3}, "s": [0, 2]}))
        code = cli.main(["wallcross", "--params", str(path), "--m", "1", "--n", "6"])
        out, err = capsys.readouterr()
        assert code == 0, err
        assert len(json.loads(out)) == len(enumerate_multipartitions(2, 6))


class TestWallCross:
    def test_golden_fixture(self):
        assert wall_cross(Multipartition([[1], [1]]), UP_WALL, GOLDEN) == (
            Multipartition([[], [2]])
        )

    def test_down_inverts_up(self):
        """Crossing back undoes the crossing; crossing permutes each size
        and keeps (p, q) and the crystal operators."""
        selftest.wall_crossing(GOLDEN, UP_WALL, FAR, 3)

    def test_non_essential_wall_rejected(self):
        with pytest.raises(InvalidInputError):
            wall_cross(
                Multipartition([[1], [1]]),
                WallCrossStep(ChargeDifferenceWall(0, 1, 0), "up"),
                GOLDEN,
            )

    def test_bad_pair_rejected(self):
        with pytest.raises(InvalidInputError):
            wall_cross(
                Multipartition([[1], [1]]),
                WallCrossStep(ChargeDifferenceWall(0, 0, 1), "up"),
                GOLDEN,
            )

    def test_denominator_wall_rejected(self):
        with pytest.raises(UnsupportedParameterError):
            wall_cross(
                Multipartition([[1], [1]]),
                WallCrossStep(KappaDenominatorWall(2), "up"),
                GOLDEN,
            )


class TestHeisQ:
    def test_choice_of_lowered_component_is_immaterial(self):
        selftest.heis_q_lowering_choice(CherednikParams(2, Fraction(-1, 2), [0, 0]), 4)

    def test_override_validated(self):
        p = CherednikParams(2, Fraction(-1, 2), [0, Fraction(1, 2)])
        with pytest.raises(InvalidInputError):
            heis_q(Multipartition([[1], [1]]), p, lowering={0: 1})

    def test_irrational_has_no_heisenberg_depth(self):
        p = CherednikParams(2, None, [0, -1])
        for lam in enumerate_multipartitions(2, 3):
            assert heis_q(lam, p) == 0

    def test_matches_asymptotic_chamber_directly(self):
        for n in range(5):
            for lam in enumerate_multipartitions(2, n):
                assert heis_q(lam, ASYM) == asymptotic_q(lam, 1, ASYM)[0]


class TestSupportTable:
    def test_golden_rank_two(self):
        expected = {
            ((2,), ()): (0, 0, 0, True),
            ((), (2,)): (0, 0, 0, True),
            ((1,), (1,)): (0, 1, 1, False),
            ((1, 1), ()): (2, 0, 2, False),
            ((), (1, 1)): (2, 0, 2, False),
        }
        for lam in enumerate_multipartitions(2, 2):
            s = support(lam, GOLDEN)
            key = (lam[0], lam[1])
            assert (s.p, s.q, s.dim_support, s.finite_dimensional) == expected[key]

    def test_stabilizer_shape(self):
        s = support(Multipartition([[1], [1]]), GOLDEN)
        assert s.stabilizer == (2, 0, 2, 1)
        s = support(Multipartition([[2], []]), GOLDEN)
        assert s.stabilizer == (2, 2, 2, 0)

    def test_level_one_rank_two(self):
        selftest.support_table()

    @pytest.mark.parametrize("e", [2, 3])
    def test_level_one_unique_finite_dimensional_at_rank_e(self, e):
        selftest.level1_finite_dimensional(CherednikParams(1, Fraction(-1, e), [0]), e)

    @pytest.mark.parametrize("e", [2, 3])
    def test_level_one_none_when_e_does_not_divide_n(self, e):
        selftest.level1_finite_dimensional(CherednikParams(1, Fraction(-1, e), [0]), 7)

    def test_empty_multipartition_is_full_support(self):
        s = support(Multipartition([[], []]), GOLDEN)
        assert (s.p, s.q, s.dim_support, s.finite_dimensional) == (0, 0, 0, True)

    def test_positive_kappa_transposes_labels(self):
        pos = CherednikParams(2, Fraction(1, 2), [0, -1])
        selftest.transpose_reduction(pos, CherednikParams(2, Fraction(-1, 2), [0, 1]), 3)

    def test_transpose_reduction_sees_a_fault_in_the_positive_kappa_crystal(
        self, monkeypatch
    ):
        """p at positive kappa is read from that crystal, so a fault planted
        there alone (each signature in reverse order) fails the check."""
        signatures = crystal._signatures

        def reversed_at_positive_kappa(lam, point):
            groups = signatures(lam, point)
            if point.kappa is not None and point.kappa > 0:
                for entries in groups.values():
                    entries.reverse()
            return groups

        monkeypatch.setattr(crystal, "_signatures", reversed_at_positive_kappa)
        # no depth walked under the fault outlives this test
        monkeypatch.setattr(crystal, "_DEPTHS", {})
        pos = CherednikParams(2, Fraction(1, 2), [0, -1])
        with pytest.raises(AssertionError):
            selftest.transpose_reduction(pos, CherednikParams(2, Fraction(-1, 2), [0, 1]), 3)

    def test_irrational_support_is_crystal_depth_only(self):
        p = CherednikParams(2, None, [0, 0])
        sing = support(Multipartition([[], [2, 2]]), p)
        assert (sing.p, sing.q) == (0, 0)
        assert sing.finite_dimensional
        other = support(Multipartition([[2, 2], []]), p)
        assert other.p > 0
        assert not other.finite_dimensional
