"""Partition primitives: cells and box moves, transposition, ribbon
moves against a brute-force skew-shape oracle, division with remainder,
and the canonical enumeration orders."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fockcrystal import (
    Box,
    InvalidInputError,
    InvalidMoveError,
    Multipartition,
    Partition,
    divide_with_remainder,
    enumerate_multipartitions,
    enumerate_partitions,
    ribbon_additions,
    ribbon_removals,
)
from fockcrystal import selftest
from fockcrystal.fock import _wedge_moves


def partitions_up_to(n):
    for k in range(n + 1):
        yield from enumerate_partitions(k)


st_partition = st.integers(0, 9).flatmap(
    lambda n: st.sampled_from(enumerate_partitions(n))
)


class TestPartitionBasics:
    def test_constructor_strips_zeros_and_validates(self):
        assert Partition([3, 2, 0, 0]) == (3, 2)
        assert Partition([]) == ()
        with pytest.raises(InvalidInputError):
            Partition([1, 2])
        with pytest.raises(InvalidInputError):
            Partition([2, -1])

    @pytest.mark.parametrize(
        "parts", [[2.7, 1], [2.0, 1], ["3"], [True], [1, False], [None], [Fraction(2)]]
    )
    def test_constructor_rejects_non_integer_parts(self, parts):
        with pytest.raises(InvalidInputError, match="is not an integer"):
            Partition(parts)

    def test_row_is_one_based_and_zero_padded(self):
        p = Partition([4, 2, 1])
        assert [p.row(y) for y in range(1, 6)] == [4, 2, 1, 0, 0]

    def test_transpose_fixture(self):
        assert Partition([4, 2, 1]).transpose() == Partition([3, 2, 1, 1])
        assert Partition([2, 1]).transpose() == Partition([2, 1])

    @given(st_partition)
    def test_transpose_involution(self, p):
        assert p.transpose().transpose() == p
        assert p.transpose().size == p.size

    @given(st_partition)
    def test_transpose_swaps_cell_coordinates(self, p):
        cells = {(x, y) for x, y in p.cells()}
        assert {(y, x) for x, y in p.transpose().cells()} == cells

    def test_addable_removable_cells(self):
        p = Partition([2, 1])
        assert p.addable_cells() == [(3, 1), (2, 2), (1, 3)]
        assert p.removable_cells() == [(2, 1), (1, 2)]

    @given(st_partition)
    def test_add_then_remove_roundtrip(self, p):
        for x, y in p.addable_cells():
            bigger = p.add_cell(x, y)
            assert bigger.size == p.size + 1
            assert bigger.remove_cell(x, y) == p

    def test_invalid_moves_raise(self):
        with pytest.raises(InvalidMoveError):
            Partition([2, 1]).add_cell(2, 1)
        with pytest.raises(InvalidMoveError):
            Partition([2, 1]).remove_cell(1, 1)


class TestMultipartition:
    def test_level_size_boxes(self):
        lam = Multipartition([[2, 2], [3, 1, 1, 1]])
        assert lam.level == 2
        assert lam.size == 10
        assert len(list(lam.boxes())) == 10
        assert Box(1, 4, 1) in lam.removable_boxes()
        assert Box(3, 1, 0) in lam.addable_boxes()

    def test_add_remove_box(self):
        lam = Multipartition([[2, 2], [3, 1, 1, 1]])
        assert lam.remove_box(Box(1, 4, 1)) == Multipartition([[2, 2], [3, 1, 1]])
        assert lam.add_box(Box(3, 1, 0)) == Multipartition([[3, 2], [3, 1, 1, 1]])

    def test_transpose_is_componentwise_in_place(self):
        lam = Multipartition([[2, 2], [3, 1, 1, 1]])
        assert lam.transpose() == Multipartition([[2, 2], [4, 1, 1]])
        # transposition exchanges the roles of addable coordinates
        flipped = {Box(b.y, b.x, b.comp) for b in lam.addable_boxes()}
        assert set(lam.transpose().addable_boxes()) == flipped

    def test_replace_component(self):
        lam = Multipartition([[1], [2]])
        assert lam.replace_component(1, Partition([3])) == Multipartition([[1], [3]])


def assert_checked(p):
    """p is exactly what the checking constructor builds from its rows: a
    Partition of int parts that equals and hashes as its plain tuple."""
    public = Partition(list(p))
    assert type(p) is Partition and all(type(x) is int for x in p), p
    assert public == p == tuple(p) and hash(public) == hash(p) == hash(tuple(p)), p


def assert_checked_label(mu):
    """mu is exactly what the checking constructor builds from its rows: a
    Multipartition of checked Partitions that equals and hashes as its
    plain tuple of tuples."""
    assert type(mu) is Multipartition, mu
    for c in mu:
        assert_checked(c)
    public = Multipartition([list(c) for c in mu])
    rows = tuple(tuple(c) for c in mu)
    assert public == mu == rows and hash(public) == hash(mu) == hash(rows), mu
    assert public.size == mu.size == sum(map(sum, rows)), mu


class TestTrustedShapes:
    """Moves build their results without the constructor's checks; each
    result must be the shape the checking constructor gives."""

    def test_cell_moves_accept_exactly_the_listed_cells(self):
        # coordinates from -1 to past the edge of every shape of size <= 8
        coords = range(-1, 11)
        for p in partitions_up_to(8):
            moves = [
                (p.add_cell, set(p.addable_cells()), 1, "cannot add cell {} to {}"),
                (p.remove_cell, set(p.removable_cells()), -1, "cannot remove cell {} from {}"),
            ]
            for move, legal, delta, message in moves:
                for x in coords:
                    for y in coords:
                        if (x, y) not in legal:
                            with pytest.raises(InvalidMoveError) as err:
                                move(x, y)
                            assert str(err.value) == message.format((x, y), tuple(p))
                            continue
                        rows = list(p) + [0]
                        rows[y - 1] += delta
                        got = move(x, y)
                        assert_checked(got)
                        assert got == Partition(rows), (p, x, y)

    @pytest.mark.parametrize("length", [1, 2, 3, 5])
    def test_ribbon_moves_build_checked_shapes(self, length):
        for p in partitions_up_to(8):
            for direction in (1, -1):
                ribbon = (ribbon_additions if direction > 0 else ribbon_removals)(p, length)
                wedge = _wedge_moves(p, direction * length)
                for mv in ribbon + wedge:
                    assert_checked(mv.result)
                assert set(ribbon) == set(wedge), (p, direction * length)

    @pytest.mark.parametrize("level,bound", [(1, 6), (2, 5), (3, 4)])
    def test_moved_multipartitions_match_public_ones(self, level, bound):
        """Enumeration, box moves and replace_component with the results of
        cell, ribbon and bead moves all build checked labels."""
        for n in range(bound + 1):
            for lam in enumerate_multipartitions(level, n):
                moved = [lam]
                moved += [lam.add_box(b) for b in lam.addable_boxes()]
                moved += [lam.remove_box(b) for b in lam.removable_boxes()]
                moved += [
                    lam.replace_component(i, mv.result)
                    for i, c in enumerate(lam)
                    for mv in ribbon_additions(c, 2) + ribbon_removals(c, 2)
                    + _wedge_moves(c, 2) + _wedge_moves(c, -2)
                ]
                moved += [
                    lam.replace_component(i, c.add_cell(x, y))
                    for i, c in enumerate(lam)
                    for x, y in c.addable_cells()
                ]
                for mu in moved:
                    assert_checked_label(mu)


def cells_of(p):
    return {(x, y) for y, part in enumerate(p, start=1) for x in range(1, part + 1)}


def is_ribbon(cells):
    """Connected skew cells containing no 2x2 square."""
    cells = set(cells)
    for x, y in cells:
        if {(x + 1, y), (x, y + 1), (x + 1, y + 1)} <= cells:
            return False
    start = next(iter(cells))
    seen = {start}
    stack = [start]
    while stack:
        x, y = stack.pop()
        for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
            if nb in cells and nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return seen == cells


def brute_ribbon_additions(p, length):
    out = set()
    base = cells_of(p)
    for mu in enumerate_partitions(p.size + length):
        skew = cells_of(mu) - base
        if len(cells_of(mu)) - len(base) == length and base <= cells_of(mu):
            if is_ribbon(skew):
                rows = [y for _, y in skew]
                out.add((mu, max(rows) - min(rows)))
    return out


class TestRibbons:
    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_additions_match_skew_shape_oracle(self, length):
        for p in partitions_up_to(7):
            got = {(mv.result, mv.height) for mv in ribbon_additions(p, length)}
            assert got == brute_ribbon_additions(p, length), (p, length)

    def test_signs_are_parity_of_height(self):
        for p in partitions_up_to(6):
            for length in (2, 3, 4):
                for mv in ribbon_additions(p, length):
                    assert mv.sign == (-1) ** mv.height

    def test_additions_and_removals_are_mutually_inverse(self):
        for p in partitions_up_to(7):
            for length in (1, 2, 3, 4):
                for mv in ribbon_additions(p, length):
                    back = {
                        (rm.result, rm.height, rm.sign)
                        for rm in ribbon_removals(mv.result, length)
                    }
                    assert (p, mv.height, mv.sign) in back

    def test_removals_only_from_valid_additions(self):
        for p in partitions_up_to(7):
            for length in (2, 3):
                for rm in ribbon_removals(p, length):
                    forward = {
                        mv.result for mv in ribbon_additions(rm.result, length)
                    }
                    assert p in forward

    def test_hook_count(self):
        """The number of removable r-ribbons equals the number of hooks
        of length r, here checked against first-column hook lengths."""
        p = Partition([4, 3, 1])
        # hook lengths of (4,3,1): row 1: 7,5,4,2? compute directly instead
        hooks = []
        t = p.transpose()
        for x, y in p.cells():
            hooks.append((p.row(y) - x) + (t.row(x) - y) + 1)
        for r in range(1, p.size + 1):
            assert len(ribbon_removals(p, r)) == hooks.count(r)


class TestDivision:
    def test_fixture(self):
        want = (Partition([1]), Partition([4, 3, 1]))
        assert divide_with_remainder(Partition([7, 3, 1]), 3) == want
        assert next(selftest.division_candidates(Partition([7, 3, 1]), 3)) == want

    def test_small_fixtures(self):
        assert divide_with_remainder(Partition([2]), 2) == (
            Partition([1]),
            Partition([]),
        )
        assert divide_with_remainder(Partition([1, 1]), 2) == (
            Partition([]),
            Partition([1, 1]),
        )
        assert divide_with_remainder(Partition([3, 1]), 2) == (
            Partition([1]),
            Partition([1, 1]),
        )
        assert divide_with_remainder(Partition([2, 2]), 2) == (
            Partition([1, 1]),
            Partition([]),
        )

    @given(st_partition, st.integers(2, 4))
    def test_rowwise_reconstruction(self, nu, e):
        quot, rem = divide_with_remainder(nu, e)
        rows = max(len(nu), 1)
        for y in range(1, rows + 1):
            assert nu.row(y) == e * quot.row(y) + rem.row(y)
        diffs = [rem.row(y) - rem.row(y + 1) for y in range(1, len(rem) + 1)]
        assert all(0 <= d < e for d in diffs)

    def test_decomposition_is_unique(self):
        """Exactly one (quot, rem) satisfies the division constraints."""
        selftest.division(8)


class TestEnumeration:
    def test_partition_counts(self):
        known = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]
        for n, count in enumerate(known):
            assert len(enumerate_partitions(n)) == count

    def test_partition_order_reverse_lex(self):
        got = enumerate_partitions(4)
        assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    def test_multipartition_counts(self):
        for n in range(7):
            singles = [len(enumerate_partitions(k)) for k in range(n + 1)]
            expected = sum(singles[k] * singles[n - k] for k in range(n + 1))
            assert len(enumerate_multipartitions(2, n)) == expected

    def test_enumeration_matches_sort_key(self):
        for level in (1, 2, 3):
            for n in range(8):
                out = enumerate_multipartitions(level, n)
                assert out == sorted(out, key=lambda lam: lam.sort_key())
                assert len(set(out)) == len(out)

    def test_level_one_wraps_partitions(self):
        assert [m[0] for m in enumerate_multipartitions(1, 5)] == (
            enumerate_partitions(5)
        )
