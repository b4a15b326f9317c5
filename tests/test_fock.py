"""Graded vector arithmetic and the operator calculus on it: box
operators, Heisenberg operators in both models, plethysm coefficients
against a principal-specialization oracle, singular subspaces, the
two-parameter filtration, and the charged-word realization."""

import json
import math
import re
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcrystal import (
    ChargedWord,
    CherednikParams,
    FockcrystalError,
    FockVector,
    InvalidInputError,
    Multipartition,
    Partition,
    Residue,
    TruncationOverflowError,
    UnsupportedParameterError,
    b_minus_op,
    b_plus_op,
    basis_vector,
    box_term_map,
    charged_to_multipartition,
    e_z_op,
    embed_to_charged,
    enumerate_multipartitions,
    enumerate_partitions,
    f_z_op,
    filtration_dim,
    heisenberg_term_map,
    inner_product,
    operator_matrix,
    plethysm_class,
    singular_subspace,
    support,
    wedge_e_op,
    wedge_f_op,
)
from fockcrystal import cli, selftest
from fockcrystal.fock import _mn_character
from fockcrystal.jsonio import params_to_json
from fockcrystal.selftest import E2, E3, GOLDEN


ZERO2 = Residue(0, 0)
ONE2 = Residue(0, 1)
L3 = CherednikParams(3, Fraction(-1, 3), [0, 1, -1])


def mp(*components):
    return Multipartition(components)


def bv(lam, truncation):
    return basis_vector(lam, truncation)


class TestFockVector:
    def test_zero_coefficients_dropped(self):
        v = FockVector(1, 3, {mp([2]): Fraction(0), mp([1]): Fraction(2)})
        assert v.coeff(mp([2])) == 0
        assert v.coeff(mp([1])) == 2
        assert not v.is_zero()
        assert FockVector(1, 3, {}).is_zero()

    def test_truncation_enforced(self):
        with pytest.raises(TruncationOverflowError):
            FockVector(1, 2, {mp([3]): Fraction(1)})

    def test_level_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            FockVector(2, 3, {mp([1]): Fraction(1)})
        with pytest.raises(InvalidInputError):
            bv(mp([1]), 2) + bv(mp([1], []), 2)

    def test_linear_arithmetic(self):
        u = bv(mp([2]), 3) + bv(mp([1, 1]), 3).scale(Fraction(1, 2))
        w = u - bv(mp([2]), 3)
        assert w.coeff(mp([2])) == 0
        assert w.coeff(mp([1, 1])) == Fraction(1, 2)
        assert (w * 4).coeff(mp([1, 1])) == 2
        assert u.degrees() == [2]

    def test_items_ordering_is_graded(self):
        v = bv(mp([3]), 3) + bv(mp([1]), 3)
        assert [lam.size for lam, _ in v.items()] == [1, 3]

    def test_inner_product_orthonormal(self):
        nodes = enumerate_multipartitions(2, 2)
        for a in nodes:
            for b in nodes:
                got = inner_product(bv(a, 2), bv(b, 2))
                assert got == (1 if a == b else 0)


class TestBoxOperators:
    def test_lowering_adds_residue_boxes(self):
        v = f_z_op(bv(mp([], []), 1), ZERO2, GOLDEN)
        assert v.coeff(mp([1], [])) == 1
        assert v.coeff(mp([], [1])) == 0
        w = f_z_op(bv(mp([], []), 1), ONE2, GOLDEN)
        assert w.coeff(mp([], [1])) == 1

    def test_raising_is_adjoint_to_lowering(self):
        for n in range(4):
            for lam in enumerate_multipartitions(2, n):
                for mu in enumerate_multipartitions(2, n + 1):
                    for z in (ZERO2, ONE2):
                        lhs = inner_product(
                            f_z_op(bv(lam, n + 1), z, GOLDEN), bv(mu, n + 1)
                        )
                        rhs = inner_product(
                            bv(lam, n + 1), e_z_op(bv(mu, n + 1), z, GOLDEN)
                        )
                        assert lhs == rhs

    def test_linear_extension(self):
        u = bv(mp([1], []), 3) + bv(mp([], [1]), 3).scale(3)
        img = f_z_op(u, ZERO2, GOLDEN)
        want = f_z_op(bv(mp([1], []), 3), ZERO2, GOLDEN) + f_z_op(
            bv(mp([], [1]), 3), ZERO2, GOLDEN
        ).scale(3)
        assert img == want


L2_SHIFTED = CherednikParams(2, Fraction(-1, 2), [0, 1])
L2_TWO_CLASSES = CherednikParams(2, Fraction(-1, 2), [0, Fraction(1, 2)])
L2_SYMBOLIC = CherednikParams(2, None, [0, 1])


class TestBoxTermMapResidues:
    """A box map takes only a residue some box can have: a class id of
    the parameters and, at rational kappa, a value in 0..e-1."""

    @pytest.mark.parametrize(
        "params,z,reason",
        [
            (L2_SHIFTED, Residue(0, -1), "values 0..1"),
            (L2_SHIFTED, Residue(0, 2), "values 0..1"),
            (L2_SHIFTED, Residue(0, 7), "values 0..1"),
            (L2_SHIFTED, Residue(1, 0), "class ids 0..0"),
            (L2_SHIFTED, Residue(5, 0), "class ids 0..0"),
            (L2_SHIFTED, Residue(-1, 0), "class ids 0..0"),
            (L2_TWO_CLASSES, Residue(2, 1), "class ids 0..1"),
            (L3, Residue(0, 3), "values 0..2"),
            (L2_SYMBOLIC, Residue(1, 0), "class ids 0..0"),
        ],
    )
    def test_refuses_a_residue_no_box_has(self, params, z, reason):
        message = f"^no box has residue {re.escape(str(z))}: {reason}$"
        for remove in (False, True):
            with pytest.raises(InvalidInputError, match=message):
                box_term_map(params, z, remove)
        for op in (f_z_op, e_z_op):
            with pytest.raises(InvalidInputError, match=message):
                op(bv(mp([1], [1]), 3), z, params)

    def test_a_residue_is_named_by_its_value_in_0_to_e_minus_1(self):
        """-1 and 1 are the same value mod 2; 0:1 names that residue (0:-1
        is refused), and its f map adds the boxes of both components."""
        rows, cols, entries = operator_matrix(box_term_map(L2_SHIFTED, ONE2, False), 1, 2)
        assert len(entries) == 3
        got = f_z_op(bv(mp([1], []), 2), ONE2, L2_SHIFTED)
        assert set(got.entries) == {mp([2], []), mp([1, 1], []), mp([1], [1])}

    def test_every_class_of_a_multi_class_point_is_accepted(self):
        """At s = (0, 1/2) each component is its own class, of base 0."""
        assert f_z_op(bv(mp([], []), 1), Residue(1, 0), L2_TWO_CLASSES) == bv(mp([], [1]), 1)
        got = f_z_op(bv(mp([], [1]), 2), Residue(1, 1), L2_TWO_CLASSES)
        assert set(got.entries) == {mp([], [2]), mp([], [1, 1])}

    @pytest.mark.parametrize("value", [-3, -1, 0, 2, 7])
    def test_symbolic_kappa_takes_any_integer_value(self, value):
        """At symbolic kappa a box of content c in component i has value
        base_i + c, with no modulus, so every integer is some box's value."""
        lam = mp([3, 3, 3], [3, 3, 3])
        want = {
            lam.add_box(b) for b in lam.addable_boxes() if L2_SYMBOLIC.residue(b).value == value
        }
        got = f_z_op(bv(lam, 19), Residue(0, value), L2_SYMBOLIC)
        assert set(got.entries) == want


@pytest.mark.parametrize("op", [f_z_op, e_z_op, b_plus_op, b_minus_op])
def test_operators_reject_a_vector_of_another_level(op):
    """A level-1 vector under level-2 operators is refused by its level,
    and b_plus_op refuses it before its truncation check: B_1 would push
    the vacuum past truncation 0."""
    arg = ZERO2 if op in (f_z_op, e_z_op) else 1
    with pytest.raises(InvalidInputError, match="^vector level 1 does not match parameter level 2$"):
        op(bv(mp([]), 0), arg, GOLDEN)


@pytest.mark.parametrize("op", [f_z_op, e_z_op, b_plus_op, b_minus_op])
def test_operators_reject_a_zero_vector_of_another_level(op):
    """The level check reads the vector, not its terms: a zero vector of
    another level is refused too."""
    arg = ZERO2 if op in (f_z_op, e_z_op) else 1
    with pytest.raises(InvalidInputError, match="^vector level 3 does not match parameter level 2$"):
        op(FockVector(3, 4, {}), arg, GOLDEN)


TERM_MAPS = {
    "f": (lambda: box_term_map(GOLDEN, ZERO2, remove=False), GOLDEN, 1, 0),
    "e": (lambda: box_term_map(GOLDEN, ZERO2, remove=True), GOLDEN, -1, 0),
    "ribbon-plus": (lambda: heisenberg_term_map(1, E2, "ribbon", remove=False), E2, 2, 2),
    "ribbon-minus": (lambda: heisenberg_term_map(1, E2, "ribbon", remove=True), E2, -2, 0),
    "wedge-plus": (lambda: heisenberg_term_map(2, GOLDEN, "wedge", remove=False), GOLDEN, 4, 4),
    "wedge-minus": (lambda: heisenberg_term_map(2, GOLDEN, "wedge", remove=True), GOLDEN, -4, 0),
}


@pytest.mark.parametrize("name", TERM_MAPS)
def test_term_map_carries_its_params_and_raising_degree(name):
    """A term map holds the parameters it was built from, every term it
    makes moves a label by the map's degree, and a map with a `raising`
    degree has a term on every label, so its truncation check may run
    before any term is built."""
    build, params, step, raising = TERM_MAPS[name]
    term_map = build()
    assert term_map.params is params
    assert term_map.raising == raising
    for n in range(5):
        for lam in enumerate_multipartitions(params.level, n):
            terms = list(term_map.moves(lam))
            assert all(mu.size == n + step for mu, _ in terms), lam
            assert all(mu.level == params.level for mu, _ in terms), lam
            if raising:
                assert terms, lam


class TestHeisenberg:
    def test_degree_one_fixture(self):
        got = b_plus_op(bv(mp([]), 2), 1, E2)
        assert got == bv(mp([2]), 2) - bv(mp([1, 1]), 2)

    def test_degree_two_signs(self):
        got = b_plus_op(bv(mp([]), 4), 2, E2)
        assert got.coeff(mp([4])) == 1
        assert got.coeff(mp([3, 1])) == -1
        assert got.coeff(mp([2, 2])) == 0
        assert got.coeff(mp([2, 1, 1])) == 1
        assert got.coeff(mp([1, 1, 1, 1])) == -1

    @pytest.mark.parametrize("params", [E2, E3, GOLDEN], ids=["E2", "E3", "GOLDEN"])
    def test_models_agree(self, params):
        selftest.heisenberg_models(params, 5)

    @pytest.mark.parametrize("params", [E2, E3, GOLDEN], ids=["E2", "E3", "GOLDEN"])
    def test_commutator_is_central(self, params):
        selftest.heisenberg_commutator(params, 3)

    def test_different_degrees_commute(self):
        for n in range(3):
            for lam in enumerate_multipartitions(1, n):
                v = bv(lam, n + 6)
                ab = b_plus_op(b_plus_op(v, 1, E2), 2, E2)
                ba = b_plus_op(b_plus_op(v, 2, E2), 1, E2)
                assert ab == ba
                down = b_minus_op(b_plus_op(v, 2, E2), 1, E2)
                up = b_plus_op(b_minus_op(v, 1, E2), 2, E2)
                assert down == up

    @pytest.mark.parametrize("params", [E2, GOLDEN])
    def test_commutes_with_box_operators(self, params):
        selftest.heisenberg_box_commute(params, 3)

    def test_adjointness(self):
        selftest.adjointness(GOLDEN, 3)

    def test_degree_validation(self):
        with pytest.raises(InvalidInputError):
            b_plus_op(bv(mp([]), 2), 0, E2)
        with pytest.raises(InvalidInputError):
            b_plus_op(bv(mp([]), 2), 1, E2, model="spin")

    def test_irrational_unsupported(self):
        p = CherednikParams(1, None, [0])
        with pytest.raises(UnsupportedParameterError):
            b_plus_op(FockVector(1, 2, {mp([]): Fraction(1)}), 1, p)


def principal_specialization(p, t):
    """s_p(1, t, t^2, ...) as an exact rational number."""
    weight = sum(i * part for i, part in enumerate(p))
    tr = p.transpose()
    denom = Fraction(1)
    for x, y in p.cells():
        hook = (p.row(y) - x) + (tr.row(x) - y) + 1
        denom *= 1 - t**hook
    return t**weight / denom


class TestPlethysm:
    def test_single_box_fixture(self):
        got = plethysm_class(Partition([1]), 2)
        assert got == bv(mp([2]), 2) - bv(mp([1, 1]), 2)

    @pytest.mark.parametrize("e", [2, 3])
    def test_specialization_oracle(self, e):
        """The expansion is correct iff both sides agree as symmetric
        functions; comparing principal specializations at several exact
        sample points pins the coefficients down."""
        mus = [m for n in range(1, 4) for m in enumerate_partitions(n)]
        for mu in mus:
            v = plethysm_class(mu, e)
            for t in (Fraction(2), Fraction(1, 2), Fraction(3, 7)):
                lhs = sum(
                    c * principal_specialization(lam[0], t)
                    for lam, c in v.items()
                )
                assert lhs == principal_specialization(mu, t**e), (mu, e, t)

    def test_homogeneous_of_scaled_degree(self):
        v = plethysm_class(Partition([2, 1]), 2)
        assert v.degrees() == [6]

    def test_killed_by_raising_operators(self):
        for params in (E2, E3):
            selftest.plethysm_lowering(params, 2)


class TestCharacters:
    """Murnaghan-Nakayama against facts that share no code with it."""

    @pytest.mark.parametrize("n", range(9))
    def test_column_orthogonality(self, n):
        """sum over mu of chi^mu(rho)^2 is the centralizer order z_rho."""
        shapes = enumerate_partitions(n)
        for rho in shapes:
            z_rho = math.prod(d**m * math.factorial(m) for d, m in Counter(rho).items())
            assert sum(_mn_character(mu, rho) ** 2 for mu in shapes) == z_rho, rho

    @pytest.mark.parametrize("n", range(1, 9))
    def test_trivial_and_sign_characters(self, n):
        for rho in enumerate_partitions(n):
            assert _mn_character((n,), rho) == 1
            assert _mn_character((1,) * n, rho) == (-1) ** (n - len(rho))

    def test_sizes_must_agree(self):
        assert _mn_character((), ()) == 1
        assert _mn_character((2, 1), (2,)) == 0
        assert _mn_character((1,), ()) == 0


class TestSingularSubspace:
    def test_golden_degrees(self):
        assert len(singular_subspace(0, GOLDEN)) == 1
        assert len(singular_subspace(2, GOLDEN)) == 2

    def test_level_one_only_vacuum(self):
        for n in range(5):
            got = singular_subspace(n, E2)
            assert len(got) == (1 if n == 0 else 0)

    @pytest.mark.parametrize("params", [E2, E3, GOLDEN], ids=["E2", "E3", "GOLDEN"])
    def test_dimension_counts_fully_supported_simples(self, params):
        selftest.singular_dimension(params, 4)

    @pytest.mark.parametrize(
        "params", [E2, GOLDEN, L3], ids=["l1", "l2", "l3"]
    )
    def test_vectors_have_the_params_level(self, params):
        for n in range(4):
            for vec in singular_subspace(n, params):
                assert (vec.level, vec.truncation) == (params.level, n)
                assert all(
                    lam.level == params.level and lam.size == n for lam in vec.entries
                )

    def test_vectors_are_killed(self):
        for vec in singular_subspace(2, GOLDEN):
            for z in (ZERO2, ONE2):
                assert e_z_op(vec, z, GOLDEN).is_zero()
            assert b_minus_op(vec, 1, GOLDEN).is_zero()


class TestFiltration:
    def test_level_one_rank_two_table(self):
        expected = {
            (0, 0): 0,
            (0, 1): 1,
            (1, 0): 0,
            (1, 1): 1,
            (2, 0): 1,
            (2, 1): 2,
        }
        for (p, q), dim in expected.items():
            assert filtration_dim(p, q, 2, E2) == dim

    @pytest.mark.parametrize("params", [E2, E3, GOLDEN], ids=["E2", "E3", "GOLDEN"])
    def test_matches_crystal_counts(self, params):
        selftest.filtration_counts(params, 4)

    def test_symbolic_kappa_has_trivial_heisenberg_direction(self):
        p = CherednikParams(2, None, [0, 0])
        for n in range(4):
            counts = [support(lam, p).p for lam in enumerate_multipartitions(2, n)]
            for depth in range(n + 1):
                want = sum(1 for c in counts if c <= depth)
                assert filtration_dim(depth, 0, n, p) == want
                assert filtration_dim(depth, 3, n, p) == want

    # s = (0, 1/2) has two charge classes, and the Fock oracles use the sum
    # of their Heisenberg algebras: 1 singular vector where support gives
    # 0 labels at (0, 0), and dim F^{2,0}_2 = 4 where 3 labels have q = 0
    @pytest.mark.xfail(
        strict=True,
        raises=AssertionError,
        reason="ROADMAP item 1: one Heisenberg algebra per charge class",
    )
    def test_two_class_point_matches_support(self):
        n, p = 2, L2_TWO_CLASSES
        rows = [support(lam, p) for lam in enumerate_multipartitions(2, n)]
        got = (len(singular_subspace(n, p)), filtration_dim(n, 0, n, p))
        want = (sum(1 for s in rows if (s.p, s.q) == (0, 0)), sum(1 for s in rows if s.q == 0))
        assert got == want

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            filtration_dim(-1, 0, 2, E2)
        with pytest.raises(UnsupportedParameterError):
            filtration_dim(0, 0, 2, CherednikParams(1, -1, [0]))


@st.composite
def filtration_points(draw):
    level = draw(st.integers(1, 3))
    kappa = draw(st.sampled_from(["-1/2", "-1/3", "-2/3", "1/2", None]))
    charges = draw(st.lists(st.integers(-3, 3), min_size=level, max_size=level))
    return CherednikParams(level, kappa, charges), draw(st.integers(0, 4))


@settings(max_examples=40, deadline=None)
@given(filtration_points())
def test_filtration_table_rows_match_single_entries(point):
    """Each row of `fock filtration --n` (every p of one q from one run)
    equals the entry computed alone, and the table never decreases in p
    or in q."""
    params, n = point
    with tempfile.TemporaryDirectory() as tmp:
        path, out = Path(tmp) / "params.json", Path(tmp) / "table.json"
        path.write_text(json.dumps(params_to_json(params)))
        argv = ["fock", "filtration", "--params", str(path), "--n", str(n), "--out", str(out)]
        assert cli.main(argv) == 0
        table = json.loads(out.read_text())
    dims = {(row["p"], row["q"]): row["dim"] for row in table}
    for (p, q), dim in dims.items():
        assert dim == filtration_dim(p, q, n, params), (p, q)
        assert dims.get((p - 1, q), 0) <= dim and dims.get((p, q - 1), 0) <= dim


class TestChargedWords:
    def test_embed_fixture(self):
        word = embed_to_charged(mp([2, 1]), [3])
        assert word == ChargedWord(((5, 3, 1),))
        assert str(word) == "5,3,1"

    def test_embed_level_two(self):
        word = embed_to_charged(mp([1], [1]), [2, 3])
        assert word == ChargedWord(((3, 1), (4, 2, 1)))
        assert str(word) == "3,1|4,2,1"

    def test_roundtrip(self):
        for n in range(5):
            for lam in enumerate_multipartitions(2, n):
                word = embed_to_charged(lam, [7, 6])
                assert charged_to_multipartition(word) == lam

    def test_embed_validation(self):
        with pytest.raises(InvalidInputError):
            embed_to_charged(mp([1]), [1, 2])
        with pytest.raises(InvalidInputError):
            embed_to_charged(mp([1]), [0])
        with pytest.raises(InvalidInputError):
            embed_to_charged(mp([1, 1, 1]), [2])

    @pytest.mark.parametrize("bad", [7.9, 7.0, "7", True, Fraction(7)])
    def test_embed_rejects_a_charge_that_is_not_an_int(self, bad):
        with pytest.raises(InvalidInputError, match="charge .* is not an integer"):
            embed_to_charged(mp([1], []), [bad, 7])

    def test_word_validation(self):
        with pytest.raises(InvalidInputError):
            wedge_f_op(ChargedWord(((1, 3),)), 0, 2)
        with pytest.raises(UnsupportedParameterError):
            wedge_f_op(ChargedWord(((3, 1),)), 0, 1)

    @pytest.mark.parametrize("op", [wedge_f_op, wedge_e_op])
    @pytest.mark.parametrize(
        "runs",
        [((9.5, 7.2, 5.0),), ((9, 7, 5.0),), ((3, 1), ("2", 1)), ((True,),)],
        ids=["floats", "float", "str", "bool"],
    )
    def test_word_rejects_an_entry_that_is_not_an_int(self, op, runs):
        with pytest.raises(InvalidInputError, match="entry .* is not an integer"):
            op(ChargedWord(runs), 1, 2)

    def test_preimage_validation(self):
        with pytest.raises(InvalidInputError):
            charged_to_multipartition(ChargedWord(((1, 0),)))


class TestWedgeOperators:
    def test_raising_fixture(self):
        got = wedge_f_op(ChargedWord(((3, 2, 1),)), 1, 2)
        assert got == {ChargedWord(((4, 2, 1),)): 1}

    def test_raising_three_moves(self):
        got = wedge_f_op(ChargedWord(((5, 3, 1),)), 1, 2)
        assert got == {
            ChargedWord(((6, 3, 1),)): 1,
            ChargedWord(((5, 4, 1),)): 1,
            ChargedWord(((5, 3, 2),)): 1,
        }

    def test_blocked_moves_dropped(self):
        # entry 2 cannot move onto the occupied 3; entry 1 stays above 0
        got = wedge_e_op(ChargedWord(((3, 2, 1),)), 1, 2)
        assert got == {}

    @pytest.mark.parametrize("params", [E2, E3, GOLDEN], ids=["E2", "E3", "GOLDEN"])
    def test_intertwines_box_operators(self, params):
        """Embedding at the charge shifts 7 and 8 carries the box
        operators to the wedge operators with the matching label."""
        selftest.embed_intertwines(params, 4)


class TestOperatorMatrix:
    def test_heisenberg_fixture(self):
        rows, cols, entries = operator_matrix(
            heisenberg_term_map(1, E2, "ribbon", remove=False), 0, 2
        )
        assert cols == [mp([])]
        assert rows == [mp([2]), mp([1, 1])]
        assert entries == {(0, 0): Fraction(1), (1, 0): Fraction(-1)}

    def test_rows_and_columns_have_the_params_level(self):
        rows, cols, entries = operator_matrix(
            heisenberg_term_map(1, GOLDEN, "ribbon", remove=False), 0, 2
        )
        assert cols == [mp([], [])]
        assert rows == enumerate_multipartitions(2, 2)
        assert len(entries) == 4

    def test_wrong_target_degree_rejected(self):
        with pytest.raises(InvalidInputError):
            operator_matrix(heisenberg_term_map(1, E2, "ribbon", remove=False), 0, 3)

    def test_image_beyond_truncation_overflows(self):
        with pytest.raises(TruncationOverflowError):
            operator_matrix(heisenberg_term_map(1, E2, "ribbon", remove=False), 2, 1)


def reference_operator_matrix(apply_op, level, degree_from, degree_to):
    """operator_matrix as it was before it took term maps: each column is
    the public operator applied to a basis vector, with Fraction entries."""
    cols = enumerate_multipartitions(level, degree_from)
    rows = enumerate_multipartitions(level, degree_to)
    row_index = {lam: i for i, lam in enumerate(rows)}
    truncation = max(degree_from, degree_to)
    entries = {}
    for j, lam in enumerate(cols):
        image = apply_op(basis_vector(lam, truncation))
        for mu, c in image.entries.items():
            if mu.size != degree_to:
                raise InvalidInputError(
                    f"operator image leaves degree {degree_to}: got degree {mu.size}"
                )
            entries[(row_index[mu], j)] = c
    return rows, cols, entries


def outcome(build):
    try:
        return build()
    except FockcrystalError as exc:
        return type(exc), str(exc)


# rational kappa of both signs, symbolic kappa and integer kappa per level
MATRIX_POINTS = {
    1: [E2, E3, CherednikParams(1, Fraction(-1, 3), [1]), CherednikParams(1, None, [0]),
        CherednikParams(1, Fraction(-1), [0])],
    2: [GOLDEN, CherednikParams(2, Fraction(-1, 3), [0, 1]),
        CherednikParams(2, Fraction(1, 2), [0, 1]),
        CherednikParams(2, Fraction(-2, 3), [0, Fraction(1, 2)]),
        CherednikParams(2, None, [(0, 0), (1, 1)]), CherednikParams(2, Fraction(-1), [0, 0])],
    3: [CherednikParams(3, Fraction(-1, 2), [0, 1, -1]),
        CherednikParams(3, Fraction(-1, 3), [0, 1, -1]),
        CherednikParams(3, None, [0, -1, (1, 1)])],
}


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_operator_matrix_matches_the_fockvector_build(data):
    """Term-map matrices equal the per-column FockVector build, or raise
    the same error, across ops, models and matching, mismatched,
    overflowing and empty-image degree pairs."""
    level = data.draw(st.integers(1, 3), label="level")
    params = data.draw(st.sampled_from(MATRIX_POINTS[level]), label="params")
    op = data.draw(st.sampled_from(["bplus", "bminus", "e", "f"]), label="op")
    top = 6 if level < 3 else 4
    degree_from = data.draw(st.integers(0, top), label="degree_from")
    if op in ("bplus", "bminus"):
        d = data.draw(st.integers(0, 3), label="d")
        model = data.draw(st.sampled_from(["ribbon", "wedge"]), label="model")
        remove, public = (True, b_minus_op) if op == "bminus" else (False, b_plus_op)
        step = d * (params.e or 1) * (-1 if remove else 1)
        make = lambda: heisenberg_term_map(d, params, model, remove)
        apply_op = lambda v: public(v, d, params, model)
    else:
        # values -1 and e occur at no box at rational kappa: both builds refuse them
        z = Residue(
            data.draw(st.integers(0, len(params.classes) - 1), label="class_id"),
            data.draw(st.integers(-1, params.e or 4), label="value"),
        )
        remove, public = (True, e_z_op) if op == "e" else (False, f_z_op)
        step = -1 if remove else 1
        make = lambda: box_term_map(params, z, remove)
        apply_op = lambda v: public(v, z, params)
    natural = degree_from + step
    if 0 <= natural <= top + 3 and data.draw(st.integers(0, 2), label="pick") > 0:
        degree_to = natural
    else:
        degree_to = data.draw(st.integers(0, top + 3), label="degree_to")
    want = outcome(lambda: reference_operator_matrix(apply_op, level, degree_from, degree_to))
    got = outcome(lambda: operator_matrix(make(), degree_from, degree_to))
    assert got == want
    if isinstance(got, tuple) and len(got) == 3:
        assert all(type(c) is int for c in got[2].values())


@pytest.mark.parametrize("model", ["ribbon", "wedge"])
def test_operator_matrix_refuses_b_plus_overflow_before_any_ribbon(monkeypatch, model):
    """At e = 100000 every B_1 term has degree 100001: the library call
    stops before it builds a single ribbon or bead move."""
    from fockcrystal import fock

    def refuse(*args):
        raise AssertionError("a ribbon was built")

    monkeypatch.setattr(fock, "ribbon_additions", refuse)
    monkeypatch.setattr(fock, "_wedge_moves", refuse)
    term_map = heisenberg_term_map(1, CherednikParams(1, Fraction(-1, 100000), [0]), model, False)
    message = "^term of degree 100001 exceeds truncation 1$"
    with pytest.raises(TruncationOverflowError, match=message):
        operator_matrix(term_map, 1, 1)


@pytest.mark.parametrize("direction", ["raise", "lower"])
def test_operator_matrix_builds_no_checked_shape(monkeypatch, direction):
    """Every shape of a degree-8 matrix comes from a move, so the checking
    constructors never run on the matrix path."""
    remove = direction == "lower"
    maps = [heisenberg_term_map(1, GOLDEN, model, remove) for model in ("ribbon", "wedge")]
    maps.append(box_term_map(GOLDEN, ONE2, remove))
    steps = [-2, -2, -1] if remove else [2, 2, 1]

    def refuse(cls, *args):
        raise AssertionError("a checking constructor ran on the matrix path")

    # the checks live in __new__; moves build through the unchecked _trusted
    monkeypatch.setattr(Partition, "__new__", refuse)
    monkeypatch.setattr(Multipartition, "__new__", refuse)
    for term_map, step in zip(maps, steps):
        degree_from = 8 if remove else 8 - step
        rows, cols, entries = operator_matrix(term_map, degree_from, degree_from + step)
        assert entries and {rows[r].size for r, _ in entries} == {degree_from + step}


# every TERM_MAPS kind at levels 1, 2 and 3, at a point with two charge
# classes and at symbolic kappa (box maps only there: the Heisenberg maps
# need rational kappa); at s = (0, 1) the label ([1], [1]) has the same
# partition in two components of different residue bases
MOVES_POINTS = {
    "E2": E2,
    "E3": E3,
    "GOLDEN": GOLDEN,
    "L2_SHIFTED": L2_SHIFTED,
    "L2_TWO_CLASSES": L2_TWO_CLASSES,
    "L2_SYMBOLIC": L2_SYMBOLIC,
    "L3": L3,
}


def kind_term_maps(kind, params, top):
    """(term map, degree step) of a TERM_MAPS kind at params: a box map for
    each residue of an addable box in degrees < top, or B_{+-d} in the
    kind's model for every d with d*e <= top."""
    if kind in ("f", "e"):
        zs = {
            params.residue(b)
            for n in range(top)
            for lam in enumerate_multipartitions(params.level, n)
            for b in lam.addable_boxes()
        }
        step = -1 if kind == "e" else 1
        return [(box_term_map(params, z, kind == "e"), step) for z in sorted(zs)]
    e = params.e
    if e is None:
        return []
    model, direction = kind.split("-")
    remove = direction == "minus"
    return [
        (heisenberg_term_map(d, params, model, remove), -d * e if remove else d * e)
        for d in range(1, top // e + 1)
    ]


def matrix_from_moves(term_map, degree_from, degree_to):
    """operator_matrix's entries, built column by column from whole-label
    moves."""
    level = term_map.params.level
    row_index = {lam: r for r, lam in enumerate(enumerate_multipartitions(level, degree_to))}
    return {
        (row_index[mu], j): w
        for j, lam in enumerate(enumerate_multipartitions(level, degree_from))
        for mu, w in term_map.moves(lam)
    }


@pytest.mark.parametrize("point", MOVES_POINTS)
@pytest.mark.parametrize("kind", TERM_MAPS)
def test_operator_matrix_equals_the_build_from_moves(kind, point):
    """Rows found by their parts and component moves read once per
    partition give the matrix that term_map.moves gives, in degrees <= 6."""
    params = MOVES_POINTS[point]
    top = 6
    maps = kind_term_maps(kind, params, top)
    assert maps or params.e is None
    for term_map, step in maps:
        for low in range(top + 1 - abs(step)):
            ends = (low + abs(step), low) if step < 0 else (low, low + step)
            rows, cols, entries = operator_matrix(term_map, *ends)
            assert entries == matrix_from_moves(term_map, *ends), (kind, ends)


def test_operator_matrix_reads_the_residues_of_each_component():
    """([1], [1]) at s = (0, 1): the same partition in both components,
    but only the second component's addable boxes have residue 0:0."""
    rows, cols, entries = operator_matrix(box_term_map(L2_SHIFTED, ZERO2, False), 2, 3)
    j = cols.index(mp([1], [1]))
    assert {rows[r] for r, c in entries if c == j} == {mp([1], [2]), mp([1], [1, 1])}


@pytest.mark.parametrize("kind", TERM_MAPS)
def test_operator_matrix_reads_each_component_partition_once(kind):
    """Within one call the moves of a (component, partition) pair are
    computed once, however many labels hold that partition there."""
    build, params, step, _ = TERM_MAPS[kind]
    term_map = build()
    calls = Counter()

    def counted(i, p):
        calls[i, p] += 1
        return term_map.component_moves(i, p)

    ends = (8, 8 + step) if step < 0 else (8 - step, 8)
    want = operator_matrix(term_map, *ends)
    assert operator_matrix(term_map._replace(component_moves=counted), *ends) == want
    assert set(calls.values()) == {1}
    assert set(calls) == {(i, c) for lam in want[1] for i, c in enumerate(lam)}


def test_operator_matrix_names_the_degree_a_term_lands_in():
    """An f map asked for two degrees up: its terms land one degree up,
    inside the truncation."""
    with pytest.raises(InvalidInputError, match="^operator image leaves degree 4: got degree 3$"):
        operator_matrix(box_term_map(GOLDEN, ZERO2, False), 2, 4)


def test_operator_matrix_checks_a_missed_term_against_the_truncation_first():
    """An f map asked for one degree down: its terms land above both ends,
    so the truncation overflow is raised, not the wrong degree."""
    with pytest.raises(TruncationOverflowError, match="^term of degree 3 exceeds truncation 2$"):
        operator_matrix(box_term_map(GOLDEN, ZERO2, False), 2, 1)
