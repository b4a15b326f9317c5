"""Crystal operators: signature words checked against the per-residue
rule, the golden raising/lowering chain, level-one classifications with
their component isomorphisms, singular families at symbolic kappa, the
crystal axioms, and depths read off graph edges."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcrystal import (
    Box,
    InvalidInputError,
    Multipartition,
    Residue,
    Signature,
    UnsupportedParameterError,
    crystal_component,
    crystal_graph,
    e_tilde,
    enumerate_multipartitions,
    f_tilde,
    graph_depths,
    is_singular,
    km_depth,
    make_params,
    reduce_signature,
    relevant_residues,
    z_signature,
)
from fockcrystal import selftest
from fockcrystal.selftest import GOLDEN

GOLDEN_LAM = Multipartition([[2, 2], [3, 1, 1, 1]])


def sig_of(signs):
    return Signature(Residue(0, 0), tuple((Box(1, 1, 0), s) for s in signs))


class TestSignatures:
    def test_golden_word_and_reduction(self):
        z = Residue(0, 0)
        sig = z_signature(GOLDEN_LAM, z, GOLDEN)
        assert sig.word == "++-+-"
        assert reduce_signature(sig).word == "++-"

    def test_reduce_cancels_minus_plus(self):
        assert reduce_signature(sig_of("-+")).word == ""
        assert reduce_signature(sig_of("+--+")).word == "+-"
        assert reduce_signature(sig_of("--++")).word == ""
        assert reduce_signature(sig_of("++--")).word == "++--"

    def test_entries_sorted_by_ascending_c(self):
        for z in relevant_residues(GOLDEN_LAM, GOLDEN):
            sig = z_signature(GOLDEN_LAM, z, GOLDEN)
            keys = [GOLDEN.c_of_box(b) for b, _ in sig.entries]
            assert keys == sorted(keys)

    def test_strict_ties_clean_on_golden(self):
        selftest.signature_keys(GOLDEN, 4)

    @pytest.mark.parametrize(
        "level, kappa, charges, bound",
        [
            (2, Fraction(1, 2), [0, 1], 5),
            (2, Fraction(2, 3), [(0, 1), Fraction(1, 2)], 5),
            (3, Fraction(3, 4), [0, (1, 2), -1], 4),
            (4, Fraction(-1, 3), [0, 1, (0, 1), Fraction(1, 2)], 3),
            (4, None, [0, (1, 1), -1, (0, 2)], 3),
        ],
    )
    def test_signature_keys_off_the_grid(self, level, kappa, charges, bound):
        """Positive kappa, charges with a 1/kappa part and level 4, which
        the selftest grid does not sample."""
        selftest.signature_keys(make_params(level, kappa, charges), bound)


def reference_signature(lam, z, params):
    """The signature rule read residue by residue: the addable and
    removable boxes of residue z, sorted by c."""
    entries = [(b, "+") for b in lam.addable_boxes() if params.residue(b) == z] + [
        (b, "-") for b in lam.removable_boxes() if params.residue(b) == z
    ]
    entries.sort(key=lambda entry: params.c_of_box(entry[0]))
    return Signature(z, tuple(entries))


def assert_signatures_match(lam, params):
    boxes = lam.addable_boxes() + lam.removable_boxes()
    for z in {params.residue(b) for b in boxes}:
        assert z_signature(lam, z, params) == reference_signature(lam, z, params), (lam, z)


fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
partitions = st.lists(st.integers(1, 5), max_size=4).map(lambda rows: sorted(rows, reverse=True))


@st.composite
def params_and_label(draw):
    """Params at level 1-4 with charges a + b/kappa (kappa never an
    integer), and a label of that level."""
    level = draw(st.integers(1, 4))
    kappa = draw(
        st.one_of(
            st.none(),
            st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 7)).filter(
                lambda k: k.denominator > 1
            ),
        )
    )
    a0 = draw(fractions)
    parts = st.one_of(st.integers(-3, 3), fractions)
    p = make_params(level, kappa, [(a0 + draw(parts), draw(parts)) for _ in range(level)])
    return p, Multipartition([draw(partitions) for _ in range(level)])


class TestSignatureOracle:
    @pytest.mark.parametrize("params", selftest.GRID, ids=repr)
    def test_grid_labels_up_to_size_4(self, params):
        for n in range(5):
            for lam in enumerate_multipartitions(params.level, n):
                assert_signatures_match(lam, params)

    @settings(max_examples=300, deadline=None)
    @given(params_and_label())
    def test_any_charges_and_label(self, drawn):
        p, lam = drawn
        assert_signatures_match(lam, p)


class TestGoldenChain:
    def test_raising(self):
        assert e_tilde(GOLDEN_LAM, Residue(0, 0), GOLDEN) == Multipartition(
            [[2, 2], [3, 1, 1]]
        )

    def test_lowering(self):
        assert f_tilde(GOLDEN_LAM, Residue(0, 0), GOLDEN) == Multipartition(
            [[3, 2], [3, 1, 1, 1]]
        )

    def test_mutually_inverse_on_the_chain(self):
        down = f_tilde(GOLDEN_LAM, Residue(0, 0), GOLDEN)
        assert e_tilde(down, Residue(0, 0), GOLDEN) == GOLDEN_LAM


class TestCrystalAxioms:
    SAMPLES = [
        make_params(1, Fraction(-1, 2), [0]),
        make_params(2, Fraction(-1, 2), [0, -1]),
        make_params(2, Fraction(-1, 3), [0, 1]),
        make_params(2, None, [0, -1]),
    ]

    @pytest.mark.parametrize("params", SAMPLES)
    def test_inverse_pair(self, params):
        selftest.crystal_axioms(params, 4)

    @pytest.mark.parametrize("params", SAMPLES)
    def test_lowering_injective_per_residue(self, params):
        for n in range(5):
            nodes = enumerate_multipartitions(params.level, n)
            residues = sorted(
                {z for lam in nodes for z in relevant_residues(lam, params)},
                key=lambda r: (r.class_id, r.value),
            )
            for z in residues:
                images = [
                    f_tilde(lam, z, params)
                    for lam in nodes
                    if f_tilde(lam, z, params) is not None
                ]
                assert len(images) == len(set(images))

    def test_integer_kappa_unsupported(self):
        p = make_params(1, -1, [0])
        lam = Multipartition([[1]])
        with pytest.raises(UnsupportedParameterError):
            z_signature(lam, Residue(0, 0), p)
        with pytest.raises(UnsupportedParameterError):
            is_singular(lam, p)
        with pytest.raises(UnsupportedParameterError):
            km_depth(lam, p)


class TestLevelOneClassifications:
    @pytest.mark.parametrize("e", [2, 3])
    def test_singular_iff_all_parts_divisible(self, e):
        selftest.level1_singular(make_params(1, Fraction(-1, e), [0]), 8)

    @pytest.mark.parametrize("e", [2, 3])
    def test_empty_component_is_restricted(self, e):
        selftest.restricted_component(make_params(1, Fraction(-1, e), [0]), 8)

    @pytest.mark.parametrize("e", [2, 3])
    @pytest.mark.parametrize("mu_shape", [(1,), (2,), (1, 1)])
    def test_component_isomorphism(self, e, mu_shape):
        """Rowwise addition of a singular partition maps the component of
        the empty partition onto the component of mu, preserving residues."""
        params = make_params(1, Fraction(-1, e), [0])
        selftest.component_isomorphism(params, 8)


class TestSymbolicSingularFamilies:
    def test_rectangles_in_second_component(self):
        for M in (-1, 0, 1, 2):
            p = make_params(2, None, [0, M])
            for k in (1, 2, 3):
                if k + M <= 0:
                    continue
                lam = Multipartition([[], [k] * (k + M)])
                assert is_singular(lam, p), (M, k)

    def test_rectangles_in_first_component(self):
        for M in (-1, 0, 1, 2):
            p = make_params(2, None, [0, (M, 1)])
            for k in (1, 2, 3):
                if k + M <= 0:
                    continue
                lam = Multipartition([[k + M] * k, []])
                assert is_singular(lam, p), (M, k)

    def test_shape_must_match_charge_gap(self):
        assert not is_singular(
            Multipartition([[], [3, 3]]), make_params(2, None, [0, 1])
        )
        assert is_singular(
            Multipartition([[], [3, 3]]), make_params(2, None, [0, -1])
        )
        assert is_singular(
            Multipartition([[], [2, 2, 2]]), make_params(2, None, [0, 1])
        )


class TestDepth:
    def test_empty_is_highest_weight(self):
        p = make_params(1, Fraction(-1, 2), [0])
        assert km_depth(Multipartition([[]]), p) == 0
        assert is_singular(Multipartition([[]]), p)

    def test_column_fixture(self):
        p = make_params(1, Fraction(-1, 2), [0])
        assert km_depth(Multipartition([[1, 1]]), p) == 2

    def test_lowering_increases_depth(self):
        for lam in enumerate_multipartitions(2, 3):
            for z in relevant_residues(lam, GOLDEN):
                down = f_tilde(lam, z, GOLDEN)
                if down is not None:
                    assert km_depth(down, GOLDEN) >= km_depth(lam, GOLDEN) + 1

    def test_depth_zero_iff_singular(self):
        for lam in enumerate_multipartitions(2, 4):
            assert (km_depth(lam, GOLDEN) == 0) == is_singular(lam, GOLDEN)

    def test_deep_label_needs_no_recursion(self):
        # one raising walk of 1100 steps, each removing the bottom box
        assert km_depth(Multipartition([[1] * 1100, []]), GOLDEN) == 1100


class TestShiftInvariance:
    def test_common_integer_shift(self):
        shifted = make_params(2, Fraction(-1, 2), [7, 6])
        for lam in enumerate_multipartitions(2, 4):
            assert is_singular(lam, GOLDEN) == is_singular(lam, shifted)
            assert km_depth(lam, GOLDEN) == km_depth(lam, shifted)

    def test_residue_labels_shift_with_charges(self):
        shifted = make_params(2, Fraction(-1, 2), [7, 6])
        for lam in enumerate_multipartitions(2, 3):
            for z in relevant_residues(lam, GOLDEN):
                zs = Residue(0, (z.value + 7) % 2)
                got = f_tilde(lam, zs, shifted)
                assert got == f_tilde(lam, z, GOLDEN)


class TestGraphs:
    def test_component_requires_bound_at_least_size(self):
        with pytest.raises(InvalidInputError):
            crystal_component(GOLDEN_LAM, GOLDEN, size_bound=9)

    def test_component_contains_seed_and_is_closed(self):
        g = crystal_component(GOLDEN_LAM, GOLDEN, size_bound=11)
        nodes = set(g.nodes)
        assert GOLDEN_LAM in nodes
        down = Multipartition([[3, 2], [3, 1, 1, 1]])
        assert (GOLDEN_LAM, Residue(0, 0), down) in g.edges
        for src, z, dst in g.edges:
            assert src in nodes and dst in nodes
            assert f_tilde(src, z, GOLDEN) == dst

    def test_full_graph_counts(self):
        g = crystal_graph(3, GOLDEN)
        expected = sum(len(enumerate_multipartitions(2, n)) for n in range(4))
        assert len(g.nodes) == expected
        # every non-singular node has an incoming edge
        targets = {dst for _, _, dst in g.edges}
        for lam in g.nodes:
            if not is_singular(lam, GOLDEN) and lam.size >= 1:
                assert lam in targets

    def test_graph_has_the_params_level(self):
        g = crystal_graph(0, GOLDEN)
        assert g.nodes == (Multipartition([[], []]),)
        assert g.edges == ()

    @pytest.mark.parametrize(
        "params",
        [
            make_params(1, Fraction(-1, 2), [0]),
            GOLDEN,
            make_params(3, Fraction(-1, 3), [0, 1, -1]),
        ],
        ids=["l1", "l2", "l3"],
    )
    def test_nodes_are_the_params_level_labels(self, params):
        g = crystal_graph(2, params)
        assert set(g.nodes) == {
            lam for n in range(3) for lam in enumerate_multipartitions(params.level, n)
        }

    def test_edges_only_below_bound(self):
        g = crystal_graph(3, make_params(1, Fraction(-1, 2), [0]))
        assert all(src.size < 3 for src, _, _ in g.edges)
        assert all(dst.size == src.size + 1 for src, _, dst in g.edges)

    @pytest.mark.parametrize(
        "params, lam, bound",
        [
            (GOLDEN, GOLDEN_LAM, 11),
            (GOLDEN, Multipartition([[], [1, 1]]), 6),
            (make_params(2, None, [0, -1]), Multipartition([[], [3, 3]]), 8),
            (make_params(3, Fraction(-1, 3), [0, 1, -1]), Multipartition([[], [], []]), 5),
            (make_params(1, Fraction(-1, 3), [0]), Multipartition([[3, 1]]), 8),
        ],
    )
    def test_component_depths_off_the_edges(self, params, lam, bound):
        """graph_depths agrees with km_depth on a component, and a vertex
        has no incoming edge exactly when it is singular."""
        g = crystal_component(lam, params, bound)
        depths = graph_depths(g)
        targets = {dst for _, _, dst in g.edges}
        assert list(depths) == list(g.nodes)
        for v in g.nodes:
            assert depths[v] == km_depth(v, params), v
            assert (v not in targets) == is_singular(v, params), v

    def test_strict_ties_graph_clean(self):
        selftest.signature_keys(GOLDEN, 3)
        selftest.signature_keys(make_params(2, None, [0, -1]), 3)
