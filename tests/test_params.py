"""Parameter arithmetic: exact charges, integer c-value keys checked
against Fraction c-values, box residues, component equivalence classes,
essential walls, Hecke exponents, and the rank-one Hom criterion."""

import copy
import itertools
import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcrystal import (
    Box,
    ChargeValue,
    CherednikParams,
    InvalidInputError,
    ChargeDifferenceWall,
    KappaDenominatorWall,
    Multipartition,
    Residue,
    UnsupportedParameterError,
    WallCrossStep,
    b_plus_op,
    basis_vector,
    c_lambda,
    crystal_component,
    crystal_graph,
    e_tilde,
    e_z_op,
    enumerate_multipartitions,
    essential_walls,
    f_tilde,
    f_z_op,
    filtration_dims,
    hecke_exponents,
    heis_q,
    is_essential_charge_wall,
    is_singular,
    km_depth,
    leq_c,
    normalize_for_support,
    preceq,
    rank_one_verma_hom,
    relevant_residues,
    singular_subspace,
    support,
    wall_cross,
    z_signature,
)
from fockcrystal import orders, selftest
from fockcrystal.orders import _c_difference

GOLDEN = CherednikParams(2, Fraction(-1, 2), [0, -1])


# one parameter point written in every form the constructor accepts
KAPPA_FORMS = {
    "rational": (Fraction(-2, 3), ["-2/3", Fraction(-4, 6)]),
    "integer": (Fraction(-1), [-1, "-1", Fraction(-1)]),
    "symbolic": (None, [None]),
}
PAIR_CHARGE_FORMS = [ChargeValue(3, Fraction(1, 2)), (3, "1/2"), [Fraction(3), "1/2"]]
HALF_CHARGE_FORMS = [ChargeValue(Fraction(-1, 2)), Fraction(-1, 2), "-1/2"]
INT_CHARGE_FORMS = [ChargeValue(2), 2, "2", Fraction(2), [2]]


class TestConstructor:
    @pytest.mark.parametrize("kind", KAPPA_FORMS)
    def test_every_accepted_form_gives_equal_records(self, kind):
        kappa, forms = KAPPA_FORMS[kind]
        want = CherednikParams(3, kappa, (ChargeValue(3, Fraction(1, 2)),
                                          ChargeValue(Fraction(-1, 2)), ChargeValue(2)))
        for k in forms:
            for s in itertools.product(PAIR_CHARGE_FORMS, HALF_CHARGE_FORMS, INT_CHARGE_FORMS):
                p = CherednikParams(3, k, s)
                assert p == want and hash(p) == hash(want), (k, s)
                assert p.kappa is None if kappa is None else type(p.kappa) is Fraction
                assert all(type(c) is ChargeValue for c in p.s)
                assert all(type(x) is Fraction for c in p.s for x in c), s

    def test_e_is_the_denominator_of_kappa(self):
        assert CherednikParams(1, "-2/3", [0]).e == 3
        assert CherednikParams(1, -2, [0]).e == 1
        assert CherednikParams(1, None, [0]).e is None

    @pytest.mark.parametrize("zero", [0, "0", Fraction(0)], ids=repr)
    def test_zero_kappa_rejected(self, zero):
        with pytest.raises(InvalidInputError, match="^kappa must be nonzero$"):
            CherednikParams(1, zero, [0])

    @pytest.mark.parametrize(
        "bad, message",
        [
            (0.1, "^expected an exact rational number, got 0.1$"),
            (-0.5, "^expected an exact rational number, got -0.5$"),
            (True, "^expected an exact rational number, got True$"),
            ("abc", "^cannot parse rational 'abc'$"),
            ("1/0", "^cannot parse rational '1/0'$"),
        ],
        ids=["float", "half-float", "bool", "text", "zero-denominator"],
    )
    def test_inexact_or_malformed_numbers_rejected(self, bad, message):
        """Fraction would take a float's binary value (0.1 gives e = 2**55)
        and a bool as 0 or 1, and raises ValueError or ZeroDivisionError on
        bad text; the constructor refuses them all, for kappa and for each
        charge field, with InvalidInputError."""
        with pytest.raises(InvalidInputError, match=message):
            CherednikParams(1, bad, [0])
        for charge in (bad, (0, bad), [bad, 0]):
            with pytest.raises(InvalidInputError, match=message):
                CherednikParams(2, Fraction(-1, 2), [0, charge])
        with pytest.raises(InvalidInputError, match=message):
            ChargeValue(bad)


class TestChargeAndCValues:
    def test_charge_collapse(self):
        # a + b/kappa at kappa = -1/2
        assert ChargeValue(3, 1).collapse(Fraction(-1, 2)) == 1
        with pytest.raises(UnsupportedParameterError):
            ChargeValue(3, 1).collapse(None)

    def test_charge_arithmetic(self):
        assert ChargeValue(1, 2) - ChargeValue(3, -1) == ChargeValue(-2, 3)
        assert ChargeValue(1, 2).shift(Fraction(1, 2)) == ChargeValue(Fraction(3, 2), 2)

    def test_cvalue_collapse(self):
        # kappa*l = -4/3 and c at content 0 is -5/3 in component 1, so D = 3
        p = CherednikParams(2, Fraction(-2, 3), [0, Fraction(1, 2)])
        assert p.c_keys == (3, -4, (0, -5))
        # c = kappa*l*(1/2 + 1) - 1 = -3
        assert p.c_of_box(Box(2, 1, 1)) == 3 * -3

    def test_cvalue_integer_difference(self):
        p = CherednikParams(2, Fraction(-2, 3), [0, Fraction(1, 2)])
        c = [p.c_of_box(b) for b in (Box(1, 1, 0), Box(2, 1, 1), Box(2, 1, 0))]
        # c-values 0, -3 and -4/3
        assert _c_difference(c[0], c[1], p) == 3
        assert _c_difference(c[1], c[0], p) == -3
        assert _c_difference(c[0], c[2], p) is None
        q = CherednikParams(3, None, [0, (0, Fraction(1, 6)), (0, 1)])
        assert q.c_keys == (2, 6, ((0, 0), (0, -1), (0, 2)))
        # c-values 0, 3*kappa, -1/2 and 1
        c = [q.c_of_box(b) for b in (Box(1, 1, 0), Box(2, 1, 0), Box(1, 1, 1), Box(1, 1, 2))]
        assert _c_difference(c[1], c[0], q) is None
        assert _c_difference(c[2], c[0], q) is None
        assert _c_difference(c[3], c[0], q) == 1

    def test_c_sort_key_irrational_is_lexicographic(self):
        p = CherednikParams(2, None, [0, -1])
        a, b = p.c_of_box(Box(1, 1, 0)), p.c_of_box(Box(2, 1, 0))
        assert (a, b) == ((0, 0), (2, 0))
        # c-values 0 and 2*kappa: the kappa part decides, whatever the rest
        assert a < b and p.c_of_box(Box(1, 1, 1)) < a
        # numerically at kappa = -1/2 the comparison flips
        q = CherednikParams(2, Fraction(-1, 2), [0, -1])
        assert q.c_of_box(Box(1, 1, 0)) > q.c_of_box(Box(2, 1, 0))


class TestParams:
    def test_constructor_validates_charge_count(self):
        with pytest.raises(InvalidInputError, match="expected 2 charges, got 1"):
            CherednikParams(2, Fraction(-1, 2), [0])
        with pytest.raises(InvalidInputError, match="level must be at least 1"):
            CherednikParams(0, Fraction(-1, 2), [])

    @pytest.mark.parametrize("level", [2.0, "2", True, None], ids=repr)
    def test_constructor_refuses_a_level_that_is_not_an_integer(self, level):
        """A bool is not a level either: True would be taken as level 1."""
        with pytest.raises(InvalidInputError) as exc:
            CherednikParams(level, Fraction(-1, 2), [0, -1])
        assert str(exc.value) == f"level must be an integer, got {level!r}"

    @pytest.mark.parametrize("charge", [(1, 2, 3), [], ()], ids=repr)
    def test_constructor_refuses_a_charge_of_the_wrong_length(self, charge):
        with pytest.raises(InvalidInputError) as exc:
            CherednikParams(2, Fraction(-1, 2), [0, charge])
        assert str(exc.value) == f"charge {charge!r} must be [a] or [a, b]"

    def test_exponent_is_refused_before_it_is_expanded(self):
        """Fraction would expand "1e99999999" into an integer of 10**8
        digits; each entry point refuses the string at once.  It runs in a
        fresh process under a timeout, so a regression fails, not hangs."""
        probe = (
            "from fockcrystal import ChargeValue, CherednikParams, InvalidInputError\n"
            "for make in (lambda: CherednikParams(1, '-1/2', ['1e99999999']),\n"
            "             lambda: CherednikParams(1, '-1E99999999', [0]),\n"
            "             lambda: CherednikParams(2, None, [0, ('0', '1e99999999')]),\n"
            "             lambda: ChargeValue(0).shift('1e99999999')):\n"
            "    try:\n"
            "        make()\n"
            "    except InvalidInputError as exc:\n"
            "        print(exc)\n"
        )
        import fockcrystal

        env = dict(os.environ, PYTHONPATH=str(Path(fockcrystal.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, timeout=5
        )
        assert proc.stderr == ""
        reason = "exponents are not accepted"
        assert proc.stdout.splitlines() == [
            f"cannot parse rational '1e99999999': {reason}",
            f"cannot parse rational '-1E99999999': {reason}",
            f"cannot parse rational '1e99999999': {reason}",
            f"cannot parse rational '1e99999999': {reason}",
        ]

    def test_charge_pairs(self):
        p = CherednikParams(2, None, [0, (0, 1)])
        assert p.s[1] == ChargeValue(Fraction(0), Fraction(1))

    def test_h_values_at_golden(self):
        # a content-0 box of component i has c = l*h_i, and h_0 = h_1 = 0
        assert GOLDEN.c_of_box(Box(1, 1, 0)) == GOLDEN.c_of_box(Box(1, 1, 1)) == 0

    def test_charged_content(self):
        assert charged_content(GOLDEN, Box(1, 4, 1)) == ChargeValue(-4)
        assert charged_content(GOLDEN, Box(2, 2, 0)) == ChargeValue(0)
        with pytest.raises(InvalidInputError):
            charged_content(GOLDEN, Box(1, 1, 2))

    def test_c_of_box(self):
        assert GOLDEN.c_keys[0] == 1
        assert GOLDEN.c_of_box(Box(1, 4, 1)) == 3
        assert GOLDEN.c_of_box(Box(2, 2, 0)) == 0
        with pytest.raises(InvalidInputError, match="component -1 out of range"):
            GOLDEN.c_of_box(Box(1, 1, -1))

    def test_box_equivalence(self):
        # charged contents must differ by a multiple of 1/kappa = -2
        assert box_equivalent(GOLDEN, Box(1, 4, 1), Box(2, 2, 0))
        assert box_equivalent(GOLDEN, Box(1, 1, 0), Box(2, 1, 1))
        assert not box_equivalent(GOLDEN, Box(1, 1, 0), Box(1, 1, 1))


class TestEquivalenceClasses:
    def test_golden_single_class(self):
        assert GOLDEN.classes == ((0, 1),)
        assert [cid for cid, _ in GOLDEN.bases] == [0, 0]

    def test_split_classes(self):
        p = CherednikParams(2, Fraction(-1, 2), [0, Fraction(1, 2)])
        assert p.classes == ((0,), (1,))

    def test_larger_numerator_merges(self):
        # Z + (e/r)Z = (1/2)Z at kappa = -2/3 absorbs the half charge
        p = CherednikParams(2, Fraction(-2, 3), [0, Fraction(1, 2)])
        assert p.classes == ((0, 1),)

    def test_irrational_classes(self):
        p = CherednikParams(3, None, [0, (0, 1), (Fraction(1, 2), 0)])
        assert p.classes == ((0, 1), (2,))

    def test_classes_are_a_field(self):
        assert CherednikParams._fields == ("level", "kappa", "s", "classes", "bases", "c_keys")
        p = CherednikParams(3, Fraction(-1, 2), [Fraction(1, 2), 0, Fraction(3, 2)])
        assert p.classes == ((0, 2), (1,))
        assert p.bases == ((0, 0), (1, 0), (0, 1))
        # kappa*l = -3/2; c at content 0 is -3/4, -1 and -17/4
        assert p.c_keys == (4, -6, (-3, -4, -17))
        assert p == (p.level, p.kappa, p.s, p.classes, p.bases, p.c_keys)
        # the record is rebuilt from its three inputs
        assert copy.copy(p) == pickle.loads(pickle.dumps(p)) == p

    def test_crystal_never_hashes_the_params(self, monkeypatch):
        """The residue of a box reads the classes off the record, so the
        crystal operators hash no parameter point."""

        def refuse(self):
            raise AssertionError("the parameter point was hashed")

        monkeypatch.setattr(CherednikParams, "__hash__", refuse)
        lam = Multipartition([[2, 2], [3, 1, 1, 1]])
        z = Residue(0, 0)
        assert z_signature(lam, z, GOLDEN).word == "++-+-"
        assert e_tilde(lam, z, GOLDEN) == Multipartition([[2, 2], [3, 1, 1]])
        assert f_tilde(lam, z, GOLDEN) == Multipartition([[3, 2], [3, 1, 1, 1]])
        assert len(crystal_graph(4, GOLDEN).edges) == 26
        assert len(crystal_graph(3, CherednikParams(3, None, [0, -1, (1, 1)])).edges) == 36


class TestResidues:
    def test_golden_residues(self):
        assert GOLDEN.residue(Box(1, 1, 0)) == Residue(0, 0)
        assert GOLDEN.residue(Box(2, 1, 0)) == Residue(0, 1)
        assert GOLDEN.residue(Box(1, 1, 1)) == Residue(0, 1)
        assert GOLDEN.residue(Box(1, 4, 1)) == Residue(0, 0)
        assert str(GOLDEN.residue(Box(2, 1, 0))) == "0:1"

    @pytest.mark.parametrize("num", [-1, -2, -4, 2, 5])
    def test_level_one_residue_is_content_mod_e(self, num):
        """For integral level-one charges the residue reduces to the
        charged content mod e, whatever the numerator of kappa."""
        e = 3
        p = CherednikParams(1, Fraction(num, e), [0])
        for x in range(1, 6):
            for y in range(1, 6):
                assert p.residue(Box(x, y, 0)) == Residue(0, (x - y) % e)

    def test_split_class_residues_use_own_representative(self):
        p = CherednikParams(2, Fraction(-1, 2), [0, Fraction(1, 2)])
        assert p.residue(Box(1, 1, 0)) == Residue(0, 0)
        assert p.residue(Box(1, 1, 1)) == Residue(1, 0)
        assert p.residue(Box(2, 1, 1)) == Residue(1, 1)

    def test_irrational_residues_are_plain_integers(self):
        p = CherednikParams(2, None, [0, -1])
        assert p.residue(Box(1, 1, 1)) == Residue(0, -1)
        assert p.residue(Box(3, 1, 0)) == Residue(0, 2)

    def test_residues_sort_by_class_then_value(self):
        residues = [Residue(1, 0), Residue(0, 2), Residue(0, -1)]
        assert sorted(residues) == [Residue(0, -1), Residue(0, 2), Residue(1, 0)]


def charged_content(p, b):
    """s_i + x - y for a box b = (x, y, i)."""
    if not 0 <= b.comp < p.level:
        raise InvalidInputError(f"component {b.comp} out of range")
    return p.s[b.comp].shift(b.x - b.y)


def box_equivalent(p, b1, b2):
    """Whether the charged contents of b1 and b2 differ by an element of
    (1/kappa)Z."""
    d = charged_content(p, b1) - charged_content(p, b2)
    if p.kappa is None:
        return d.a == 0 and d.b.denominator == 1
    return (p.kappa * d.collapse(p.kappa)).denominator == 1


def reference_residue(p, b):
    """A box's residue worked out from the charges with Fractions, box by
    box: the class representative's charge fixes an offset, and the
    charged content less that offset, times r, is an integer that is
    reduced mod e after dividing by r."""
    cid = next(cid for cid, members in enumerate(p.classes) if b.comp in members)
    rep = p.classes[cid][0]
    cont = charged_content(p, b)
    if p.kappa is not None:
        r = abs(p.kappa.numerator)
        e = p.e
        sigma = p.s[rep].collapse(p.kappa)
        offset = sigma - Fraction(math.floor(sigma * r), r)
        scaled = (cont.collapse(p.kappa) - offset) * r
        assert scaled.denominator == 1
        return Residue(cid, int(scaled) * pow(r, -1, e) % e if e > 1 else 0)
    offset = p.s[rep].a - math.floor(p.s[rep].a)
    value = cont.a - offset
    assert value.denominator == 1
    return Residue(cid, int(value))


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
# charge parts that often differ by an integer, so classes merge
charge_parts = st.one_of(st.integers(-3, 3), small_fractions)
# kappa of either sign, or symbolic; never an integer
kappas = st.one_of(
    st.none(),
    st.builds(Fraction, st.integers(-7, 7).filter(bool), st.integers(2, 7)).filter(
        lambda k: k.denominator > 1
    ),
)
coords = st.integers(1, 6)


@st.composite
def params_and_boxes(draw):
    """Params at level 1-4 with charges a + b/kappa, and boxes in every
    component."""
    level = draw(st.integers(1, 4))
    a0 = draw(small_fractions)
    s = [
        (a0 + draw(charge_parts), draw(charge_parts))
        for _ in range(level)
    ]
    p = CherednikParams(level, draw(kappas), s)
    boxes = [draw(st.builds(Box, coords, coords, st.just(i))) for i in range(level)]
    boxes += draw(st.lists(st.builds(Box, coords, coords, st.integers(0, level - 1)), max_size=6))
    return p, boxes


class TestCompiledResidue:
    @settings(max_examples=300, deadline=None)
    @given(params_and_boxes())
    def test_residue_matches_the_charge_formula(self, drawn):
        p, boxes = drawn
        for b in boxes:
            assert p.residue(b) == reference_residue(p, b), (p, b)

    @settings(max_examples=300, deadline=None)
    @given(params_and_boxes())
    def test_boxes_share_a_residue_iff_equivalent(self, drawn):
        p, boxes = drawn
        for b1 in boxes:
            for b2 in boxes:
                assert (p.residue(b1) == p.residue(b2)) == box_equivalent(p, b1, b2), (p, b1, b2)

    @settings(max_examples=100, deadline=None)
    @given(params_and_boxes(), st.data())
    def test_component_out_of_range_is_rejected(self, drawn, data):
        p, _ = drawn
        comp = data.draw(st.one_of(st.integers(-6, -1), st.integers(p.level, p.level + 4)))
        with pytest.raises(InvalidInputError, match=f"component {comp} out of range"):
            p.residue(Box(1, 1, comp))


def reference_c(p, b):
    """c_b = kappa*l*(s_i + x - y) - i worked out with Fractions, or the
    pair (u, v) of c_b = u*kappa + v at symbolic kappa."""
    cont = charged_content(p, b)
    if p.kappa is not None:
        return p.kappa * p.level * cont.collapse(p.kappa) - b.comp
    return (p.level * cont.a, p.level * cont.b - b.comp)


def reference_difference(c1, c2):
    """c1 - c2 by Fraction subtraction when it is an integer, else None."""
    if isinstance(c1, tuple):
        if c1[0] != c2[0]:
            return None
        c1, c2 = c1[1], c2[1]
    d = c1 - c2
    return int(d) if d.denominator == 1 else None


# The selftest grid, the positive-kappa points of the transpose-reduction
# check, and the off-grid points of the signature-keys test in
# test_crystal.py (levels 2-4, half-integer charges, symbolic kappa).
C_KEY_POINTS = selftest.GRID + [
    CherednikParams(level, kappa, charges)
    for level, kappa, charges in (
        (1, Fraction(1, 2), [0]),
        (1, Fraction(2, 3), [Fraction(1, 2)]),
        (2, Fraction(1, 2), [0, -1]),
        (2, Fraction(2, 3), [0, Fraction(1, 2)]),
        (3, Fraction(1, 3), [0, 1, -1]),
        (2, Fraction(1, 2), [0, 1]),
        (2, Fraction(2, 3), [(0, 1), Fraction(1, 2)]),
        (3, Fraction(3, 4), [0, (1, 2), -1]),
        (4, Fraction(-1, 3), [0, 1, (0, 1), Fraction(1, 2)]),
        (4, None, [0, (1, 1), -1, (0, 2)]),
    )
]


def assert_keys_match(p, boxes):
    """Over every pair of boxes, the integer keys sort as the exact
    c-values do, and their integer difference is the Fraction difference."""
    exact = [(reference_c(p, b), p.c_of_box(b)) for b in set(boxes)]
    for c1, k1 in exact:
        for c2, k2 in exact:
            assert (k1 < k2, k1 == k2) == (c1 < c2, c1 == c2), (p, c1, c2)
            assert _c_difference(k1, k2, p) == reference_difference(c1, c2), (p, c1, c2)


class TestCKeys:
    @pytest.mark.parametrize("p", C_KEY_POINTS, ids=repr)
    def test_keys_match_the_fraction_c_values(self, p):
        """Every box on a label of size <= 4."""
        labels = [lam for n in range(5) for lam in enumerate_multipartitions(p.level, n)]
        assert_keys_match(p, [b for lam in labels for b in lam.boxes()])

    @settings(max_examples=300, deadline=None)
    @given(params_and_boxes())
    def test_keys_match_the_fraction_c_values_anywhere(self, drawn):
        """Charges whose denominators the grid does not sample."""
        assert_keys_match(*drawn)

    @pytest.mark.parametrize("p", [selftest.GRID[6], selftest.GRID[-1]], ids=["D=3", "symbolic"])
    def test_c_value_path_builds_no_fraction(self, p, monkeypatch):
        """Keys, signatures and the orders run on integers once the record
        is built."""

        def refuse(*args, **kwargs):
            raise AssertionError("a Fraction was built")

        labels = [lam for n in range(4) for lam in enumerate_multipartitions(p.level, n)]
        orders.c_lambda.cache_clear()
        orders._residues_and_c.cache_clear()
        monkeypatch.setattr(Fraction, "__new__", refuse)
        for lam in labels:
            for z in relevant_residues(lam, p):
                z_signature(lam, z, p)
            for mu in labels:
                leq_c(lam, mu, p)
                preceq(lam, mu, p)
        monkeypatch.undo()
        assert Fraction(2, 4) == Fraction(1, 2)


class TestWalls:
    def test_golden_walls_rank_two(self):
        assert essential_walls(GOLDEN, 2) == [
            KappaDenominatorWall(2),
            ChargeDifferenceWall(0, 1, -1),
            ChargeDifferenceWall(0, 1, 1),
        ]

    def test_essential_iff_reachable_in_charge_lattice(self):
        # s_0 - s_1 - m = 1 - m must lie in (1/kappa)Z = 2Z
        assert is_essential_charge_wall(GOLDEN, 0, 1, 1)
        assert is_essential_charge_wall(GOLDEN, 0, 1, 3)
        assert not is_essential_charge_wall(GOLDEN, 0, 1, 0)
        assert not is_essential_charge_wall(GOLDEN, 0, 1, 2)

    def test_denominator_wall_needs_reachable_rank(self):
        p = CherednikParams(1, Fraction(-1, 3), [0])
        assert essential_walls(p, 2) == []
        assert essential_walls(p, 3) == [KappaDenominatorWall(3)]

    def test_irrational_has_integer_charge_walls_only(self):
        p = CherednikParams(2, None, [0, -1])
        assert KappaDenominatorWall not in {type(w) for w in essential_walls(p, 4)}
        assert ChargeDifferenceWall(0, 1, 1) in essential_walls(p, 4)

    def test_rank_below_one_rejected(self):
        with pytest.raises(InvalidInputError):
            essential_walls(GOLDEN, 0)


class TestIntegerKappa:
    def test_every_computation_rejects_integer_kappa(self):
        p = CherednikParams(2, -1, [0, 0])
        lam = Multipartition([[1], []])
        v = basis_vector(lam, 2)
        z = Residue(0, 0)
        calls = [
            lambda: z_signature(lam, z, p),
            lambda: crystal_component(lam, p, 2),
            lambda: crystal_graph(2, p),
            lambda: f_z_op(v, z, p),
            lambda: e_z_op(v, z, p),
            lambda: b_plus_op(v, 1, p),
            lambda: singular_subspace(2, p),
            lambda: filtration_dims(0, 0, 2, p),
            lambda: support(lam, p),
            lambda: wall_cross(lam, WallCrossStep(ChargeDifferenceWall(0, 1, 0)), p),
        ]
        for call in calls:
            with pytest.raises(UnsupportedParameterError, match="integer kappa"):
                call()

    def test_diagnostics_accept_integer_kappa(self):
        p = CherednikParams(2, -1, [0, 0])
        assert p.classes == ((0, 1),)
        assert hecke_exponents(p).q_exp == 0


class TestLevelMismatch:
    def test_every_label_entry_point_rejects_another_level(self):
        lam = Multipartition([[2, 1]])
        ok = Multipartition([[2, 1], []])
        z = Residue(0, 0)
        calls = [
            lambda: relevant_residues(lam, GOLDEN),
            lambda: z_signature(lam, z, GOLDEN),
            lambda: e_tilde(lam, z, GOLDEN),
            lambda: f_tilde(lam, z, GOLDEN),
            lambda: is_singular(lam, GOLDEN),
            lambda: km_depth(lam, GOLDEN),
            lambda: crystal_component(lam, GOLDEN, 3),
            lambda: support(lam, GOLDEN),
            lambda: heis_q(lam, GOLDEN),
            lambda: wall_cross(lam, WallCrossStep(ChargeDifferenceWall(0, 1, 1)), GOLDEN),
            lambda: c_lambda(lam, GOLDEN),
            lambda: leq_c(lam, lam, GOLDEN),
            lambda: leq_c(ok, lam, GOLDEN),
            lambda: preceq(lam, ok, GOLDEN),
            lambda: preceq(ok, lam, GOLDEN),
            lambda: support(Multipartition([[1], [], []]), GOLDEN),
        ]
        for call in calls:
            with pytest.raises(InvalidInputError, match="does not have level 2"):
                call()


class TestHecke:
    def test_golden_exponents(self):
        h = hecke_exponents(GOLDEN)
        assert h.q_exp == Fraction(1, 2)
        assert h.Q_exp == (Fraction(0), Fraction(1, 2))

    def test_exponents_reduced_mod_one(self):
        p = CherednikParams(1, Fraction(-1, 3), [0])
        assert hecke_exponents(p).q_exp == Fraction(2, 3)

    def test_irrational_unsupported(self):
        with pytest.raises(UnsupportedParameterError):
            hecke_exponents(CherednikParams(1, None, [0]))


class TestRankOne:
    def test_hom_exists(self):
        assert rank_one_verma_hom(2, [0, Fraction(1, 2)], 0, 1) == (1, 1)
        assert rank_one_verma_hom(1, [Fraction(3, 4)], 0, 0) == (1, 0)

    def test_negative_weight_gap(self):
        assert rank_one_verma_hom(2, [0, Fraction(1, 2)], 1, 0) == (0, None)

    def test_congruence_failure(self):
        assert rank_one_verma_hom(2, [0, 1], 0, 1) == (0, None)

    def test_non_integer_gap(self):
        assert rank_one_verma_hom(2, [0, Fraction(1, 3)], 0, 1) == (0, None)

    def test_index_validation(self):
        with pytest.raises(InvalidInputError):
            rank_one_verma_hom(2, [0, 0], 0, 2)
        with pytest.raises(InvalidInputError):
            rank_one_verma_hom(2, [0], 0, 1)


class TestNormalizeForSupport:
    def test_negative_kappa_unchanged(self):
        params, transposed = normalize_for_support(GOLDEN)
        assert params is GOLDEN
        assert not transposed

    def test_positive_kappa_negated(self):
        p = CherednikParams(2, Fraction(1, 2), [0, -1])
        flipped, transposed = normalize_for_support(p)
        assert transposed
        assert flipped.kappa == Fraction(-1, 2)
        assert [c.a for c in flipped.s] == [0, 1]

    def test_irrational_unchanged(self):
        p = CherednikParams(2, None, [0, -1])
        assert normalize_for_support(p) == (p, False)

    def test_flipped_record_is_built_once(self):
        """A support table asks once per label: each call with one
        positive-kappa record returns the same flipped record."""
        p = CherednikParams(2, Fraction(3, 7), [0, (1, Fraction(1, 2))])
        first, _ = normalize_for_support(p)
        again, transposed = normalize_for_support(p)
        assert again is first and transposed
        assert normalize_for_support(CherednikParams(2, Fraction(3, 7), p.s))[0] is first
