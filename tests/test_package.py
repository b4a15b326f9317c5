"""The package surface: public names resolved on first access, and the
record types, which are tuples of their fields."""

import inspect
import sys
from fractions import Fraction

import pytest

import fockcrystal
from fockcrystal.crystal import Signature, crystal_graph, z_signature
from fockcrystal.params import (
    ChargeDifferenceWall,
    ChargeValue,
    CherednikParams,
    HeckeExponents,
    KappaDenominatorWall,
    KappaValue,
    Residue,
    make_params,
)
from fockcrystal.partitions import Multipartition
from fockcrystal.supports import WallCrossStep, support

GOLDEN = make_params(2, Fraction(-1, 2), [0, -1])
GOLDEN_LAM = Multipartition([[2, 2], [3, 1, 1, 1]])


def test_exports_are_the_defining_module_objects():
    assert len(set(fockcrystal.__all__)) == len(fockcrystal.__all__)
    for name in fockcrystal.__all__:
        value = getattr(fockcrystal, name)
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("fockcrystal."), name
        assert getattr(home, name) is value, name


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from fockcrystal import *", namespace)
    for name in fockcrystal.__all__:
        assert namespace[name] is getattr(fockcrystal, name)


def test_no_public_call_takes_level_and_params():
    """A parameter record fixes its level, so no call takes it again."""
    for name in fockcrystal.__all__:
        value = getattr(fockcrystal, name)
        # exceptions take *args and have no signature to inspect
        if callable(value) and not (isinstance(value, type) and issubclass(value, Exception)):
            assert not {"level", "params"} <= set(inspect.signature(value).parameters), name


def test_unknown_name_is_an_attribute_error():
    """Also every public name removed in 0.3.0, so none comes back by accident."""
    for name in ("no_such_name", "CValue", "c_sort_key", "cvalue_integer_difference",
                 "equivalence_classes"):
        assert name not in fockcrystal.__all__
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(fockcrystal, name)


RECORDS = [
    KappaValue(Fraction(-1, 2)),
    KappaValue(None),
    ChargeValue(1, "1/2"),
    Residue(0, 1),
    KappaDenominatorWall(3),
    ChargeDifferenceWall(0, 1, -2),
    HeckeExponents(Fraction(1, 2), (Fraction(0), Fraction(1, 3))),
    GOLDEN,
    z_signature(GOLDEN_LAM, Residue(0, 0), GOLDEN),
    crystal_graph(1, GOLDEN),
    support(Multipartition([[2], []]), GOLDEN),
    WallCrossStep(ChargeDifferenceWall(0, 1, 1)),
]


def test_every_record_type_is_covered():
    assert len({type(r) for r in RECORDS}) == 11


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_the_tuple_of_its_fields(record):
    fields = tuple(getattr(record, name) for name in record._fields)
    assert record == fields
    # a frozen dataclass hashed this same tuple, so set and dict orders stay
    assert hash(record) == hash(fields)


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_record_is_immutable(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    with pytest.raises(AttributeError):
        record.extra = 1


REPRS = [
    (Residue(0, 1), "Residue(class_id=0, value=1)"),
    (KappaDenominatorWall(3), "KappaDenominatorWall(d=3)"),
    (ChargeDifferenceWall(0, 1, -2), "ChargeDifferenceWall(i=0, j=1, m=-2)"),
    (
        HeckeExponents(Fraction(1, 2), (Fraction(1, 3),)),
        "HeckeExponents(q_exp=Fraction(1, 2), Q_exp=(Fraction(1, 3),))",
    ),
    (
        WallCrossStep(ChargeDifferenceWall(0, 1, 1)),
        "WallCrossStep(wall=ChargeDifferenceWall(i=0, j=1, m=1), direction='up')",
    ),
    (
        support(Multipartition([[2], []]), GOLDEN),
        "SupportDescriptor(p=0, q=0, stabilizer=(2, 2, 2, 0), dim_support=0, "
        "finite_dimensional=True)",
    ),
    (
        Signature(Residue(0, 0), ()),
        "Signature(residue=Residue(class_id=0, value=0), entries=())",
    ),
    (KappaValue(Fraction(-1, 2)), "KappaValue(-1/2)"),
    (KappaValue(None), "KappaValue(~)"),
    (ChargeValue(1, "1/2"), "ChargeValue(1, 1/2)"),
    (
        GOLDEN,
        "CherednikParams(l=2, kappa=KappaValue(-1/2), s=[ChargeValue(0), ChargeValue(-1)])",
    ),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_record_repr(record, text):
    assert repr(record) == text


def test_residues_sort_by_class_then_value():
    residues = [Residue(1, 0), Residue(0, 2), Residue(0, 1)]
    assert sorted(residues) == [Residue(0, 1), Residue(0, 2), Residue(1, 0)]
    assert str(Residue(1, 0)) == "1:0"


def test_validated_records_normalise_their_fields():
    assert KappaValue("2/3").value == Fraction(2, 3)
    for record in (KappaValue(-2), ChargeValue(1, "-1/2")):
        assert all(type(x) is Fraction for x in record), record
    assert ChargeValue(1).b == 0
    params = CherednikParams(1, KappaValue(Fraction(-1, 3)), (0,))
    assert params.s == (ChargeValue(0),) and isinstance(params.s[0], ChargeValue)
