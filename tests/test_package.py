"""The package surface: public names resolved on first access, every
function in the package run by some command, the record types, which are
tuples of their fields, and the label types, which are tuples of their
parts and of their partitions."""

import ast
import copy
import inspect
import json
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import fockcrystal
from fockcrystal.crystal import Signature, crystal_graph, z_signature
from fockcrystal.jsonio import params_to_json
from fockcrystal.params import ChargeValue, CherednikParams, Residue
from fockcrystal.partitions import Multipartition, Partition
from fockcrystal.supports import WallCrossStep, support
from fockcrystal.walls import ChargeDifferenceWall, HeckeExponents, KappaDenominatorWall

GOLDEN = CherednikParams(2, Fraction(-1, 2), [0, -1])
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
    """Also every public name removed in 0.3.0, 0.6.0 and 0.8.0, so none
    comes back by accident."""
    for name in ("no_such_name", "CValue", "c_sort_key", "cvalue_integer_difference",
                 "equivalence_classes", "KappaValue", "IRRATIONAL", "rational_kappa",
                 "make_params", "charge", "filtration_dim", "asymptotic_q",
                 "heis_e_asymptotic", "inner_product", "box_leq",
                 "divide_with_remainder_search"):
        assert name not in fockcrystal.__all__
        with pytest.raises(AttributeError, match=f"has no attribute '{name}'"):
            getattr(fockcrystal, name)


# Run in a fresh process, so no cache filled by another test hides a call.
# A call that ends in a usage error or help raises SystemExit.
_TRACE_CALLS = """
import contextlib, io, json, sys
entered = set()
sys.setprofile(lambda frame, event, arg: event == "call" and entered.add(frame.f_code))
from fockcrystal import cli
for argv in json.load(sys.stdin):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            cli.main(argv)
        except SystemExit:
            pass
sys.setprofile(None)
print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered})))
"""

# name -> (params, the --m of an essential charge wall, or one that is not)
REACH_POINTS = {
    "l2": (GOLDEN, 1),
    "l3": (CherednikParams(3, Fraction(-1, 3), [0, 1, -1]), 2),
    "symbolic": (CherednikParams(2, None, [0, (0, 1)]), 0),
    "positive-pair": (CherednikParams(2, Fraction(1, 2), [0, (1, 1)]), 1),
    "two-class": (CherednikParams(2, Fraction(-1, 2), [0, Fraction(1, 2)]), 1),
}


def _reach_argvs(tmp_path):
    argvs = [
        ["rank1", "--level", "2", "--h", "0,1/2", "--k", "0", "--j", "1"],
        ["--help"], ["fock", "--help"], ["support", "--nope"], ["selftest", "quick"],
    ]
    for name, (params, m) in REACH_POINTS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(params_to_json(params)))
        # B_1 moves degree 1 to 1 + e; symbolic kappa refuses it
        p, above = ["--params", str(path)], str(1 + (params.e or 2))
        argvs += [
            ["crystal", *p, "--n-max", "3"],
            ["crystal", *p, "--format", "dot", "--n-max", "3", "--out", str(tmp_path / "g.dot")],
            ["support", *p, "--n", "4"],
            ["fock", "matrix", *p, "--op", "bplus", "--d", "1", "--degree-from", "1",
             "--degree-to", above],
            ["fock", "matrix", *p, "--op", "bminus", "--d", "1", "--model", "wedge",
             "--degree-from", above, "--degree-to", "1"],
            ["fock", "matrix", *p, "--op", "e", "--z", "0:0", "--degree-from", "2",
             "--degree-to", "1"],
            ["fock", "matrix", *p, "--op", "f", "--z", "0:0", "--degree-from", "1",
             "--degree-to", "2"],
            ["fock", "singular", *p, "--n", "3"],
            ["fock", "filtration", *p, "--n", "3"],
            ["params", *p, "--n", "3"],
            ["wallcross", *p, "--m", str(m), "--n", "3"],
        ]
    return argvs


def _package_defs():
    """(file, first line) -> dotted name of every def in the package that
    is not a dunder; the first line is a decorator's, as in co_firstlineno."""
    found = {}

    def visit(node, file, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                if not (child.name.startswith("__") and child.name.endswith("__")):
                    found[(file, first)] = name
                visit(child, file, f"{name}.")
            else:
                visit(child, file, f"{prefix}{child.name}." if isinstance(child, ast.ClassDef) else prefix)

    for path in Path(fockcrystal.__file__).parent.glob("*.py"):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.resolve(), f"{path.stem}.")
    return found


def test_every_def_is_run_by_a_command_or_selftest(tmp_path):
    """Every command at five points (levels 2 and 3 at rational kappa,
    symbolic kappa, positive kappa with a pair charge, two charge classes),
    plus rank1, help, a usage error and `selftest quick`, run in one
    process, enter every function and method of the package but dunders.
    `cli.run` is left out: it is the process entry, which
    test_process_entry_matches_main runs in a subprocess."""
    env = dict(os.environ, PYTHONPATH=str(Path(fockcrystal.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_CALLS], input=json.dumps(_reach_argvs(tmp_path)),
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    entered = {(Path(file).resolve(), line) for file, line in json.loads(proc.stdout)}
    unreached = sorted(
        name for key, name in _package_defs().items() if key not in entered and name != "cli.run"
    )
    assert not unreached, f"run by no command: {unreached}"


RECORDS = [
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
    assert len({type(r) for r in RECORDS}) == 10


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
    (ChargeValue(1, "1/2"), "ChargeValue(1, 1/2)"),
    (
        GOLDEN,
        "CherednikParams(l=2, kappa=-1/2, s=[ChargeValue(0), ChargeValue(-1)])",
    ),
]


@pytest.mark.parametrize("record, text", REPRS, ids=[type(r).__name__ for r, _ in REPRS])
def test_record_repr(record, text):
    assert repr(record) == text


def test_params_repr_at_symbolic_kappa():
    assert repr(CherednikParams(2, None, [0, (1, 1)])) == (
        "CherednikParams(l=2, kappa=~, s=[ChargeValue(0), ChargeValue(1, 1)])"
    )


PARAMS = {"rational": GOLDEN, "symbolic": CherednikParams(3, None, [0, (0, "1/6"), (1, 1)])}


@pytest.mark.parametrize("kind", PARAMS)
def test_params_survive_pickle_and_copy(kind):
    """Copies rebuild from (level, kappa, s) and keep the derived fields."""
    params = PARAMS[kind]
    copies = [pickle.loads(pickle.dumps(params, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(params), copy.deepcopy(params)]
    for other in copies:
        assert type(other) is CherednikParams and other == params
        assert hash(other) == hash(params) and other.c_keys == params.c_keys
        assert other.kappa is None if params.kappa is None else type(other.kappa) is Fraction


def test_residues_sort_by_class_then_value():
    residues = [Residue(1, 0), Residue(0, 2), Residue(0, 1)]
    assert sorted(residues) == [Residue(0, 1), Residue(0, 2), Residue(1, 0)]
    assert str(Residue(1, 0)) == "1:0"


def test_validated_records_normalise_their_fields():
    assert all(type(x) is Fraction for x in ChargeValue(1, "-1/2"))
    assert ChargeValue(1).b == 0
    params = CherednikParams(1, Fraction(-1, 3), (0,))
    assert params.s == (ChargeValue(0),) and isinstance(params.s[0], ChargeValue)


LABELS = [Partition([2, 1]), Partition([]), Multipartition([[2, 1], []]), GOLDEN_LAM]


def _plain(label):
    return tuple(tuple(c) for c in label) if isinstance(label, Multipartition) else tuple(label)


@pytest.mark.parametrize("label", LABELS, ids=repr)
def test_label_is_its_plain_tuple(label):
    """A partition equals and hashes as its parts, a label as the tuple of
    its components, so dict and set orders are those of the plain tuples."""
    plain = _plain(label)
    assert label == plain and plain == label
    assert hash(label) == hash(plain)


def test_labels_are_ordered_and_added_as_tuples():
    """Comparison is lexicographic, not dominance; + gives a plain tuple."""
    assert Partition([3]) > Partition([2, 2]) > Partition([2, 1, 1])
    assert sorted([Partition([1, 1]), Partition([2])]) == [(1, 1), (2,)]
    joined = Partition([2]) + Partition([1])
    assert joined == (2, 1) and type(joined) is tuple


@pytest.mark.parametrize("label", LABELS, ids=repr)
def test_label_has_no_instance_dict(label):
    assert not hasattr(label, "__dict__")
    with pytest.raises(AttributeError):
        label.extra = 1


@pytest.mark.parametrize("label", LABELS, ids=repr)
def test_label_survives_pickle_and_copy(label):
    copies = [pickle.loads(pickle.dumps(label, protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    copies += [copy.copy(label), copy.deepcopy(label)]
    for other in copies:
        assert type(other) is type(label) and other == label
        assert [type(c) for c in other] == [type(c) for c in label]


@pytest.mark.parametrize("name", ["parts", "components", "component"])
def test_removed_label_accessors_stay_removed(name):
    """The data aliases removed in 0.5.0: a label is its own tuple."""
    for label in LABELS:
        with pytest.raises(AttributeError):
            getattr(label, name)
