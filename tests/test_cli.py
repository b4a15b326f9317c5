"""Command line behavior: output documents, canonical byte stability,
file output, and the exit code contract."""

import contextlib
import gc
import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockcrystal import (
    ChargeDifferenceWall,
    CherednikParams,
    InvalidInputError,
    Multipartition,
    cli,
    supports,
)
from fockcrystal.cli import main

GOLDEN_DOC = {"level": 2, "kappa": {"num": -1, "den": 2}, "s": [0, -1]}
E2_DOC = {"level": 1, "kappa": {"num": -1, "den": 2}, "s": [0]}
IRR_DOC = {"level": 2, "kappa": "irrational", "s": [0, -1]}


@pytest.fixture
def golden(tmp_path):
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(GOLDEN_DOC))
    return str(path)


@pytest.fixture
def e2(tmp_path):
    path = tmp_path / "e2.json"
    path.write_text(json.dumps(E2_DOC))
    return str(path)


@pytest.fixture
def irr(tmp_path):
    path = tmp_path / "irr.json"
    path.write_text(json.dumps(IRR_DOC))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_module(*argv, timeout=None):
    """A fresh interpreter that imports this same fockcrystal package."""
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    return subprocess.run(
        [sys.executable, *argv], capture_output=True, text=True, env=env, timeout=timeout
    )


def usage_error(capsys, argv):
    """The exit code and stderr of a command line main refuses as a usage
    error, which exits from inside main and writes nothing to stdout."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert out == ""
    return exc.value.code, err


def run_json(capsys, argv):
    code, out, err = run(capsys, argv)
    assert code == 0, err
    return json.loads(out)


class TestParamsCommand:
    def test_golden_document(self, capsys, golden):
        doc = run_json(capsys, ["params", "--params", golden, "--n", "2"])
        assert doc["params"] == {
            "level": 2,
            "kappa": {"num": -1, "den": 2},
            "s": [[0, 0], [-1, 0]],
        }
        assert doc["classes"] == [[0, 1]]
        assert doc["walls"] == [
            {"type": "kappa_denominator", "d": 2},
            {"type": "charge_difference", "i": 0, "j": 1, "m": -1},
            {"type": "charge_difference", "i": 0, "j": 1, "m": 1},
        ]
        assert doc["hecke"] == {"q": "1/2", "Q": [0, "1/2"]}

    def test_irrational_hecke_is_null(self, capsys, irr):
        doc = run_json(capsys, ["params", "--params", irr, "--n", "2"])
        assert doc["hecke"] is None
        assert doc["params"]["kappa"] == "irrational"

    def test_rank_validated(self, capsys, golden):
        code, _, err = run(capsys, ["params", "--params", golden, "--n", "0"])
        assert code == 2
        assert "error" in err


class TestSupportCommand:
    def test_table_rows(self, capsys, golden):
        rows = run_json(capsys, ["support", "--params", golden, "--n", "2"])
        by_label = {json.dumps(r["lambda"]): r for r in rows}
        assert len(rows) == 5
        pair = by_label["[[1], [1]]"]
        assert (pair["p"], pair["q"], pair["dim"], pair["finite_dim"]) == (
            0,
            1,
            1,
            False,
        )
        row = by_label["[[2], []]"]
        assert row["finite_dim"] is True

    def test_byte_identical_reruns(self, capsys, golden):
        _, out1, _ = run(capsys, ["support", "--params", golden, "--n", "3"])
        _, out2, _ = run(capsys, ["support", "--params", golden, "--n", "3"])
        assert out1 == out2

    def test_dot_format_rejected(self, capsys, golden):
        """Only `crystal` takes --format."""
        argv = ["support", "--params", golden, "--n", "2", "--format", "dot"]
        code, err = usage_error(capsys, argv)
        assert code == 2 and "unrecognized arguments: --format dot" in err

    def test_level_cross_check(self, capsys, golden):
        """support(lam, params) reads the level from the parameters, so
        `--level` is checked against the file before any label is made."""
        code, out, err = run(
            capsys, ["support", "--params", golden, "--n", "2", "--level", "3"]
        )
        assert code == 2
        assert out == ""
        assert "--level 3 contradicts the parameter file level 2" in err
        code, _, _ = run(capsys, ["support", "--params", golden, "--n", "2", "--level", "2"])
        assert code == 0


class TestCrystalCommand:
    def test_json_graph(self, capsys, golden):
        doc = run_json(capsys, ["crystal", "--params", golden, "--n-max", "2"])
        assert len(doc["nodes"]) == 8
        root = doc["nodes"][0]
        assert root["lambda"] == [[], []]
        assert root["singular"] is True
        assert root["depth"] == 0
        for edge in doc["edges"]:
            src = doc["nodes"][edge["from"]]
            dst = doc["nodes"][edge["to"]]
            assert sum(map(sum, dst["lambda"])) == sum(map(sum, src["lambda"])) + 1
            assert edge["residue"] in ("0:0", "0:1")

    def test_dot_graph(self, capsys, golden):
        code, out, _ = run(
            capsys,
            ["crystal", "--params", golden, "--n-max", "2", "--format", "dot"],
        )
        assert code == 0
        assert out.startswith("digraph crystal {")
        assert 'n0 [label="[[],[]]", depth="0", singular="true", shape=doublecircle];' in out
        assert '[label="0:0"];' in out
        assert out.endswith("}\n")

    def test_level_cross_check(self, capsys, golden):
        code, _, err = run(
            capsys,
            ["crystal", "--params", golden, "--n-max", "2", "--level", "1"],
        )
        assert code == 2
        assert "contradicts" in err

    def test_negative_bound_rejected(self, capsys, golden):
        code, _, _ = run(capsys, ["crystal", "--params", golden, "--n-max", "-1"])
        assert code == 2

    @pytest.mark.parametrize("fmt", ["json", "dot"])
    def test_strict_ties_changes_nothing(self, capsys, golden, fmt):
        """0.3.0 removed the no-op `--strict-ties`; the parser now rejects it."""
        argv = ["crystal", "--params", golden, "--n-max", "3", "--format", fmt]
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--strict-ties"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "unrecognized arguments: --strict-ties" in err


class TestFockCommand:
    def test_heisenberg_matrix(self, capsys, e2):
        doc = run_json(
            capsys,
            [
                "fock",
                "matrix",
                "--params",
                e2,
                "--op",
                "bplus",
                "--d",
                "1",
                "--degree-from",
                "0",
                "--degree-to",
                "2",
            ],
        )
        assert doc == {
            "degree_from": 0,
            "degree_to": 2,
            "rows": ["[[2]]", "[[1,1]]"],
            "cols": ["[[]]"],
            "entries": [[0, 0, "1/1"], [1, 0, "-1/1"]],
        }

    def test_box_matrix(self, capsys, golden):
        doc = run_json(
            capsys,
            [
                "fock",
                "matrix",
                "--params",
                golden,
                "--op",
                "f",
                "--z",
                "0:0",
                "--degree-from",
                "0",
                "--degree-to",
                "1",
            ],
        )
        assert doc["rows"] == ["[[1],[]]", "[[],[1]]"]
        assert doc["entries"] == [[0, 0, "1/1"]]

    @pytest.mark.parametrize(
        "z,reason",
        [("0:-1", "values 0..1"), ("0:2", "values 0..1"), ("0:7", "values 0..1"),
         ("5:0", "class ids 0..0")],
    )
    def test_box_matrix_refuses_a_residue_no_box_has(self, capsys, tmp_path, z, reason):
        """-1 is 1 mod 2, but only 0:1 names that residue; a value or a
        class id that no box has exits 2 with one error line."""
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps({"level": 2, "kappa": {"num": -1, "den": 2}, "s": [0, 1]}))
        argv = ["fock", "matrix", "--params", str(path), "--op", "f"]
        argv += ["--degree-from", "1", "--degree-to", "2", "--z"]
        assert len(run_json(capsys, argv + ["0:1"])["entries"]) == 3
        assert run(capsys, argv + [z]) == (2, "", f"error: no box has residue {z}: {reason}\n")

    def test_box_matrix_takes_any_value_at_symbolic_kappa(self, capsys, irr):
        argv = ["fock", "matrix", "--params", irr, "--op", "f", "--z", "0:-1"]
        doc = run_json(capsys, argv + ["--degree-from", "1", "--degree-to", "2"])
        assert doc["entries"]

    def test_matrix_models_agree(self, capsys, e2):
        base = [
            "fock",
            "matrix",
            "--params",
            e2,
            "--op",
            "bminus",
            "--d",
            "1",
            "--degree-from",
            "4",
            "--degree-to",
            "2",
        ]
        assert run_json(capsys, base + ["--model", "ribbon"]) == run_json(
            capsys, base + ["--model", "wedge"]
        )
        assert run_json(capsys, base) == run_json(capsys, base + ["--model", "ribbon"])

    def test_truncation_overflow_exit_code(self, capsys, e2):
        code, _, err = run(
            capsys,
            [
                "fock",
                "matrix",
                "--params",
                e2,
                "--op",
                "bplus",
                "--d",
                "1",
                "--degree-from",
                "2",
                "--degree-to",
                "1",
            ],
        )
        assert code == 4
        assert "truncation overflow" in err

    @pytest.mark.parametrize("model", ["ribbon", "wedge"])
    def test_bplus_overflow_exits_before_building_ribbons(self, tmp_path, model):
        """At e = 100000 every B_1 term has degree 100001: the call stops
        at the first label instead of building its ribbons."""
        path = tmp_path / "big_e.json"
        path.write_text(json.dumps({"level": 1, "kappa": {"num": -1, "den": 100000}, "s": [0]}))
        argv = ["fock", "matrix", "--params", str(path), "--op", "bplus", "--d", "1"]
        argv += ["--degree-from", "1", "--degree-to", "1", "--model", model]
        proc = run_module("-m", "fockcrystal", *argv, timeout=2)
        assert proc.returncode == 4
        assert proc.stderr == "truncation overflow: term of degree 100001 exceeds truncation 1\n"

    def test_wedge_bminus_skips_removals_longer_than_the_component(self, tmp_path):
        """At e = 100000 no component of size 4 has a B_{-1} ribbon: the
        wedge model returns the ribbon model's zero matrix without
        building an abacus window of 100000 beads per component."""
        path = tmp_path / "big_e.json"
        path.write_text(json.dumps({"level": 3, "kappa": {"num": -1, "den": 100000}, "s": [0, 1, 2]}))
        argv = ["fock", "matrix", "--params", str(path), "--op", "bminus", "--d", "1"]
        argv += ["--degree-from", "4", "--degree-to", "0", "--model"]
        wedge = run_module("-m", "fockcrystal", *argv, "wedge", timeout=2)
        ribbon = run_module("-m", "fockcrystal", *argv, "ribbon", timeout=2)
        assert wedge.returncode == ribbon.returncode == 0, wedge.stderr
        assert wedge.stdout == ribbon.stdout
        assert json.loads(wedge.stdout)["entries"] == []

    def test_matrix_needs_operator_flags(self, capsys, e2):
        """--op and both degrees are required flags; --d or --z is needed
        by the value of --op."""
        code, err = usage_error(
            capsys,
            ["fock", "matrix", "--params", e2, "--degree-from", "0", "--degree-to", "2"],
        )
        assert code == 2 and "the following arguments are required: --op" in err
        argv = ["fock", "matrix", "--params", e2, "--degree-from", "2", "--degree-to", "1"]
        assert run(capsys, argv + ["--op", "e"]) == (2, "", "error: --op e needs --z CLASS:VALUE\n")
        assert run(capsys, argv + ["--op", "bminus"]) == (2, "", "error: --op bminus needs --d\n")
        code, err = usage_error(
            capsys, ["fock", "matrix", "--params", e2, "--op", "bplus", "--d", "1"]
        )
        assert code == 2
        assert "the following arguments are required: --degree-from, --degree-to" in err

    @pytest.mark.parametrize(
        "line, flag",
        [
            ("--op f --z 0:0 --d 5 --degree-from 1 --degree-to 2", "--d"),
            ("--op bplus --d 1 --z 9:9 --degree-from 1 --degree-to 3", "--z"),
            ("--op e --z 0:0 --model wedge --degree-from 2 --degree-to 1", "--model"),
        ],
        ids=["f-d", "bplus-z", "e-model"],
    )
    def test_matrix_refuses_a_flag_its_operator_does_not_read(self, capsys, golden, line, flag):
        """--d and --model belong to bplus/bminus, --z to e/f; given to the
        other operators they are refused, not ignored."""
        argv = ["fock", "matrix", "--params", golden, *line.split()]
        op = line.split()[1]
        assert run(capsys, argv) == (2, "", f"error: --op {op} does not take {flag}\n")

    def test_singular_dimension(self, capsys, golden):
        doc = run_json(
            capsys, ["fock", "singular", "--params", golden, "--n", "2"]
        )
        assert doc["degree"] == 2
        assert doc["dimension"] == 2
        assert len(doc["basis"]) == 2

    def test_filtration_table(self, capsys, e2):
        doc = run_json(
            capsys, ["fock", "filtration", "--params", e2, "--n", "2"]
        )
        dims = {(row["p"], row["q"]): row["dim"] for row in doc}
        assert dims == {
            (0, 0): 0,
            (0, 1): 1,
            (1, 0): 0,
            (1, 1): 1,
            (2, 0): 1,
            (2, 1): 2,
        }

    def test_filtration_pinned(self, capsys, e2):
        doc = run_json(
            capsys,
            ["fock", "filtration", "--params", e2, "--n", "2", "--p", "2", "--q", "1"],
        )
        assert doc == [{"p": 2, "q": 1, "n": 2, "dim": 2}]

    def test_needs_degree(self, capsys, golden):
        for subop in ("singular", "filtration"):
            code, err = usage_error(capsys, ["fock", subop, "--params", golden])
            assert code == 2 and "the following arguments are required: --n" in err


# sha256 of the stdout of `fock singular` / `fock filtration --n N`
# (whole table), captured from the dense Fraction elimination this
# package used before its sparse integer echelon.  Level 3 carries a
# charge off the integer lattice, so it has two component classes.
PINNED_FOCK = [
    (
        {"level": 3, "kappa": {"num": -1, "den": 2}, "s": [0, "1/2", -1]},
        ("singular", 4, "8de7b67319384c354c2d4ab65359d408daa7cf0c021fea789d38638982fff04e"),
        ("filtration", 4, "06ca9133cf69a7e41742b613ef59f4ae8823ba22bf567d1f06007377f2a24b7e"),
    ),
    (
        {"level": 3, "kappa": {"num": -1, "den": 3}, "s": [0, "1/2", -1]},
        ("singular", 5, "f17e33b5a8e64fc0f3005565b08d1839073a628c210defa5fbf73a165c7dca76"),
        ("filtration", 4, "4a0a2e3665015fbc530e442e32cdcc186086a1f27743efedbe1c29443210eb79"),
    ),
    (
        {"level": 2, "kappa": "irrational", "s": [[0, 0], [1, 1]]},
        ("singular", 6, "6d42d02b1a00147c3cbcbe4b095f4cc14e2f7c0e13ca7a3ca9604647d9180238"),
        ("filtration", 6, "aa45e0f83b3aa25290d5e52164c2b5effc529501648f1f8890a757fd8e1e009a"),
    ),
    (
        {"level": 2, "kappa": {"num": 2, "den": 3}, "s": [0, 1]},
        ("singular", 6, "cc993c2ec830e806d2dd9b92762d34976263741320c1876139c0963986fee388"),
        ("filtration", 6, "616101ee333f83e24016e3b3d3cb9873c5f961e6aedc143b18cb6962a9158fe3"),
    ),
]


@pytest.mark.parametrize(
    "doc,subop,n,digest",
    [
        pytest.param(doc, subop, n, digest, id=f"case{k}-{subop}")
        for k, (doc, *runs) in enumerate(PINNED_FOCK)
        for subop, n, digest in runs
    ],
)
def test_fock_output_pinned(capsys, tmp_path, doc, subop, n, digest):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["fock", subop, "--params", str(path), "--n", str(n)])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `fock filtration` with p or q free and of a
# level-3 table, captured when every (p, q) entry ran its own layers.
L2_THIRD_TWO = {"level": 2, "kappa": {"num": -1, "den": 3}, "s": [0, 2]}
PINNED_FILTRATION = [
    (L2_THIRD_TWO, "--n 6 --q 1",
     "6367e6245d67acf5e3e72a62807670840a36ec4eecf0db47555a06ca8cc30d54"),
    (L2_THIRD_TWO, "--n 6 --p 3",
     "13887420fafdf5c2919fd7378976cd7a33846c1f622bf10ec7fe97b03486e21b"),
    ({"level": 3, "kappa": {"num": -1, "den": 2}, "s": [0, 1, -1]}, "--n 5",
     "671be1647b15ff734f72f7cdfa7b8037a7d997da426e6cd499de85f84e695e03"),
]


@pytest.mark.parametrize(
    "doc,args,digest",
    [
        pytest.param(
            doc, args, digest, id=f"l{doc['level']}-{args.replace('--', '').replace(' ', '')}"
        )
        for doc, args, digest in PINNED_FILTRATION
    ],
)
def test_filtration_output_pinned(capsys, tmp_path, doc, args, digest):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["fock", "filtration", "--params", str(path)] + args.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_filtration_clamps_q_before_enumerating(capsys, monkeypatch, tmp_path):
    """A Heisenberg index past n // e gives the n // e row, and no
    monomial of degree above n // e is ever listed."""
    from fockcrystal import fockspace as fock

    path = tmp_path / "params.json"
    path.write_text(json.dumps({"level": 2, "kappa": {"num": -1, "den": 2}, "s": [0, 1]}))
    totals = []

    def enumerate_partitions(total):
        totals.append(total)
        assert total <= 1, f"monomials of degree {total} listed at n = 2, e = 2"
        return real(total)

    real = fock.enumerate_partitions
    monkeypatch.setattr(fock, "enumerate_partitions", enumerate_partitions)
    argv = ["fock", "filtration", "--params", str(path), "--n", "2", "--p"]
    want = run_json(capsys, argv + ["1", "--q", "1"])
    got = run_json(capsys, argv + ["1", "--q", str(10**6)])
    assert got == [dict(want[0], q=10**6)] and want[0]["dim"] == 3
    assert totals and max(totals) == 1
    for p, q in (("1", "-1"), ("-1", "1")):
        code, _, err = run(capsys, argv + [p, "--q", q])
        assert code == 2 and "filtration indices must be >= 0" in err


def test_filtration_index_contract(capsys, tmp_path):
    """A negative index exits 2 whether or not both indices are pinned;
    a p past n or a q past n // e gives the clamped row, labelled with
    the index asked for, in the table as in the pinned row."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"level": 2, "kappa": {"num": -1, "den": 2}, "s": [0, 1]}))
    argv = ["fock", "filtration", "--params", str(path), "--n"]
    for args in ("-1", "2 --p -1", "2 --q -1", "-1 --p 1 --q 1"):
        code, out, err = run(capsys, argv + args.split())
        assert (code, out) == (2, "") and "filtration indices must be >= 0" in err, args
    want = run_json(capsys, argv + ["2", "--q", "1"])
    assert len(want) == 3
    assert run_json(capsys, argv + ["2", "--q", "5"]) == [dict(row, q=5) for row in want]
    want = run_json(capsys, argv + ["2", "--p", "2"])
    assert len(want) == 2
    assert run_json(capsys, argv + ["2", "--p", "7"]) == [dict(row, p=7) for row in want]


# sha256 of the stdout of `fock matrix` for box and Heisenberg operators
# at levels 1-3, captured before the Fock operators shared one box, one
# componentwise and one bead move routine.  Each wedge case pins the same
# bytes as the ribbon case above it.
L2_HALF = {"level": 2, "kappa": {"num": -1, "den": 2}, "s": [0, 1]}
L2_THIRD = {"level": 2, "kappa": {"num": -1, "den": 3}, "s": [0, -2]}
L3_THIRD = {"level": 3, "kappa": {"num": -1, "den": 3}, "s": [0, 1, -1]}
PINNED_MATRIX = [
    (E2_DOC, "--op f --z 0:1 --degree-from 7 --degree-to 8",
     "99b9d1c9f733517ff6460a98aeae791ea870d300742667518a638082b9c5d86a"),
    ({"level": 1, "kappa": {"num": -1, "den": 3}, "s": [0]},
     "--op e --z 0:2 --degree-from 8 --degree-to 7",
     "a078581ca48e66bd23bd72260662d815119af2d11a610a42c4238f352566c52d"),
    (L2_HALF, "--op f --z 0:0 --degree-from 6 --degree-to 7",
     "03b4ba2c835de6f68a179692fb9c46fce75d9f917a8300fc50096c86ca9ce732"),
    (L2_HALF, "--op e --z 0:1 --degree-from 7 --degree-to 6",
     "b46011b6bd9f96d12d39499cf59a3f5009ab89b1f9044b8f7dbbce00a98e66ff"),
    (L2_THIRD, "--op f --z 0:2 --degree-from 6 --degree-to 7",
     "518a16f512b2bd80708722d19fa197c7d5785f2ffd5d6afd53abe8a8212d2475"),
    (L2_THIRD, "--op e --z 0:1 --degree-from 7 --degree-to 6",
     "bedc67df0168ccb1c30061431561d69395d54e9406150d038e77e7e56ee9c22b"),
    (IRR_DOC, "--op f --z 0:-1 --degree-from 7 --degree-to 8",
     "5bbfa5ee9ed5717b4861afbfa6f534d178c20bf80c3b07df91152f34f48fd0eb"),
    (IRR_DOC, "--op e --z 0:1 --degree-from 8 --degree-to 7",
     "f1e2d5ecfad12ef0871e76aa0dce69f8c1d3fd605e05f9b32d53eb0d0266ec17"),
    (L3_THIRD, "--op f --z 0:0 --degree-from 4 --degree-to 5",
     "f070dd4b604ab592559121e3bf7f72dc3106d67b78c7a1a461d8888ba2d92337"),
    (L3_THIRD, "--op e --z 0:2 --degree-from 5 --degree-to 4",
     "43ea195859e384d7dd474e71c54dce45d8f40d8a2c6a29eb7849f1895433afad"),
] + [
    (doc, f"{args} --model {model}", digest)
    for doc, args, digest in [
        (L2_HALF, "--op bplus --d 1 --degree-from 5 --degree-to 7",
         "a494c7cc43214248850b2a8f4c6afa03842f2217681241c60b0943095800927d"),
        (L2_THIRD, "--op bplus --d 2 --degree-from 2 --degree-to 8",
         "2f43ca8fba19e467afe93107f0c43ef76af88ad201c6afa095404b883f7ce52c"),
        (L2_HALF, "--op bminus --d 2 --degree-from 8 --degree-to 4",
         "e552fbb77e3215a9f6c20842228d1feee5121bb3e51f6ef8b5b1c26be501f5ec"),
        (L3_THIRD, "--op bminus --d 1 --degree-from 5 --degree-to 2",
         "0c7d05c712af1d20fc0763d2e962c8bb1a70807d8979b8f0750ec2038890027c"),
    ]
    for model in ("ribbon", "wedge")
] + [
    # the benchmark's sizes (operators-graphs), captured before the matrix
    # was built from term maps; both models pin the same bytes
    (GOLDEN_DOC, "--op bplus --d 1 --degree-from 12 --degree-to 14 --model ribbon",
     "b438e79f0819e4f3abb88c493637c9cca64968804c9dae730692a8f84b85264e"),
    (GOLDEN_DOC, "--op bplus --d 1 --degree-from 12 --degree-to 14 --model wedge",
     "b438e79f0819e4f3abb88c493637c9cca64968804c9dae730692a8f84b85264e"),
    (GOLDEN_DOC, "--op f --z 0:1 --degree-from 13 --degree-to 14",
     "0195551289ae91a494ca9a2426e0dba2cc3a5291c470824050f0a47a8b618e14"),
    ({"level": 2, "kappa": {"num": -1, "den": 3}, "s": [0, 1]},
     "--op e --z 0:2 --degree-from 14 --degree-to 13",
     "f0733239ded65c92bbf1be41faf2e9c6484c6658d5a8e80f6584f94a94605172"),
]


@pytest.mark.parametrize(
    "doc,args,digest",
    [
        pytest.param(doc, args, digest, id=f"l{doc['level']}-{args.split()[1]}-{k}")
        for k, (doc, args, digest) in enumerate(PINNED_MATRIX)
    ],
)
def test_matrix_output_pinned(capsys, tmp_path, doc, args, digest):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, ["fock", "matrix", "--params", str(path)] + args.split())
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


INTEGER_KAPPA_DOC = {"level": 2, "kappa": {"num": -1, "den": 1}, "s": [0, 0]}


@pytest.mark.parametrize(
    "command",
    [
        "crystal --n-max 2",
        "support --n 2",
        "fock singular --n 2",
        "fock filtration --n 2",
        "fock matrix --op f --z 0:0 --degree-from 1 --degree-to 2",
        "fock matrix --op e --z 0:0 --degree-from 2 --degree-to 1",
        "fock matrix --op bplus --d 1 --degree-from 0 --degree-to 1",
        "wallcross --m 0 --n 2",
    ],
)
def test_integer_kappa_rejected(capsys, tmp_path, command):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(INTEGER_KAPPA_DOC))
    code, out, err = run(capsys, command.split() + ["--params", str(path)])
    assert code == 2, (out, err)
    assert err == "error: integer kappa (e = 1) is outside the supported parameter range\n"


@pytest.mark.parametrize("kappa", [0, "0/3", {"num": 0}], ids=["number", "string", "object"])
def test_zero_kappa_rejected(capsys, tmp_path, kappa):
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"level": 1, "kappa": kappa, "s": [0]}))
    code, out, err = run(capsys, ["params", "--params", str(path), "--n", "1"])
    assert (code, out, err) == (2, "", "error: kappa must be nonzero\n")


def test_params_accepts_integer_kappa(capsys, tmp_path):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(INTEGER_KAPPA_DOC))
    doc = run_json(capsys, ["params", "--params", str(path), "--n", "2"])
    assert doc["hecke"]["q"] == 0


# sha256 of the stdout of `crystal --n-max 5` in both formats, captured
# before km_depth became one raising walk; the `depth` and `singular`
# annotations are read off the graph's edges (`graph_depths`), which
# selftest `crystal-axioms` checks against km_depth and is_singular.
PINNED_CRYSTAL = [
    (
        {"level": 1, "kappa": {"num": -1, "den": 3}, "s": [0]},
        "26385a543eeb01a860a13690a3a42e07ad0efb0b5a1bb23f842b9805c9a89584",
        "4a69bec8590f1f250e1d1c8d75161e9f224c7ee95fdd3c81ea8da5f01c4ed361",
    ),
    (
        GOLDEN_DOC,
        "ce0e45535819e24f9ec6cb2ded13087f96238505ac690e491b02fd2d60b6d9a0",
        "791a7da3437e7cfcf13e55efad90bbd4dd8ca75050bf37eeb8aff3ecbd67075c",
    ),
    (
        {"level": 2, "kappa": "irrational", "s": [[0, 0], [1, 1]]},
        "bdf05fd5d53784bb4ea1c103674a1d870dc856cfb2edf33ac5533ca3b2b43ef4",
        "6f92e8f987663d9647979388e34d4765cfebc4fb249ca7955c2fcf4032602f8b",
    ),
    (
        {"level": 3, "kappa": {"num": -1, "den": 3}, "s": [0, 1, -1]},
        "a445bfbc129dd05457ae96de408a2c288de84dbfa7815b35e4aeaf8c77df7f45",
        "daffaed7a5f784e8490d42d14ab0d5f3661377ed3f0001d4f19d4daf978624f2",
    ),
]


@pytest.mark.parametrize(
    "doc,fmt,digest",
    [
        pytest.param(doc, fmt, digest, id=f"case{k}-{fmt}")
        for k, (doc, *digests) in enumerate(PINNED_CRYSTAL)
        for fmt, digest in zip(("json", "dot"), digests)
    ],
)
def test_crystal_output_pinned(capsys, tmp_path, doc, fmt, digest):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    argv = ["crystal", "--params", str(path), "--n-max", "5", "--format", fmt]
    code, out, err = run(capsys, argv)
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# sha256 of the stdout of `support` / `wallcross`, captured before
# level2_transport remembered the images of the vertices it walks.  The
# last three level-3 tables used to exit 5 with p + e*q > n; their rows now
# pass `selftest.filtration_counts` and `singular_dimension` at these n.
PINNED_SUPPORTS = [
    (
        {"level": 2, "kappa": {"num": -1, "den": 2}, "s": [0, -1]},
        ("support --n 6", "3a2e5513fad8791cf4e64ad2bd1613c4009f335a2e7b23e6f7d7040db427bee9"),
        ("wallcross --m -3 --n 7",
         "103662c71c7bc950c60bc57ad01519e2df0b498ed53185ac051d8ae7a67bb6d1"),
        ("wallcross --m -3 --n 7 --direction down",
         "0adbe8955d09172b253ed150b3d59a66110bbd87ef498a4d8de75ed657a71add"),
    ),
    (
        {"level": 2, "kappa": {"num": -1, "den": 3}, "s": [0, 2]},
        ("support --n 6", "5e8cf9b16fe13083e51cb2f56aeaab228abcc3a83a789461c661d1e40c2088b2"),
        ("wallcross --m 1 --n 7",
         "267becd91143ee00f7b6523bd6d7c60ad05b6798593b1e0c71ba52d84e63f5ad"),
        ("wallcross --m 1 --n 7 --direction down",
         "a23da3225ebc04094b8f60abb3c6ea808b50b343c7f4c48b8a2acbc98845ecb9"),
    ),
    (
        {"level": 2, "kappa": {"num": -2, "den": 3}, "s": [0, -3]},
        ("support --n 6", "90db9c416e93a79857af72369a2c952eeba1fa4fe3938aeb8cfe95c60fe0ac53"),
    ),
    (
        {"level": 2, "kappa": {"num": 1, "den": 2}, "s": [0, 3]},
        ("support --n 6", "d62f3abf3361267ecf0cf9ac39bc8ba0b37fe116a024c487e79c80c48977958e"),
    ),
    (
        {"level": 3, "kappa": {"num": -1, "den": 2}, "s": [0, 3, -3]},
        ("support --n 4", "abd41306bbf92cf617653240d76e6d7925ed2daf81562a0e0e730824ddc01ef0"),
    ),
    (
        {"level": 3, "kappa": {"num": -1, "den": 3}, "s": [0, -2, 2]},
        ("support --n 4", "4ed598efa22eb06f2afeddd250ca34b3e36546fdbf248b7599ceb2e108b08bdb"),
    ),
    (
        {"level": 3, "kappa": {"num": -1, "den": 2}, "s": [0, -1, 1]},
        ("support --n 5", "ff3a268ff65c9b5a7f555790cccc2b55c9834c2ecbdc5587a9a43d0191d1a595"),
    ),
    (
        {"level": 3, "kappa": {"num": -1, "den": 3}, "s": [0, 1, -2]},
        ("support --n 4", "18787deaf7100ce8e8600186ddb0d9c1c398fcfbd9070ee72e023bacdac3587f"),
    ),
    (
        {"level": 3, "kappa": {"num": -1, "den": 3}, "s": [0, 1, -1]},
        ("support --n 5", "138574d6b48989464a4e530376dcb8c0b114c62d65416f406a8b29a59747207b"),
    ),
]


@pytest.mark.parametrize(
    "doc,command,digest",
    [
        pytest.param(doc, command, digest, id=f"case{k}-{i}-{command.split()[0]}")
        for k, (doc, *runs) in enumerate(PINNED_SUPPORTS)
        for i, (command, digest) in enumerate(runs)
    ],
)
def test_support_output_pinned(capsys, tmp_path, doc, command, digest):
    path = tmp_path / "params.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, command.split() + ["--params", str(path)])
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_level3_support_keeps_the_invariant(capsys, tmp_path):
    """At l = 3, kappa = -1/3, s = (0, 1, -1) two walls of the class sit
    at one position, and the larger index is crossed first: every row
    keeps p + e*q <= n, and the (0, 0) rows count dim F^{0,0}_3."""
    path = tmp_path / "params.json"
    path.write_text(json.dumps({"level": 3, "kappa": {"num": -1, "den": 3}, "s": [0, 1, -1]}))
    rows = run_json(capsys, ["support", "--params", str(path), "--n", "3"])
    assert all(row["p"] + 3 * row["q"] <= 3 for row in rows)
    full = [row for row in rows if (row["p"], row["q"]) == (0, 0)]
    argv = ["fock", "filtration", "--params", str(path), "--n", "3", "--p", "0", "--q", "0"]
    assert len(full) == 6 == run_json(capsys, argv)[0]["dim"]


class TestWallcrossCommand:
    def test_golden_table(self, capsys, golden):
        table = run_json(
            capsys, ["wallcross", "--params", golden, "--m", "1", "--n", "2"]
        )
        mapping = {json.dumps(r["from"]): r["to"] for r in table}
        assert mapping["[[1], [1]]"] == [[], [2]]
        assert len(table) == 5
        images = [json.dumps(r["to"]) for r in table]
        assert len(set(images)) == len(images)

    def test_non_essential_wall_rejected(self, capsys, golden):
        code, _, err = run(
            capsys, ["wallcross", "--params", golden, "--m", "2", "--n", "2"]
        )
        assert code == 2
        assert "essential" in err

    # a repeated index, one past the level 2 and one below 0, on either side
    @pytest.mark.parametrize("i, j", [(0, 0), (0, 2), (-1, 1), (2, 1), (0, -1)])
    def test_bad_wall_pair_rejected(self, capsys, golden, i, j):
        argv = f"wallcross --i {i} --j {j} --m 1 --n 3 --params".split() + [golden]
        assert run(capsys, argv) == (2, "", f"error: bad wall pair ({i}, {j})\n")
        step = supports.WallCrossStep(ChargeDifferenceWall(i, j, 1), "up")
        params = CherednikParams(2, "-1/2", [0, -1])
        with pytest.raises(InvalidInputError, match=rf"^bad wall pair \({i}, {j}\)$"):
            supports.wall_cross(Multipartition([[1], [1]]), step, params)


class TestRank1Command:
    def test_hom_dimension(self, capsys):
        doc = run_json(
            capsys, ["rank1", "--level", "2", "--h", "0,1/2", "--k", "0", "--j", "1"]
        )
        assert doc == {"dim": 1, "n": 1}

    def test_no_hom(self, capsys):
        doc = run_json(
            capsys, ["rank1", "--level", "2", "--h", "0,1/2", "--k", "1", "--j", "0"]
        )
        assert doc == {"dim": 0, "n": None}

    def test_level_zero_names_the_level(self, capsys):
        code, out, err = run(capsys, ["rank1", "--level", "0", "--h", "0", "--k", "0", "--j", "0"])
        assert (code, out, err) == (2, "", "error: level must be at least 1\n")

    def test_bad_h_list(self, capsys):
        code, _, _ = run(
            capsys, ["rank1", "--level", "2", "--h", "0,oops", "--k", "0", "--j", "1"]
        )
        assert code == 2

    def test_bad_h_entry_keeps_its_reason(self):
        argv = ["rank1", "--level", "2", "--h", "0,1e99999999", "--k", "0", "--j", "1"]
        proc = run_module("-m", "fockcrystal", *argv, timeout=2)
        assert proc.returncode == 2
        assert proc.stderr == (
            "error: cannot parse --h '0,1e99999999': cannot parse rational "
            "'1e99999999': exponents are not accepted\n"
        )


class TestSelftestCommand:
    def test_quick_passes(self, capsys):
        code, out, _ = run(capsys, ["selftest", "quick"])
        assert code == 0
        assert "checks passed" in out
        assert "FAIL" not in out


# A valid command line of each command ("P" is the golden parameter file),
# and the 27 (command, flag) pairs the argument table once accepted for a
# command that ignored the flag or refused all of its values but one.
VALID_LINES = {
    "support": "support --n 2 --params P",
    "fock matrix": "fock matrix --op f --z 0:0 --degree-from 0 --degree-to 1 --params P",
    "fock singular": "fock singular --n 2 --params P",
    "fock filtration": "fock filtration --n 2 --params P",
    "params": "params --n 2 --params P",
    "wallcross": "wallcross --m 1 --n 2 --params P",
    "rank1": "rank1 --level 2 --h 0,1/2 --k 0 --j 1",
    "selftest": "selftest quick",
}
FORMERLY_IGNORED = (
    [(command, "--format json") for command in VALID_LINES]
    + [("rank1", "--params P"), ("selftest", "--params P")]
    + [("fock matrix", flag) for flag in ("--n 2", "--p 1", "--q 1")]
    + [
        (f"fock {subop}", flag)
        for subop, extra in (("singular", ["--p 1", "--q 1"]), ("filtration", []))
        for flag in ["--op e", "--d 1", "--z 0:0", "--model ribbon", "--degree-from 1",
                     "--degree-to 2"] + extra
    ]
)


class TestIOContract:
    def test_out_flag_writes_file(self, capsys, tmp_path, golden):
        target = tmp_path / "out.json"
        code, out, _ = run(
            capsys,
            ["support", "--params", golden, "--n", "2", "--out", str(target)],
        )
        assert code == 0
        assert out == ""
        assert len(json.loads(target.read_text())) == 5

    def test_missing_params_flag(self, capsys):
        """Every command that loads a parameter file requires --params."""
        for command, line in VALID_LINES.items():
            argv = line.split()
            if "P" in argv:
                code, err = usage_error(capsys, argv[:-2])
                assert code == 2, command
                assert "the following arguments are required: --params" in err, command
        code, err = usage_error(capsys, ["crystal", "--n-max", "2"])
        assert code == 2 and "the following arguments are required: --params" in err

    def test_unreadable_params_file(self, capsys, tmp_path):
        code, _, _ = run(
            capsys, ["support", "--params", str(tmp_path / "nope.json"), "--n", "2"]
        )
        assert code == 2

    def test_malformed_params_file(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{")
        code, _, _ = run(capsys, ["support", "--params", str(bad), "--n", "2"])
        assert code == 2

    @pytest.mark.parametrize("target", ["missing/out.json", "."], ids=["missing-dir", "directory"])
    def test_unwritable_out_file(self, capsys, tmp_path, golden, target):
        path = tmp_path / target
        code, out, err = run(capsys, ["params", "--params", golden, "--n", "1", "--out", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith(f"error: cannot write output file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    @pytest.mark.parametrize("unbuffered", [True, False], ids=["unbuffered", "buffered"])
    @pytest.mark.parametrize(
        "argv",
        [["rank1", "--level", "2", "--h", "0,1/2", "--k", "0", "--j", "1"],
         ["crystal", "--n-max", "8", "--params", "P"],
         ["crystal", "--help"],
         ["--help"]],
        ids=["short", "past-the-buffer", "help", "top-help"],
    )
    def test_unwritable_stdout(self, golden, unbuffered, argv):
        """A stdout that cannot be written exits 2 with one error line, as
        an unwritable --out does, and the interpreter's exit adds nothing:
        buffered, the failed bytes would stay for its final flush.  Help
        is output like any other."""
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        env.pop("PYTHONUNBUFFERED", None)
        if unbuffered:
            env["PYTHONUNBUFFERED"] = "1"
        argv = [golden if a == "P" else a for a in argv]
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "fockcrystal", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, env=env,
            )
        assert proc.returncode == 2
        assert proc.stderr == "error: cannot write to stdout: [Errno 28] No space left on device\n"

    @pytest.mark.parametrize("where", ["h", "params"])
    def test_exponent_is_rejected_before_it_is_expanded(self, tmp_path, where):
        """Fraction would expand "1e99999999" into an exact integer, which
        takes far longer than the timeout; the string is refused at once."""
        if where == "h":
            argv = ["rank1", "--level", "2", "--h", "0,1e99999999", "--k", "0", "--j", "1"]
        else:
            path = tmp_path / "exponent.json"
            path.write_text(json.dumps({"level": 1, "kappa": "-1/2", "s": ["1e99999999"]}))
            argv = ["params", "--params", str(path), "--n", "1"]
        proc = run_module("-m", "fockcrystal", *argv, timeout=2)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: cannot parse") and proc.stderr.count("\n") == 1

    def test_internal_error_exit_code(self, capsys, monkeypatch, golden):
        def overflow(args):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setitem(cli._DISPATCH, "support", overflow)
        code, out, err = run(capsys, ["support", "--params", golden, "--n", "2"])
        assert code == 5
        assert out == ""
        assert err == "internal error: RecursionError: maximum recursion depth exceeded\n"

    def test_internal_invariant_exit_code(self, capsys, monkeypatch, golden):
        monkeypatch.setattr(supports, "heis_q", lambda lam, params: lam.size)
        code, out, err = run(capsys, ["support", "--params", golden, "--n", "2"])
        assert code == 5
        assert out == ""
        assert err.startswith(
            "internal error: InternalInvariantError: support invariant p + e*q <= n violated"
        )

    def test_unknown_flag_is_usage_error(self, golden):
        with pytest.raises(SystemExit) as exc:
            main(["support", "--params", golden, "--n", "2", "--frmt", "dot"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "command, flag", FORMERLY_IGNORED, ids=[f"{c} {f}" for c, f in FORMERLY_IGNORED]
    )
    def test_a_flag_the_command_does_not_read_is_refused(self, capsys, golden, command, flag):
        """Each command takes only the flags it reads: a flag the argument
        table once gave a command that ignored it, or took only one value
        of, is an unknown flag, as the removed `--strict-ties` is."""
        argv = [golden if a == "P" else a for a in VALID_LINES[command].split() + flag.split()]
        assert cli._parse_args(argv[: -len(flag.split())]).command == command
        code, err = usage_error(capsys, argv)
        assert code == 2
        assert err.endswith(f"unrecognized arguments: {' '.join(argv[-len(flag.split()):])}\n")

    def test_module_entry_point(self):
        proc = run_module("-m", "fockcrystal", "selftest", "quick")
        assert proc.returncode == 0
        assert "checks passed" in proc.stdout

    def test_selftest_fails_when_assertions_are_stripped(self):
        proc = run_module("-O", "-m", "fockcrystal", "selftest", "quick")
        assert proc.returncode == 1
        assert proc.stdout.startswith("FAIL assertions are disabled")
        assert "checks passed" not in proc.stdout


# Command lines for the process entry: exit 0 (one per output kind), exit
# 2 from a command (a bad --z, a parameter file that is not JSON), from
# the parser (an unknown flag) and --help, which exit before `run` freezes
# the heap, and --out.  "P" stands for the golden parameter file, "BAD"
# for one holding "{", "OUT" for a file in the test's directory.
ENTRY_ARGVS = [
    ["params", "--n", "1", "--params", "P"],
    ["support", "--n", "3", "--params", "P"],
    ["fock", "matrix", "--op", "bplus", "--d", "1", "--degree-from", "1", "--degree-to", "3",
     "--params", "P"],
    ["crystal", "--n-max", "3", "--format", "dot", "--params", "P"],
    ["fock", "matrix", "--op", "f", "--z", "0:7", "--degree-from", "1", "--degree-to", "2",
     "--params", "P"],
    ["support", "--n", "2", "--params", "BAD"],
    ["support", "--n", "2", "--bogus", "--params", "P"],
    ["crystal", "--help"],
    ["crystal", "--n-max", "3", "--params", "P", "--out", "OUT"],
]


@pytest.mark.parametrize("argv", ENTRY_ARGVS, ids=" ".join)
def test_process_entry_matches_main(capsys, tmp_path, golden, argv):
    """`python -m fockcrystal` gives the stdout, stderr, exit code and
    --out file of in-process `main(argv)`, and `main` leaves the
    collector's frozen generation as it found it."""
    bad, out = tmp_path / "bad.json", tmp_path / "out.txt"
    bad.write_text("{")
    argv = [{"P": golden, "BAD": str(bad), "OUT": str(out)}.get(a, a) for a in argv]

    frozen = gc.get_freeze_count()
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    assert gc.get_freeze_count() == frozen
    captured = capsys.readouterr()
    written = out.read_bytes() if "--out" in argv else None
    out.unlink(missing_ok=True)

    proc = run_module("-m", "fockcrystal", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (code, captured.out, captured.err)
    assert code in (0, 2) and (code == 0) == (captured.err == "")
    if written is not None:
        assert written and out.read_bytes() == written


def test_script_entry_is_the_module_entry():
    """The `fockcrystal` script of pyproject.toml calls the function that
    `python -m fockcrystal` passes to `sys.exit`."""
    tomllib = pytest.importorskip("tomllib")
    with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert list(scripts) == ["fockcrystal"]
    module, _, name = scripts["fockcrystal"].partition(":")
    assert module == "fockcrystal.cli" and callable(getattr(cli, name, None))
    main_py = Path(cli.__file__).with_name("__main__.py").read_text(encoding="utf-8")
    assert f"from .cli import {name}\n" in main_py and f"sys.exit({name}())" in main_py


@pytest.fixture(scope="module")
def startup_modules():
    """The modules a bare interpreter has loaded before it runs any code."""
    return set(run_module("-c", "import sys; print(' '.join(sys.modules))").stdout.split())


# Loaded by no subcommand below: the order checks, the self-test suite,
# the operators on Fock vectors and `dataclasses` (which pulls in
# `inspect`).
NEVER_LOADED = {
    "dataclasses", "fockcrystal.orders", "fockcrystal.selftest", "fockcrystal.fockvectors",
}


@pytest.mark.parametrize(
    "argv, unused",
    [
        (["params", "--n", "2"], {"fock", "linalg", "crystal", "supports", "charged"}),
        (["support", "--n", "2"], {"fock", "linalg", "charged"}),
        (["fock", "singular", "--n", "2"], {"crystal", "supports", "charged", "walls"}),
        (["fock", "filtration", "--n", "2"], {"crystal", "supports", "charged", "walls"}),
        (
            ["fock", "matrix", "--op", "f", "--z", "0:0", "--degree-from", "2", "--degree-to", "3"],
            {"linalg", "fockspace", "charged", "crystal", "supports", "walls"},
        ),
        (["crystal", "--n-max", "2"], {"fock", "linalg", "supports", "charged", "walls"}),
        (["wallcross", "--m", "1", "--n", "2"], {"fock", "linalg", "charged"}),
        # the benchmark's other forms: a pinned filtration row, a Heisenberg
        # matrix with its model, a DOT graph
        (["fock", "filtration", "--n", "2", "--p", "2", "--q", "1"],
         {"crystal", "supports", "charged", "walls"}),
        (
            ["fock", "matrix", "--op", "bplus", "--d", "1", "--degree-from", "1",
             "--degree-to", "3", "--model", "wedge"],
            {"linalg", "fockspace", "charged", "crystal", "supports", "walls"},
        ),
        (["crystal", "--n-max", "2", "--format", "dot"],
         {"fock", "linalg", "supports", "charged", "walls"}),
    ],
    ids=["params", "support", "fock-singular", "fock-filtration", "fock-matrix", "crystal",
         "wallcross", "fock-filtration-pinned", "fock-matrix-heisenberg", "crystal-dot"],
)
def test_cold_start_loads_only_what_the_subcommand_runs(
    tmp_path, golden, startup_modules, argv, unused
):
    """A well-formed call loads only the modules its command runs, and
    neither `argparse` nor `gettext`, beyond what the interpreter's own
    start-up loaded (`site` may load `locale`, for one)."""
    probe = (
        "import sys\n"
        "from fockcrystal.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    out = str(tmp_path / "out.json")
    proc = run_module("-c", probe, *argv, "--params", golden, "--out", out)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "fockcrystal.cli" in loaded
    assert not (loaded - startup_modules) & {"argparse", "gettext"}
    assert not loaded & (NEVER_LOADED | {f"fockcrystal.{name}" for name in unused})
    assert ("fockcrystal.walls" in loaded) == (argv[0] in ("params", "support", "wallcross"))


@pytest.mark.parametrize(
    "argv, code",
    [
        (["--help"], 0),
        (["fock", "--help"], 0),
        (["fock", "matrix", "--op", "e", "-h"], 0),
        (["fock", "singular", "--n", "2", "--q", "1", "--params", "P"], 2),
        (["crystal", "--n-max", "x", "--params", "P"], 2),
        (["bogus"], 2),
    ],
    ids=["top-help", "group-help", "command-help", "unrecognized", "invalid-int", "no-command"],
)
def test_help_and_usage_errors_load_no_argparse(golden, startup_modules, argv, code):
    """Help and usage errors are written from the argument table too, so
    they load neither `argparse` nor `gettext`, nor any module that only a
    command runs."""
    probe = (
        "import sys\n"
        "from fockcrystal.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "except SystemExit as exc:\n"
        "    code = exc.code\n"
        "print(' '.join(sorted(sys.modules)))\n"
        "sys.exit(code)\n"
    )
    proc = run_module("-c", probe, *[golden if a == "P" else a for a in argv])
    assert proc.returncode == code, proc.stderr
    loaded = set(proc.stdout.splitlines()[-1].split())
    assert "fockcrystal.cli" in loaded
    assert not (loaded - startup_modules) & {"argparse", "gettext"}
    assert not loaded & (NEVER_LOADED | {"fockcrystal.crystal", "fockcrystal.fock"})


@pytest.mark.parametrize("key", ["", "fock", *cli._COMMANDS])
def test_help_lists_every_argument(capsys, key):
    """`--help` at the top, group and command level exits 0 and shows the
    usage line and each command, or each argument with its help line."""
    with pytest.raises(SystemExit) as exc:
        main([*key.split(), "--help"])
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith(" ".join(["usage: fockcrystal", *key.split(), "[-h]"]))
    if key in cli._COMMANDS:
        for name, options in cli._COMMON + cli._COMMANDS[key][1]:
            shown = name if name.startswith("-") else "{" + ",".join(options["choices"]) + "}"
            assert f"\n  {shown}" in out and options.get("help", "") in out, name
    else:
        for name in {command.split()[len(key.split())] for command in cli._COMMANDS
                     if command.startswith(key)}:
            assert f"\n  {name} " in out, name


def test_usage_error_names_its_command(capsys, golden):
    """A usage error prints the usage line of the command it concerns and
    names that command, also for an argument the command does not take."""
    argv = ["fock", "singular", "--n", "2", "--q", "1", "--params", golden]
    code, err = usage_error(capsys, argv)
    assert code == 2
    assert err == (
        "usage: fockcrystal fock singular [-h] [--out FILE] --params FILE --n N\n"
        "fockcrystal fock singular: error: unrecognized arguments: --q 1\n"
    )


@pytest.mark.parametrize(
    "line",
    [
        "support --n=-- --params P",
        "rank1 --level 2 --h=-- --k 0 --j 1",
        "crystal --n-max 3 --params P --out=--",
        "crystal --n-max 3 --params P --out=-- --out OUT",
        "crystal --n-max 3 --params P --out=-- -h",
        "fock matrix --op e --z 0:0 --degree-from=-- --degree-to 0 --params P",
    ],
)
def test_flag_equals_dashes_is_refused_at_once(capsys, tmp_path, golden, line):
    """`--flag=--` is a flag without its value, a usage error as soon as it
    is read, whatever follows; argparse reads it as an empty list (3.11) or
    as "--" (3.13).  Nothing is written."""
    out = tmp_path / "out.json"
    argv = [{"P": golden, "OUT": str(out)}.get(a, a) for a in line.split()]
    command = " ".join(argv[: 2 if argv[0] == "fock" else 1])
    flag = next(a for a in argv if a.endswith("=--"))[:-3]
    code, err = usage_error(capsys, argv)
    assert code == 2
    message = f"fockcrystal {command}: error: argument {flag}: expected one argument"
    assert err.splitlines()[1:] == [message]
    assert not out.exists()


# Command lines the parser accepts or refuses: every command with valid
# flags, `--flag=value`, an abbreviation, an unknown flag, a flag of another
# command, a stray argument, a missing required flag, a bad int, a bad
# choice, `--flag=--`, help, no command, an unknown command, a group
# without its command and `--` before and after the command.
PARSE_ARGVS = [
    ["crystal", "--n-max", "3", "--level", "2", "--params", "p.json"],
    ["support", "--n", "2", "--out", "o.json", "--params", "p.json"],
    # without --params, or with a flag the command does not take
    ["support", "--n", "2", "--out", "o.json", "--format", "dot"],
    ["fock", "matrix", "--op", "bplus", "--d", "1", "--model", "wedge",
     "--degree-from", "0", "--degree-to", "2"],
    ["fock", "matrix", "--op", "e", "--z", "0:1", "--degree-from", "2", "--degree-to", "1"],
    ["fock", "singular", "--n", "3"],
    ["fock", "filtration", "--n", "4", "--p", "1", "--q", "0"],
    ["wallcross", "--m", "1", "--n", "3", "--i", "1", "--j", "0", "--direction", "down"],
    ["fock", "matrix", "--op", "bplus", "--d", "1", "--model", "wedge",
     "--degree-from", "0", "--degree-to", "2", "--params", "p.json"],
    ["fock", "matrix", "--op", "e", "--z", "0:1", "--degree-from", "2", "--degree-to", "1",
     "--params", "p.json"],
    ["fock", "singular", "--n", "3", "--params", "p.json"],
    ["fock", "filtration", "--n", "4", "--p", "1", "--q", "0", "--params", "p.json"],
    ["params", "--n", "2", "--params", "p.json"],
    ["wallcross", "--m", "1", "--n", "3", "--i", "1", "--j", "0", "--direction", "down",
     "--params", "p.json"],
    ["rank1", "--level", "2", "--h", "0,1/2", "--k", "0", "--j", "1"],
    ["selftest"],
    ["selftest", "full", "--out", "o.txt"],
    ["crystal", "--n-max=3", "--params=p.json"],
    ["crystal", "--n-m", "3"],
    ["crystal", "--n-m", "3", "--params", "p.json"],
    ["crystal", "--n-max", "3", "--bogus"],
    ["support", "--n", "2", "--params", "p.json", "--format", "json"],
    ["fock", "singular", "--n", "3", "--params", "p.json", "--p", "1"],
    ["rank1", "--level", "2", "--h", "0", "--k", "0", "--j", "0", "--params", "p.json"],
    ["support", "--n", "2", "extra"],
    ["crystal"],
    ["support", "--n", "2"],
    ["fock", "matrix", "--op", "f", "--z", "0:0", "--params", "p.json"],
    ["rank1", "--level", "2", "--h", "0,1/2", "--k", "0"],
    ["crystal", "--n-max", "x"],
    ["fock", "nope", "--n", "2"],
    ["fock", "--n", "2"],
    ["fock"],
    ["crystal", "--n-max", "3", "--format", "xml"],
    ["crystal", "--n-max", "3", "--params", "p.json", "--out=--"],
    ["-h"],
    ["--help"],
    ["crystal", "-h"],
    ["fock", "--help"],
    ["fock", "filtration", "--help"],
    ["selftest", "-h"],
    [],
    ["bogus"],
    ["--", "crystal", "--n-max", "3"],
    ["crystal", "--", "--n-max", "3"],
    # a repeat (the last wins), a negative decimal value, help between a
    # group and its command, and `--` around selftest's positional or with
    # none to follow
    ["crystal", "--n-max", "3", "--params", "p.json", "--n-max", "4"],
    ["rank1", "--level", "2", "--h", "-0.5", "--k", "0", "--j", "1"],
    ["fock", "-h", "matrix"],
    ["fock", "singular", "--n", "2", "--q", "1", "--params", "p.json"],
    ["crystal", "--n-max", "3", "--params", "p.json", "--out=--", "--out", "o.json"],
    ["crystal", "--n-max", "3", "--params", "p.json", "--"],
    ["selftest", "--"],
    ["selftest", "quick", "--"],
    ["selftest", "--", "full"],
    ["selftest", "full", "--", "--out", "o.txt"],
]


def _outcome(parse, argv):
    """(vars of what parse returns, None) when parse accepts argv, else
    (None, the exit code), each with what parse printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv)), None
        except SystemExit as exc:
            result = None, exc.code
    return (*result, out.getvalue(), err.getvalue())


def _command(argv):
    """The argument table's key for the command argv names, or None."""
    return next((key for key in cli._COMMANDS if argv[: len(key.split())] == key.split()), None)


def _reference_parser():
    """The argument table as an `argparse` parser, the reference that
    `cli._parse_args` is held to: each group's commands are nested
    subcommands, each command's flags are taken only as written in full,
    and a positional is optional."""
    import argparse

    parser = argparse.ArgumentParser(prog="fockcrystal")
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (help_line, specs) in cli._COMMANDS.items():
        group, _, name = command.rpartition(" ")
        if group not in subs:
            group_parser = subs[""].add_parser(group, help=cli._GROUPS[group])
            subs[group] = group_parser.add_subparsers(dest="command", required=True)
        command_parser = subs[group].add_parser(name, help=help_line, allow_abbrev=False)
        command_parser.set_defaults(command=command)
        for flag, options in cli._COMMON + specs:
            nargs = {} if flag.startswith("-") else {"nargs": "?"}
            command_parser.add_argument(flag, **options, **nargs)
    return parser


def _error(outcome):
    """The message of a usage error outcome, after its "error: "."""
    return outcome[3].rpartition("error: ")[2]


def _flag_dashes(argv):
    """The index of the first `--flag=--` token before any `--` in argv,
    for a flag its command takes, or None."""
    command = _command(argv)
    flags = {name for name, _ in cli._COMMON + cli._COMMANDS[command][1]} if command else ()
    for k, token in enumerate(argv):
        if token == "--":
            break
        if token.endswith("=--") and token[:-3] in flags:
            return k
    return None


def _assert_parses_as_argparse(got, argv):
    """got, the outcome of a parse of argv, is the reference parser's: the
    same arguments or exit code, and for a usage error after the command's
    words the same message.  `--flag=--`, which argparse 3.11 reads as an
    empty list and 3.13 as "--", is held to argparse's reading of
    `--flag --`: a flag without its value, refused at once."""
    k = _flag_dashes(argv)
    if k is not None:
        argv = argv[:k] + [argv[k][:-3], "--"] + argv[k + 1:]
    ref = _outcome(_reference_parser().parse_args, argv)
    assert got[:2] == ref[:2]
    if got[1] == 2 and _command(argv):
        assert _error(got) == _error(ref)


@pytest.mark.parametrize("argv", PARSE_ARGVS, ids=lambda argv: " ".join(argv) or "no-args")
def test_main_parses_as_the_full_parser(monkeypatch, argv):
    """main reads every command line off the argument table to the
    arguments the reference `argparse` parser gives, or to its exit code
    and error message."""
    seen = []
    for name in cli._DISPATCH:
        monkeypatch.setitem(cli._DISPATCH, name, lambda args: seen.append(args) or 0)

    def parse_in_main(argv):
        assert main(argv) == 0
        return seen.pop()

    _assert_parses_as_argparse(_outcome(parse_in_main, argv), argv)


# Values for the property test beyond a flag's own: integers, negative
# integers (one in Arabic-Indic digits, which argparse's \d and int() both
# take; a superscript two is a digit that neither takes), a float and a
# bare "-" (argparse reads both as values), the empty string, a bad
# choice, option-like words and junk.
_VALUES = st.one_of(
    st.integers(-3, 12).map(str),
    st.sampled_from(
        ["-0.5", "-", "", "-\u0663", "\u0663", "-\u00b2", "p.json", "0:1", "xml", "x", "1e3", " 2",
         "-1:0", "--1", "--", "-h", "--n", "quick"]
    ),
)


def _good_values(options):
    """Values of the kind a table entry takes."""
    if "choices" in options:
        return st.sampled_from(options["choices"])
    if options.get("type") is int:
        return st.integers(-3, 12).map(str) | st.just("-\u0663")
    return st.sampled_from(["p.json", "0:1", "0,1/2", "-1", ""])


@st.composite
def _argvs(draw):
    """A command line of one command: maybe its positional, then its
    table's flags, each maybe given, with its own kind of value or any,
    written exact, in `=` form, abbreviated, without a value or twice with
    two values, in any order; and maybe `-h`, `--help`, `--`, a stray token
    or a flag of another command somewhere."""
    command = draw(st.sampled_from(sorted(cli._COMMANDS)))
    specs = cli._COMMON + cli._COMMANDS[command][1]
    argv, words = command.split(), []
    for name, options in specs:
        required = options.get("required", False)
        if draw(st.integers(0, 9)) >= (9 if required else 4):
            continue
        value = draw(_good_values(options) if draw(st.integers(0, 5)) else _VALUES)
        if not name.startswith("-"):
            argv.append(value)
            continue
        form = draw(st.sampled_from(["exact"] * 6 + ["equals"] * 3 + ["short", "bare", "twice"]))
        if form == "short" and len(name) > 3:
            name = name[: draw(st.integers(3, len(name) - 1))]
        word = [f"{name}={value}"] if form == "equals" else [name] if form == "bare" else [name, value]
        if form == "twice":
            word += [name, draw(_good_values(options))]
        words.append(word)
    argv += [tok for word in draw(st.permutations(words)) for tok in word]
    extra = draw(st.sampled_from([None] * 8 + ["-h", "--help", "--", "stray", "--format=json",
                                               "--params=p.json", "--p=1", "--d=1"]))
    if extra:
        argv.insert(draw(st.integers(1, len(argv))), extra)
    return argv


@settings(max_examples=400, deadline=None)
@given(_argvs())
# neither is a negative number to argparse, which reads each as a flag
@example(["support", "--n", "1", "--params", "--1"])
@example(["support", "--n", "1", "--params", "-\u00b2"])
@example(["support", "--n", "1", "--params=--"])  # argparse 3.11 reads params == []
@example(["fock", "matrix", "--op", "e", "--z", "0:0", "--degree-from=--", "--degree-to", "0"])
@example(["fock", "singular", "--p", "1", "--n", "1", "--params", "p.json"])
def test_table_reader_agrees_with_the_full_parser(argv):
    """The table parser reads a random command line as the reference
    `argparse` parser does, but for `--flag=--`, which it refuses."""
    _assert_parses_as_argparse(_outcome(cli._parse_args, argv), argv)
