"""Tests of the benchmark itself: seeded op lists, output checks, and the
traced run's bypass zeros.  Run from the repository root with

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import random
from collections import Counter
from pathlib import Path

import pytest

import checks
import run
import workloads
from checks import CheckError, check_matrix_pairs, check_output
from workloads import Op, rational_params

GOLDEN = rational_params(2, "-1/2", [0, -1])
SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.CYCLES)


def test_timed_run_reports_every_end_to_end_metric(tmp_path):
    results, failures, metrics = run.timed_run(run.Runner(tmp_path), "operators-graphs", 0, 1, [])
    assert results and not failures
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_op_list_is_deterministic_for_a_seed(workload):
    count = 3 * workloads.cycle_length(workload)
    first = [op.label() for op in workloads.first_ops(workload, 7, count)]
    again = [op.label() for op in workloads.first_ops(workload, 7, count)]
    other = [op.label() for op in workloads.first_ops(workload, 8, count)]
    assert first == again
    assert first != other


@pytest.mark.parametrize("workload", sorted(workloads.CYCLES))
def test_every_cycle_has_the_same_mix(workload):
    def mix(seed):
        ops = workloads.CYCLES[workload](random.Random(seed))
        return Counter((op.kind, op.params["level"], op.args[:2]) for op in ops)

    assert mix(1) == mix(2) == mix(3)


def test_level3_draw_avoids_only_the_listed_defects():
    rng = random.Random(0)
    ops = [op for _ in range(50) for op in workloads.support_tables_cycle(rng) if op.params["level"] == 3]
    drawn = {(op.params["kappa"]["num"], op.params["kappa"]["den"], *op.params["s"][1:], op.args[-1]) for op in ops}
    assert not {key for key in drawn if (f"{key[0]}/{key[1]}", key[2], key[3], int(key[4])) in workloads.KNOWN_DEFECTS}
    assert len(workloads.defect_ops()) == len(workloads.KNOWN_DEFECTS)


def test_tail_is_the_nearest_rank_percentile():
    assert run.tail([float(x) for x in range(40, 0, -1)], 75) == (30.0, 10)
    assert run.tail([float(x) for x in range(1, 61)], 80) == (48.0, 12)
    assert run.tail([2.0], 80) == (2.0, 0)


def test_own_enumeration_counts():
    assert [len(checks.partitions(n)) for n in range(8)] == [1, 1, 2, 3, 5, 7, 11, 15]
    assert [len(checks.multipartitions(2, n)) for n in range(6)] == [1, 2, 5, 10, 20, 36]
    assert len(checks.multipartitions(3, 3)) == 22


@pytest.fixture(scope="module")
def cli(tmp_path_factory):
    runner = run.Runner(tmp_path_factory.mktemp("work"))

    def call(op):
        res = runner.run(op)
        assert res.code == 0, res.err
        return res.out

    return call


def _text(doc):
    return (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()


def _rejects(op, out):
    with pytest.raises(CheckError):
        check_output(op, out)


def test_support_check(cli):
    op = Op("support", GOLDEN, ("support", "--n", "4"))
    out = cli(op)
    check_output(op, out)
    rows = json.loads(out)
    _rejects(op, _text(rows[1:]))
    _rejects(op, _text([rows[1], rows[0]] + rows[2:]))
    for key, value in (("p", 5), ("q", 3), ("finite_dim", not rows[0]["finite_dim"])):
        bad = [dict(row) for row in rows]
        bad[0][key] = value
        _rejects(op, _text(bad))


def test_wallcross_check(cli):
    op = Op("wallcross", GOLDEN, ("wallcross", "--m", "1", "--n", "4"))
    out = cli(op)
    check_output(op, out)
    rows = json.loads(out)
    bad = [dict(row) for row in rows]
    bad[0]["to"] = bad[1]["to"]
    _rejects(op, _text(bad))
    _rejects(op, _text(rows[::-1]))


def test_crystal_checks(cli):
    op = Op("crystal", GOLDEN, ("crystal", "--n-max", "3", "--format", "json"))
    out = cli(op)
    check_output(op, out)
    doc = json.loads(out)
    _rejects(op, _text({"nodes": doc["nodes"][:-1], "edges": doc["edges"]}))
    bad = json.loads(out)
    bad["nodes"][0]["depth"] = 1
    _rejects(op, _text(bad))
    bad = json.loads(out)
    bad["edges"][0]["to"] = bad["edges"][0]["from"]
    _rejects(op, _text(bad))

    dot_op = Op("crystal", GOLDEN, ("crystal", "--n-max", "3", "--format", "dot"))
    dot = cli(dot_op)
    check_output(dot_op, dot)
    _rejects(dot_op, dot.replace(b'depth="0", singular', b'depth="1", singular', 1))
    _rejects(dot_op, dot.replace(b"n0 -> n1 ", b"n0 -> n0 ", 1))


def test_filtration_checks(cli):
    op = Op("filtration-table", GOLDEN, ("fock", "filtration", "--n", "3"))
    out = cli(op)
    check_output(op, out)
    rows = json.loads(out)
    bad = [dict(row) for row in rows]
    bad[-1]["dim"] -= 1
    _rejects(op, _text(bad))
    bad = [dict(row) for row in rows]
    bad[-2]["dim"] = bad[-1]["dim"] + 1
    _rejects(op, _text(bad))

    pinned = Op("filtration-pinned", GOLDEN, ("fock", "filtration", "--n", "3", "--p", "3", "--q", "1"))
    out = cli(pinned)
    check_output(pinned, out)
    rows = json.loads(out)
    rows[0]["dim"] += 1
    _rejects(pinned, _text(rows))


def test_singular_check(cli):
    op = Op("singular", GOLDEN, ("fock", "singular", "--n", "4"))
    out = cli(op)
    check_output(op, out)
    doc = json.loads(out)
    doc["basis"][0][0][1] = "2/1"
    _rejects(op, _text(doc))


def test_matrix_checks(cli):
    op = Op("matrix", GOLDEN, ("fock", "matrix", "--op", "f", "--z", "0:0", "--degree-from", "3", "--degree-to", "4"))
    out = cli(op)
    check_output(op, out)
    doc = json.loads(out)
    doc["entries"][0][2] = "2/1"
    _rejects(op, _text(doc))
    doc = json.loads(out)
    doc["rows"][0], doc["rows"][1] = doc["rows"][1], doc["rows"][0]
    _rejects(op, _text(doc))


def test_ribbon_and_wedge_must_match(cli):
    head = ("fock", "matrix", "--op", "bplus", "--d", "1", "--degree-from", "2", "--degree-to", "4")
    ops = [Op("matrix", GOLDEN, head + ("--model", model)) for model in ("ribbon", "wedge")]
    outs = [cli(op) for op in ops]
    for op, out in zip(ops, outs):
        check_output(op, out)
    assert check_matrix_pairs(ops, outs) == set()
    doc = json.loads(outs[1])
    doc["entries"][0][2] = "-" + doc["entries"][0][2]
    assert check_matrix_pairs(ops, [outs[0], _text(doc)]) == {0, 1}


BYPASSED = {
    "support-tables": ("linalg",),
    "fock-linear-algebra": ("supports",),
    "operators-graphs": ("supports", "linalg"),
}


@pytest.mark.parametrize("workload", sorted(BYPASSED))
def test_traced_run_shows_the_bypassed_layers_idle(workload, tmp_path):
    results, failures, metrics = run.traced_run(run.Runner(tmp_path), workload, 0, [])
    assert not failures
    assert {name: m["unit"] for name, m in metrics.items()} == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    used = {"support-tables": "supports", "fock-linear-algebra": "linalg", "operators-graphs": "fock"}[workload]
    assert metrics[f"{used}.self_s"]["value"] > 0
    for layer in BYPASSED[workload]:
        zeros = [name for name in metrics if name.startswith(layer + ".")]
        assert zeros and all(metrics[name]["value"] == 0 for name in zeros)
