"""Output checks that do not trust the code under test.

Every check takes an operation and the bytes it wrote to stdout and
raises CheckError when the output is wrong.  Label sets and counts come
from this module's own enumeration of multipartitions; nothing here
imports fockcrystal.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import lru_cache

from workloads import Op, kappa_e


class CheckError(Exception):
    pass


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


@lru_cache(maxsize=None)
def partitions(n: int, largest: int | None = None) -> tuple[tuple[int, ...], ...]:
    """Partitions of n with parts at most `largest`, reverse lexicographic."""
    largest = n if largest is None else largest
    if n == 0:
        return ((),)
    return tuple(
        (first,) + rest
        for first in range(min(n, largest), 0, -1)
        for rest in partitions(n - first, first)
    )


def _canonical_key(mp):
    # earlier components first by larger size, then larger parts first
    return tuple((-sum(c), tuple(-p for p in c)) for c in mp)


@lru_cache(maxsize=None)
def multipartitions(level: int, n: int) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """All level-tuples of partitions of total size n in canonical order."""
    found = set()

    def fill(prefix, left, slots):
        if slots == 1:
            for p in partitions(left):
                found.add(prefix + (p,))
            return
        for size in range(left + 1):
            for p in partitions(size):
                fill(prefix + (p,), left - size, slots - 1)

    fill((), n, level)
    return tuple(sorted(found, key=_canonical_key))


def _as_mp(obj) -> tuple[tuple[int, ...], ...]:
    _require(
        isinstance(obj, list) and all(isinstance(c, list) for c in obj),
        f"not a multipartition: {obj!r}",
    )
    return tuple(tuple(c) for c in obj)


def _label(mp) -> str:
    return json.dumps([list(c) for c in mp], separators=(",", ":"))


def _size(mp) -> int:
    return sum(sum(c) for c in mp)


def _contains(big, small) -> bool:
    """Componentwise diagram containment."""
    return all(
        len(s) <= len(b) and all(x <= y for x, y in zip(s, b)) for b, s in zip(big, small)
    )


def _arg(op: Op, flag: str) -> str:
    return op.args[op.args.index(flag) + 1]


def check_support(op: Op, doc) -> None:
    n, level, e = int(_arg(op, "--n")), op.params["level"], kappa_e(op.params)
    _require(isinstance(doc, list), "support output is not a list")
    labels = tuple(_as_mp(row.get("lambda")) for row in doc)
    _require(labels == multipartitions(level, n), "support rows are not the canonical label list")
    for row in doc:
        _require(set(row) == {"lambda", "p", "q", "dim", "finite_dim"}, f"bad row keys {sorted(row)}")
        p, q, dim = row["p"], row["q"], row["dim"]
        _require(all(isinstance(x, int) and x >= 0 for x in (p, q, dim)), f"bad row {row}")
        _require(p + (e or 0) * q <= n, f"p + e*q > n in row {row}")
        _require(row["finite_dim"] == (dim == 0), f"finite_dim disagrees with dim in row {row}")


def check_wallcross(op: Op, doc) -> None:
    n, level = int(_arg(op, "--n")), op.params["level"]
    _require(isinstance(doc, list), "wallcross output is not a list")
    sources = tuple(_as_mp(row.get("from")) for row in doc)
    images = [_as_mp(row.get("to")) for row in doc]
    _require(sources == multipartitions(level, n), "wallcross sources are not the canonical label list")
    _require(sorted(images) == sorted(sources), "wallcross table is not a permutation of its labels")


def _check_graph(level, k, nodes, edges) -> None:
    """nodes: list of (multipartition, singular, depth); edges: (from, to) index pairs."""
    expected = [mp for j in range(k + 1) for mp in multipartitions(level, j)]
    _require(len(nodes) == len(expected), f"{len(nodes)} nodes, expected {len(expected)}")
    _require({mp for mp, _, _ in nodes} == set(expected), "node labels are not all labels of size <= k")
    for mp, singular, depth in nodes:
        _require(isinstance(depth, int) and depth >= 0, f"bad depth {depth!r}")
        _require((depth == 0) == singular, f"depth {depth} vs singular={singular} at {_label(mp)}")
    for a, b in edges:
        _require(0 <= a < len(nodes) and 0 <= b < len(nodes), f"edge {a}->{b} out of range")
        src, dst = nodes[a][0], nodes[b][0]
        _require(_size(dst) == _size(src) + 1, f"edge {a}->{b} does not add one box")
        _require(_contains(dst, src), f"edge {a}->{b} is not a box addition")


def check_crystal_json(op: Op, doc) -> None:
    _require(isinstance(doc, dict) and set(doc) == {"nodes", "edges"}, "bad crystal document")
    nodes = [(_as_mp(v["lambda"]), v["singular"], v["depth"]) for v in doc["nodes"]]
    edges = [(edge["from"], edge["to"]) for edge in doc["edges"]]
    _check_graph(op.params["level"], int(_arg(op, "--n-max")), nodes, edges)


_DOT_NODE = re.compile(r'^  n(\d+) \[label="([^"]*)", depth="(\d+)"(, singular="true", shape=doublecircle)?\];$')
_DOT_EDGE = re.compile(r'^  n(\d+) -> n(\d+) \[label="\d+:-?\d+"\];$')


def check_crystal_dot(op: Op, text: str) -> None:
    lines = text.split("\n")
    _require(lines[0] == "digraph crystal {" and lines[-2:] == ["}", ""], "bad DOT framing")
    nodes, edges = [], []
    for line in lines[1:-2]:
        if m := _DOT_NODE.match(line):
            _require(int(m[1]) == len(nodes), f"node ids out of order at {line!r}")
            nodes.append((_as_mp(json.loads(m[2])), m[4] is not None, int(m[3])))
        elif m := _DOT_EDGE.match(line):
            edges.append((int(m[1]), int(m[2])))
        else:
            raise CheckError(f"unexpected DOT line {line!r}")
    _check_graph(op.params["level"], int(_arg(op, "--n-max")), nodes, edges)


def _check_filtration_rows(rows, n) -> dict:
    _require(isinstance(rows, list) and rows, "filtration output is not a non-empty list")
    dims = {}
    for row in rows:
        _require(set(row) == {"p", "q", "n", "dim"} and row["n"] == n, f"bad filtration row {row}")
        _require(isinstance(row["dim"], int) and row["dim"] >= 0, f"bad dim in {row}")
        dims[row["p"], row["q"]] = row["dim"]
    return dims


def check_filtration_table(op: Op, rows) -> None:
    n, level, e = int(_arg(op, "--n")), op.params["level"], kappa_e(op.params)
    dims = _check_filtration_rows(rows, n)
    max_q = n // e
    _require(set(dims) == {(p, q) for p in range(n + 1) for q in range(max_q + 1)}, "missing (p, q) rows")
    for (p, q), d in dims.items():
        if p > 0:
            _require(dims[p - 1, q] <= d, f"dim not monotone in p at ({p}, {q})")
        if q > 0:
            _require(dims[p, q - 1] <= d, f"dim not monotone in q at ({p}, {q})")
    total = len(multipartitions(level, n))
    _require(dims[n, max_q] == total, f"full slice has dim {dims[n, max_q]}, expected {total}")


def check_filtration_pinned(op: Op, rows) -> None:
    n, level = int(_arg(op, "--n")), op.params["level"]
    p, q = int(_arg(op, "--p")), int(_arg(op, "--q"))
    dims = _check_filtration_rows(rows, n)
    _require(list(dims) == [(p, q)], f"expected the single row ({p}, {q})")
    total = len(multipartitions(level, n))
    _require(dims[p, q] == total, f"full slice has dim {dims[p, q]}, expected {total}")


def _fraction(text) -> Fraction:
    _require(isinstance(text, str) and re.fullmatch(r"-?\d+/\d+", text) is not None, f"bad coefficient {text!r}")
    value = Fraction(text)
    _require(value != 0, "zero coefficient listed")
    return value


def _removals(mp):
    """All multipartitions one box smaller."""
    for i, comp in enumerate(mp):
        for y, part in enumerate(comp):
            if y + 1 == len(comp) or comp[y + 1] < part:
                smaller = comp[:y] + (part - 1,) + comp[y + 1:]
                yield mp[:i] + (tuple(x for x in smaller if x),) + mp[i + 1:]


def check_singular(op: Op, doc) -> None:
    n, level = int(_arg(op, "--n")), op.params["level"]
    _require(isinstance(doc, dict) and set(doc) == {"degree", "dimension", "basis"}, "bad singular document")
    _require(doc["degree"] == n and doc["dimension"] == len(doc["basis"]), "dimension/degree mismatch")
    labels = set(multipartitions(level, n))
    for vec in doc["basis"]:
        _require(len(vec) > 0, "zero basis vector")
        removed: dict = {}
        for label, coeff in vec:
            mp = _as_mp(json.loads(label))
            _require(mp in labels, f"basis label {label} is not of size {n}")
            c = _fraction(coeff)
            for smaller in _removals(mp):
                removed[smaller] = removed.get(smaller, 0) + c
        # every e_z kills a singular vector, so their sum (remove any box) does too
        _require(all(c == 0 for c in removed.values()), "basis vector not killed by box removal")


def check_matrix(op: Op, doc) -> None:
    level, e = op.params["level"], kappa_e(op.params)
    src, dst = int(_arg(op, "--degree-from")), int(_arg(op, "--degree-to"))
    which = _arg(op, "--op")
    _require(isinstance(doc, dict) and set(doc) == {"degree_from", "degree_to", "rows", "cols", "entries"}, "bad matrix document")
    _require((doc["degree_from"], doc["degree_to"]) == (src, dst), "matrix degrees differ from the request")
    rows, cols = multipartitions(level, dst), multipartitions(level, src)
    _require(doc["rows"] == [_label(mp) for mp in rows], "matrix rows are not the canonical labels")
    _require(doc["cols"] == [_label(mp) for mp in cols], "matrix cols are not the canonical labels")
    keys = [(r, c) for r, c, _ in doc["entries"]]
    _require(keys == sorted(set(keys)), "matrix entries not sorted and unique")
    for r, c, coeff in doc["entries"]:
        _require(0 <= r < len(rows) and 0 <= c < len(cols), f"entry ({r}, {c}) out of range")
        value = _fraction(coeff)
        out, inp = rows[r], cols[c]
        changed = [i for i in range(level) if out[i] != inp[i]]
        _require(len(changed) == 1, f"entry ({r}, {c}) changes {len(changed)} components")
        if which in ("f", "e"):
            _require(value == 1, f"box operator coefficient {value} at ({r}, {c})")
            _require(_contains(out, inp) if which == "f" else _contains(inp, out), f"entry ({r}, {c}) is not a box move")
        else:
            _require(value in (1, -1), f"ribbon sign {value} at ({r}, {c})")
            length = int(_arg(op, "--d")) * e
            big, small = (out, inp) if which == "bplus" else (inp, out)
            _require(_contains(big, small) and _size(big) - _size(small) == length, f"entry ({r}, {c}) is not a ribbon move")


def check_matrix_pairs(ops: list[Op], outputs: list[bytes]) -> set[int]:
    """Indices of Heisenberg matrix ops whose ribbon and wedge outputs differ."""
    groups: dict = {}
    for i, op in enumerate(ops):
        if op.kind == "matrix" and "--model" in op.args:
            key = (json.dumps(op.params, sort_keys=True), op.args[:op.args.index("--model")])
            groups.setdefault(key, []).append(i)
    bad = set()
    for members in groups.values():
        if len({outputs[i] for i in members}) > 1:
            bad.update(members)
    return bad


_CHECKS = {
    "support": check_support,
    "wallcross": check_wallcross,
    "singular": check_singular,
    "filtration-table": check_filtration_table,
    "filtration-pinned": check_filtration_pinned,
    "matrix": check_matrix,
}


def check_output(op: Op, out: bytes) -> None:
    """Raise CheckError unless `out` is a correct answer to `op`."""
    try:
        text = out.decode("utf-8")
        if op.kind == "crystal" and _arg(op, "--format") == "dot":
            check_crystal_dot(op, text)
        elif op.kind == "crystal":
            check_crystal_json(op, json.loads(text))
        else:
            _CHECKS[op.kind](op, json.loads(text))
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        raise CheckError(f"malformed output: {exc!r}") from exc
