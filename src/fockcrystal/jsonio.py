"""JSON and DOT serialization with canonical, byte-stable output.

Parameter files look like

    {"level": 2, "kappa": {"num": -1, "den": 2}, "s": [[0, 0], [-1, 0]]}

where each charge is ``[a, b]`` meaning a + b/kappa (a bare number is
shorthand for b = 0) and ``"kappa": "irrational"`` selects the symbolic
case.  Multipartitions are arrays of arrays of parts, one inner array
per component, ``[]`` for an empty component.  All emitters sort keys
and order rows canonically so identical inputs give identical bytes.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING, Any, Sequence, Union

from .errors import InvalidInputError
from .params import (
    ChargeDifferenceWall,
    CherednikParams,
    KappaDenominatorWall,
    Residue,
)
from .partitions import Multipartition

if TYPE_CHECKING:
    from .crystal import CrystalGraph
    from .supports import SupportDescriptor

Wall = Union[KappaDenominatorWall, ChargeDifferenceWall]


def fraction_to_json(f: Fraction) -> Union[int, str]:
    """Integers stay JSON numbers; proper fractions become "num/den"."""
    f = Fraction(f)
    return int(f) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def fraction_from_json(x: Any) -> Fraction:
    if isinstance(x, bool):
        raise InvalidInputError(f"expected a rational number, got {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        if not x.is_integer():
            raise InvalidInputError(
                f"non-integral float {x!r}; use a \"num/den\" string for fractions"
            )
        return Fraction(int(x))
    if isinstance(x, str):
        # Fraction would expand an exponent such as "1e99999999" into an
        # exact integer, which takes time exponential in its length
        if "e" in x or "E" in x:
            raise InvalidInputError(f"cannot parse rational {x!r}: exponents are not accepted")
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidInputError(f"cannot parse rational {x!r}") from exc
    raise InvalidInputError(f"expected a rational number, got {x!r}")


def params_to_json(params: CherednikParams) -> dict:
    if params.kappa is None:
        kappa: Any = "irrational"
    else:
        kappa = {"num": params.kappa.numerator, "den": params.kappa.denominator}
    return {
        "level": params.level,
        "kappa": kappa,
        "s": [
            [fraction_to_json(c.a), fraction_to_json(c.b)] for c in params.s
        ],
    }


def params_from_json(obj: Any) -> CherednikParams:
    if not isinstance(obj, dict):
        raise InvalidInputError("parameter document must be a JSON object")
    try:
        level = obj["level"]
        raw_kappa = obj["kappa"]
        raw_s = obj["s"]
    except KeyError as exc:
        raise InvalidInputError(f"parameter document missing key {exc}") from exc
    if not isinstance(level, int) or isinstance(level, bool):
        raise InvalidInputError(f"level must be an integer, got {level!r}")

    if raw_kappa == "irrational":
        kappa = None
    elif isinstance(raw_kappa, dict):
        extra = set(raw_kappa) - {"num", "den"}
        if extra or "num" not in raw_kappa:
            raise InvalidInputError(f"bad kappa object {raw_kappa!r}")
        num = fraction_from_json(raw_kappa["num"])
        den = fraction_from_json(raw_kappa.get("den", 1))
        if den == 0:
            raise InvalidInputError("kappa denominator must be nonzero")
        kappa = num / den
    else:
        kappa = fraction_from_json(raw_kappa)

    if not isinstance(raw_s, list):
        raise InvalidInputError("charges \"s\" must be a JSON array")
    charges = []
    for entry in raw_s:
        if isinstance(entry, list):
            if len(entry) not in (1, 2):
                raise InvalidInputError(f"charge {entry!r} must be [a] or [a, b]")
            a = fraction_from_json(entry[0])
            b = fraction_from_json(entry[1]) if len(entry) == 2 else Fraction(0)
            charges.append((a, b))
        else:
            charges.append((fraction_from_json(entry), Fraction(0)))
    return CherednikParams(level, kappa, charges)


def load_params(path: str) -> CherednikParams:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise InvalidInputError(f"cannot read parameter file {path}: {exc}") from exc
    except ValueError as exc:
        # malformed JSON, bytes that are not UTF-8, or an integer too long
        # to convert
        raise InvalidInputError(f"invalid JSON in {path}: {exc}") from exc
    return params_from_json(doc)


def multipartition_to_json(lam: Multipartition) -> list[list[int]]:
    return [list(comp) for comp in lam]


def multipartition_label(lam: Multipartition) -> str:
    """Compact single-line JSON form, e.g. "[[2,2],[3,1,1,1]]"."""
    return str(multipartition_to_json(lam)).replace(" ", "")


def residue_to_json(z: Residue) -> str:
    return str(z)


def residue_from_json(text: str) -> Residue:
    try:
        cid, val = text.split(":")
        return Residue(int(cid), int(val))
    except (ValueError, AttributeError) as exc:
        raise InvalidInputError(f"cannot parse residue {text!r}") from exc


def wall_to_json(wall: Wall) -> dict:
    if isinstance(wall, KappaDenominatorWall):
        return {"type": "kappa_denominator", "d": wall.d}
    if isinstance(wall, ChargeDifferenceWall):
        return {"type": "charge_difference", "i": wall.i, "j": wall.j, "m": wall.m}
    raise InvalidInputError(f"unknown wall object {wall!r}")


def support_table_to_json(
    rows: Sequence[tuple[Multipartition, SupportDescriptor]]
) -> list[dict]:
    return [
        {
            "lambda": multipartition_to_json(lam),
            "p": desc.p,
            "q": desc.q,
            "dim": desc.dim_support,
            "finite_dim": desc.finite_dimensional,
        }
        for lam, desc in rows
    ]


def matrix_to_json(
    row_basis: Sequence[Multipartition],
    col_basis: Sequence[Multipartition],
    entries: dict[tuple[int, int], Union[int, Fraction]],
    degree_from: int,
    degree_to: int,
) -> dict:
    return {
        "degree_from": degree_from,
        "degree_to": degree_to,
        "rows": [multipartition_label(lam) for lam in row_basis],
        "cols": [multipartition_label(lam) for lam in col_basis],
        "entries": [
            [r, c, f"{entries[(r, c)].numerator}/{entries[(r, c)].denominator}"]
            for r, c in sorted(entries)
        ],
    }


def canonical_dumps(obj: Any) -> str:
    """json.dumps(obj, indent=2, sort_keys=True) and a newline, in one pass
    over what commands emit: dicts with str keys, lists, strs, ints, bools
    and None.  Anything else raises TypeError."""
    out: list[str] = []
    _write(obj, "\n", out)
    return "".join(out) + "\n"


def _write(obj: Any, indent: str, out: list[str]) -> None:
    """Append obj's text to out; `indent` starts obj's line."""
    kind, inner = type(obj), indent + "  "
    if kind is str:
        out.append(encode_basestring_ascii(obj))
    elif kind is int:
        out.append(repr(obj))
    elif obj is None or kind is bool:
        out.append("null" if obj is None else "true" if obj else "false")
    elif kind is list:
        sep = "[" + inner
        for x in obj:
            out.append(sep)
            _write(x, inner, out)
            sep = "," + inner
        out.append(indent + "]" if obj else "[]")
    elif kind is dict:  # a key that is not a str fails to sort or to encode
        sep = "{" + inner
        for key in sorted(obj):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(obj[key], inner, out)
            sep = "," + inner
        out.append(indent + "}" if obj else "{}")
    else:
        raise TypeError(f"cannot write {kind.__name__} {obj!r} as JSON")


def crystal_graph_to_json(graph: CrystalGraph) -> dict:
    from .crystal import graph_depths

    nodes = [
        {"lambda": multipartition_to_json(lam), "singular": depth == 0, "depth": depth}
        for lam, depth in graph_depths(graph).items()
    ]
    index = {lam: i for i, lam in enumerate(graph.nodes)}
    edges = [
        {"from": index[src], "to": index[dst], "residue": residue_to_json(z)}
        for src, z, dst in graph.edges
    ]
    return {"nodes": nodes, "edges": edges}


def crystal_graph_to_dot(graph: CrystalGraph) -> str:
    """DOT document: nodes labeled by the compact multipartition JSON,
    singular vertices double-circled and annotated with their depth,
    edges labeled by residue.  Ordering follows the canonical node
    order, so output is byte-stable.  Depth 0 is the same as singular
    (selftest `crystal-axioms`)."""
    from .crystal import graph_depths

    index = {lam: i for i, lam in enumerate(graph.nodes)}
    lines = ["digraph crystal {"]
    for i, (lam, depth) in enumerate(graph_depths(graph).items()):
        attrs = [f'label="{multipartition_label(lam)}"', f'depth="{depth}"']
        if depth == 0:
            attrs.append('singular="true"')
            attrs.append("shape=doublecircle")
        lines.append(f"  n{i} [{', '.join(attrs)}];")
    for src, z, dst in graph.edges:
        lines.append(
            f'  n{index[src]} -> n{index[dst]} [label="{residue_to_json(z)}"];'
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
