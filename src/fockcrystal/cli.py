"""Command line interface.

Subcommands: crystal, support, fock, params, wallcross, rank1, selftest.
Every command reads parameters from a JSON file (--params), writes JSON
(or DOT, for graphs) to stdout or --out, and orders its output
canonically so identical invocations produce identical bytes.

Exit codes: 0 success, 1 selftest failure, 2 invalid input or move,
4 truncation overflow, 5 internal error (a violated internal invariant
or any other exception, reported as "internal error: <Type>: <message>").
3 is unused.  Exit 2 also covers a parameter file that is not UTF-8 or holds
an integer too long to convert, an `--out` that cannot be written (missing
directory, or a directory), and a number written with an exponent, which
is refused before it is expanded.

The modules only some commands run (crystal, supports, fock, fockspace,
selftest) are imported inside those commands, so a call loads only the
code its subcommand needs.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional

from .errors import (
    FockcrystalError,
    InternalInvariantError,
    InvalidInputError,
    TruncationOverflowError,
)
from .jsonio import (
    canonical_dumps,
    crystal_graph_to_dot,
    crystal_graph_to_json,
    fraction_from_json,
    fraction_to_json,
    load_params,
    matrix_dumps,
    multipartition_label,
    multipartition_to_json,
    params_to_json,
    residue_from_json,
    support_table_to_json,
    wall_to_json,
)
from .params import (
    ChargeDifferenceWall,
    essential_walls,
    hecke_exponents,
    rank_one_verma_hom,
)
from .partitions import enumerate_multipartitions


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--params", metavar="FILE", help="parameter JSON file")
    common.add_argument("--out", metavar="FILE", help="write output to FILE")
    common.add_argument(
        "--format", choices=("json", "dot"), default="json", help="output format"
    )

    parser = argparse.ArgumentParser(
        prog="fockcrystal",
        description="Exact combinatorics of crystals, supports and Fock-space "
        "operators on multipartitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crystal", parents=[common], help="crystal graph up to a size bound")
    p.add_argument("--level", type=int, help="cross-check against the parameter file")
    p.add_argument("--n-max", type=int, required=True, help="largest multipartition size")

    p = sub.add_parser("support", parents=[common], help="support table for all labels of one size")
    p.add_argument("--level", type=int, help="cross-check against the parameter file")
    p.add_argument("--n", type=int, required=True, help="multipartition size")

    p = sub.add_parser("fock", parents=[common], help="Fock-space computations")
    p.add_argument("subop", choices=("matrix", "singular", "filtration"))
    p.add_argument("--op", choices=("bplus", "bminus", "e", "f"), help="operator for matrix")
    p.add_argument("--d", type=int, help="Heisenberg degree for bplus/bminus")
    p.add_argument("--z", metavar="CLASS:VALUE", help="residue for e/f")
    p.add_argument("--model", choices=("ribbon", "wedge"), default="ribbon")
    p.add_argument("--degree-from", type=int, help="source degree for matrix")
    p.add_argument("--degree-to", type=int, help="target degree for matrix")
    p.add_argument("--n", type=int, help="degree for singular/filtration")
    p.add_argument("--p", type=int, help="fix the raising index of the filtration")
    p.add_argument("--q", type=int, help="fix the Heisenberg index of the filtration")

    p = sub.add_parser("params", parents=[common], help="walls, classes and Hecke exponents")
    p.add_argument("--n", type=int, required=True, help="rank bound for essential walls")

    p = sub.add_parser("wallcross", parents=[common], help="wall-crossing bijection table")
    p.add_argument("--i", type=int, default=0, help="first component index of the wall")
    p.add_argument("--j", type=int, default=1, help="second component index of the wall")
    p.add_argument("--m", type=int, required=True, help="integer offset of the charge wall")
    p.add_argument("--direction", choices=("up", "down"), default="up")
    p.add_argument("--n", type=int, required=True, help="multipartition size")

    p = sub.add_parser("rank1", parents=[common], help="rank-one morphism space dimension")
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--h", required=True, metavar="H0,H1,...", help="comma-separated rationals")
    p.add_argument("--k", type=int, required=True, help="source component index")
    p.add_argument("--j", type=int, required=True, help="target component index")

    p = sub.add_parser("selftest", parents=[common], help="run the invariant suites")
    p.add_argument("depth", nargs="?", choices=("quick", "full"), default="quick")

    return parser


def _require_params(args):
    if not args.params:
        raise InvalidInputError("this command needs --params FILE")
    return load_params(args.params)


def _check_level(args, params) -> None:
    if getattr(args, "level", None) is not None and args.level != params.level:
        raise InvalidInputError(
            f"--level {args.level} contradicts the parameter file level {params.level}"
        )


def _emit(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write output file {args.out}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _require_json_format(args) -> None:
    if args.format != "json":
        raise InvalidInputError("this command only supports --format json")


def cmd_crystal(args) -> int:
    from .crystal import crystal_graph

    params = _require_params(args)
    _check_level(args, params)
    if args.n_max < 0:
        raise InvalidInputError("--n-max must be >= 0")
    graph = crystal_graph(args.n_max, params)
    if args.format == "dot":
        _emit(crystal_graph_to_dot(graph), args)
    else:
        _emit(canonical_dumps(crystal_graph_to_json(graph)), args)
    return 0


def cmd_support(args) -> int:
    from .supports import support

    _require_json_format(args)
    params = _require_params(args)
    _check_level(args, params)
    if args.n < 0:
        raise InvalidInputError("--n must be >= 0")
    rows = [
        (lam, support(lam, params))
        for lam in enumerate_multipartitions(params.level, args.n)
    ]
    _emit(canonical_dumps(support_table_to_json(rows)), args)
    return 0


def _matrix_term_map(args, params):
    """The term map of `fock matrix --op`.  Flag errors come first, then
    negative degrees, then the map's own parameter checks."""
    from .fock import box_term_map, heisenberg_term_map

    if args.op is None:
        raise InvalidInputError("fock matrix needs --op")
    heisenberg = args.op in ("bplus", "bminus")
    if heisenberg and args.d is None:
        raise InvalidInputError(f"--op {args.op} needs --d")
    if not heisenberg and args.z is None:
        raise InvalidInputError(f"--op {args.op} needs --z CLASS:VALUE")
    z = None if heisenberg else residue_from_json(args.z)
    if min(args.degree_from, args.degree_to) < 0:
        raise InvalidInputError("total size must be nonnegative")
    if heisenberg:
        return heisenberg_term_map(args.d, params, args.model, remove=args.op == "bminus")
    return box_term_map(params, z, remove=args.op == "e")


def cmd_fock(args) -> int:
    _require_json_format(args)
    params = _require_params(args)
    if args.subop == "matrix":
        from .fock import operator_matrix

        if args.degree_from is None or args.degree_to is None:
            raise InvalidInputError("fock matrix needs --degree-from and --degree-to")
        rows, cols, entries = operator_matrix(
            _matrix_term_map(args, params), args.degree_from, args.degree_to
        )
        _emit(matrix_dumps(rows, cols, entries, args.degree_from, args.degree_to), args)
        return 0
    from .fockspace import filtration_dims, singular_subspace

    if args.n is None:
        raise InvalidInputError(f"fock {args.subop} needs --n")
    if args.subop == "singular":
        basis = singular_subspace(args.n, params)
        doc = {
            "degree": args.n,
            "dimension": len(basis),
            "basis": [
                [
                    [multipartition_label(lam), f"{c.numerator}/{c.denominator}"]
                    for lam, c in vec.items()
                ]
                for vec in basis
            ],
        }
        _emit(canonical_dumps(doc), args)
        return 0
    # filtration: one row per (p, q), every p of one q read from a single
    # run of raising layers; an index past its range (p > n, q > n // e)
    # gives the clamped row, labelled with the index asked for
    if min(args.n, args.p or 0, args.q or 0) < 0:
        raise InvalidInputError("filtration indices must be >= 0")
    e = params.e
    ps = range(args.n + 1) if args.p is None else [args.p]
    qs = range(args.n // e + 1 if e is not None else 1) if args.q is None else [args.q]
    runs = {q: filtration_dims(ps[-1], q, args.n, params) for q in qs}
    table = [
        {"p": p, "q": q, "n": args.n, "dim": runs[q][min(p, args.n)]} for p in ps for q in qs
    ]
    _emit(canonical_dumps(table), args)
    return 0


def cmd_params(args) -> int:
    _require_json_format(args)
    params = _require_params(args)
    if args.n < 1:
        raise InvalidInputError("--n must be >= 1")
    doc = {
        "params": params_to_json(params),
        "classes": [list(c) for c in params.classes],
        "walls": [wall_to_json(w) for w in essential_walls(params, args.n)],
    }
    try:
        h = hecke_exponents(params)
        doc["hecke"] = {
            "q": fraction_to_json(h.q_exp),
            "Q": [fraction_to_json(x) for x in h.Q_exp],
        }
    except FockcrystalError:
        doc["hecke"] = None
    _emit(canonical_dumps(doc), args)
    return 0


def cmd_wallcross(args) -> int:
    from .supports import WallCrossStep, wall_cross

    _require_json_format(args)
    params = _require_params(args)
    if args.n < 0:
        raise InvalidInputError("--n must be >= 0")
    step = WallCrossStep(ChargeDifferenceWall(args.i, args.j, args.m), args.direction)
    table = []
    for lam in enumerate_multipartitions(params.level, args.n):
        image = wall_cross(lam, step, params)
        table.append(
            {
                "from": multipartition_to_json(lam),
                "to": multipartition_to_json(image),
            }
        )
    _emit(canonical_dumps(table), args)
    return 0


def cmd_rank1(args) -> int:
    _require_json_format(args)
    try:
        h = tuple(fraction_from_json(part) for part in args.h.split(","))
    except FockcrystalError as exc:
        raise InvalidInputError(f"cannot parse --h {args.h!r}: {exc}") from exc
    dim, n = rank_one_verma_hom(args.level, h, args.k, args.j)
    doc = {"dim": dim, "n": n}
    _emit(canonical_dumps(doc), args)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    lines: list[str] = []
    failures = run_selftest(args.depth, writer=lines.append)
    _emit("\n".join(lines) + "\n", args)
    return 1 if failures else 0


_DISPATCH = {
    "crystal": cmd_crystal,
    "support": cmd_support,
    "fock": cmd_fock,
    "params": cmd_params,
    "wallcross": cmd_wallcross,
    "rank1": cmd_rank1,
    "selftest": cmd_selftest,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except TruncationOverflowError as exc:
        print(f"truncation overflow: {exc}", file=sys.stderr)
        return 4
    except InternalInvariantError as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5
    except FockcrystalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
