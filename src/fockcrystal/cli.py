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

A call loads only the code its command runs.  The parser is built from
one argument table, and only for the command that argv[0] names; the
modules only some commands run (crystal, supports, walls, fock,
fockspace, selftest) are imported inside those commands.  Without a
bytecode cache, every module a call imports is compiled on that call.
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
from .partitions import enumerate_multipartitions

# The argument table: command -> (its help line, its own arguments).
# Every command takes the common arguments first.
_COMMON = (
    ("--params", dict(metavar="FILE", help="parameter JSON file")),
    ("--out", dict(metavar="FILE", help="write output to FILE")),
    ("--format", dict(choices=("json", "dot"), default="json", help="output format")),
)
_LEVEL = ("--level", dict(type=int, help="cross-check against the parameter file"))
_COMMANDS = {
    "crystal": ("crystal graph up to a size bound", (
        _LEVEL,
        ("--n-max", dict(type=int, required=True, help="largest multipartition size")),
    )),
    "support": ("support table for all labels of one size", (
        _LEVEL,
        ("--n", dict(type=int, required=True, help="multipartition size")),
    )),
    "fock": ("Fock-space computations", (
        ("subop", dict(choices=("matrix", "singular", "filtration"))),
        ("--op", dict(choices=("bplus", "bminus", "e", "f"), help="operator for matrix")),
        ("--d", dict(type=int, help="Heisenberg degree for bplus/bminus")),
        ("--z", dict(metavar="CLASS:VALUE", help="residue for e/f")),
        ("--model", dict(choices=("ribbon", "wedge"), default="ribbon")),
        ("--degree-from", dict(type=int, help="source degree for matrix")),
        ("--degree-to", dict(type=int, help="target degree for matrix")),
        ("--n", dict(type=int, help="degree for singular/filtration")),
        ("--p", dict(type=int, help="fix the raising index of the filtration")),
        ("--q", dict(type=int, help="fix the Heisenberg index of the filtration")),
    )),
    "params": ("walls, classes and Hecke exponents", (
        ("--n", dict(type=int, required=True, help="rank bound for essential walls")),
    )),
    "wallcross": ("wall-crossing bijection table", (
        ("--i", dict(type=int, default=0, help="first component index of the wall")),
        ("--j", dict(type=int, default=1, help="second component index of the wall")),
        ("--m", dict(type=int, required=True, help="integer offset of the charge wall")),
        ("--direction", dict(choices=("up", "down"), default="up")),
        ("--n", dict(type=int, required=True, help="multipartition size")),
    )),
    "rank1": ("rank-one morphism space dimension", (
        ("--level", dict(type=int, required=True)),
        ("--h", dict(required=True, metavar="H0,H1,...", help="comma-separated rationals")),
        ("--k", dict(type=int, required=True, help="source component index")),
        ("--j", dict(type=int, required=True, help="target component index")),
    )),
    "selftest": ("run the invariant suites", (
        ("depth", dict(nargs="?", choices=("quick", "full"), default="quick")),
    )),
}


def _add_arguments(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for name, options in _COMMON + _COMMANDS[command][1]:
        parser.add_argument(name, **options)
    return parser


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, which `fockcrystal --help` prints."""
    parser = argparse.ArgumentParser(
        prog="fockcrystal",
        description="Exact combinatorics of crystals, supports and Fock-space "
        "operators on multipartitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_line, _) in _COMMANDS.items():
        _add_arguments(sub.add_parser(command, help=help_line), command)
    return parser


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """argv as the full parser parses it, which hands all after a command
    to that command's parser.  So only that parser is built, unless argv
    names no command or leaves arguments over: the full parser reports those."""
    if argv and argv[0] in _COMMANDS:
        command = argv[0]
        parser = _add_arguments(argparse.ArgumentParser(prog=f"fockcrystal {command}"), command)
        args, rest = parser.parse_known_args(argv[1:])
        if not rest:
            args.command = command
            return args
    return _build_parser().parse_args(argv)


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
    from .walls import essential_walls, hecke_exponents

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
    from .walls import ChargeDifferenceWall

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
    from .walls import rank_one_verma_hom

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
    args = _parse_args(sys.argv[1:] if argv is None else argv)
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
