"""Command line interface.

Commands: crystal, support, fock matrix|singular|filtration, params,
wallcross, rank1, selftest, each taking only the flags it reads.  All but
rank1 and selftest read a parameter JSON file (--params); each writes
JSON (or DOT, for graphs) to stdout or --out, ordered canonically so
identical invocations produce identical bytes.

Exit codes: 0 success, 1 selftest failure, 2 invalid input or move,
4 truncation overflow, 5 internal error (a violated internal invariant
or any other exception, reported as "internal error: <Type>: <message>").
3 is unused.  Exit 2 also covers a usage error, raised from `main` as
`SystemExit`; a parameter file that is not UTF-8, holds an integer too
long to convert or nests arrays or objects past the recursion limit; an
`--out` or a stdout (help included) that cannot be written; and a number
written with an exponent, which is refused before it is expanded.

A call loads only the code its command runs.  A well-formed command line
is read straight off one argument table, without `argparse`; any other
(help, an error) goes to the `argparse` parser built from the same table,
so help, usage and error messages are its own.  The modules only some
commands run (crystal, supports, walls, fock, fockspace, selftest) are
imported inside those commands.  Without a bytecode cache, every module
a call imports is compiled on that call.

`run` is the process entry (`python -m fockcrystal` and the `fockcrystal`
script): it returns `main`'s exit code after freezing the heap, so the
interpreter's exit skips its final collection.  `main(argv)` is the
in-process API and never touches the collector.
"""

from __future__ import annotations

import gc
import os
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Optional

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

if TYPE_CHECKING:
    import argparse

# The argument table: command -> (its help line, its own arguments).
# Every command also takes the common arguments, first.  A two-word key is
# a command under the group its first word names.
_COMMON = (("--out", dict(metavar="FILE", help="write output to FILE")),)
_PARAMS = ("--params", dict(metavar="FILE", required=True, help="parameter JSON file"))
_LEVEL = ("--level", dict(type=int, help="cross-check against the parameter file"))
_GROUPS = {"fock": "Fock-space computations"}
_COMMANDS = {
    "crystal": ("crystal graph up to a size bound", (
        _PARAMS,
        ("--format", dict(choices=("json", "dot"), default="json", help="output format")),
        _LEVEL,
        ("--n-max", dict(type=int, required=True, help="largest multipartition size")),
    )),
    "support": ("support table for all labels of one size", (
        _PARAMS,
        _LEVEL,
        ("--n", dict(type=int, required=True, help="multipartition size")),
    )),
    "fock matrix": ("operator matrix between two degrees", (
        _PARAMS,
        ("--op", dict(choices=("bplus", "bminus", "e", "f"), required=True, help="operator")),
        ("--d", dict(type=int, help="Heisenberg degree for bplus/bminus")),
        ("--z", dict(metavar="CLASS:VALUE", help="residue for e/f")),
        ("--model", dict(choices=("ribbon", "wedge"), default="ribbon")),
        ("--degree-from", dict(type=int, required=True, help="source degree")),
        ("--degree-to", dict(type=int, required=True, help="target degree")),
    )),
    "fock singular": ("singular subspace of one degree", (
        _PARAMS,
        ("--n", dict(type=int, required=True, help="degree")),
    )),
    "fock filtration": ("filtration dimensions of one degree", (
        _PARAMS,
        ("--n", dict(type=int, required=True, help="degree")),
        ("--p", dict(type=int, help="fix the raising index")),
        ("--q", dict(type=int, help="fix the Heisenberg index")),
    )),
    "params": ("walls, classes and Hecke exponents", (
        _PARAMS,
        ("--n", dict(type=int, required=True, help="rank bound for essential walls")),
    )),
    "wallcross": ("wall-crossing bijection table", (
        _PARAMS,
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


# The option keys `_read_table` implements; a spec with any other key is
# left to the full parser.
_READ_KEYS = {"type", "choices", "default", "required", "metavar", "help", "nargs"}


def _build_parser() -> argparse.ArgumentParser:
    """The parser of every command, which `fockcrystal --help` prints."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def print_help(self, file=None):
            # argparse drops an OSError here; help is output like any other
            if file is None:
                _write_stdout(self.format_help())
            else:
                super().print_help(file)

    parser = Parser(
        prog="fockcrystal",
        description="Exact combinatorics of crystals, supports and Fock-space "
        "operators on multipartitions.",
    )
    # the subcommands of the whole parser ("") and of each group
    subs = {"": parser.add_subparsers(dest="command", required=True)}
    for command, (help_line, specs) in _COMMANDS.items():
        group, _, name = command.rpartition(" ")
        if group not in subs:
            group_parser = subs[""].add_parser(group, help=_GROUPS[group])
            subs[group] = group_parser.add_subparsers(dest="command", required=True)
        # a flag is taken only as written in full: as a prefix of --params,
        # `fock singular --p 1` would name the parameter file "1"
        command_parser = subs[group].add_parser(name, help=help_line, allow_abbrev=False)
        # a group's subparsers name only the last word; the whole key wins
        command_parser.set_defaults(command=command)
        for flag, options in _COMMON + specs:
            command_parser.add_argument(flag, **options)
    return parser


def _read_table(command: str, tokens: list[str]) -> Optional[SimpleNamespace]:
    r"""The arguments after `command`'s words as the full parser reads them,
    when they are its positionals followed by exact flags, each given once
    as `--flag value` or `--flag=value`; None for anything else.

    A separate value may start with "-" only as a negative integer, which
    is the full parser's `^-\d+$` rule (`str.isdecimal` is `\d`)."""
    specs = _COMMON + _COMMANDS[command][1]
    flags, given, i = set(), {}, 0
    for name, options in specs:
        if not options.keys() <= _READ_KEYS:
            return None
        if name.startswith("-"):
            flags.add(name)
        elif i < len(tokens) and not tokens[i].startswith("-"):
            given[name] = tokens[i]
            i += 1
        elif options.get("nargs") != "?":
            return None
    while i < len(tokens):
        name, eq, value = tokens[i].partition("=")
        if name not in flags or name in given:
            return None
        if not eq:
            i += 1
            if i == len(tokens):
                return None
            value = tokens[i]
            if value.startswith("-") and not value[1:].isdecimal():
                return None
        elif value == "--":
            return None  # refused by `_parse_args`
        given[name] = value
        i += 1
    args = SimpleNamespace(command=command)
    for name, options in specs:
        value = given.get(name, options.get("default"))
        if name in given:
            if "type" in options:
                try:
                    value = options["type"](value)
                except ValueError:
                    return None
            if "choices" in options and value not in options["choices"]:
                return None
        elif options.get("required"):
            return None
        setattr(args, name.lstrip("-").replace("-", "_"), value)
    return args


def _parse_args(argv: list[str]) -> argparse.Namespace | SimpleNamespace:
    """argv as the full parser parses it.  A well-formed command line is
    read off the argument table; anything else builds the full parser, so
    help, usage and error messages, and their exit codes, are its own.
    `--flag=--`, which argparse 3.11 reads as an empty list, is a usage
    error."""
    for command in _COMMANDS:
        words = command.split()
        if argv[: len(words)] == words:
            args = _read_table(command, argv[len(words):])
            if args is not None:
                return args
    parser = _build_parser()
    args = parser.parse_args(argv)
    for name, value in vars(args).items():
        if isinstance(value, list):
            parser.error(f"argument --{name.replace('_', '-')}: expected one argument")
    return args


def _load_params(args):
    """The --params file, which a --level, where the command takes one,
    must agree with."""
    params = load_params(args.params)
    level = getattr(args, "level", None)
    if level is not None and level != params.level:
        raise InvalidInputError(
            f"--level {level} contradicts the parameter file level {params.level}"
        )
    return params


def _write_stdout(text: str) -> None:
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # What stdout failed to write stays in its buffer, and the flush
        # at the interpreter's exit would fail on it again, adding a
        # second report and exit code 120: send those bytes to the null
        # device.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        raise InvalidInputError(f"cannot write to stdout: {exc}") from exc


def _emit(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise InvalidInputError(f"cannot write output file {args.out}: {exc}") from exc
    else:
        _write_stdout(text)


def cmd_crystal(args) -> int:
    from .crystal import crystal_graph

    params = _load_params(args)
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

    params = _load_params(args)
    if args.n < 0:
        raise InvalidInputError("--n must be >= 0")
    rows = [
        (lam, support(lam, params))
        for lam in enumerate_multipartitions(params.level, args.n)
    ]
    _emit(canonical_dumps(support_table_to_json(rows)), args)
    return 0


def _matrix_term_map(args, params):
    """The term map of `fock matrix --op`.  A missing --d or --z comes
    first, then negative degrees, then the map's own parameter checks."""
    from .fock import box_term_map, heisenberg_term_map

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


def cmd_fock_matrix(args) -> int:
    from .fock import operator_matrix

    params = _load_params(args)
    rows, cols, entries = operator_matrix(
        _matrix_term_map(args, params), args.degree_from, args.degree_to
    )
    _emit(matrix_dumps(rows, cols, entries, args.degree_from, args.degree_to), args)
    return 0


def cmd_fock_singular(args) -> int:
    from .fockspace import singular_subspace

    basis = singular_subspace(args.n, _load_params(args))
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


def cmd_fock_filtration(args) -> int:
    """One row per (p, q), every p of one q read from a single run of
    raising layers; an index past its range (p > n, q > n // e) gives the
    clamped row, labelled with the index asked for."""
    from .fockspace import filtration_dims

    params = _load_params(args)
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

    params = _load_params(args)
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

    params = _load_params(args)
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
    "fock matrix": cmd_fock_matrix,
    "fock singular": cmd_fock_singular,
    "fock filtration": cmd_fock_filtration,
    "params": cmd_params,
    "wallcross": cmd_wallcross,
    "rank1": cmd_rank1,
    "selftest": cmd_selftest,
}


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _parse_args(sys.argv[1:] if argv is None else argv)
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


def run() -> int:
    """The process entry: `main` on the process's argv."""
    code = main()
    # The process only exits now, and CPython's shutdown would run a full
    # collection over every live object; frozen objects sit in the
    # permanent generation, which no collection visits.
    gc.freeze()
    return code
