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

A call loads only the code its command runs: the modules only some
commands run (crystal, supports, walls, fock, fockspace, selftest) are
imported inside those commands, and every command line is read, and its
help and usage text written, off one argument table, without `argparse`.
Without a bytecode cache, every module a call imports is compiled on
that call.

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
# Every command also takes the common arguments, first.  A two-word key is
# a command under the group its first word names; "" is the top level.  An
# argument whose name does not start with "-" is an optional positional.
_COMMON = (("--out", dict(metavar="FILE", help="write output to FILE")),)
_PARAMS = ("--params", dict(metavar="FILE", required=True, help="parameter JSON file"))
_LEVEL = ("--level", dict(type=int, help="cross-check against the parameter file"))
_GROUPS = {
    "": "Exact combinatorics of crystals, supports and Fock-space operators on multipartitions.",
    "fock": "Fock-space computations",
}
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
        ("--model", dict(choices=("ribbon", "wedge"), help="bplus/bminus model, default ribbon")),
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
        ("depth", dict(choices=("quick", "full"), default="quick", help="quick (default) or full")),
    )),
}


def _below(key: str) -> dict[str, str]:
    """The commands and groups one word below the group key, each with
    its help line."""
    n = len(key.split())
    return {
        command.split()[n]: _GROUPS.get(" ".join(command.split()[: n + 1]), help_line)
        for command, (help_line, _) in _COMMANDS.items()
        if command.split()[:n] == key.split()
    }


def _dest(name: str) -> str:
    return name.lstrip("-").replace("-", "_")


def _shown(name: str, options: dict) -> str:
    """An argument as help and usage show it: a flag and its metavar, or a
    positional's choices."""
    choices = "{" + ",".join(options.get("choices", ())) + "}"
    metavar = options.get("metavar", choices if "choices" in options else _dest(name).upper())
    return f"{name} {metavar}" if name.startswith("-") else metavar


def _usage(key: str) -> str:
    if key in _COMMANDS:
        specs = _COMMON + _COMMANDS[key][1]
        shown = [_shown(n, o) if o.get("required") else f"[{_shown(n, o)}]" for n, o in specs]
    else:
        shown = ["{" + ",".join(_below(key)) + "}", "..."]
    return " ".join(["usage: fockcrystal", *key.split(), "[-h]", *shown])


def _help(key: str) -> None:
    """The help of a command or group on stdout, then exit 0."""
    if key in _COMMANDS:
        about, specs = _COMMANDS[key]
        heading = "arguments:"
        rows = [(_shown(name, opts), opts.get("help", "")) for name, opts in _COMMON + specs]
    else:
        about, heading, rows = _GROUPS[key], "commands:", list(_below(key).items())
    width = max(len(shown) for shown, _ in rows) + 2
    rows = [f"  {shown:<{width}}{line}".rstrip() for shown, line in rows]
    _write_stdout("\n".join([_usage(key), "", about, "", heading, *rows]) + "\n")
    sys.exit(0)


def _fail(key: str, message: str) -> None:
    """A usage error: the usage line of the command or group key and the
    message on stderr, then exit 2."""
    sys.stderr.write(f"{_usage(key)}\n{('fockcrystal ' + key).rstrip()}: error: {message}\n")
    sys.exit(2)


def _choose(key: str, name: str, value, choices) -> None:
    if choices is not None and value not in choices:
        listed = ", ".join(map(repr, choices))
        _fail(key, f"argument {name}: invalid choice: {value!r} (choose from {listed})")


def _is_value(token: str) -> bool:
    r"""Whether token is a word, not a flag: it does not start with "-",
    is "-", or is a negative number, `^-\d+$|^-\d*\.\d+$` (`str.isdecimal`
    is `\d`)."""
    whole, dot, fraction = token[1:].partition(".")
    number = (whole + fraction).isdecimal() and bool(fraction or not dot)
    return token[:1] != "-" or token == "-" or number


def _read_command(command: str, tokens: list[str]) -> SimpleNamespace:
    """The arguments after command's words, read left to right: a flag
    takes the next token as its value when that is a word, or the text
    after its "="; the last repeat wins.  The first free word is the
    positional, and after "--" every token is a word.  A bad or missing
    value ("--flag=--" included) fails at once and help exits at once; a
    missing required flag, then unrecognized arguments, fail at the end."""
    specs = dict(_COMMON + _COMMANDS[command][1])
    positional = next((name for name in specs if not name.startswith("-")), None)

    def value(name, text):
        try:
            text = specs[name].get("type", str)(text)
        except ValueError:  # the one type is int
            _fail(command, f"argument {name}: invalid int value: {text!r}")
        _choose(command, name, text, specs[name].get("choices"))
        return text

    given, extras, filled, i, words_only = {}, [], None, 0, False
    while i < len(tokens):
        token = tokens[i]
        i += 1
        if words_only or _is_value(token):
            if positional is None or positional in given:
                extras.append(token)
            else:
                given[positional], filled = value(positional, token), i
        elif token == "--":
            words_only = True
            # as in argparse, a "--" before or right after the positional's value is dropped
            if positional is None or (positional in given and filled != i - 1):
                extras.append(token)
        elif token in ("-h", "--help"):
            _help(command)
        elif token.partition("=")[0] not in specs:
            extras.append(token)
        else:
            name, eq, text = token.partition("=")
            if not eq and i < len(tokens) and _is_value(tokens[i]):
                text, i = tokens[i], i + 1
            elif not eq or text == "--":
                _fail(command, f"argument {name}: expected one argument")
            given[name] = value(name, text)
    missing = ", ".join(n for n, opts in specs.items() if opts.get("required") and n not in given)
    if missing:
        _fail(command, f"the following arguments are required: {missing}")
    if extras:
        _fail(command, f"unrecognized arguments: {' '.join(extras)}")
    args = {_dest(name): given.get(name, options.get("default")) for name, options in specs.items()}
    return SimpleNamespace(command=command, **args)


def _parse_args(argv: list[str]) -> SimpleNamespace:
    """argv read off the argument table: a command's one or two words,
    then its arguments (`_read_command`).  Help goes to stdout and exits
    0; a usage error names the command or group it concerns and exits 2."""
    key, rest = "", list(argv)
    while key not in _COMMANDS:
        if not rest:
            _fail(key, "the following arguments are required: command")
        word = rest.pop(0)
        if word in ("-h", "--help"):
            _help(key)
        _choose(key, "command", word, _below(key))
        key = f"{key} {word}".lstrip()
    return _read_command(key, rest)


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
    first, then a flag the operator does not read, then negative degrees,
    then the map's own parameter checks."""
    from .fock import box_term_map, heisenberg_term_map

    heisenberg = args.op in ("bplus", "bminus")
    if heisenberg and args.d is None:
        raise InvalidInputError(f"--op {args.op} needs --d")
    if not heisenberg and args.z is None:
        raise InvalidInputError(f"--op {args.op} needs --z CLASS:VALUE")
    unread = {"--z": args.z} if heisenberg else {"--d": args.d, "--model": args.model}
    for flag, value in unread.items():
        if value is not None:
            raise InvalidInputError(f"--op {args.op} does not take {flag}")
    z = None if heisenberg else residue_from_json(args.z)
    if min(args.degree_from, args.degree_to) < 0:
        raise InvalidInputError("total size must be nonnegative")
    if heisenberg:
        model = args.model or "ribbon"
        return heisenberg_term_map(args.d, params, model, remove=args.op == "bminus")
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
    vectors = [
        [[multipartition_label(lam), f"{c.numerator}/{c.denominator}"] for lam, c in vec.items()]
        for vec in basis
    ]
    _emit(canonical_dumps({"degree": args.n, "dimension": len(basis), "basis": vectors}), args)
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
        doc["hecke"] = {"q": fraction_to_json(h.q_exp), "Q": [fraction_to_json(x) for x in h.Q_exp]}
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
    table = [
        {"from": multipartition_to_json(lam),
         "to": multipartition_to_json(wall_cross(lam, step, params))}
        for lam in enumerate_multipartitions(params.level, args.n)
    ]
    _emit(canonical_dumps(table), args)
    return 0


def cmd_rank1(args) -> int:
    from .walls import rank_one_verma_hom

    try:
        h = tuple(fraction_from_json(part) for part in args.h.split(","))
    except FockcrystalError as exc:
        raise InvalidInputError(f"cannot parse --h {args.h!r}: {exc}") from exc
    dim, n = rank_one_verma_hom(args.level, h, args.k, args.j)
    _emit(canonical_dumps({"dim": dim, "n": n}), args)
    return 0


def cmd_selftest(args) -> int:
    from .selftest import run_selftest

    lines: list[str] = []
    failures = run_selftest(args.depth, writer=lines.append)
    _emit("\n".join(lines) + "\n", args)
    return 1 if failures else 0


# command "fock matrix" -> cmd_fock_matrix, and so on
_DISPATCH = {command: globals()["cmd_" + command.replace(" ", "_")] for command in _COMMANDS}


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
