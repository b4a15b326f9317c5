"""The exit-code contract under fuzzed input: argparse-valid command lines
for every computing subcommand, run in process against valid and
malformed parameter documents, end in exit 0, 2 or 4, with one stderr
line on a nonzero exit and never a traceback."""

import contextlib
import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fockcrystal.cli import main

sizes = st.integers(-1, 4)
small = st.integers(-1, 3)

rational = st.one_of(
    st.integers(-3, 3),
    st.builds(lambda a, b: f"{a}/{b}", st.integers(-3, 3), st.integers(1, 3)),
)
kappa = st.sampled_from(
    [{"num": num, "den": den} for num in (-3, -2, -1, 1, 2, 3) for den in (2, 3, 4) if num % den]
    + ["irrational", "-1/2", {"num": -1, "den": 100000}, {"num": 1, "den": 100000}]
)
# a charge a, or [a, b] for a + b/kappa
charge = st.one_of(rational, st.lists(rational, min_size=1, max_size=2))
FAULTS = {
    "level": [0, -1, "2", True],
    "kappa": [-1, 2, {"num": 1, "den": 0}, {"den": 2}, "abc", True, 0.5],
    "s": [None, [["x"]], [[0, 1, 2]], ["1/0"], [0.5]],
}
# whole files: malformed JSON, no object, bytes that are not UTF-8, and
# an integer longer than Python converts
TEXT_FAULTS = [b"{", b"[]", b"null", b'{"level": \xff}', b'{"level": 1' + b"0" * 5000 + b"}"]


@st.composite
def params_texts(draw):
    """The bytes of a parameter file: mostly a well-formed document, else
    one with a bad level, kappa or charge list, a missing key, or a file
    that is no JSON object."""
    level = draw(st.integers(1, 3))
    doc = {
        "level": level,
        "kappa": draw(kappa),
        "s": draw(st.lists(charge, min_size=level, max_size=level)),
    }
    fault = draw(st.sampled_from([None] * 6 + ["level", "kappa", "s", "count", "key", "text"]))
    if fault in FAULTS:
        doc[fault] = draw(st.sampled_from(FAULTS[fault]))
    elif fault == "count":
        doc["s"] = draw(st.lists(charge, max_size=4).filter(lambda s: len(s) != level))
    elif fault == "key":
        del doc[draw(st.sampled_from(sorted(doc)))]
    elif fault == "text":
        return draw(st.sampled_from(TEXT_FAULTS))
    return json.dumps(doc).encode()


def option(name, values):
    """[name=value], written in one word so that argparse reads a value
    such as "-1:0" as the value, not as an option."""
    return values.map(lambda v: [f"{name}={v}"])


def flag(name, values):
    """[name=value] or nothing, for an option the command may go without."""
    return st.one_of(st.just([]), option(name, values))


def command(head, *parts):
    """head followed by one draw of each part."""
    return st.tuples(*parts).map(lambda drawn: head + [x for part in drawn for x in part])


common = (st.sampled_from([[]] * 4 + [["--format=dot"], ["--format=json"]]),)
residues = st.one_of(
    st.builds(lambda c, v: f"{c}:{v}", small, sizes), st.sampled_from(["0", "a:b", ":"])
)
argvs = st.one_of(
    command(["crystal"], option("--n-max", sizes), flag("--level", small), *common),
    command(["support"], option("--n", sizes), flag("--level", small), *common),
    command(
        ["fock", "matrix"],
        option("--op", st.sampled_from(["bplus", "bminus", "e", "f"])),
        option("--d", sizes),
        option("--z", residues),
        flag("--model", st.sampled_from(["ribbon", "wedge"])),
        option("--degree-from", sizes),
        option("--degree-to", sizes),
        *common,
    ),
    command(["fock", "singular"], option("--n", sizes), *common),
    command(
        ["fock", "filtration"], option("--n", sizes), flag("--p", sizes), flag("--q", sizes), *common
    ),
    command(["params"], option("--n", sizes), *common),
    command(
        ["wallcross"],
        flag("--i", st.integers(0, 2)),
        flag("--j", st.integers(0, 2)),
        option("--m", st.integers(-3, 3)),
        flag("--direction", st.sampled_from(["up", "down"])),
        option("--n", sizes),
        *common,
    ),
)
h_lists = st.one_of(
    st.lists(rational, min_size=1, max_size=4).map(lambda hs: ",".join(map(str, hs))),
    st.sampled_from(["", "x", "1,,2", "1/0", "0.5", "1e99999999"]),
)
rank1_argvs = command(
    ["rank1"],
    option("--level", small),
    option("--h", h_lists),
    option("--k", small),
    option("--j", small),
    *common,
)


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def check_contract(code, err):
    assert code in (0, 2, 4), (code, err)
    if code == 0:
        assert err == ""
    else:
        assert err.endswith("\n") and err.count("\n") == 1, err
        assert "Traceback" not in err


@pytest.fixture(scope="module")
def params_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "params.json"


@settings(max_examples=500, deadline=None)
@given(argvs, params_texts())
# a positive kappa with a charge a + b/kappa, b != 0: support once read q
# at the wrong negated point and exited 5
@example(["support", "--n=3"], b'{"level": 2, "kappa": {"num": 1, "den": 2}, "s": [-1, [1, 1]]}')
def test_parameter_commands_keep_the_exit_contract(params_file, argv, text):
    params_file.write_bytes(text)
    code, _, err = run_main(argv + ["--params", str(params_file)])
    check_contract(code, err)


@settings(max_examples=200, deadline=None)
@given(rank1_argvs)
def test_rank1_keeps_the_exit_contract(argv):
    code, _, err = run_main(argv)
    check_contract(code, err)
