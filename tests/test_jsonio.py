"""Serialization layer: exact fraction encoding, parameter and residue
roundtrips, the label and wall writers, and byte-stable canonical dumps."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fockcrystal import (
    ChargeDifferenceWall,
    CherednikParams,
    InvalidInputError,
    KappaDenominatorWall,
    Multipartition,
    Residue,
    box_term_map,
    heisenberg_term_map,
    operator_matrix,
)
from fockcrystal.jsonio import (
    canonical_dumps,
    fraction_from_json,
    fraction_to_json,
    load_params,
    matrix_dumps,
    multipartition_label,
    multipartition_to_json,
    params_from_json,
    params_to_json,
    residue_from_json,
    residue_to_json,
    wall_to_json,
)


class TestFractions:
    def test_integers_stay_numbers(self):
        assert fraction_to_json(Fraction(4)) == 4
        assert fraction_to_json(Fraction(-4, 2)) == -2

    def test_proper_fractions_become_strings(self):
        assert fraction_to_json(Fraction(-1, 2)) == "-1/2"

    def test_parsing(self):
        assert fraction_from_json(3) == 3
        assert fraction_from_json(3.0) == 3
        assert fraction_from_json("3/4") == Fraction(3, 4)
        assert fraction_from_json("-2") == -2
        assert fraction_from_json("-0.25") == Fraction(-1, 4)

    @pytest.mark.parametrize("bad", [True, 3.5, "x/y", "1/0", None, [1], "1e3", "2.5E-1"])
    def test_rejects_non_rationals(self, bad):
        with pytest.raises(InvalidInputError):
            fraction_from_json(bad)


class TestParamsCodec:
    def test_roundtrip_rational(self):
        p = CherednikParams(2, Fraction(-1, 2), [0, -1])
        doc = params_to_json(p)
        assert doc == {
            "level": 2,
            "kappa": {"num": -1, "den": 2},
            "s": [[0, 0], [-1, 0]],
        }
        assert params_from_json(doc) == p

    def test_roundtrip_irrational_with_pairs(self):
        p = CherednikParams(2, None, [0, (1, 1)])
        doc = params_to_json(p)
        assert doc["kappa"] == "irrational"
        assert params_from_json(doc) == p

    def test_shorthand_forms(self):
        assert params_from_json(
            {"level": 1, "kappa": "-1/2", "s": [0]}
        ) == CherednikParams(1, Fraction(-1, 2), [0])
        assert params_from_json(
            {"level": 1, "kappa": -2, "s": [[3]]}
        ) == CherednikParams(1, -2, [3])

    @pytest.mark.parametrize(
        "bad",
        [
            [],
            {"level": 2, "kappa": 1},
            {"level": True, "kappa": 1, "s": [0, 0]},
            {"level": 1, "kappa": {"den": 2}, "s": [0]},
            {"level": 1, "kappa": {"num": 1, "extra": 2}, "s": [0]},
            {"level": 1, "kappa": {"num": 1, "den": 0}, "s": [0]},
            {"level": 1, "kappa": 1, "s": 0},
            {"level": 1, "kappa": 1, "s": [[1, 2, 3]]},
        ],
    )
    def test_rejects_malformed_documents(self, bad):
        with pytest.raises(InvalidInputError):
            params_from_json(bad)

    def test_load_params_errors(self, tmp_path):
        with pytest.raises(InvalidInputError):
            load_params(str(tmp_path / "missing.json"))
        bad = tmp_path / "bad.json"
        # malformed JSON, bytes that are not UTF-8, an integer too long to convert
        for text in [b"{not json", b'{"level": \xff}', b'{"level": 1' + b"0" * 5000 + b"}"]:
            bad.write_bytes(text)
            with pytest.raises(InvalidInputError, match="invalid JSON in"):
                load_params(str(bad))


class TestLabelCodec:
    def test_roundtrip(self):
        lam = Multipartition([[2, 2], [3, 1, 1, 1]])
        doc = multipartition_to_json(lam)
        assert doc == [[2, 2], [3, 1, 1, 1]]

    def test_label_is_compact(self):
        lam = Multipartition([[2, 2], [3, 1, 1, 1]])
        assert multipartition_label(lam) == "[[2,2],[3,1,1,1]]"


class TestResidueAndWallCodecs:
    def test_residue_roundtrip(self):
        z = Residue(0, -3)
        assert residue_to_json(z) == "0:-3"
        assert residue_from_json("0:-3") == z

    @settings(max_examples=100, deadline=None)
    @given(st.builds(Residue, st.integers(0, 9), st.integers(-99, 99)))
    def test_residue_text_has_one_writer(self, z):
        assert residue_to_json(z) == str(z)

    @pytest.mark.parametrize("bad", ["", "12", "a:b", None])
    def test_residue_rejects(self, bad):
        with pytest.raises(InvalidInputError):
            residue_from_json(bad)

    def test_wall_shapes(self):
        assert wall_to_json(KappaDenominatorWall(3)) == {
            "type": "kappa_denominator",
            "d": 3,
        }
        assert wall_to_json(ChargeDifferenceWall(0, 1, -2)) == {
            "type": "charge_difference",
            "i": 0,
            "j": 1,
            "m": -2,
        }


class TestCanonicalDumps:
    def test_sorted_keys_and_trailing_newline(self):
        out = canonical_dumps({"b": 1, "a": 2})
        assert out == '{\n  "a": 2,\n  "b": 1\n}\n'

    def test_stable(self):
        doc = {"x": [3, 1], "a": {"z": 1, "y": 2}}
        assert canonical_dumps(doc) == canonical_dumps(
            {"a": {"y": 2, "z": 1}, "x": [3, 1]}
        )

    @pytest.mark.parametrize(
        "doc",
        [1.0, (1, 2), Fraction(1, 2), [{"a": [0.5]}], {1: "a"}, {"a": 1, 2: "b"}, {None: 0}],
        ids=["float", "tuple", "fraction", "nested-float", "int-key", "mixed-keys", "none-key"],
    )
    def test_refuses_what_commands_do_not_emit(self, doc):
        with pytest.raises(TypeError):
            canonical_dumps(doc)

    def test_bools_are_not_written_as_ints(self):
        assert canonical_dumps([True, False, 1, 0, None]) == (
            "[\n  true,\n  false,\n  1,\n  0,\n  null\n]\n"
        )


json_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.sampled_from([-1, 0, 2**64, -(2**64) - 1, 10**40]),
    st.text(),
    st.sampled_from(['"', "\\", "\x00\x1f\x7f", "\u00e9\u2603\U0001f600", "\ud800", ""]),
)
json_documents = st.recursive(
    json_scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(st.text(), inner, max_size=4)
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(json_documents)
def test_canonical_dumps_is_the_indented_sorted_json_text(doc):
    """The one-pass writer gives json.dumps(indent=2, sort_keys=True)'s
    text for every document of the types commands emit, empty and nested
    containers, big integers and escaped text included."""
    assert canonical_dumps(doc) == json.dumps(doc, indent=2, sort_keys=True) + "\n"


def reference_matrix_doc(rows, cols, entries, degree_from, degree_to):
    """The `fock matrix` document as the dict that canonical_dumps wrote
    before matrix_dumps: labels through multipartition_label, entries as
    [row, col, "num/den"] in (row, col) order."""
    return {
        "degree_from": degree_from,
        "degree_to": degree_to,
        "rows": [multipartition_label(lam) for lam in rows],
        "cols": [multipartition_label(lam) for lam in cols],
        "entries": [
            [r, c, f"{entries[(r, c)].numerator}/{entries[(r, c)].denominator}"]
            for r, c in sorted(entries)
        ],
    }


def assert_matrix_text(rows, cols, entries, degree_from, degree_to):
    doc = reference_matrix_doc(rows, cols, entries, degree_from, degree_to)
    got = matrix_dumps(rows, cols, entries, degree_from, degree_to)
    assert got == json.dumps(doc, indent=2, sort_keys=True) + "\n"


MATRIX_PARAMS = [
    CherednikParams(1, Fraction(-1, 2), [0]),
    CherednikParams(1, Fraction(-2, 3), [0]),
    CherednikParams(2, Fraction(-1, 2), [0, 1]),
    CherednikParams(2, Fraction(-1, 3), [0, Fraction(1, 2)]),
    CherednikParams(2, None, [0, 1]),
    CherednikParams(3, Fraction(-1, 3), [0, 1, -1]),
]


@st.composite
def matrix_cases(draw):
    """(rows, cols, entries, degree_from, degree_to) of a box or Heisenberg
    term map at levels 1-3, in degrees <= 6, its weights possibly scaled."""
    params = draw(st.sampled_from(MATRIX_PARAMS))
    remove = draw(st.booleans())
    if params.e is None or draw(st.booleans()):
        cid = draw(st.integers(0, len(params.classes) - 1))
        z = Residue(cid, draw(st.integers(0, (params.e or 4) - 1)))
        term_map, step = box_term_map(params, z, remove), 1
    else:
        d = draw(st.integers(1, 6 // params.e))
        model = draw(st.sampled_from(["ribbon", "wedge"]))
        term_map, step = heisenberg_term_map(d, params, model, remove), d * params.e
    low = draw(st.integers(0, 6 - step))
    ends = (low + step, low) if remove else (low, low + step)
    rows, cols, entries = operator_matrix(term_map, *ends)
    scale = draw(st.sampled_from([1, -1, 3, Fraction(1, 2), Fraction(-3, 7)]))
    return rows, cols, {key: w * scale for key, w in entries.items()}, *ends


@settings(max_examples=150, deadline=None)
@given(matrix_cases())
def test_matrix_dumps_is_the_generic_text_of_the_matrix_document(case):
    """The one-pass matrix writer gives the text that json.dumps gives for
    the document built the old way, with and without entries."""
    rows, cols, entries, degree_from, degree_to = case
    assert_matrix_text(rows, cols, entries, degree_from, degree_to)
    assert_matrix_text(rows, cols, {}, degree_from, degree_to)


def test_matrix_dumps_writes_signed_weights_and_empty_entries():
    """B_1 at e = 2 from the vacuum: a -1/1 entry; and the "entries": [] form."""
    e2 = CherednikParams(1, Fraction(-1, 2), [0])
    rows, cols, entries = operator_matrix(heisenberg_term_map(1, e2, "ribbon", False), 0, 2)
    assert entries == {(0, 0): 1, (1, 0): -1}
    assert_matrix_text(rows, cols, entries, 0, 2)
    assert matrix_dumps(rows, cols, entries, 0, 2).count('"-1/1"') == 1
    assert '"entries": [],' in matrix_dumps(rows, cols, {}, 0, 2)


# -- fuzzed round trips ------------------------------------------------

fractions = st.builds(Fraction, st.integers(-50, 50), st.integers(1, 12))
nonzero = fractions.filter(bool)


@st.composite
def parameter_points(draw):
    """Levels 1-4; kappa of either sign or symbolic; charges a + b/kappa."""
    level = draw(st.integers(1, 4))
    kappa = draw(st.one_of(st.none(), nonzero))
    charges = draw(st.lists(st.tuples(fractions, fractions), min_size=level, max_size=level))
    return CherednikParams(level, kappa, charges)


residues = st.builds(Residue, st.integers(0, 9), st.integers(-99, 99))

CODECS = {
    "params": (params_to_json, params_from_json, parameter_points()),
    "residue": (residue_to_json, residue_from_json, residues),
    "fraction": (fraction_to_json, fraction_from_json, fractions),
}


@pytest.mark.parametrize("name", CODECS)
def test_fuzzed_roundtrip(name):
    to_json, from_json, values = CODECS[name]

    @settings(max_examples=200, deadline=None)
    @given(values)
    def roundtrip(value):
        assert from_json(to_json(value)) == value

    roundtrip()


# JSON values; strings are short so that a numeric string stays small
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-10**6, 10**6),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=6),
        st.sampled_from(["irrational", "1/2", "0:1"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["level", "kappa", "s", "num", "den"]),
            inner,
            max_size=5,
        ),
    ),
    max_leaves=12,
)


@st.composite
def damaged(draw, name):
    """A valid document of the codec with one field replaced by any JSON
    value, or any JSON value at all."""
    to_json, _, values = CODECS[name]
    doc = to_json(draw(values))
    if isinstance(doc, dict) and draw(st.booleans()):
        key = draw(st.sampled_from(sorted(doc) + ["extra"]))
        doc[key] = draw(json_values)
        return doc
    return draw(json_values)


@pytest.mark.parametrize("name", CODECS)
def test_fuzzed_malformed_input_raises_only_invalid_input(name):
    _, from_json, _ = CODECS[name]

    @settings(max_examples=200, deadline=None)
    @given(damaged(name))
    def parse(doc):
        try:
            from_json(doc)
        except InvalidInputError:
            pass

    parse()
