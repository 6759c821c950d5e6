"""Tuple-notation grammar and the JSON interchange layer."""

import pytest
from fractions import Fraction
from hypothesis import given, strategies as st

from nilforms import (
    IndexOutOfRange,
    InvalidParameter,
    JacobiViolation,
    SalamonSyntaxError,
    SchemaViolation,
    algebra_to_json,
    form_to_json,
    format_salamon,
    json_to_algebra,
    json_to_form,
    parse_covector_sum,
    parse_salamon,
)


def test_parse_the_catalog_tuples():
    six = parse_salamon("(0,0,0,0,12,34)")
    assert six.dx(5) == six.basis_form(1, 2)
    assert six.dx(6) == six.basis_form(3, 4)
    kt = parse_salamon("(0,0,0,12)")
    assert kt.dx(4) == kt.basis_form(1, 2)
    assert not parse_salamon("(0,0,0,0)").constants


def test_parse_signs_and_coefficients():
    algebra = parse_salamon("(0,0,0,-12+2*13)")
    assert algebra.dx(4) == algebra.form({(1, 2): -1, (1, 3): 2})
    fractional = parse_salamon("(0,0,1/2*12)")
    assert fractional.dx(3) == fractional.form({(1, 2): Fraction(1, 2)})


def test_parse_merges_repeated_pairs():
    algebra = parse_salamon("(0,0,12+12)")
    assert algebra.dx(3) == algebra.form({(1, 2): 2})


def test_bracket_pairs_above_dimension_nine():
    text = "(" + ",".join(["0"] * 9 + ["[1,10]"]) + ")"
    algebra = parse_salamon(text)
    assert algebra.dim == 10
    assert algebra.dx(10) == algebra.basis_form(1, 10)


def test_syntax_errors_carry_positions():
    with pytest.raises(SalamonSyntaxError) as info:
        parse_salamon("(0,0,1x)")
    assert info.value.position is not None
    assert "position" in str(info.value)
    with pytest.raises(SalamonSyntaxError):
        parse_salamon("0,0,12,13")  # missing parentheses
    with pytest.raises(SalamonSyntaxError):
        parse_salamon("(0,0,21)")  # i >= j is a syntax error
    with pytest.raises(IndexOutOfRange):
        parse_salamon("(0,0,14)")


def test_format_is_canonical():
    assert format_salamon(parse_salamon("(0,0,12,13)")) == "(0,0,12,13)"
    assert format_salamon(parse_salamon("(0,0,0,2*13-12)")) \
        == "(0,0,0,-12+2*13)"


def test_round_trip_on_catalog_algebras(torus, kt, filiform, six_dim):
    for algebra in (torus, kt, filiform, six_dim):
        assert parse_salamon(format_salamon(algebra)) == algebra


# '²' passes str.isdigit but not int, '１' passes both, and a 4301-digit run
# passes the int-conversion limit
_LONG_RUN = "1" * 4301
_NUMBERS = st.sampled_from(["0", "1", "2", "12", "²", "１", _LONG_RUN])
_COEFFICIENTS = st.one_of(_NUMBERS.map("{}*".format),
                          st.builds("{}/{}*".format, _NUMBERS, _NUMBERS))


def _sums(atoms, noise):
    """Text near the signed-sum grammar: coefficients, numbers, atoms, signs
    and noise, in any order."""
    piece = st.one_of(_COEFFICIENTS, _NUMBERS, st.sampled_from(atoms),
                      st.sampled_from(list("+- " + noise)))
    return st.lists(piece, max_size=8).map("".join)


@given(st.one_of(
    st.text(alphabet="0123456789,()+-*/[]x ²１", max_size=24),
    st.lists(_sums(["12", "13", "[1,2]", "[1,10]"], "*/[],x"),
             min_size=1, max_size=4).map(lambda entries: f"({','.join(entries)})"),
))
def test_grammar_totality(text):
    # every input either parses or raises a typed, positioned error
    try:
        parse_salamon(text)
    except (SalamonSyntaxError, IndexOutOfRange, JacobiViolation):
        pass


@given(st.one_of(st.text(alphabet="0123456789x+-*/ ²１", max_size=24),
                 _sums(["x1", "x4", "x0", "x"], "*/")))
def test_covector_grammar_totality(filiform, text):
    try:
        parse_covector_sum(filiform, text)
    except (SalamonSyntaxError, IndexOutOfRange):
        pass


@pytest.mark.parametrize("text,position", [
    ("(0,0,1²,13)", 5),
    ("(0,0,１２,13)", 5),  # fullwidth digits
    pytest.param(f"(0,0,0,{_LONG_RUN}*12)", 7, id="long-coefficient"),
    pytest.param(f"(0,0,0,1/{_LONG_RUN}*12)", 9, id="long-denominator"),
    pytest.param("(" + "0," * 9 + f"[1,{_LONG_RUN}])", 22, id="long-index"),
])
def test_digits_are_ascii_and_int_sized(text, position):
    with pytest.raises(SalamonSyntaxError) as info:
        parse_salamon(text)
    assert info.value.position == position


def test_algebra_json_round_trip(filiform, six_dim):
    for algebra in (filiform, six_dim):
        doc = algebra_to_json(algebra)
        assert json_to_algebra(doc) == algebra


def test_algebra_json_example():
    doc = {"dim": 4, "d": {"4": [["1", [1, 2]]]}}
    algebra = json_to_algebra(doc)
    assert format_salamon(algebra) == "(0,0,0,12)"


def test_json_rationals_are_strings(filiform):
    half = filiform.form({(1, 2): Fraction(1, 2)})
    doc = form_to_json(half)
    assert doc["terms"] == [["1/2", [1, 2]]]
    assert json_to_form(filiform, doc) == half


def test_schema_violations_point_at_the_problem():
    with pytest.raises(SchemaViolation) as info:
        json_to_algebra({"dim": 4, "d": {"4": [["1", [2, 1]]]}})
    assert info.value.pointer == "/d/4/0/1"
    with pytest.raises(SchemaViolation):
        json_to_algebra({"dim": "four"})
    with pytest.raises(SchemaViolation) as dup:
        json_to_algebra({"dim": 4, "d": {"4": [["1", [1, 2]], ["1", [1, 2]]]}})
    assert "twice" in str(dup.value)


def test_json_rejects_floats_in_coefficients():
    with pytest.raises(SchemaViolation):
        json_to_algebra({"dim": 4, "d": {"4": [[0.5, [1, 2]]]}})


@pytest.mark.parametrize("d,pointer", [
    ({"²": []}, "/d/²"),
    ({"١": []}, "/d/١"),
    pytest.param({_LONG_RUN: []}, f"/d/{_LONG_RUN}", id="long-key"),
    ({"4": [["1e100000000", [1, 2]]]}, "/d/4/0/0"),
    pytest.param({"4": [[_LONG_RUN, [1, 2]]]}, "/d/4/0/0", id="long-coefficient"),
])
def test_json_numbers_are_ascii_rational_literals(d, pointer):
    with pytest.raises(SchemaViolation) as info:
        json_to_algebra({"dim": 4, "d": d})
    assert info.value.pointer == pointer


def test_parse_covector_sum(filiform):
    form = parse_covector_sum(filiform, "x1-2*x3")
    assert form == filiform.form({(1,): 1, (3,): -2})
    assert parse_covector_sum(filiform, "0").is_zero
    assert parse_covector_sum(filiform, " -x1 + 1/2* x4-x1") \
        == filiform.form({(1,): -2, (4,): Fraction(1, 2)})
    assert parse_covector_sum(filiform, "x2-x2").is_zero


@pytest.mark.parametrize("text,message,position", [
    ("x1+3/0*x2", "zero denominator", 3),
    ("2x1", "unexpected 'x'", 1),  # no '*'
    ("2*1", "unexpected '1'", 2),  # no 'x'
    ("x1+0*x2", "zero coefficient", 3),
    ("x1 x2", "unexpected 'x'", 3),
    (" 0+x1", "'0' entries cannot carry terms", 1),
    ("  ", "empty covector sum", 0),
    ("x²", "unexpected '²'", 1),
    ("x１", "unexpected '１'", 1),
    pytest.param(f"{_LONG_RUN}*x1", "4301-digit number is too long", 0,
                 id="long-coefficient"),
])
def test_covector_sum_errors_carry_positions(filiform, text, message, position):
    with pytest.raises(SalamonSyntaxError) as info:
        parse_covector_sum(filiform, text)
    assert str(info.value).startswith(message)
    assert info.value.position == position


@pytest.mark.parametrize("text", [b"x1", 1, None])
def test_the_parsers_refuse_what_is_not_a_string(filiform, text):
    with pytest.raises(InvalidParameter, match="tuple notation must be a string"):
        parse_salamon(text)
    with pytest.raises(InvalidParameter, match="covector sum must be a string"):
        parse_covector_sum(filiform, text)


@pytest.mark.parametrize("text", ["x0", "x1+x5"])
def test_covector_index_out_of_range(filiform, text):
    with pytest.raises(IndexOutOfRange, match=text[-2:]):
        parse_covector_sum(filiform, text)
