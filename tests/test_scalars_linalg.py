import re
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilforms import (
    InvalidParameter,
    as_scalar,
    form_to_json,
    format_form,
    format_scalar,
    parse_salamon,
)
from nilforms.linalg import (
    echelon,
    kernel,
    preimage,
    reduce,
    span_rank,
    unit_rows,
)
from nilforms.scalars import height

from conftest import cocycle_forms
from oracles import sympy_matrix


def test_as_scalar_accepts_exact_types():
    assert as_scalar(3) == Fraction(3)
    assert as_scalar(Fraction(2, 7)) == Fraction(2, 7)
    assert as_scalar("5/9") == Fraction(5, 9)
    assert as_scalar(" -4/6 ") == Fraction(-2, 3)
    assert as_scalar("+7") == Fraction(7)


def test_as_scalar_rejects_float():
    with pytest.raises(InvalidParameter):
        as_scalar(0.5)


@pytest.mark.parametrize("text", [
    "0.5", "1e3", "1e100000000", "1_000", "١٢", "²", "1/0", "3/-4", "1 / 2",
    "--1", "", pytest.param("1" * 4301, id="long-run"),
])
def test_as_scalar_reads_only_signed_ascii_fractions(text):
    with pytest.raises(InvalidParameter, match="not a rational literal"):
        as_scalar(text)


@pytest.mark.parametrize("value", [None, [1], 1j])
def test_as_scalar_rejects_other_types(value):
    with pytest.raises(InvalidParameter,
                       match=f"^cannot interpret {re.escape(repr(value))} as a rational scalar$"):
        as_scalar(value)


def test_as_scalar_rejects_bool():
    # True == 1, but a bool is no coefficient
    for value in (True, False):
        with pytest.raises(InvalidParameter, match="bool"):
            as_scalar(value)


@pytest.mark.parametrize("value,text", [
    (Fraction(3), "3"),
    (Fraction(-1, 2), "-1/2"),
    (Fraction(0), "0"),
])
def test_format_scalar(value, text):
    assert format_scalar(value) == text
    assert as_scalar(text) == value


def test_height():
    assert height(Fraction(0)) == 0
    assert height(Fraction(-3)) == 3
    assert height(Fraction(2, 5)) == 5


MAT = [[Fraction(v) for v in row] for row in [[2, 1, 1], [1, 3, 2], [1, 0, 0]]]


@given(st.lists(st.lists(st.integers(-5, 5), min_size=4, max_size=4),
                min_size=2, max_size=5))
def test_rank_and_nullspace_against_sympy(entries):
    rows = [[Fraction(v) for v in row] for row in entries]
    mat = sympy_matrix(rows)
    assert span_rank([dict(enumerate(row)) for row in rows]) == mat.rank()
    vectors = kernel([{r: row[j] for r, row in enumerate(rows)} for j in range(4)])
    assert len(vectors) == 4 - mat.rank()
    for vec in vectors:
        assert all(sum(row[j] * v for j, v in vec.items()) == 0 for row in rows)


def test_rref_is_idempotent():
    basis = echelon(dict(enumerate(row)) for row in MAT)
    again = echelon(unit_rows(basis))
    assert again == basis
    assert unit_rows(again) == unit_rows(basis)


def test_solve_finds_a_preimage():
    columns = [{0: Fraction(1), 1: Fraction(2)}, {0: Fraction(2), 1: Fraction(4)}]
    sol = preimage(columns, {0: Fraction(3), 1: Fraction(6)})
    assert sol is not None
    assert [sum(columns[c].get(r, 0) * v for c, v in sol.items()) for r in range(2)] \
        == [Fraction(3), Fraction(6)]
    assert preimage(columns, {0: Fraction(3), 1: Fraction(7)}) is None


def test_kernel_values_are_ints_where_integral():
    # the one row (2, 1, 4) has pivot column 0: x0 = -x1 / 2 - 2 x2
    vectors = kernel([{0: 2}, {0: Fraction(1)}, {0: Fraction(4)}])
    assert vectors == [{0: Fraction(-1, 2), 1: 1}, {0: -2, 2: 1}]
    assert [[type(v) for v in vec.values()] for vec in vectors] \
        == [[Fraction, int], [int, int]]


def test_a_form_with_int_coefficients_is_its_fraction_twin():
    algebra = parse_salamon("(0,0,12,13)")
    for form in cocycle_forms(algebra, 2):
        assert all(type(c) is int for c in form.coeffs.values())
        twin = algebra.form(form.coeffs)
        assert all(type(c) is Fraction for c in twin.coeffs.values())
        assert form == twin and hash(form) == hash(twin)
        assert format_form(form) == format_form(twin)
        assert form_to_json(form) == form_to_json(twin)


def test_in_row_space():
    basis = echelon([{0: Fraction(1), 2: Fraction(1)}, {1: Fraction(1), 2: Fraction(1)}])
    assert not reduce({0: Fraction(2), 1: Fraction(3), 2: Fraction(5)}, basis)
    assert reduce({2: Fraction(1)}, basis) == {2: Fraction(1)}


def test_a_vector_left_single_by_a_deletion_deletes_its_coordinate():
    # x1 is a singleton from the start, so its coordinate goes first and
    # leaves x1 + x2 with x2 alone; counting that vector must delete x2 from
    # x2 + x3 + x4 and 2 x2 + x3 + x4 too, which leaves them equal: rank 3
    vectors = [{1: 1}, {1: 1, 2: 1}, {2: 1, 3: 1, 4: 1}, {2: 2, 3: 1, 4: 1}]
    assert span_rank(vectors) == sympy_matrix(
        [[vec.get(c, 0) for c in range(1, 5)] for vec in vectors]).rank() == 3


ROW_ENTRIES = st.sampled_from(
    [0, 0, 0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-3, 4), 10**12 + 1]).map(Fraction)


@st.composite
def row_operations(draw):
    """(rows, target, perm, scales): a matrix with its right-hand side, a
    permutation of its rows and a nonzero integer scale for each."""
    nrows = draw(st.integers(0, 7))
    ncols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(ROW_ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    target = draw(st.lists(ROW_ENTRIES, min_size=nrows, max_size=nrows))
    perm = draw(st.permutations(range(nrows)))
    scales = draw(st.lists(st.integers(-6, 6).filter(bool),
                           min_size=nrows, max_size=nrows))
    return rows, target, perm, scales


@given(row_operations())
def test_row_order_and_scale_move_no_output(case):
    """The reduced echelon form of a row space is unique, so permuting the
    rows and scaling them by nonzero integers changes no ``echelon``,
    ``kernel`` or ``preimage``."""
    rows, target, perm, scales = case
    ncols = len(rows[0]) if rows else 0
    moved = [[scales[r] * v for v in rows[perm[r]]] for r in range(len(rows))]
    moved_target = [scales[r] * target[perm[r]] for r in range(len(rows))]

    def outputs(matrix, rhs):
        columns = [{r: row[c] for r, row in enumerate(matrix) if row[c]}
                   for c in range(ncols)]
        sparse_rows = [{c: v for c, v in enumerate(row) if v} for row in matrix]
        return (echelon(sparse_rows), kernel(columns),
                preimage(columns, {r: v for r, v in enumerate(rhs) if v}))

    before, after = outputs(rows, target), outputs(moved, moved_target)
    assert before == after
    assert repr(before) == repr(after)
