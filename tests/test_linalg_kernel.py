"""The sparse integer elimination kernel against the dense Fraction reference.

``oracles.reference_rref`` is the dense row reduction the library used before
its fraction-free kernel.  The reduced row echelon form of a row space is
unique, so every dense adapter must agree with it (or with sympy) exactly, on
random rational matrices of every shape: empty, wide, tall, with zero and
repeated rows, and with large numerators and denominators.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilforms.linalg import det, in_row_space, invert, nullspace, rank, rref, solve

from oracles import as_fraction, reference_rref, sympy_shaped

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
)


@st.composite
def matrices(draw, square=False):
    """(rows, ncols), with some rows made zero or a combination of others."""
    nrows = draw(st.integers(0, 6))
    ncols = nrows if square else draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                         min_size=nrows, max_size=nrows))
    for r in range(1, nrows):
        kind = draw(st.sampled_from(("keep", "keep", "zero", "combination")))
        if kind == "zero":
            rows[r] = [Fraction(0)] * ncols
        elif kind == "combination":
            f, g = draw(ENTRIES), draw(ENTRIES)
            rows[r] = [f * a + g * b for a, b in zip(rows[r - 1], rows[0])]
    return rows, ncols


@given(matrices())
def test_rref_equals_the_reference(matrix):
    rows, ncols = matrix
    assert rref(rows, ncols) == reference_rref(rows, ncols)
    assert rank(rows, ncols) == len(reference_rref(rows, ncols)[1])


@given(matrices())
def test_nullspace_equals_sympy(matrix):
    rows, ncols = matrix
    expected = [[as_fraction(v) for v in vec]
                for vec in sympy_shaped(rows, ncols).nullspace()]
    assert nullspace(rows, ncols) == expected


@given(matrices(), st.data())
def test_solve_equals_the_reference(matrix, data):
    rows, ncols = matrix
    rhs = data.draw(st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)))
    reduced, pivots = reference_rref([row + [b] for row, b in zip(rows, rhs)], ncols + 1)
    if ncols in pivots:
        expected = None
    else:
        expected = [Fraction(0)] * ncols
        for row, p in zip(reduced, pivots):
            expected[p] = row[ncols]
    assert solve(rows, rhs, ncols) == expected


@given(matrices(square=True))
def test_det_and_invert_equal_sympy(matrix):
    rows, n = matrix
    reference = sympy_shaped(rows, n)
    value = as_fraction(reference.det()) if n else Fraction(1)
    assert det(rows) == value
    if value == 0:
        with pytest.raises(ValueError):
            invert(rows)
    elif n:
        inverse = reference.inv()
        assert invert(rows) == [[as_fraction(inverse[i, j]) for j in range(n)]
                                for i in range(n)]
    else:
        assert invert(rows) == []


@given(matrices(), st.data())
def test_in_row_space_equals_a_rank_test(matrix, data):
    rows, ncols = matrix
    row_sum = [sum((row[c] for row in rows), Fraction(0)) for c in range(ncols)]
    vector = data.draw(st.one_of(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                                 st.just(row_sum)))
    basis, pivots = reference_rref(rows, ncols)
    expected = sympy_shaped(rows + [vector], ncols).rank() == len(pivots)
    assert in_row_space(basis, pivots, vector) == expected
