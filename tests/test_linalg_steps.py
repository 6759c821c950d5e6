"""The elimination kernel's two kinds of step, on rows built to take both.

Clearing column p of an integer row v with the pivot row b takes one of two
steps (``linalg._reduce``).  When b[p] divides v[p] it subtracts the integer
multiple v[p] / b[p] of b and leaves the row's scale alone.  Otherwise it
scales the row, and its denominator, by b[p] / g with g = gcd(v[p], b[p]),
and divides the row by its gcd afterwards.  The rows here put pivots 1, 2
and 3 against entries such as 4, 3 and 5/2, as ints and Fractions mixed, so
that every entry point takes both kinds, in either order; each is checked
against the dense reference ``oracles.reference_rref`` and against sympy.
"""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nilforms.linalg import echelon, kernel, preimage, reduce, span_rank, unit_rows

from oracles import as_fraction, reference_rref, sympy_shaped

NCOLS = 5

# an echelon basis in reduced form with pivots 1, 2 and 3 on columns 0-2
BASIS_ROWS = [{0: 1, 3: 1, 4: -1}, {1: 2, 3: 1}, {2: 3, 3: -1, 4: 2}]

# entries that pivots 1, 2 and 3 divide, and entries that they do not
STEP_ENTRIES = st.sampled_from([0, 1, -2, 3, 4, 6, -9, Fraction(5, 2), Fraction(-1, 3),
                                Fraction(7, 6), Fraction(4, 2)])


def dense(vec, ncols=NCOLS):
    return [Fraction(vec.get(c, 0)) for c in range(ncols)]


def sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def columns_of(rows, ncols):
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(ncols)]


@st.composite
def stepped(draw):
    """Rows with pivots 1, 2 and 3 in columns 0-2 and integer tails, and
    rows below them of ``STEP_ENTRIES``, some held as ints where integral
    and some as Fractions, in any order."""
    tail = st.integers(-3, 3)
    rows = [[0] * p + [p + 1] + [draw(tail) for _ in range(NCOLS - 1 - p)] for p in range(3)]
    for _ in range(draw(st.integers(1, 3))):
        row = [draw(STEP_ENTRIES) for _ in range(NCOLS)]
        rows.append([Fraction(v) for v in row] if draw(st.booleans()) else row)
    return draw(st.permutations(rows))


def test_the_basis_has_pivots_one_two_and_three():
    basis = echelon(BASIS_ROWS)
    assert basis == {p: row for p, row in enumerate(BASIS_ROWS)}
    assert [row[p] for p, row in basis.items()] == [1, 2, 3]


# in integer form the first vector is (8, 6, 5, 2) / 2: exact steps against
# pivots 1 and 2, then a scaling step against 3; the second is (4, 3, 6, 1):
# an exact step, a scaling step against 2, then an exact step on the scaled
# row, whose denominator is 2
@pytest.mark.parametrize("vector, expected", [
    ({0: 4, 1: 3, 2: Fraction(5, 2), 3: 1}, {3: Fraction(-11, 3), 4: Fraction(7, 3)}),
    ({0: 4, 1: 3, 2: 6, 3: 1}, {3: Fraction(-5, 2)}),
])
def test_a_vector_reduces_through_both_kinds_of_step(vector, expected):
    assert reduce(vector, echelon(BASIS_ROWS)) == expected


@given(st.lists(STEP_ENTRIES, min_size=NCOLS, max_size=NCOLS))
def test_reduce_equals_the_reference(entries):
    vector = sparse(entries)
    units, pivots = reference_rref([dense(row) for row in BASIS_ROWS])
    expected = dense(vector)
    for unit, p in zip(units, pivots):
        coefficient = expected[p]
        expected = [x - coefficient * u for x, u in zip(expected, unit)]
    reduced = reduce(vector, echelon(BASIS_ROWS))
    assert dense(reduced) == expected
    assert all(type(v) is Fraction for v in reduced.values())


@given(stepped())
def test_echelon_equals_the_reference_and_sympy(rows):
    basis = echelon(map(sparse, rows))
    assert all(type(v) is int for row in basis.values() for v in row.values())
    reduced = [dense(row) for row in unit_rows(basis)]
    assert (reduced, list(basis)) == reference_rref(rows, NCOLS)
    expected, pivots = sympy_shaped(rows, NCOLS).rref()
    assert list(basis) == list(pivots)
    assert reduced == [[as_fraction(expected[r, c]) for c in range(NCOLS)]
                       for r in range(len(pivots))]


@given(stepped())
def test_kernel_equals_sympy_with_ints_where_integral(rows):
    vectors = kernel(columns_of(rows, NCOLS))
    expected = [[as_fraction(v) for v in vec]
                for vec in sympy_shaped(rows, NCOLS).nullspace()]
    assert [dense(vec) for vec in vectors] == expected
    assert all(type(v) is (int if Fraction(v).denominator == 1 else Fraction)
               for vec in vectors for v in vec.values())


@given(stepped(), st.data())
def test_preimage_equals_the_reference(rows, data):
    target = data.draw(st.lists(STEP_ENTRIES, min_size=len(rows), max_size=len(rows)))
    reduced, pivots = reference_rref([[*row, b] for row, b in zip(rows, target)], NCOLS + 1)
    if NCOLS in pivots:
        expected = None
    else:
        expected = [Fraction(0)] * NCOLS
        for row, p in zip(reduced, pivots):
            expected[p] = row[NCOLS]
    solution = preimage(columns_of(rows, NCOLS), sparse(target))
    assert (solution if solution is None else dense(solution)) == expected


@given(stepped())
def test_span_rank_equals_sympy(rows):
    transposed = columns_of(rows, NCOLS)
    expected = sympy_shaped(rows, NCOLS).rank()
    assert span_rank(list(map(sparse, rows))) == span_rank(transposed) == expected
