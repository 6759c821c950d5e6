"""The sparse integer elimination kernel against the dense Fraction reference.

``oracles.reference_rref`` is the dense row reduction the library used before
its fraction-free kernel.  The reduced row echelon form of a row space is
unique, so every entry point must agree with it (or with sympy) exactly, on
random rational matrices of every shape: empty, wide, tall, with zero and
repeated rows, and with large numerators and denominators.  Matrices are
drawn dense and handed to the kernel as sparse rows or columns; each test
keeps the name of the concept it checks (row echelon form, null space,
solving, row-space membership) under its sparse entry point.  ``apply``,
the forward product, is checked against the dense product and against
``kernel`` and ``preimage``.
"""

from fractions import Fraction

from hypothesis import given, strategies as st

from nilforms.linalg import (
    apply,
    echelon,
    kernel,
    preimage,
    reduce,
    span_rank,
    unit_rows,
)

from oracles import as_fraction, reference_rref, sympy_shaped

ENTRIES = st.one_of(
    st.just(Fraction(0)),
    st.integers(-3, 3).map(Fraction),
    st.builds(Fraction, st.integers(-10**20, 10**20), st.integers(1, 10**20)),
)


@st.composite
def matrices(draw):
    """(rows, ncols), with some rows made zero or a combination of others."""
    nrows = draw(st.integers(0, 6))
    ncols = draw(st.integers(0, 6))
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


def sparse(row):
    return {c: v for c, v in enumerate(row) if v}


def dense(vec, ncols):
    return [vec.get(c, Fraction(0)) for c in range(ncols)]


def columns_of(rows, ncols):
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(ncols)]


@given(matrices())
def test_rref_equals_the_reference(matrix):
    rows, ncols = matrix
    basis = echelon(map(sparse, rows))
    reduced = [dense(row, ncols) for row in unit_rows(basis)]
    assert (reduced, list(basis)) == reference_rref(rows, ncols)
    expected, pivots = sympy_shaped(rows, ncols).rref()
    assert list(basis) == list(pivots)
    assert reduced == [[as_fraction(expected[r, c]) for c in range(ncols)]
                       for r in range(len(pivots))]


@given(matrices())
def test_nullspace_equals_sympy(matrix):
    rows, ncols = matrix
    reference = sympy_shaped(rows, ncols)
    assert span_rank(list(map(sparse, rows))) == reference.rank()
    expected = [[as_fraction(v) for v in vec] for vec in reference.nullspace()]
    assert [dense(vec, ncols) for vec in kernel(columns_of(rows, ncols))] == expected


NONZERO = st.one_of(st.integers(-3, 3),
                    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))).filter(bool)


@st.composite
def peelable(draw):
    """(vectors, ncols): sparse int and Fraction vectors, some entries an
    explicit zero, with singleton vectors, singleton coordinates, zero
    vectors and repeated vectors planted among them, in any order."""
    ncols = draw(st.integers(1, 5))
    entry = st.one_of(st.just(0), NONZERO)
    vectors = [{c: draw(entry) for c in draw(st.sets(st.integers(0, ncols - 1)))}
               for _ in range(draw(st.integers(0, 5)))]
    for kind in draw(st.lists(st.sampled_from(("row", "column", "zero", "repeat")),
                              max_size=6)):
        if kind == "row":
            vectors.append({draw(st.integers(0, ncols - 1)): draw(NONZERO)})
        elif kind == "column" and vectors:
            draw(st.sampled_from(vectors))[ncols] = draw(NONZERO)
            ncols += 1
        elif kind == "zero":
            vectors.append(dict(draw(st.sampled_from(({}, {0: 0})))))
        elif kind == "repeat" and vectors:
            scale = draw(NONZERO)
            original = draw(st.sampled_from(vectors))
            vectors.append({c: scale * v for c, v in original.items()})
    return draw(st.permutations(vectors)), ncols


@given(peelable())
def test_peeled_rank_equals_sympy(matrix):
    vectors, ncols = matrix
    rows = [dense(vec, ncols) for vec in vectors]
    transposed = [{r: vec[c] for r, vec in enumerate(vectors) if vec.get(c)}
                  for c in range(ncols)]
    expected = sympy_shaped(rows, ncols).rank()
    assert span_rank(vectors) == span_rank(transposed) == expected


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
    solution = preimage(columns_of(rows, ncols), sparse(rhs))
    assert (solution if solution is None else dense(solution, ncols)) == expected


@given(matrices(), st.data())
def test_in_row_space_equals_a_rank_test(matrix, data):
    rows, ncols = matrix
    row_sum = [sum((row[c] for row in rows), Fraction(0)) for c in range(ncols)]
    vector = data.draw(st.one_of(st.lists(ENTRIES, min_size=ncols, max_size=ncols),
                                 st.just(row_sum)))
    basis = echelon(map(sparse, rows))
    expected = sympy_shaped(rows + [vector], ncols).rank() == len(basis)
    assert (not reduce(sparse(vector), basis)) == expected


@given(matrices(), st.data())
def test_apply_equals_the_dense_product(matrix, data):
    rows, ncols = matrix
    vector = data.draw(st.lists(ENTRIES, min_size=ncols, max_size=ncols))
    product = [sum((a * x for a, x in zip(row, vector)), Fraction(0)) for row in rows]
    # zero entries of the vector, and cancelling sums, leave no entry behind
    assert apply(columns_of(rows, ncols), dict(enumerate(vector))) == sparse(product)


@given(matrices(), st.data())
def test_apply_inverts_kernel_and_preimage(matrix, data):
    rows, ncols = matrix
    columns = columns_of(rows, ncols)
    assert all(apply(columns, vector) == {} for vector in kernel(columns))
    target = sparse(data.draw(st.one_of(
        st.lists(ENTRIES, min_size=len(rows), max_size=len(rows)),
        st.just([sum(row, Fraction(0)) for row in rows]))))
    solution = preimage(columns, target)
    assert solution is None or apply(columns, solution) == target
