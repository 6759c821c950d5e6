"""Exact linear algebra over the rationals: one sparse, fraction-free kernel.

Inside the kernel a row is a sparse dict ``{column: int}``.  Rows enter with
their denominators cleared and are kept divided by the gcd of their entries,
so elimination never builds a ``Fraction``: clearing column ``p`` of a row
``v`` with the pivot row ``b`` is the fraction-free step

    v  <-  v * (b[p] / g) - b * (v[p] / g),    g = gcd(v[p], b[p])

of Bareiss (Math. Comp. 22, 1968), with the row divided by the gcd of its
entries afterwards in place of Bareiss's exact division.  A row's pivot is its
first nonzero column, and back-substitution leaves the reduced row echelon
form.  Values become ``Fraction`` only at the output boundary, as
``row[c] / row[pivot]``; where an exact value is needed mid-way (``reduce``,
``det``) the kernel carries the row's common denominator beside it.

The reduced row echelon form of a row space is unique.  So neither the order
in which rows are eliminated nor the integer scale of a row can change what
leaves this module: echelon bases, kernel bases (one vector per free column,
free coordinate 1), particular solutions (free variables 0) and every
representative chosen from them downstream are the same on every run and
platform, and the same as any other exact elimination under this column
order would give.

Sparse entry points: ``echelon`` (a basis of the span of some rows),
``reduce`` (a vector modulo such a basis), ``kernel`` and ``preimage`` (of a
linear map given by its sparse columns, ``columns[c]`` the image of the c-th
basis vector).  Their inputs may hold ints or Fractions.  ``rref``, ``rank``,
``nullspace``, ``solve``, ``det``, ``invert`` and ``in_row_space`` are thin
adapters for dense matrices: plain lists of lists of rationals, which may
have zero rows, so ``ncols`` is passed explicitly where it cannot be
inferred.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .scalars import ZERO, ONE, as_scalar

# -- the kernel: sparse integer rows -----------------------------------------


def _integral(row):
    """``(ints, den)`` with ``row == ints / den``, zero entries dropped."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}, den


def _primitive(vec):
    """``vec`` divided by the gcd of its entries, first entry positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return vec if g == 1 else {c: v // g for c, v in vec.items()}


def _reduce(vec, basis, den=1):
    """Clear every pivot column of ``basis`` (pivot entries positive) from
    the integer row ``vec``.

    Exact: returns ``(vec', den')`` with ``vec' / den'`` equal to
    ``vec / den`` minus a combination of basis rows.  Columns are cleared in
    increasing order; a basis row has no entry left of its pivot, so a
    cleared column stays clear.
    """
    vec = dict(vec)
    done = -1
    while True:
        p = min((c for c in vec if c > done and c in basis), default=None)
        if p is None:
            return vec, den
        row = basis[p]
        g = gcd(vec[p], row[p])
        a, b = vec[p] // g, row[p] // g
        if b != 1:
            vec = {c: v * b for c, v in vec.items()}
            den *= b
        for c, r in row.items():
            v = vec.get(c, 0) - a * r
            if v:
                vec[c] = v
            else:
                del vec[c]
        g = gcd(den, *vec.values())
        if g != 1:
            vec = {c: v // g for c, v in vec.items()}
            den //= g
        done = p


def echelon(rows, modulo=None):
    """Reduced row echelon basis of the span of sparse rational ``rows``.

    Returns ``{pivot column: primitive integer row}`` in increasing pivot
    order, pivot entries positive, zero rows dropped; the row ``r`` with
    pivot ``p`` stands for the canonical row ``r / r[p]``.  With ``modulo``
    (another such basis) the rows are first reduced modulo its span, giving
    the canonical basis of their image in the quotient.
    """
    basis = {}
    for row in rows:
        vec, _ = _integral(row)
        if modulo:
            vec, _ = _reduce(vec, modulo)
        vec, _ = _reduce(vec, basis)
        if vec:
            basis[min(vec)] = _primitive(vec)
    # back-substitution, newest row first: each row is reduced by rows that
    # are already clear of every pivot but their own
    for p in reversed(list(basis)):
        row = basis.pop(p)
        basis[p] = _primitive(_reduce(row, basis)[0])
    return dict(sorted(basis.items()))


def unit_rows(basis):
    """The canonical rows of an ``echelon`` basis, pivot entries 1, as
    sparse ``{column: Fraction}``."""
    return [{c: Fraction(v, row[p]) for c, v in sorted(row.items())}
            for p, row in basis.items()]


def reduce(vector, basis):
    """The sparse rational ``vector`` modulo the span of an ``echelon``
    basis: the unique representative that vanishes on every pivot column."""
    vec, den = _integral(vector)
    vec, den = _reduce(vec, basis, den)
    return {c: Fraction(v, den) for c, v in sorted(vec.items())}


def _rows(columns):
    """The rows of a map given by sparse columns (empty rows omitted)."""
    rows = {}
    for c, column in enumerate(columns):
        for r, v in column.items():
            rows.setdefault(r, {})[c] = v
    return list(rows.values())


def kernel(columns):
    """Kernel basis of the map whose c-th column is ``columns[c]``.

    One sparse vector ``{column: Fraction}`` per free column, in increasing
    order: the free coordinate is 1, the other free coordinates 0, and the
    pivot coordinates are back-filled from the echelon form.
    """
    basis = echelon(_rows(columns))
    vectors = {f: {f: ONE} for f in range(len(columns)) if f not in basis}
    for p, row in basis.items():
        for c, v in row.items():
            if c != p:
                vectors[c][p] = Fraction(-v, row[p])
    return [dict(sorted(vec.items())) for vec in vectors.values()]


def preimage(columns, target):
    """One sparse ``x`` with ``sum(x[c] * columns[c]) == target``, or None.

    Free coordinates are 0, so ``x`` is the echelon solution with minimal
    support under the column order.
    """
    n = len(columns)
    basis = echelon(_rows([*columns, target]))
    if n in basis:
        return None
    return {p: Fraction(row[n], row[p]) for p, row in basis.items() if n in row}


# -- dense adapters ------------------------------------------------------------


def _sparse(row):
    return {c: v for c, v in enumerate(map(as_scalar, row)) if v}


def _dense(vec, ncols):
    out = [ZERO] * ncols
    for c, v in vec.items():
        out[c] = v
    return out


def _checked(rows, ncols):
    rows = list(rows)
    if ncols is None:
        ncols = len(rows[0]) if rows else 0
    if any(len(row) != ncols for row in rows):
        raise ValueError("ragged matrix")
    return rows, ncols


def _columns(rows, ncols):
    columns = [{} for _ in range(ncols)]
    for r, row in enumerate(rows):
        for c, v in _sparse(row).items():
            columns[c][r] = v
    return columns


def rref(rows, ncols=None):
    """Reduced row echelon form.

    Returns ``(reduced_rows, pivot_columns)`` with zero rows dropped.
    ``reduced_rows`` is a canonical basis of the row space.
    """
    rows, ncols = _checked(rows, ncols)
    basis = echelon([_sparse(row) for row in rows])
    return [_dense(row, ncols) for row in unit_rows(basis)], list(basis)


def rank(rows, ncols=None):
    rows, ncols = _checked(rows, ncols)
    return len(echelon([_sparse(row) for row in rows]))


def nullspace(rows, ncols):
    """Deterministic kernel basis of the linear map given by ``rows``.

    One basis vector per free column, in increasing column order; the free
    coordinate is set to 1 and pivot coordinates are back-filled from rref.
    """
    rows, ncols = _checked(rows, ncols)
    return [_dense(vec, ncols) for vec in kernel(_columns(rows, ncols))]


def solve(rows, rhs, ncols=None):
    """One particular solution of ``rows @ x = rhs`` or None if inconsistent.

    Deterministic: free variables are set to zero, so the result is the
    echelon solution with minimal support under the column order.
    """
    rows, ncols = _checked(rows, ncols)
    rhs = [as_scalar(v) for v in rhs]
    if len(rhs) != len(rows):
        raise ValueError("rhs length does not match row count")
    solution = preimage(_columns(rows, ncols), _sparse(rhs))
    return None if solution is None else _dense(solution, ncols)


def det(rows):
    """Determinant by exact elimination (square matrices only).

    Each row is reduced by the rows before it, which leaves the determinant
    alone; the reduced rows lead on distinct columns, so the determinant is
    the product of their leading entries, signed by the order of those
    columns.
    """
    rows = list(rows)
    n = len(rows)
    if any(len(row) != n for row in rows):
        raise ValueError("determinant needs a square matrix")
    basis = {}
    value = ONE
    for row in rows:
        vec, den = _integral(_sparse(row))
        vec, den = _reduce(vec, basis, den)
        if not vec:
            return ZERO
        p = min(vec)
        value *= Fraction(vec[p], den)
        basis[p] = _primitive(vec)
    leading = list(basis)
    inversions = sum(1 for i in range(n) for j in range(i + 1, n)
                     if leading[i] > leading[j])
    return -value if inversions % 2 else value


def invert(rows):
    """Exact inverse; raises ValueError on singular input."""
    rows, n = _checked(rows, len(rows))
    basis = echelon([{**_sparse(row), n + i: ONE} for i, row in enumerate(rows)])
    if list(basis) != list(range(n)):
        raise ValueError("matrix is singular")
    return [_dense({c - n: v for c, v in row.items() if c >= n}, n)
            for row in unit_rows(basis)]


def in_row_space(basis_rref, pivots, vector):
    """Membership test against an rref basis and its pivot columns."""
    basis = {p: _integral(_sparse(row))[0] for row, p in zip(basis_rref, pivots)}
    return not _reduce(_integral(_sparse(vector))[0], basis)[0]


def mat_vec(rows, vec):
    return [sum((row[k] * vec[k] for k in range(len(vec))), ZERO) for row in rows]
