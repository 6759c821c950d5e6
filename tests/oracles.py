"""Independent recomputation routes for the test suite.

Everything here deliberately avoids the library's own wedge/d/Pfaffian
code paths: forms are evaluated on vectors through permutation expansions,
the differential through the invariant Koszul formula, wedges through
shuffle sums, determinants and ranks through sympy.  Agreement between
these routes and the library is the point of the tests that import them.
"""

import itertools
from fractions import Fraction

import sympy


def basis_vector(dim, i):
    return tuple(Fraction(1) if t == i - 1 else Fraction(0) for t in range(dim))


def perm_sign(perm):
    inversions = sum(
        1 for a in range(len(perm)) for b in range(a + 1, len(perm))
        if perm[a] > perm[b])
    return -1 if inversions % 2 else 1


def eval_form(form, vectors):
    """form(v_1, ..., v_k) by expanding each monomial as a permutation sum.

    x_{j_1}^...^x_{j_k} applied to (v_1..v_k) is det[v_b[j_a - 1]].
    """
    k = form.degree
    if len(vectors) != k:
        raise ValueError("argument count must match the degree")
    total = Fraction(0)
    for mono, coeff in form.terms():
        det = Fraction(0)
        for perm in itertools.permutations(range(k)):
            product = Fraction(coeff) * perm_sign(perm)
            for a in range(k):
                product *= vectors[perm[a]][mono[a] - 1]
            det += product
        total += det
    return total


def eval_on_basis(form, indices):
    return eval_form(form, [basis_vector(form.algebra.dim, i) for i in indices])


def koszul_d_eval(algebra, form, indices):
    """(d form)(X_{i_0}, ..., X_{i_k}) straight from the Koszul formula:

        sum_{a<b} (-1)^(a+b) form([X_a, X_b], ..., no a, no b, ...)

    For degree 1 this is -form([X, Y]), the module's sign convention.
    """
    n = algebra.dim
    total = Fraction(0)
    for a in range(len(indices)):
        for b in range(a + 1, len(indices)):
            rest = [indices[t] for t in range(len(indices)) if t not in (a, b)]
            vectors = [algebra.bracket(indices[a], indices[b])]
            vectors += [basis_vector(n, i) for i in rest]
            sign = -1 if (a + b) % 2 else 1
            total += sign * eval_form(form, vectors)
    return total


def shuffle_wedge_eval(a, b, indices):
    """(a ^ b)(X_I) as a sum over (p, q)-shuffles of I."""
    p, q = a.degree, b.degree
    if len(indices) != p + q:
        raise ValueError("index count must be p + q")
    n = a.algebra.dim
    total = Fraction(0)
    for left in itertools.combinations(range(p + q), p):
        right = tuple(t for t in range(p + q) if t not in left)
        sign = perm_sign(left + right)
        total += (sign
                  * eval_form(a, [basis_vector(n, indices[t]) for t in left])
                  * eval_form(b, [basis_vector(n, indices[t]) for t in right]))
    return total


def jacobiator(algebra, i, j, k):
    """[[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j] componentwise."""
    n = algebra.dim
    vi, vj, vk = (basis_vector(n, t) for t in (i, j, k))
    bv = algebra.bracket_vectors
    terms = (bv(bv(vi, vj), vk), bv(bv(vj, vk), vi), bv(bv(vk, vi), vj))
    return tuple(sum(t[r] for t in terms) for r in range(n))


def sympy_matrix(rows):
    return sympy.Matrix([[sympy.Rational(v) for v in row] for row in rows])


def sympy_rank(rows, ncols):
    if not rows:
        return 0
    return sympy_matrix(rows).rank() if ncols else 0


def d_matrix_by_koszul(algebra, k, theta=None):
    """Matrix of d (or d_theta) on degree k, all entries via the oracles.

    Rows are indexed by (k+1)-monomials, columns by k-monomials, both in the
    library's lex order so the result is directly comparable.
    """
    domain = algebra.monomials(k)
    codomain = algebra.monomials(k + 1)
    rows = []
    for target in codomain:
        row = []
        for mono in domain:
            source = algebra.basis_form(*mono)
            value = koszul_d_eval(algebra, source, list(target))
            if theta is not None:
                value -= shuffle_wedge_eval(theta, source, list(target))
            row.append(value)
        rows.append(row)
    return rows, domain, codomain


def betti_by_koszul(algebra, theta=None):
    """Betti numbers from oracle differentials and sympy ranks only."""
    n = algebra.dim
    ranks = []
    for k in range(n):
        rows, domain, _ = d_matrix_by_koszul(algebra, k, theta)
        ranks.append(sympy_rank(rows, len(domain)))
    ranks.append(0)
    out = []
    for k in range(n + 1):
        dim_k = len(algebra.monomials(k))
        below = ranks[k - 1] if k else 0
        out.append(dim_k - ranks[k] - below)
    return tuple(out)


def sympy_pfaffian_squared_is_det(matrix_rows, pf):
    mat = sympy_matrix(matrix_rows)
    return sympy.Rational(pf) ** 2 == mat.det()


def reference_rref(rows, ncols=None):
    """Reduced row echelon form by dense Fraction row reduction.

    The elimination the library used before its sparse integer kernel, kept
    as the reference that kernel is compared against: columns left to right,
    the first row with a nonzero entry becomes the pivot row, every other row
    is cleared in that column.  Returns ``(reduced_rows, pivot_columns)``.
    """
    work = [[Fraction(v) for v in row] for row in rows]
    if ncols is None:
        ncols = len(work[0]) if work else 0
    for row in work:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    pivots = []
    pivot_row = 0
    for col in range(ncols):
        src = next((r for r in range(pivot_row, len(work)) if work[r][col] != 0), None)
        if src is None:
            continue
        work[pivot_row], work[src] = work[src], work[pivot_row]
        inv = 1 / work[pivot_row][col]
        work[pivot_row] = [x * inv for x in work[pivot_row]]
        prow = work[pivot_row]
        for r in range(len(work)):
            if r != pivot_row and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], prow)]
        pivots.append(col)
        pivot_row += 1
        if pivot_row == len(work):
            break
    return work[: len(pivots)], pivots


def sympy_shaped(rows, ncols):
    """A sympy matrix of the given column count, zero rows allowed."""
    return sympy.Matrix(len(rows), ncols,
                        [sympy.Rational(v.numerator, v.denominator)
                         for row in rows for v in map(Fraction, row)])


def as_fraction(value):
    """A sympy rational as a Fraction."""
    value = sympy.Rational(value)
    return Fraction(int(value.p), int(value.q))
