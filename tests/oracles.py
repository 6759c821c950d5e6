"""Independent recomputation routes for the test suite.

Everything here deliberately avoids the library's own wedge/d/Pfaffian
code paths: forms are evaluated on vectors through permutation expansions,
the differential through the invariant Koszul formula, wedges through
shuffle sums, determinants and ranks through sympy.  Agreement between
these routes and the library is the point of the tests that import them.
"""

import functools
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


def bracket_vectors(algebra, v, w):
    """[v, w] for coefficient vectors, by bilinearity over the structure
    constants."""
    out = [Fraction(0)] * algebra.dim
    for (i, j, k), coeff in algebra.constants.items():
        out[k - 1] += coeff * (v[i - 1] * w[j - 1] - v[j - 1] * w[i - 1])
    return tuple(out)


def jacobiator(algebra, i, j, k):
    """[[X_i,X_j],X_k] + [[X_j,X_k],X_i] + [[X_k,X_i],X_j] componentwise."""
    n = algebra.dim
    vi, vj, vk = (basis_vector(n, t) for t in (i, j, k))
    bv = functools.partial(bracket_vectors, algebra)
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


def gysin_betti(algebra):
    """Betti numbers along the central tower, for an algebra in Salamon's
    order (every [X_i, X_j] with i < j in the span of the X_k with k > j);
    any other order raises ValueError.

    X_n is then central, and g is the central extension of h = g/<X_n>, the
    algebra on the constants with k < n, by the 2-cocycle sigma = dx_n read
    on h.  The Gysin sequence of the extension (Hochschild-Serre, Ann. of
    Math. 57, 1953) gives

        b_k(g) = b_k(h) - r_{k-2} + b_{k-1}(h) - r_{k-1},

    with r_j the rank of the cup product with [sigma] from H^j(h) to
    H^{j+2}(h), 0 when dx_n = 0.  Only h's cohomology spaces are built, and
    r_j is read through public API: each representative of H^j(h) wedged
    with sigma and reduced in H^{j+2}(h), and the span rank of those
    coordinates.  Nothing is computed on g itself, so a fault of the
    differential moves the two sides by different amounts.
    """
    from nilforms import LieAlgebra, cohomology_space, wedge
    from nilforms.linalg import span_rank

    if any(not i < j < k for i, j, k in algebra.constants):
        raise ValueError("gysin_betti needs the structure constants in Salamon's order")
    n = algebra.dim
    if n == 0:
        return (1,)
    h = LieAlgebra(n - 1, {key: c for key, c in algebra.constants.items() if key[2] < n})
    dx_n = algebra.dx(n).coeffs
    sigma = h.form(dx_n) if dx_n else None
    spaces = [cohomology_space(h, j) for j in range(n)]

    def rank(j):
        if sigma is None or not 0 <= j <= n - 3:
            return 0
        target = spaces[j + 2]
        return span_rank([dict(enumerate(target.reduce(wedge(rep, sigma))))
                          for rep in spaces[j].representative_basis])

    betti = [0, *(space.betti for space in spaces), 0]  # b_{-1}(h) = b_n(h) = 0
    return tuple(betti[k + 1] - rank(k - 2) + betti[k] - rank(k - 1)
                 for k in range(n + 1))


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


def change_basis(algebra, matrix):
    """The same algebra on the basis Y_c = sum_r P[r][c] X_r, for the
    invertible rational matrix P = ``matrix``.

    [Y_a, Y_b] = sum P[r][a] P[s][b] [X_r, X_s] is written back in the Y
    basis through sympy's P^-1.  The bracket is bilinear, so this holds
    whichever sign convention the structure constants follow.  The coframe
    transforms by P^-1: x_r = sum_c P[r][c] y_c, so the closed covectors of
    the new algebra are the rows of P at the closed x_r.
    """
    from nilforms import LieAlgebra

    n = algebra.dim
    p = [[Fraction(v) for v in row] for row in matrix]
    inverse = sympy_matrix(p).inv()
    q = [[as_fraction(inverse[r, c]) for c in range(n)] for r in range(n)]
    constants = {}
    for a in range(n):
        for b in range(a + 1, n):
            image = [Fraction(0)] * n
            for (i, j, k), coeff in algebra.constants.items():
                i, j = i - 1, j - 1
                image[k - 1] += (p[i][a] * p[j][b] - p[j][a] * p[i][b]) * coeff
            for l in range(n):
                value = sum(q[l][k] * image[k] for k in range(n))
                if value:
                    constants[(a + 1, b + 1, l + 1)] = value
    return LieAlgebra(n, constants)


def reference_find_lcs(algebra, config):
    """``find_lcs`` as it was before its nilpotent shortcut.

    The per-candidate loop, kept as the reference the per-covector
    shortcut is compared against: every candidate theta from
    ``theta_candidates`` is decided on its own, the d_theta-closed 2-forms by
    the sparse kernel and nondegeneracy by a symbolic Pfaffian over them.
    """
    from nilforms import linalg
    from nilforms.cohomology import _d_matrix, _form
    from nilforms.structures import (
        LcsSearchResult,
        check_lcs,
        find_symplectic,
        nondegenerate_in_span,
        theta_candidates,
    )

    examined = 0
    capped = False
    witness = verdict = None
    genuine_witness = genuine_verdict = None
    for theta in theta_candidates(algebra, config):
        if config.max_candidates is not None and examined >= config.max_candidates:
            capped = True
            break
        examined += 1

        if theta.is_zero:
            omega = find_symplectic(algebra)
        else:
            span = [_form(algebra, 2, algebra.monomials(2), vec)
                    for vec in linalg.kernel(_d_matrix(algebra, 2, theta))]
            omega = nondegenerate_in_span(algebra, span)

        if omega is None:
            continue
        this_verdict = check_lcs(algebra, omega, theta)
        if not this_verdict.holds:
            raise AssertionError("search produced a pair that fails its own verdict")
        if witness is None:
            witness, verdict = (omega, theta), this_verdict
        if this_verdict.genuine:
            genuine_witness, genuine_verdict = (omega, theta), this_verdict
            break

    return LcsSearchResult(
        height=config.height,
        examined=examined,
        capped=capped,
        witness=witness,
        verdict=verdict,
        genuine_witness=genuine_witness,
        genuine_verdict=genuine_verdict,
    )


def reference_pairing(metric, v, w):
    """g(v, w) on coefficient vectors, as the dense double sum over the
    Gram matrix."""
    n = metric.dim
    return sum((v[i] * metric.matrix[i][j] * w[j] for i in range(n) if v[i]
                for j in range(n) if w[j]), Fraction(0))


def reference_koszul_table(algebra, metric):
    """The Levi-Civita connection of an invariant metric on basis pairs:
    ``table[(i, j)]`` is the coefficient vector of nabla_{X_i} X_j, solved
    from the invariant Koszul identity

        2 g(nabla_i X_j, X_l) =
            g([X_i, X_j], X_l) - g([X_j, X_l], X_i) + g([X_l, X_i], X_j).

    Every g([X_i, X_j], X_l) is a dense ``reference_pairing`` of a bracket
    with a basis vector, and the solve multiplies by the inverse Gram
    matrix, here taken from sympy.
    """
    n = algebra.dim
    inverse = sympy_matrix(metric.matrix).inv()

    def g_bracket(i, j, l):
        return reference_pairing(metric, algebra.bracket(i, j), basis_vector(n, l))

    table = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = [(g_bracket(i, j, l) - g_bracket(j, l, i) + g_bracket(l, i, j)) / 2
                   for l in range(1, n + 1)]
            table[(i, j)] = tuple(
                sum((as_fraction(inverse[r, k]) * rhs[k] for k in range(n)), Fraction(0))
                for r in range(n))
    return table


def reference_lee_parallel(table, theta):
    """Whether theta is parallel, as the classifier decided it before it
    read parallelism off the structure constants: a constant 1-form is
    parallel iff it kills every nabla_{X_i} X_j of the Levi-Civita
    ``table`` from ``reference_koszul_table``."""
    covector = [theta.coefficient((k,)) for k in range(1, theta.algebra.dim + 1)]
    return all(sum((a * b for a, b in zip(vector, covector)), Fraction(0)) == 0
               for vector in table.values())


def reference_fundamental_form(metric, matrix):
    """``fundamental_form``'s terms by dense sympy products, or None when
    the pair is not compatible: J^T G J must equal G, and then
    w_ij = g(J X_i, X_j) = (J^T G)_ij, kept for i < j where nonzero."""
    gram, j = sympy_matrix(metric.matrix), sympy_matrix(matrix)
    if j.T * gram * j != gram:
        return None
    w = j.T * gram
    n = metric.dim
    return {(a + 1, b + 1): as_fraction(w[a, b])
            for a in range(n) for b in range(a + 1, n) if w[a, b] != 0}


def reference_nijenhuis(algebra, matrix):
    """``nijenhuis`` components as they were computed before they were read
    off J's sparse columns: J applied as a dense matrix to the dense
    brackets of unit vectors,

        N(X_i, X_j) = [JX_i, JX_j] - J[JX_i, X_j] - J[X_i, JX_j] - [X_i, X_j].
    """
    n = algebra.dim
    bv = functools.partial(bracket_vectors, algebra)

    def apply(vector):
        return tuple(sum((Fraction(matrix[r][c]) * vector[c] for c in range(n)),
                         Fraction(0)) for r in range(n))

    components = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xi, xj = basis_vector(n, i), basis_vector(n, j)
            jxi, jxj = apply(xi), apply(xj)
            components[(i, j)] = tuple(
                a - b - c - d for a, b, c, d in zip(
                    bv(jxi, jxj), apply(bv(jxi, xj)), apply(bv(xi, jxj)), bv(xi, xj)))
    return components


def reference_nonzero_point(poly):
    """``polynomials.nonzero_point`` as it was before it fixed a variable in
    one walk over the terms: each value is tried by ``Poly.substitute``,
    which rebuilds every term from Poly products and powers."""
    from nilforms.errors import InvalidParameter

    if poly.is_zero:
        raise InvalidParameter("the zero polynomial has no nonzero point")
    bound = poly.total_degree()
    point = []
    current = poly
    for index in range(poly.nvars):
        chosen = None
        for candidate in range(bound + 1):
            attempt = current.substitute({index: Fraction(candidate)})
            if not attempt.is_zero:
                chosen = candidate
                current = attempt
                break
        if chosen is None:
            raise InvalidParameter("no nonzero point found; polynomial was zero?")
        point.append(Fraction(chosen))
    return tuple(point)


def reference_symbolic_pfaffian(dim, nvars, contributions):
    """``structures._symbolic_pfaffian`` from the textbook recursion alone,
    sharing no code with it: Pf(A) = sum_j (-1)^j a_{1j} Pf(A minus rows
    and columns 1 and j), j = 2..m counted inside the current index list,
    expanded afresh at every level (no memo, no packed exponents) on
    ``Poly`` entries whose coefficients are all ``Fraction``s.  With
    ``nvars = 0`` its constant term is the numeric Pfaffian."""
    from nilforms.polynomials import Poly

    table = {}
    for pair, expo, coeff in contributions:
        if coeff:
            table.setdefault(pair, {})[expo] = Fraction(coeff)
    entries = {pair: Poly(nvars, terms) for pair, terms in table.items()}

    def pf(indices):
        if not indices:
            return Poly.constant(nvars, 1)
        total = Poly(nvars, {})
        first = indices[0]
        for j in range(2, len(indices) + 1):
            entry = entries.get((first, indices[j - 1]))
            if entry is not None:
                minor = pf(indices[1:j - 1] + indices[j:])
                total = total + (-1) ** j * entry * minor
        return total

    return pf(tuple(range(1, dim + 1)))


def _twisted_exact_pfaffian(algebra, covectors):
    """Pf(d eta - theta ^ eta) as one Poly in (t_1..t_m, a_1..a_n), where
    theta = sum t_i covectors[i] and eta = sum a_j x_j, each covector given
    by its terms ``{(k,): beta}``.

    Dixmier (Acta Sci. Math. Szeged 16, 1955): on a nilpotent algebra every
    twisted cohomology group H*_theta vanishes for closed theta != 0, so each
    d_theta-closed 2-form is some d eta - theta ^ eta.  With
    the closed covectors passed in, this polynomial vanishing identically
    therefore rules out a nondegenerate d_theta-closed 2-form for every
    closed theta != 0 at once.  ``find_lcs`` once expanded it; the tests
    keep it as the polynomial each ``structures._lee_pfaffian`` is read
    against.
    """
    from nilforms import structures

    n, m = algebra.dim, len(covectors)
    terms = [[(k, beta) for (k,), beta in covector.items()] for covector in covectors]
    family = []
    for j in range(1, n + 1):
        # d eta = sum a_j dx_j, and -theta ^ eta = sum -t_i a_j (beta x_k ^ x_j)
        # over the terms beta x_k of each b_i
        a = m + j - 1
        family.append(((a,), algebra._dx[j]))
        for i, covector in enumerate(terms):
            entry = {}
            for k, beta in covector:
                if k < j:
                    entry[k, j] = -beta
                elif k > j:
                    entry[j, k] = beta
            family.append(((i, a), entry))
    return structures._symbolic_pfaffian(n, m + n, family)


def _gram_minors(metric):
    """The induced Gram entry <x_I, x_J> as a function of two increasing
    monomials: the minor of g^-1 on rows I and columns J, from sympy's
    inverse and determinants."""
    inverse = sympy_matrix(metric.matrix).inv()

    def minor(left, right):
        if not left:
            return Fraction(1)
        return as_fraction(inverse.extract([a - 1 for a in left],
                                           [b - 1 for b in right]).det())
    return minor


def reference_star_raw(algebra, metric, form):
    """The unnormalized Hodge star, the honest star divided by sqrt(det g),
    so it stays rational: for every k-subset S, the value sum_I a_I
    <x_S, x_I> goes to the complement of S, signed by the inversions of the
    shuffle (S, S^c).  Then a ^ star_raw(b) = <a, b> x_1 ^ ... ^ x_n."""
    from nilforms import KForm

    n, k = algebra.dim, form.degree
    minor = _gram_minors(metric)
    terms = {}
    for subset in itertools.combinations(range(1, n + 1), k):
        value = sum((c * minor(subset, mono) for mono, c in form.terms()), Fraction(0))
        if value == 0:
            continue
        comp = tuple(i for i in range(1, n + 1) if i not in subset)
        inversions = sum(1 for a in subset for b in comp if a > b)
        terms[comp] = -value if inversions % 2 else value
    return KForm(algebra, n - k, terms, _normalized=True)


def reference_form_pairing(metric, a, b):
    """The inner product g induces on k-forms: sum over term pairs of
    a_I b_J <x_I, x_J>, each Gram entry a sympy determinant (degrees are
    assumed equal)."""
    minor = _gram_minors(metric)
    return sum((ca * cb * minor(left, right)
                for left, ca in a.terms() for right, cb in b.terms()), Fraction(0))


def reference_codifferential(algebra, metric, form):
    """delta = (-1)^(n(k+1)+1) det(g) star_raw d star_raw, the formal adjoint
    of d on unimodular algebras; rational, as the two volume factors the raw
    stars leave out multiply to det(g).  d comes from ``koszul_d_eval``."""
    from nilforms import KForm

    n, k = algebra.dim, form.degree
    if k == 0:
        return algebra.zero_form(0)
    inner = reference_star_raw(algebra, metric, form)
    d_inner = KForm(algebra, n - k + 1, {
        mono: koszul_d_eval(algebra, inner, list(mono))
        for mono in itertools.combinations(range(1, n + 1), n - k + 1)})
    scale = as_fraction(sympy_matrix(metric.matrix).det()) * (-1) ** (n * (k + 1) + 1)
    return reference_star_raw(algebra, metric, d_inner).scale(scale)


def reference_lee_form(algebra, metric, matrix):
    """The metric route to the Lee form of a compatible pair (g, J) on
    dimension 2m: theta(X) = -(1/(m-1)) * (delta w)(JX), w(X, Y) = g(JX, Y)."""
    from nilforms import KForm

    n = algebra.dim
    delta = reference_codifferential(
        algebra, metric, KForm(algebra, 2, reference_fundamental_form(metric, matrix)))
    return KForm(algebra, 1, {
        (i,): Fraction(-1, n // 2 - 1)
        * eval_form(delta, [tuple(Fraction(row[i - 1]) for row in matrix)])
        for i in range(1, n + 1)})


def direct_sum(left, right):
    """Block-diagonal direct sum of two algebras; right-hand indices are
    shifted by left.dim."""
    from nilforms import LieAlgebra

    shift = left.dim
    constants = dict(left.constants)
    for (i, j, k), coeff in right.constants.items():
        constants[(i + shift, j + shift, k + shift)] = coeff
    return LieAlgebra(left.dim + right.dim, constants)


def skew_matrix(omega):
    """The coefficient matrix of a 2-form: A[i][j] = omega(X_{i+1}, X_{j+1})."""
    n = omega.algebra.dim
    rows = [[Fraction(0)] * n for _ in range(n)]
    for (i, j), coeff in omega.coeffs.items():
        rows[i - 1][j - 1] = coeff
        rows[j - 1][i - 1] = -coeff
    return rows


def reference_triple_massey(algebra, a, b, c):
    """``triple_massey`` as it was before the cup table.

    Every cup is a reduction of a wedge of representatives in H^2: the two
    precondition checks are ``class_of`` on a ^ b and b ^ c, and the
    indeterminacy a H^1 + H^1 c is spanned by the reductions of a ^ h and
    h ^ c over H^1's representatives h.  Kept as the reference the table's
    bilinear reading is compared against.
    """
    from nilforms import linalg
    from nilforms.cohomology import (
        CohomologyClass,
        MasseyResult,
        _primitive,
        cohomology_space,
    )
    from nilforms.errors import (
        AmbientMismatch,
        CupObstruction,
        InternalInvariantBreach,
        InvalidParameter,
    )
    from nilforms.exterior_core import KForm, ce_d, wedge
    from nilforms.scalars import ZERO

    lifted = []
    for name, cls in (("a", a), ("b", b), ("c", c)):
        if isinstance(cls, KForm):
            cls = cohomology_space(cls.algebra, 1).class_of(cls)
        if not isinstance(cls, CohomologyClass):
            raise InvalidParameter(f"{name} must be a CohomologyClass or closed 1-form")
        if cls.space.algebra != algebra:
            raise AmbientMismatch(f"{name} lives over a different algebra")
        if cls.space.theta is not None:
            raise InvalidParameter("Massey products are untwisted only")
        if cls.space.degree != 1:
            raise InvalidParameter(f"{name} must be a degree-1 class")
        lifted.append(cls)
    ra, rb, rc = (cls.representative for cls in lifted)

    h2 = cohomology_space(algebra, min(2, algebra.dim))
    w_ab = wedge(ra, rb)
    if not h2.class_of(w_ab).is_zero:
        raise CupObstruction("a cup b is nonzero; <a, b, c> undefined")
    w_bc = wedge(rb, rc)
    if not h2.class_of(w_bc).is_zero:
        raise CupObstruction("b cup c is nonzero; <a, b, c> undefined")

    x = _primitive(algebra, w_ab)
    y = _primitive(algebra, w_bc)
    if x is None or y is None:
        raise InternalInvariantBreach("exact form has no primitive")
    representative = wedge(x, rc) + wedge(ra, y)
    if not ce_d(representative).is_zero:
        raise InternalInvariantBreach("Massey representative is not closed")
    rep_class = h2.class_of(representative)

    basis = linalg.echelon(
        dict(enumerate(h2.reduce(wedge(*pair))))
        for h in cohomology_space(algebra, 1).representative_basis
        for pair in ((ra, h), (h, rc)))
    indeterminacy = tuple(
        CohomologyClass(h2, [row.get(i, ZERO) for i in range(h2.betti)])
        for row in linalg.unit_rows(basis)
    )
    nonzero = bool(linalg.reduce(dict(enumerate(rep_class.coords)), basis))
    return MasseyResult(
        representative=representative,
        rep_class=rep_class,
        indeterminacy_basis=indeterminacy,
        nonzero_mod_indeterminacy=nonzero,
        primitive_ab=x,
        primitive_bc=y,
    )


def reference_massey_scan(algebra):
    """``cli._massey_scan`` as it was before the cup table: a table of
    public ``cup`` calls, and ``reference_triple_massey`` on each triple it
    allows."""
    from nilforms.cohomology import cohomology_space, cup

    if algebra.dim < 2:
        return None, None
    classes = cohomology_space(algebra, 1).classes()
    cup_zero = [[cup(a, b).is_zero for b in classes] for a in classes]
    for i, a in enumerate(classes):
        for j, b in enumerate(classes):
            if not cup_zero[i][j]:
                continue
            for k, c in enumerate(classes):
                if cup_zero[j][k]:
                    result = reference_triple_massey(algebra, a, b, c)
                    if result.nonzero_mod_indeterminacy:
                        return tuple(cls.representative for cls in (a, b, c)), result
    return None, None
