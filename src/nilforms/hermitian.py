"""Almost complex structures, metrics, Lee forms, and Hermitian classification.

Everything is exact.  For a compatible pair (g, J) on dimension 2m >= 4 with
fundamental form w(X, Y) = g(JX, Y), the Lee form is the unique 1-form theta
with

    d(w) ^ w^(m-2) = theta ^ w^(m-1),

Gauduchon's torsion 1-form (Math. Ann. 267, 1984) divided by m - 1.  Wedging
with w^(m-1) maps the 1-forms isomorphically onto the (2m-1)-forms when w is
nondegenerate, so theta exists, is unique, and is one sparse solve over the
columns x_i ^ w^(m-1): it reads w alone, and no volume, Hodge star or
adjoint of d enters.  Whenever d(w) = theta' ^ w holds at all, wedging it
with w^(m-2) shows theta' = theta.  The test suite checks theta against the
metric route theta(X) = -(1/(m-1)) * (delta w)(JX), delta the formal
adjoint of d.

One reader takes the Gram matrix G of a metric and the matrix of J to exact
rows and sparse columns, once, and checks that each is square and of the
algebra's size: G symmetric with every leading principal minor positive, the
minors read off one forward pass on the ``linalg`` kernel, and J^2 = -Id.  The
Nijenhuis tensor is one sparse product per basis pair over J's columns and the
bracket table.  A pair is read by one product W = G J over J's sparse
columns: since J^2 = -Id, g(JX, JY) = g(X, Y) holds exactly when W is skew,
and w is read off W.  Vaisman asks for a parallel Lee form, and a 1-form is
parallel exactly when it is closed and its metric dual T = g^-1 theta, one
sparse solve over G's columns, is a Killing field: G ad_T is skew, the same
test as for W, with ad_T read off the algebra's bracket table.  Neither test
needs the Levi-Civita table.
"""

from __future__ import annotations

from collections import defaultdict

from . import linalg
from .errors import (
    DegenerateMetric,
    DimensionMismatch,
    InternalInvariantBreach,
    InvalidParameter,
    NotAlmostComplex,
    NotHermitian,
    WrongDimension,
    _Record,
)
from .exterior_core import KForm, _wedge_raw, ce_d
from .scalars import ZERO, ONE, as_scalar
from .structures import check_lcs


# -- the matrices: g and J ---------------------------------------------------


class _SquareMatrix:
    """The one reader of g and J: a square matrix of exact scalars, its rows
    in ``matrix`` and its nonzero entries by column, ``{c: {r: M[r][c]}}``
    1-based, in ``_columns``.  A subclass names itself in ``_name`` and
    words a size other than the algebra's in ``_mismatch``."""

    __slots__ = ("dim", "matrix", "_columns")

    def __init__(self, matrix):
        self.matrix = rows = tuple(tuple(as_scalar(v) for v in row) for row in matrix)
        self.dim = len(rows)
        if any(len(row) != self.dim for row in rows):
            raise DimensionMismatch(f"{self._name} must be square")
        self._columns = {c: {r: row[c - 1] for r, row in enumerate(rows, 1) if row[c - 1]}
                         for c in range(1, self.dim + 1)}

    @classmethod
    def _for(cls, algebra, matrix):
        """``matrix`` read as this class unless it is one, of the algebra's size."""
        if not isinstance(matrix, cls):
            matrix = cls(matrix)
        if matrix.dim != algebra.dim:
            raise DimensionMismatch(cls._mismatch)
        return matrix


class InnerProduct(_SquareMatrix):
    """Positive definite symmetric bilinear form on the algebra's vector
    space, given by its Gram matrix in the preferred basis."""

    __slots__ = ()
    _name = "Gram matrix"
    _mismatch = "metric dimension does not match the algebra"

    def __init__(self, matrix):
        super().__init__(matrix)
        if not _is_symmetric(self._columns):
            raise InvalidParameter("Gram matrix must be symmetric")
        # Sylvester's criterion in one forward pass.  While Delta_1, ...,
        # Delta_{k-1} are nonzero, the basis of the columns before column k
        # has the first k - 1 rows as its pivots, so column k reduced modulo
        # it vanishes there, with the Schur complement Delta_k / Delta_{k-1}
        # in row k: the running product of those entries is the leading
        # minor, and the reduced column, with pivot k, extends the basis
        basis = {}
        minor = ONE
        for k, column in self._columns.items():
            reduced = linalg.reduce(column, basis)
            minor *= reduced.get(k, ZERO)
            if minor <= 0:
                raise DegenerateMetric(
                    f"leading principal minor {k} is {minor}; metric is not "
                    "positive definite")
            basis.update(linalg.echelon([reduced]))


class AlmostComplexStructure(_SquareMatrix):
    """An exact rational matrix J with J^2 = -Id, acting on basis columns:
    J(X_c) = sum_r M[r][c] X_r."""

    __slots__ = ()
    _name = "J"
    _mismatch = "J has the wrong size for this algebra"

    def __init__(self, matrix):
        super().__init__(matrix)
        if any(linalg.apply(self._columns, column) != {c: -1}
               for c, column in self._columns.items()):
            raise NotAlmostComplex("J^2 != -Id")


def _is_symmetric(columns, sign=1):
    """Whether the square matrix with these sparse columns, every column
    present, is ``sign`` times its transpose: M_ab = sign * M_ba for all
    a, b, diagonal included, so sign -1 asks for a skew matrix."""
    return all(columns[a].get(b, 0) == sign * v
               for b, column in columns.items() for a, v in column.items())


# -- the Nijenhuis tensor ----------------------------------------------------


class NijenhuisTensor(_Record):
    """N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] on basis pairs."""

    dim: int
    components: dict

    def __hash__(self):
        # components is a dict; equal tensors have equal dimensions
        return hash(self.dim)

    @property
    def is_integrable(self):
        return all(all(v == 0 for v in vec) for vec in self.components.values())

    def component(self, i, j):
        """N(X_i, X_j); antisymmetric in (i, j)."""
        if i == j:
            return (ZERO,) * self.dim
        if i < j:
            return self.components[(i, j)]
        return tuple(-v for v in self.components[(j, i)])


def nijenhuis(algebra, acs):
    """Nijenhuis tensor of J against the algebra's bracket; zero iff the
    almost complex structure is integrable."""
    acs = AlmostComplexStructure._for(algebra, acs)
    n = algebra.dim
    # one table of sparse columns: [X_a, X_b] under the pair (a, b), empty
    # for a pair the algebra's bracket table leaves out, and J(X_c) under c,
    # so each component below is one sparse product
    table = defaultdict(dict, algebra._brackets)
    table.update(acs._columns)
    components = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            jxi, jxj = table[i], table[j]
            # [JX_i, X_j] + [X_i, JX_j] = [JX_i, X_j] - [JX_j, X_i]: as i != j
            # the pairs of the two sums never meet
            mixed = linalg.apply(table, {(a, j): x for a, x in jxi.items()}
                                 | {(b, i): -y for b, y in jxj.items()})
            # [JX_i, JX_j] - [X_i, X_j] - J(mixed)
            pairs = {(a, b): x * y for a, x in jxi.items() for b, y in jxj.items()}
            pairs[i, j] = pairs.get((i, j), ZERO) - ONE
            value = linalg.apply(table, pairs | {c: -v for c, v in mixed.items()})
            components[(i, j)] = tuple(value.get(r, ZERO) for r in range(1, n + 1))
    return NijenhuisTensor(dim=n, components=components)


# -- Hermitian pairs ---------------------------------------------------------


def _hermitian_pair(algebra, metric, acs):
    """(metric, J, w) for a compatible pair, else NotHermitian.

    W = G J is one sparse product over J's columns.  J^2 = -Id makes the
    compatibility check J^T G J = G the same as G J = -J^T G = -(G J)^T, as
    G is symmetric: the pair is compatible exactly when W is skew, diagonal
    included.  The fundamental form w_ij = g(J X_i, X_j) = (J^T G)_ij is
    then W_ji.
    """
    metric = InnerProduct._for(algebra, metric)
    acs = AlmostComplexStructure._for(algebra, acs)
    # w[b][a] = W_ab
    w = {b: linalg.apply(metric._columns, column) for b, column in acs._columns.items()}
    if not _is_symmetric(w, -1):
        raise NotHermitian("metric is not J-invariant: g(JX, JY) != g(X, Y)")
    terms = {(i, j): v for i, w_i in w.items() for j, v in sorted(w_i.items()) if j > i}
    return metric, acs, KForm(algebra, 2, terms, _normalized=True)


def lee_form(algebra, metric, acs):
    """The Lee form of a compatible pair on dimension 2m >= 4."""
    if algebra.dim % 2 or algebra.dim < 4:
        raise WrongDimension("the Lee form needs even dimension >= 4")
    return _lee_form(algebra, _hermitian_pair(algebra, metric, acs)[2])


def _lee_form(algebra, omega):
    """The unique theta with d(w) ^ w^(m-2) = theta ^ w^(m-1), as the
    preimage of the left side over the columns x_i ^ w^(m-1)."""
    w = omega.coeffs
    power = {(): ONE}
    for _ in range(algebra.dim // 2 - 2):
        power = _wedge_raw(power, w)
    top = _wedge_raw(power, w)
    columns = [_wedge_raw({(i,): ONE}, top) for i in range(1, algebra.dim + 1)]
    solution = linalg.preimage(columns, _wedge_raw(ce_d(omega).coeffs, power))
    if solution is None:
        raise InternalInvariantBreach(
            "no Lee form: wedging with w^(m-1) is not onto the (2m-1)-forms")
    return KForm(algebra, 1, {(c + 1,): solution[c] for c in sorted(solution)},
                 _normalized=True)


def _is_parallel(algebra, metric, theta):
    """Whether the 1-form theta is parallel for the Levi-Civita connection.

    With T = g^-1 theta, one sparse solve over the Gram matrix's columns,
    the Koszul formula gives

        2 theta(nabla_i X_j) = theta([X_i, X_j]) - g([X_i, T], X_j) - g([X_j, T], X_i),

    an antisymmetric part plus a symmetric one.  So theta is parallel iff it
    is closed and its dual T is a Killing field, ad_T skew for g: G ad_T is
    skew, diagonal included.  Column j of ad_T is
    [T, X_j] = sum_i T_i [X_i, X_j], one product over the bracket table, and
    G times it is a second.
    """
    if not ce_d(theta).is_zero:
        return False
    g = metric._columns
    solution = linalg.preimage(list(g.values()),
                               {k: v for (k,), v in theta.coeffs.items()})
    dual = {c + 1: v for c, v in solution.items()}  # list positions are 0-based
    brackets = algebra._brackets
    lowered = {j: linalg.apply(g, linalg.apply(
                   {i: brackets.get((i, j), {}) for i in dual}, dual))
               for j in g}
    return _is_symmetric(lowered, -1)


# -- classification ----------------------------------------------------------


class HermitianClassification(_Record):
    """Exactly which of the standard metric conditions a compatible pair
    (g, J) satisfies.

    ``lck`` is the conformal identity d(w) = theta ^ w with closed Lee form;
    ``genuine_lee`` records [theta] != 0; ``vaisman`` adds a parallel
    nonzero Lee form.  ``label`` applies the precedence not_integrable >
    kahler > vaisman > lck > integrable_non_lck.

    The vocabulary has no globally conformally Kahler case (lck with an
    exact Lee form) because invariant data never reach it: B^1 = 0 for
    trivial coefficients, so a Lee form that is closed but not genuine is
    zero, the identity then reads d(w) = 0, and an integrable J with a
    closed fundamental form is Kahler.  So an lck pair that is not Kahler
    has a genuine Lee form.
    """

    integrable: bool
    fundamental: KForm
    lee: KForm
    lee_closed: bool
    identity_holds: bool
    genuine_lee: bool
    lee_parallel: bool
    kahler: bool
    lck: bool
    vaisman: bool
    label: str


def classify_hermitian(algebra, metric, acs):
    if algebra.dim % 2 or algebra.dim < 4:
        raise WrongDimension("Hermitian classification needs even dimension >= 4")
    metric, acs, omega = _hermitian_pair(algebra, metric, acs)

    integrable = nijenhuis(algebra, acs).is_integrable
    theta = _lee_form(algebra, omega)
    verdict = check_lcs(algebra, omega, theta)
    parallel = _is_parallel(algebra, metric, theta)

    # d(w) = 0 gives theta ^ w^(m-1) = 0, so theta = 0; conversely theta = 0
    # and d(w) = theta ^ w give d(w) = 0
    kahler = integrable and theta.is_zero and verdict.identity_holds
    lck = integrable and verdict.identity_holds and verdict.lee_closed
    vaisman = lck and verdict.genuine and parallel

    if not integrable:
        label = "not_integrable"
    elif kahler:
        label = "kahler"
    elif vaisman:
        label = "vaisman"
    elif lck:
        label = "lck"
    else:
        label = "integrable_non_lck"

    return HermitianClassification(
        integrable=integrable,
        fundamental=omega,
        lee=theta,
        lee_closed=verdict.lee_closed,
        identity_holds=verdict.identity_holds,
        genuine_lee=verdict.genuine,
        lee_parallel=parallel,
        kahler=kahler,
        lck=lck,
        vaisman=vaisman,
        label=label,
    )
