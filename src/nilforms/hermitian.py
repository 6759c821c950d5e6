"""Invariant metrics, Hodge theory, and Hermitian classification.

Everything is exact.  The only place a square root can appear is the metric
volume sqrt(det g) inside the honest Hodge star; ``hodge_star`` therefore
refuses metrics with irrational volume instead of approximating.  The
codifferential dodges the problem: with the unnormalized star (no volume
factor) the composite

    delta = (-1)^(n(k+1)+1) * det(g) * star_raw d star_raw

is the formal adjoint of d and is rational for every rational metric, since
the two volume factors multiply to det(g).  Orientation cancels the same way.

The star and the induced pairing share one step, raising indices: each
covector x_i goes to sum_j g^ij x_j and the images of a monomial's covectors
are wedged by ``exterior_core``'s one wedge routine, which also decides every
sign.  By Cauchy-Binet the raised form's coefficients are the Gram minors of
g^-1, so no determinant is taken.  The pairing reads <a, b> = sum_I a_I
raised(b)_I, and star_raw sends the raised x_S to +-x_{S^c}.

Lee form convention: for a compatible pair (g, J) on dimension 2m with
fundamental form w(X, Y) = g(JX, Y), the Lee form is
theta(X) = -(1/(m-1)) * (delta w)(JX), the unique 1-form with
d(w) = theta ^ w whenever that identity holds at all.

A pair is read once: one product G J over J's sparse columns gives both the
compatibility check and w.  Vaisman asks for a parallel Lee form, and a
1-form is parallel exactly when it is closed and its metric dual is a
Killing field, which the structure constants decide without the
Levi-Civita table.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg
from .errors import (
    DegenerateMetric,
    DimensionMismatch,
    InvalidParameter,
    IrrationalVolume,
    NotHermitian,
    NotUnimodular,
    WrongDimension,
    _Record,
)
from .exterior_core import KForm, _add_term, _is_unimodular, _require_form, _wedge_raw, ce_d
from .scalars import ZERO, ONE, as_scalar, rational_sqrt
from .structures import AlmostComplexStructure, check_lcs, nijenhuis


class InnerProduct:
    """Positive definite symmetric bilinear form on the algebra's vector
    space, given by its Gram matrix in the preferred basis."""

    __slots__ = ("dim", "matrix", "inverse", "determinant")

    def __init__(self, matrix):
        rows = [tuple(as_scalar(v) for v in row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("Gram matrix must be square")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InvalidParameter("Gram matrix must be symmetric")
        self.dim = n
        self.matrix = tuple(rows)
        self.determinant = _positive_definite_det(rows)
        self.inverse = tuple(tuple(r) for r in linalg.invert([list(r) for r in rows]))

    def pairing(self, v, w):
        """g(v, w) on coefficient vectors."""
        if len(v) != self.dim or len(w) != self.dim:
            raise DimensionMismatch("vector length does not match the metric")
        total = ZERO
        for i in range(self.dim):
            vi = as_scalar(v[i])
            if vi == 0:
                continue
            for j in range(self.dim):
                total += vi * self.matrix[i][j] * as_scalar(w[j])
        return total

    def _raised(self, form):
        """The form with every index raised by g^-1, as a term dict: each
        covector x_i of a monomial goes to sum_j g^ij x_j and the images are
        wedged.  By Cauchy-Binet the coefficient of x_S in the image of x_I
        is the minor of g^-1 on rows I and columns S, the induced Gram entry
        <x_I, x_S>.  The wedges run on integers, g^-1 = M / m and the
        coefficients c / q, and the sums are divided by q m^k once."""
        inverse, m = linalg._integral({(i, j): v for i, row in enumerate(self.inverse, 1)
                                       for j, v in enumerate(row, 1)})
        images = {}
        for (i, j), v in inverse.items():
            images.setdefault(i, {})[(j,)] = v
        coeffs, q = linalg._integral(form.coeffs)
        out = {}
        for mono, c in coeffs.items():
            raised = {(): c}
            for i in mono:
                raised = _wedge_raw(raised, images[i])
            for key, value in raised.items():
                _add_term(out, key, value)
        scale = q * m ** form.degree
        return {key: Fraction(value, scale) for key, value in out.items()}

    def form_pairing(self, a, b):
        """Induced inner product on k-forms: sum_I a_I * raised(b)_I."""
        algebra = getattr(a, "algebra", None)  # b must share a's algebra
        _require_form(algebra, a, "a")
        _require_form(algebra, b, "b")
        if algebra.dim != self.dim:
            raise DimensionMismatch("metric dimension does not match the algebra")
        if a.is_zero or b.is_zero:
            return ZERO
        if a.degree != b.degree:
            raise DimensionMismatch("form degrees differ")
        raised = self._raised(b)
        total = ZERO
        for mono, coeff in a.coeffs.items():
            if mono in raised:
                total += coeff * raised[mono]
        return total


def _positive_definite_det(rows):
    """The determinant of a symmetric matrix whose leading principal minors
    are all positive; raises DegenerateMetric at the first that is not.

    One forward elimination without row exchanges: while the minors before
    it are nonzero, the k-th pivot is Delta_k / Delta_{k-1}, so Delta_k is
    the product of the first k pivots and Delta_n the determinant.
    """
    work = [list(row) for row in rows]
    minor = ONE
    for k, pivot_row in enumerate(work):
        pivot = pivot_row[k]
        minor *= pivot
        if minor <= 0:
            raise DegenerateMetric(
                f"leading principal minor {k + 1} is {minor}; metric is not "
                "positive definite")
        for row in work[k + 1:]:
            factor = row[k] / pivot
            if factor:
                for c in range(k + 1, len(row)):
                    row[c] -= factor * pivot_row[c]
    return minor


def euclidean_metric(dim):
    return InnerProduct([[1 if i == j else 0 for j in range(dim)]
                         for i in range(dim)])


# -- Hodge star and codifferential -------------------------------------------


def _star_raw(algebra, metric, form):
    """Unnormalized star: the honest Hodge star divided by sqrt(det g).

    The raised form's x_S goes to (-1)^p x_{S^c}, p the number of pairs
    a in S, b in S^c with a > b; the t-th smallest index s_t of S exceeds
    s_t - t of them, so p = sum(S) - k(k+1)/2.
    """
    n = algebra.dim
    k = form.degree
    shift = k * (k + 1) // 2
    raised = metric._raised(form)
    terms = {}
    for subset in sorted(raised):
        value = raised[subset]
        comp = tuple(i for i in range(1, n + 1) if i not in subset)
        terms[comp] = -value if (sum(subset) - shift) % 2 else value
    return KForm(algebra, n - k, terms, _normalized=True)


def _check_metric(algebra, metric):
    if not isinstance(metric, InnerProduct):
        metric = InnerProduct(metric)
    if metric.dim != algebra.dim:
        raise DimensionMismatch("metric dimension does not match the algebra")
    return metric


def hodge_star(algebra, metric, form):
    """The Riemannian Hodge star for the standard orientation.

    Needs sqrt(det g) to be rational; otherwise IrrationalVolume is raised
    (the codifferential stays available, its volume factors cancel).
    """
    metric = _check_metric(algebra, metric)
    _require_form(algebra, form, "form")
    scale = rational_sqrt(metric.determinant)
    if scale is None:
        raise IrrationalVolume(
            f"sqrt(det g) = sqrt({metric.determinant}) is irrational; "
            "the star map leaves the rational field")
    return _star_raw(algebra, metric, form).scale(scale)


def codifferential(algebra, metric, form):
    """Formal adjoint of d: <d a, b> = <a, delta b> for all invariant a.

    Exact for every rational positive definite metric.  Restricted to
    unimodular algebras: beyond those the invariant integration by parts
    behind adjointness fails.
    """
    metric = _check_metric(algebra, metric)
    _require_form(algebra, form, "form")
    if not _is_unimodular(algebra):
        raise NotUnimodular("the codifferential needs a unimodular algebra")
    k = form.degree
    if k == 0 or form.is_zero:
        return algebra.zero_form(max(k - 1, 0))
    n = algebra.dim
    sign = -ONE if (n * (k + 1) + 1) % 2 else ONE
    inner = _star_raw(algebra, metric, ce_d(_star_raw(algebra, metric, form)))
    return inner.scale(sign * metric.determinant)


# -- Hermitian pairs ---------------------------------------------------------


def _hermitian_pair(algebra, metric, acs):
    """(metric, J, w) for a compatible pair, else NotHermitian.

    W = G J is taken over the nonzero entries of J's columns.  Then J^T W = G
    is the compatibility check g(JX, JY) = g(X, Y), and since G is symmetric
    the fundamental form w_ij = g(J X_i, X_j) = (J^T G)_ij is W_ji.
    """
    metric = _check_metric(algebra, metric)
    if not isinstance(acs, AlmostComplexStructure):
        acs = AlmostComplexStructure(acs)
    if acs.dim != algebra.dim:
        raise DimensionMismatch("J has the wrong size for this algebra")
    g = metric.matrix
    columns = acs._columns
    # w[b][a - 1] = W_ab
    w = {b: [sum(g_a[r - 1] * v for r, v in column.items()) for g_a in g]
         for b, column in columns.items()}
    for a, column in columns.items():
        for b, w_b in w.items():
            if sum(v * w_b[r - 1] for r, v in column.items()) != g[a - 1][b - 1]:
                raise NotHermitian("metric is not J-invariant: g(JX, JY) != g(X, Y)")
    terms = {(i, j): w_i[j - 1] for i, w_i in w.items()
             for j in range(i + 1, algebra.dim + 1) if w_i[j - 1]}
    return metric, acs, KForm(algebra, 2, terms, _normalized=True)


def fundamental_form(algebra, metric, acs):
    """w(X, Y) = g(JX, Y); a 2-form once (g, J) is a compatible pair."""
    return _hermitian_pair(algebra, metric, acs)[2]


def lee_form(algebra, metric, acs):
    """theta(X) = -(1/(m-1)) * (delta w)(JX) on dimension 2m >= 4."""
    if algebra.dim % 2 or algebra.dim < 4:
        raise WrongDimension("the Lee form needs even dimension >= 4")
    metric, acs, omega = _hermitian_pair(algebra, metric, acs)
    return _lee_form(algebra, acs, codifferential(algebra, metric, omega))


def _lee_form(algebra, acs, delta_omega):
    """lee_form from the codifferential of the fundamental form."""
    factor = Fraction(-1, algebra.dim // 2 - 1)
    coeffs = delta_omega.coeffs
    terms = {}
    for i, column in acs._columns.items():
        value = sum((v * coeffs.get((r,), ZERO) for r, v in column.items()), ZERO)
        if value != 0:
            terms[(i,)] = factor * value
    return KForm(algebra, 1, terms, _normalized=True)


def _is_parallel(algebra, metric, theta):
    """Whether the 1-form theta is parallel for the Levi-Civita connection.

    With T = g^-1 theta the Koszul formula gives

        2 theta(nabla_i X_j) = theta([X_i, X_j]) - g([X_i, T], X_j) - g([X_j, T], X_i),

    an antisymmetric part plus a symmetric one.  So theta is parallel iff it
    is closed and its dual T is a Killing field, ad_T skew for g (diagonal
    included); both are read in one pass over the structure constants.
    """
    n = algebra.dim
    covector = [theta.coeffs.get((k,), ZERO) for k in range(1, n + 1)]
    dual = [sum(a * b for a, b in zip(row, covector)) for row in metric.inverse]
    brackets = {}  # theta([X_i, X_j])
    lowered = {}   # (l, j): g(X_l, [T, X_j])
    for (i, j, k), c in algebra.constants.items():
        _add_term(brackets, (i, j), c * covector[k - 1])
        # [T, X_j] gains T_i c X_k and [T, X_i] gains -T_j c X_k
        for column, factor in ((j, dual[i - 1] * c), (i, -dual[j - 1] * c)):
            if factor:
                for l, g_kl in enumerate(metric.matrix[k - 1], 1):
                    _add_term(lowered, (l, column), factor * g_kl)
    return not brackets and all(v + lowered.get((j, l), 0) == 0
                                for (l, j), v in lowered.items())


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
    delta_fundamental: KForm
    lee: KForm
    lee_closed: bool
    identity_holds: bool
    genuine_lee: bool
    lee_parallel: bool
    kahler: bool
    lck: bool
    vaisman: bool
    label: str

    @property
    def flags(self):
        active = tuple(name for name in ("kahler", "vaisman", "lck")
                       if getattr(self, name))
        return active or ("none",)


def classify_hermitian(algebra, metric, acs):
    if algebra.dim % 2 or algebra.dim < 4:
        raise WrongDimension("Hermitian classification needs even dimension >= 4")
    metric, acs, omega = _hermitian_pair(algebra, metric, acs)
    if not _is_unimodular(algebra):
        raise NotUnimodular("Hermitian classification needs a unimodular algebra")

    integrable = nijenhuis(algebra, acs).is_integrable
    delta_omega = codifferential(algebra, metric, omega)
    theta = _lee_form(algebra, acs, delta_omega)
    verdict = check_lcs(algebra, omega, theta)
    parallel = _is_parallel(algebra, metric, theta)

    kahler = integrable and ce_d(omega).is_zero
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
        delta_fundamental=delta_omega,
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
