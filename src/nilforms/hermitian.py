"""Invariant metrics, Hodge theory, and Hermitian classification.

Everything is exact.  The only place a square root can appear is the metric
volume sqrt(det g) inside the honest Hodge star; ``hodge_star`` therefore
refuses metrics with irrational volume instead of approximating.  The
codifferential dodges the problem: with the unnormalized star (no volume
factor) the composite

    delta = (-1)^(n(k+1)+1) * det(g) * star_raw d star_raw

is the formal adjoint of d and is rational for every rational metric, since
the two volume factors multiply to det(g).  Orientation cancels the same way.

Lee form convention: for a compatible pair (g, J) on dimension 2m with
fundamental form w(X, Y) = g(JX, Y), the Lee form is
theta(X) = -(1/(m-1)) * (delta w)(JX), the unique 1-form with
d(w) = theta ^ w whenever that identity holds at all.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    AmbientMismatch,
    DegenerateMetric,
    DimensionMismatch,
    InvalidParameter,
    IrrationalVolume,
    NotHermitian,
    NotUnimodular,
    WrongDimension,
)
from .exterior_core import KForm, ce_d, lower_central_series, wedge
from .scalars import ZERO, ONE, as_scalar, rational_sqrt
from .structures import AlmostComplexStructure, nijenhuis


class InnerProduct:
    """Positive definite symmetric bilinear form on the algebra's vector
    space, given by its Gram matrix in the preferred basis.

    ``orientation`` is +1 or -1 relative to the ordered basis; it flips the
    sign of the Hodge star and cancels out of the codifferential."""

    __slots__ = ("dim", "matrix", "inverse", "determinant", "orientation")

    def __init__(self, matrix, orientation=1):
        rows = [tuple(as_scalar(v) for v in row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("Gram matrix must be square")
        if orientation not in (1, -1):
            raise InvalidParameter("orientation must be +1 or -1")
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise InvalidParameter("Gram matrix must be symmetric")
        for k in range(1, n + 1):
            minor = linalg.det([list(row[:k]) for row in rows[:k]])
            if minor <= 0:
                raise DegenerateMetric(
                    f"leading principal minor {k} is {minor}; metric is not "
                    "positive definite")
        self.dim = n
        self.matrix = tuple(rows)
        self.inverse = tuple(tuple(r) for r in linalg.invert([list(r) for r in rows]))
        self.determinant = linalg.det([list(r) for r in rows])
        self.orientation = orientation

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

    def covector_gram(self, left, right):
        """Induced inner product of basis monomials x_I, x_J (Gram minor of
        the inverse matrix)."""
        if len(left) != len(right):
            return ZERO
        if not left:
            return ONE
        return linalg.det([
            [self.inverse[a - 1][b - 1] for b in right] for a in left
        ])

    def form_pairing(self, a, b):
        """Induced inner product on k-forms."""
        if a.algebra != b.algebra:
            raise AmbientMismatch("forms live over different algebras")
        if a.algebra.dim != self.dim:
            raise DimensionMismatch("metric dimension does not match the algebra")
        if a.is_zero or b.is_zero:
            return ZERO
        if a.degree != b.degree:
            raise DimensionMismatch("form degrees differ")
        total = ZERO
        for left, ca in a.terms():
            for right, cb in b.terms():
                gram = self.covector_gram(left, right)
                if gram != 0:
                    total += ca * cb * gram
        return total


def euclidean_metric(dim):
    return InnerProduct([[1 if i == j else 0 for j in range(dim)]
                         for i in range(dim)])


# -- Hodge star and codifferential -------------------------------------------


def _complement_sign(subset, dim):
    """(sign of the shuffle (subset, complement), complement)."""
    comp = tuple(i for i in range(1, dim + 1) if i not in subset)
    inversions = sum(1 for a in subset for b in comp if a > b)
    return (-ONE if inversions % 2 else ONE), comp


def _star_raw(algebra, metric, form):
    """Unnormalized star: the honest Hodge star divided by sqrt(det g)."""
    n = algebra.dim
    k = form.degree
    terms = {}
    items = form.terms()
    for subset in itertools.combinations(range(1, n + 1), k):
        value = ZERO
        for mono, coeff in items:
            value += coeff * metric.covector_gram(subset, mono)
        if value == 0:
            continue
        sign, comp = _complement_sign(subset, n)
        terms[comp] = terms.get(comp, ZERO) + sign * value
    return KForm(algebra, n - k, {m: c for m, c in terms.items() if c != 0},
                 _normalized=True)


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
    if form.algebra != algebra:
        raise AmbientMismatch("form lives over a different algebra")
    scale = rational_sqrt(metric.determinant)
    if scale is None:
        raise IrrationalVolume(
            f"sqrt(det g) = sqrt({metric.determinant}) is irrational; "
            "the star map leaves the rational field")
    return _star_raw(algebra, metric, form).scale(scale * metric.orientation)


def codifferential(algebra, metric, form):
    """Formal adjoint of d: <d a, b> = <a, delta b> for all invariant a.

    Exact for every rational positive definite metric.  Restricted to
    unimodular algebras: beyond those the invariant integration by parts
    behind adjointness fails.
    """
    metric = _check_metric(algebra, metric)
    if form.algebra != algebra:
        raise AmbientMismatch("form lives over a different algebra")
    if not lower_central_series(algebra).unimodular:
        raise NotUnimodular("the codifferential needs a unimodular algebra")
    k = form.degree
    if k == 0 or form.is_zero:
        return algebra.zero_form(max(k - 1, 0))
    n = algebra.dim
    sign = -ONE if (n * (k + 1) + 1) % 2 else ONE
    inner = _star_raw(algebra, metric, ce_d(_star_raw(algebra, metric, form)))
    return inner.scale(sign * metric.determinant)


# -- Hermitian pairs ---------------------------------------------------------


def _check_compatible(algebra, metric, acs):
    metric = _check_metric(algebra, metric)
    if not isinstance(acs, AlmostComplexStructure):
        acs = AlmostComplexStructure(acs)
    if acs.dim != algebra.dim:
        raise DimensionMismatch("J has the wrong size for this algebra")
    n = algebra.dim
    g = metric.matrix
    j = acs.matrix
    for a in range(n):
        for b in range(n):
            # (J^T G J)[a][b]
            value = ZERO
            for r in range(n):
                for s in range(n):
                    value += j[r][a] * g[r][s] * j[s][b]
            if value != g[a][b]:
                raise NotHermitian("metric is not J-invariant: g(JX, JY) != g(X, Y)")
    return metric, acs


def fundamental_form(algebra, metric, acs):
    """w(X, Y) = g(JX, Y); a 2-form once (g, J) is a compatible pair."""
    metric, acs = _check_compatible(algebra, metric, acs)
    n = algebra.dim
    terms = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            value = metric.pairing(acs.column(i),
                                   tuple(ONE if t == j - 1 else ZERO for t in range(n)))
            if value != 0:
                terms[(i, j)] = value
    return KForm(algebra, 2, terms, _normalized=True)


def lee_form(algebra, metric, acs):
    """theta(X) = -(1/(m-1)) * (delta w)(JX) on dimension 2m >= 4."""
    if algebra.dim % 2 or algebra.dim < 4:
        raise WrongDimension("the Lee form needs even dimension >= 4")
    metric, acs = _check_compatible(algebra, metric, acs)
    omega = fundamental_form(algebra, metric, acs)
    delta_omega = codifferential(algebra, metric, omega)
    m = algebra.dim // 2
    factor = Fraction(-1, m - 1)
    terms = {}
    for i in range(1, algebra.dim + 1):
        jxi = acs.column(i)
        value = ZERO
        for k in range(1, algebra.dim + 1):
            if jxi[k - 1] != 0:
                value += jxi[k - 1] * delta_omega.coefficient((k,))
        if value != 0:
            terms[(i,)] = factor * value
    return KForm(algebra, 1, terms, _normalized=True)


# -- Levi-Civita connection --------------------------------------------------


class ConnectionCoefficients:
    """Levi-Civita connection of an invariant metric, tabulated on basis
    pairs: nabla(i, j) is the coefficient vector of the derivative of X_j
    along X_i."""

    __slots__ = ("algebra", "metric", "_table")

    def __init__(self, algebra, metric, table):
        self.algebra = algebra
        self.metric = metric
        self._table = table

    def nabla(self, i, j):
        return self._table[(i, j)]

    def covector_is_parallel(self, theta):
        """A constant-coefficient 1-form is parallel iff it kills every
        nabla(i, j)."""
        if theta.algebra != self.algebra:
            raise AmbientMismatch("theta lives over a different algebra")
        n = self.algebra.dim
        for (i, j), vec in self._table.items():
            value = ZERO
            for k in range(1, n + 1):
                if vec[k - 1] != 0:
                    value += vec[k - 1] * theta.coefficient((k,))
            if value != 0:
                return False
        return True


def koszul_connection(algebra, metric):
    """Solve the invariant Koszul identity

        2 g(nabla_i X_j, X_l) =
            g([X_i, X_j], X_l) - g([X_j, X_l], X_i) + g([X_l, X_i], X_j)

    for every basis pair.  Torsion-free and metric by construction; both are
    re-checked in the test suite rather than here.
    """
    metric = _check_metric(algebra, metric)
    n = algebra.dim

    def g_bracket(i, j, l):
        vec = algebra.bracket(i, j)
        basis_l = tuple(ONE if t == l - 1 else ZERO for t in range(n))
        return metric.pairing(vec, basis_l)

    inverse = [list(row) for row in metric.inverse]
    table = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            rhs = [
                (g_bracket(i, j, l) - g_bracket(j, l, i) + g_bracket(l, i, j)) / 2
                for l in range(1, n + 1)
            ]
            table[(i, j)] = tuple(linalg.mat_vec(inverse, rhs))
    return ConnectionCoefficients(algebra, metric, table)


# -- classification ----------------------------------------------------------


@dataclass(frozen=True)
class HermitianClassification:
    """Exactly which of the standard metric conditions a compatible pair
    (g, J) satisfies.

    ``lck`` is the conformal identity d(w) = theta ^ w with closed Lee form;
    ``genuine_lee`` records [theta] != 0 (so lck and not genuine_lee is the
    globally conformal case); ``vaisman`` adds a parallel nonzero Lee form.
    ``label`` applies the precedence not_integrable > kahler > vaisman >
    lck > gck > integrable_non_lck.
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
    gck: bool
    vaisman: bool
    label: str

    @property
    def kahler_form(self):
        return self.fundamental

    @property
    def lee_form(self):
        return self.lee

    @property
    def flags(self):
        active = tuple(name for name in ("kahler", "vaisman", "lck", "gck")
                       if getattr(self, name))
        return active or ("none",)


def classify_hermitian(algebra, metric, acs):
    if algebra.dim % 2 or algebra.dim < 4:
        raise WrongDimension("Hermitian classification needs even dimension >= 4")
    metric, acs = _check_compatible(algebra, metric, acs)
    if not lower_central_series(algebra).unimodular:
        raise NotUnimodular("Hermitian classification needs a unimodular algebra")

    integrable = nijenhuis(algebra, acs).is_integrable
    omega = fundamental_form(algebra, metric, acs)
    d_omega = ce_d(omega)
    delta_omega = codifferential(algebra, metric, omega)
    theta = lee_form(algebra, metric, acs)
    lee_closed = ce_d(theta).is_zero
    identity = d_omega == wedge(theta, omega)
    # B^1 = d(Lambda^0) = 0 for trivial coefficients: a closed theta is exact
    # only when it is zero
    genuine = lee_closed and not theta.is_zero
    parallel = koszul_connection(algebra, metric).covector_is_parallel(theta)

    kahler = integrable and d_omega.is_zero
    lck = integrable and identity and lee_closed
    gck = lck and not genuine and not kahler
    vaisman = lck and genuine and parallel

    if not integrable:
        label = "not_integrable"
    elif kahler:
        label = "kahler"
    elif vaisman:
        label = "vaisman"
    elif lck and genuine:
        label = "lck"
    elif gck:
        label = "gck"
    else:
        label = "integrable_non_lck"

    return HermitianClassification(
        integrable=integrable,
        fundamental=omega,
        delta_fundamental=delta_omega,
        lee=theta,
        lee_closed=lee_closed,
        identity_holds=identity,
        genuine_lee=genuine,
        lee_parallel=parallel,
        kahler=kahler,
        lck=lck,
        gck=gck,
        vaisman=vaisman,
        label=label,
    )
