"""Chevalley-Eilenberg cohomology, plain and twisted, with exact quotients.

For nilpotent algebras the untwisted Betti numbers here agree with the de
Rham cohomology of the associated compact nilmanifold (Nomizu), which is what
makes these small exact computations topologically meaningful.

The twisted variant uses the Lichnerowicz differential

    d_theta(a) = d(a) - theta ^ a

for a closed 1-form theta; d_theta^2 = 0 follows from d(theta) = 0.

Determinism: every space carries a canonical representative basis, obtained
by reducing the cocycle space modulo the echelon basis of the coboundaries
and re-reducing, all under the lexicographic monomial order.  Two runs (or
two machines) always produce identical representatives, so frozen expected
values in tests are meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import (
    AmbientMismatch,
    CupObstruction,
    InternalInvariantBreach,
    InvalidParameter,
    LeeFormNotClosed,
    NotClosed,
    OddDimension,
    OmegaNotClosed,
)
from .exterior_core import KForm, _add_term, _d_raw, _wedge_raw, ce_d, wedge
from .scalars import ZERO, as_scalar


def _require_twist(algebra, theta):
    """Validate a twisting form: degree-1 closed, right ambient.  None is
    the untwisted case."""
    if theta is None:
        return None
    if not isinstance(theta, KForm):
        raise InvalidParameter("theta must be a KForm or None")
    if theta.algebra != algebra:
        raise AmbientMismatch("theta lives over a different algebra")
    if theta.is_zero:
        return None
    if theta.degree != 1:
        raise InvalidParameter(f"theta must be a 1-form, got degree {theta.degree}")
    if not ce_d(theta).is_zero:
        raise LeeFormNotClosed("theta is not closed, so d_theta^2 != 0")
    return theta


def twisted_d(algebra, theta, form):
    """Lichnerowicz differential d_theta = d - theta ^ . (theta=None: plain d)."""
    if form.algebra != algebra:
        raise AmbientMismatch("form lives over a different algebra")
    theta = _require_twist(algebra, theta)
    result = ce_d(form)
    if theta is not None:
        result = result - wedge(theta, form)
    return result


def _d_columns(algebra, k):
    """The columns of the untwisted d on Lambda^k, memoized per degree on the
    algebra (so at most dim + 1 entries)."""
    columns = algebra._d_columns.get(k)
    if columns is None:
        position = {mono: i for i, mono in enumerate(algebra.monomials(k + 1))}
        columns = [
            {position[mono]: c for mono, c in _d_raw({source: 1}, algebra._dx).items()}
            for source in algebra.monomials(k)
        ]
        algebra._d_columns[k] = columns
    return columns


def _d_matrix(algebra, k, theta):
    """Matrix of d_theta: Lambda^k -> Lambda^{k+1} over the lex monomial bases.

    Returns ``(columns, domain, codomain)``: ``columns[c]`` is the image of
    the monomial ``domain[c]``, sparse as ``{codomain position: coefficient}``.
    Untwisted columns are the algebra's memo and must not be mutated; twisted
    ones are built afresh, so a sweep over theta does not grow memory.
    """
    theta = _require_twist(algebra, theta)
    domain = algebra.monomials(k)
    codomain = algebra.monomials(k + 1)
    columns = _d_columns(algebra, k)
    if theta is not None:
        position = {mono: i for i, mono in enumerate(codomain)}
        twisted = []
        for source, column in zip(domain, columns):
            column = dict(column)
            for mono, c in _wedge_raw(theta.coeffs, {source: 1}).items():
                _add_term(column, position[mono], -c)
            twisted.append(column)
        columns = twisted
    return columns, domain, codomain


def _coordinates(form, monomials):
    """A form's coefficients as a sparse ``{position in monomials: value}``."""
    position = {mono: i for i, mono in enumerate(monomials)}
    return {position[mono]: c for mono, c in form.coeffs.items()}


def _form(algebra, degree, monomials, vector):
    """The form whose coefficients are the sparse ``vector`` over monomials."""
    terms = {monomials[i]: c for i, c in sorted(vector.items())}
    return KForm(algebra, degree, terms, _normalized=True)


class CohomologyClass:
    """An element of a CohomologySpace: coordinates against the canonical
    representative basis, plus the representative form they name."""

    __slots__ = ("space", "coords", "representative")

    def __init__(self, space, coords, representative=None):
        self.space = space
        self.coords = tuple(as_scalar(c) for c in coords)
        if len(self.coords) != space.betti:
            raise InvalidParameter("coordinate length does not match betti number")
        if representative is None:
            representative = space.algebra.zero_form(space.degree)
            for c, rep in zip(self.coords, space.representative_basis):
                representative = representative + rep.scale(c)
        self.representative = representative

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def scale(self, value):
        value = as_scalar(value)
        return CohomologyClass(self.space, [c * value for c in self.coords],
                               self.representative.scale(value))

    def __add__(self, other):
        if not isinstance(other, CohomologyClass) or other.space is not self.space:
            raise AmbientMismatch("classes live in different cohomology spaces")
        return CohomologyClass(self.space,
                               [a + b for a, b in zip(self.coords, other.coords)],
                               self.representative + other.representative)

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.space is other.space and self.coords == other.coords

    def __hash__(self):
        return hash((id(self.space), self.coords))

    def __repr__(self):
        return f"<class {self.coords} in {self.space!r}>"


class CohomologySpace:
    """H^k(g) or its twisted analogue H^k_theta(g), fully materialized.

    betti == len(cocycle_basis) - len(coboundary_basis) by construction.
    """

    def __init__(self, algebra, degree, theta=None):
        theta = _require_twist(algebra, theta)
        self.algebra = algebra
        self.degree = degree
        self.theta = theta
        self._monomials = algebra.monomials(degree)

        columns, _, _ = _d_matrix(algebra, degree, theta)
        kernel = linalg.kernel(columns)
        images = _d_matrix(algebra, degree - 1, theta)[0] if degree else []
        self._coboundaries = linalg.echelon(images)
        self._quotient = linalg.echelon(kernel, modulo=self._coboundaries)

        self.betti = len(self._quotient)
        if self.betti != len(kernel) - len(self._coboundaries):
            raise InternalInvariantBreach(
                "coboundaries do not sit inside cocycles; d^2 = 0 is broken")

        self.cocycle_basis = [self._form_from(v) for v in kernel]
        self.coboundary_basis = [self._form_from(v)
                                 for v in linalg.unit_rows(self._coboundaries)]
        self.representative_basis = [self._form_from(v)
                                     for v in linalg.unit_rows(self._quotient)]

    def _form_from(self, vector):
        return _form(self.algebra, self.degree, self._monomials, vector)

    # -- the quotient map ----------------------------------------------------

    def reduce(self, form):
        """Coordinates of [form] against the representative basis.

        Raises NotClosed when the form is not a d_theta-cocycle.
        """
        if form.algebra != self.algebra:
            raise AmbientMismatch("form lives over a different algebra")
        if form.degree != self.degree and not form.is_zero:
            raise InvalidParameter(
                f"form has degree {form.degree}, space has degree {self.degree}")
        if not twisted_d(self.algebra, self.theta, form).is_zero:
            raise NotClosed("form is not a cocycle for this differential")
        vec = linalg.reduce(_coordinates(form, self._monomials), self._coboundaries)
        coords = tuple(vec.get(p, ZERO) for p in self._quotient)
        # the reduced vector must be exactly the coordinate combination
        if linalg.reduce(vec, self._quotient):
            raise InternalInvariantBreach("cocycle escaped the quotient basis")
        return coords

    def class_of(self, form):
        return CohomologyClass(self, self.reduce(form))

    def zero_class(self):
        return CohomologyClass(self, [ZERO] * self.betti)

    def classes(self):
        """The canonical basis classes of this space."""
        out = []
        for i in range(self.betti):
            coords = [ZERO] * self.betti
            coords[i] = as_scalar(1)
            out.append(CohomologyClass(self, coords, self.representative_basis[i]))
        return out

    def __repr__(self):
        twist = "" if self.theta is None else ", twisted"
        return f"H^{self.degree}(dim {self.algebra.dim}{twist}) rank {self.betti}"


def cohomology_space(algebra, degree, theta=None):
    """Memoized accessor; spaces are computed once per (degree, theta)."""
    theta = _require_twist(algebra, theta)
    if not 0 <= degree <= algebra.dim:
        raise InvalidParameter(f"degree {degree} outside 0..{algebra.dim}")
    key = (degree, None if theta is None else tuple(sorted(theta.coeffs.items())))
    cache = algebra._cohomology_cache
    if key not in cache:
        cache[key] = CohomologySpace(algebra, degree, theta)
    return cache[key]


def class_of(space, form):
    return space.class_of(form)


def betti_profile(algebra, theta=None):
    """(b_0, ..., b_n), twisted when theta is given."""
    return tuple(cohomology_space(algebra, k, theta).betti
                 for k in range(algebra.dim + 1))


def cup(a, b):
    """Cup product on untwisted cohomology via wedge of representatives.

    When the degrees sum past the top dimension the result is the zero class
    of H^n (the clipped space), mirroring Lambda^{>n} = 0.
    """
    for cls in (a, b):
        if not isinstance(cls, CohomologyClass):
            raise InvalidParameter("cup expects CohomologyClass operands")
        if cls.space.theta is not None:
            raise InvalidParameter("cup is defined on untwisted cohomology only")
    if a.space.algebra != b.space.algebra:
        raise AmbientMismatch("classes live over different algebras")
    algebra = a.space.algebra
    target_degree = min(a.space.degree + b.space.degree, algebra.dim)
    target = cohomology_space(algebra, target_degree)
    return target.class_of(wedge(a.representative, b.representative))


@dataclass(frozen=True)
class LefschetzResult:
    """The map [a] -> [a ^ omega^(n-p)] : H^p -> H^(2n-p) in coordinates."""

    p: int
    power: int
    matrix: tuple
    rank: int
    domain_betti: int
    codomain_betti: int

    @property
    def is_injective(self):
        return self.rank == self.domain_betti

    @property
    def is_surjective(self):
        return self.rank == self.codomain_betti

    @property
    def is_isomorphism(self):
        return self.is_injective and self.is_surjective


def lefschetz_map(algebra, omega, p):
    """Hard-Lefschetz-type map for a closed 2-form; exact rank bookkeeping."""
    if algebra.dim % 2:
        raise OddDimension("Lefschetz maps need an even-dimensional algebra")
    n = algebra.dim // 2
    if not 0 <= p <= n:
        raise InvalidParameter(f"p must lie in 0..{n}")
    if omega.algebra != algebra:
        raise AmbientMismatch("omega lives over a different algebra")
    if omega.degree != 2:
        raise InvalidParameter("omega must be a 2-form")
    if not ce_d(omega).is_zero:
        raise OmegaNotClosed("omega must be closed")

    power_form = algebra.one()
    for _ in range(n - p):
        power_form = wedge(power_form, omega)

    domain = cohomology_space(algebra, p)
    codomain = cohomology_space(algebra, 2 * n - p)
    columns = [codomain.reduce(wedge(rep, power_form))
               for rep in domain.representative_basis]
    matrix = tuple(
        tuple(columns[c][r] for c in range(domain.betti))
        for r in range(codomain.betti)
    )
    rank = linalg.rank([list(row) for row in matrix], domain.betti)
    return LefschetzResult(
        p=p,
        power=n - p,
        matrix=matrix,
        rank=rank,
        domain_betti=domain.betti,
        codomain_betti=codomain.betti,
    )


@dataclass(frozen=True)
class MasseyResult:
    """Triple Massey product data for degree-1 classes.

    ``representative`` is the canonical representative built from echelon
    primitives; it is well defined exactly up to ``indeterminacy_basis``,
    and ``nonzero_mod_indeterminacy`` is the verdict that survives every
    choice of primitives.
    """

    representative: KForm
    rep_class: CohomologyClass
    indeterminacy_basis: tuple
    nonzero_mod_indeterminacy: bool
    primitive_ab: KForm
    primitive_bc: KForm


def _primitive(algebra, target):
    """Deterministic solve of d(x) = target for a 1-form x (free vars zero)."""
    columns, domain, codomain = _d_matrix(algebra, 1, None)
    solution = linalg.preimage(columns, _coordinates(target, codomain))
    if solution is None:
        raise InternalInvariantBreach("exact form has no primitive")
    return _form(algebra, 1, domain, solution)


def triple_massey(algebra, a, b, c):
    """<a, b, c> for degree-1 untwisted classes with a.b = b.c = 0.

    Closed 1-forms are accepted and lifted to their classes.  Raises
    CupObstruction when a cup precondition fails.
    """
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
    a, b, c = lifted

    h2 = cohomology_space(algebra, 2)
    w_ab = wedge(a.representative, b.representative)
    if not h2.class_of(w_ab).is_zero:
        raise CupObstruction("a cup b is nonzero; <a, b, c> undefined")
    w_bc = wedge(b.representative, c.representative)
    if not h2.class_of(w_bc).is_zero:
        raise CupObstruction("b cup c is nonzero; <a, b, c> undefined")

    x = _primitive(algebra, w_ab)
    y = _primitive(algebra, w_bc)
    # representative x^c + (-1)^(|a|+1) a^y; |a| = 1 makes the sign +1
    representative = wedge(x, c.representative) + wedge(a.representative, y)
    if not ce_d(representative).is_zero:
        raise InternalInvariantBreach("Massey representative is not closed")
    rep_class = h2.class_of(representative)

    h1 = cohomology_space(algebra, 1)
    spanning = []
    for h in h1.classes():
        spanning.append(list(cup(a, h).coords))
        spanning.append(list(cup(h, c).coords))
    ind_rows, ind_pivots = linalg.rref(spanning, h2.betti)
    indeterminacy = tuple(
        CohomologyClass(h2, row) for row in ind_rows
    )
    nonzero = not linalg.in_row_space(ind_rows, ind_pivots, list(rep_class.coords))
    return MasseyResult(
        representative=representative,
        rep_class=rep_class,
        indeterminacy_basis=indeterminacy,
        nonzero_mod_indeterminacy=nonzero,
        primitive_ab=x,
        primitive_bc=y,
    )
