"""Invariant symplectic and locally conformal symplectic structures.

A 2-form omega on a 2n-dimensional algebra is nondegenerate exactly when the
Pfaffian of its skew coefficient matrix is nonzero; that Pfaffian equals the
coefficient of x_1^...^x_{2n} in omega^n / n!, so "witness volume" below is
literal.  An lcs pair is a nondegenerate omega with d(omega) = theta ^ omega
for a closed 1-form theta (the Lee form, unique once dim >= 4); the pair is
*genuine* when [theta] != 0, i.e. the structure is not a global conformal
rescaling of a symplectic one.

Searches here are semi-decisions by design.  ``find_lcs`` enumerates twisting
candidates in a documented deterministic order up to a height bound and
decides each candidate exactly (symbolic Pfaffian over the solution-space
parameters), so a negative answer is always reported as "not found up to
height H", never as nonexistence.

Dimension 2 is excluded from the lcs operations: there the Lee form is not
unique and the conformal dichotomy collapses.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction

from . import linalg
from .cohomology import _coordinates, _d_matrix, _form, cohomology_space, twisted_d
from .errors import (
    AmbientMismatch,
    DimensionMismatch,
    InternalInvariantBreach,
    InvalidParameter,
    NotAlmostComplex,
    NotNilpotent,
    OddDimension,
    PreconditionFailed,
    WrongDimension,
)
from .exterior_core import KForm, LieAlgebra, as_vector, build_algebra, ce_d, wedge
from .polynomials import Poly, nonzero_point
from .scalars import ZERO, ONE, as_scalar, height


# -- Pfaffian ----------------------------------------------------------------


def _check_two_form(algebra, omega, name="omega"):
    if not isinstance(omega, KForm):
        raise InvalidParameter(f"{name} must be a KForm")
    if omega.algebra != algebra:
        raise AmbientMismatch(f"{name} lives over a different algebra")
    if omega.degree != 2 and not omega.is_zero:
        raise InvalidParameter(f"{name} must be a 2-form, got degree {omega.degree}")


def skew_matrix(omega):
    """Coefficient matrix A with A[i][j] = omega(X_{i+1}, X_{j+1})."""
    n = omega.algebra.dim
    rows = [[ZERO] * n for _ in range(n)]
    for (i, j), coeff in omega.coeffs.items():
        rows[i - 1][j - 1] = coeff
        rows[j - 1][i - 1] = -coeff
    return rows


def _pfaffian_expand(entry, indices, zero, one):
    """Pfaffian by first-row expansion, memoized on index subsets.

    Generic over the coefficient ring: ``entry(i, j)`` (i < j) must support
    +, unary -, * and truth-testing.  Used with Fractions for numeric
    Pfaffians and with Poly for symbolic ones.
    """
    memo = {}

    def pf(subset):
        if not subset:
            return one
        if subset in memo:
            return memo[subset]
        first, rest = subset[0], subset[1:]
        total = zero
        for pos, partner in enumerate(rest):
            e = entry(first, partner)
            if not e:
                continue
            sub = pf(tuple(x for x in rest if x != partner))
            if not sub:
                continue
            term = e * sub
            total = total + (term if pos % 2 == 0 else -term)
        memo[subset] = total
        return total

    try:
        return pf(tuple(indices))
    finally:
        # pf refers to itself: unbinding it frees the memo of symbolic minors
        # now, not whenever the cycle collector next runs
        del pf


def pfaffian_volume(algebra, omega):
    """Pfaffian of omega's skew matrix == coefficient of the top monomial in
    omega^n / n!.  Nonzero iff omega is nondegenerate."""
    if algebra.dim % 2:
        raise OddDimension("the Pfaffian needs an even-dimensional algebra")
    _check_two_form(algebra, omega)
    return _pfaffian_expand(
        lambda i, j: omega.coefficient((i, j)),
        range(1, algebra.dim + 1),
        ZERO,
        ONE,
    )


# -- symplectic --------------------------------------------------------------


@dataclass(frozen=True)
class SymplecticVerdict:
    closed: bool
    pfaffian: Fraction

    @property
    def is_symplectic(self):
        return self.closed and self.pfaffian != 0

    def __bool__(self):
        return self.is_symplectic


def check_symplectic(algebra, omega):
    if algebra.dim % 2:
        raise OddDimension("symplectic structures need even dimension")
    _check_two_form(algebra, omega)
    return SymplecticVerdict(
        closed=ce_d(omega).is_zero,
        pfaffian=pfaffian_volume(algebra, omega),
    )


def _support_admits_matching(dim, edges):
    """Can the index set 1..dim be perfectly matched inside ``edges``?

    Necessary for any nonzero Pfaffian term, so a cheap exact prune before
    symbolic expansion.
    """
    adjacency = {i: set() for i in range(1, dim + 1)}
    for i, j in edges:
        adjacency[i].add(j)
        adjacency[j].add(i)

    def match(remaining):
        if not remaining:
            return True
        first = min(remaining)
        for partner in sorted(adjacency[first] & remaining):
            if match(remaining - {first, partner}):
                return True
        return False

    try:
        return match(frozenset(range(1, dim + 1)))
    finally:
        del match  # match refers to itself; unbinding it frees the adjacency now


def nondegenerate_in_span(algebra, basis_forms):
    """A nondegenerate rational combination of the given 2-forms, or None.

    Exact: the Pfaffian of a symbolic combination is expanded as a polynomial
    in the span parameters; it vanishes identically iff no nondegenerate
    combination exists (over any field extension, by polynomial identity).
    The returned witness comes from a deterministic smallest-point search
    and is sign-normalized (leading coefficient positive), so reruns agree.
    """
    basis_forms = list(basis_forms)
    if not basis_forms:
        return None
    dim = algebra.dim
    edges = set()
    for form in basis_forms:
        _check_two_form(algebra, form, "basis form")
        edges.update(form.coeffs)
    covered = {i for edge in edges for i in edge}
    if len(covered) < dim or not _support_admits_matching(dim, edges):
        return None

    nvars = len(basis_forms)

    def entry(i, j):
        terms = {}
        for v, form in enumerate(basis_forms):
            coeff = form.coefficient((i, j))
            if coeff != 0:
                expo = tuple(1 if t == v else 0 for t in range(nvars))
                terms[expo] = coeff
        return Poly(nvars, terms, _normalized=True)

    pfaffian = _pfaffian_expand(
        entry, range(1, dim + 1), Poly(nvars, {}, _normalized=True),
        Poly.constant(nvars, 1),
    )
    if pfaffian.is_zero:
        return None
    point = nonzero_point(pfaffian)
    witness = algebra.zero_form(2)
    for value, form in zip(point, basis_forms):
        if value != 0:
            witness = witness + form.scale(value)
    # normalize: leading coefficient (first monomial in lex order) positive
    if witness.terms()[0][1] < 0:
        witness = -witness
    if pfaffian_volume(algebra, witness) == 0:
        raise InternalInvariantBreach("symbolic Pfaffian point is degenerate")
    return witness


def find_symplectic(algebra):
    """A symplectic form on the algebra, or None if none exists.

    Complete: the closed 2-forms are a finite-dimensional rational space and
    nondegeneracy is decided symbolically over it, so None is a proof of
    nonexistence of invariant symplectic structures (cheap for dim <= 8;
    cost grows combinatorially beyond).
    """
    if algebra.dim % 2:
        raise OddDimension("symplectic structures need even dimension")
    closed = cohomology_space(algebra, 2).cocycle_basis
    return nondegenerate_in_span(algebra, closed)


# -- locally conformal symplectic --------------------------------------------


@dataclass(frozen=True)
class LcsVerdict:
    """Exact verdict on a candidate pair (omega, theta)."""

    nondegenerate: bool
    lee_closed: bool
    identity_holds: bool
    genuine: bool
    witness_volume: Fraction

    @property
    def holds(self):
        return self.nondegenerate and self.lee_closed and self.identity_holds

    @property
    def is_genuine_lcs(self):
        return self.holds and self.genuine

    def __bool__(self):
        return self.holds


def _check_lcs_input(algebra, omega, theta):
    if algebra.dim % 2:
        raise OddDimension("lcs structures need even dimension")
    if algebra.dim < 4:
        raise WrongDimension(
            "lcs operations need dim >= 4 (in dimension 2 the Lee form is not unique)")
    _check_two_form(algebra, omega)
    if not isinstance(theta, KForm):
        raise InvalidParameter("theta must be a KForm")
    if theta.algebra != algebra:
        raise AmbientMismatch("theta lives over a different algebra")
    if theta.degree != 1 and not theta.is_zero:
        raise InvalidParameter(f"theta must be a 1-form, got degree {theta.degree}")


def check_lcs(algebra, omega, theta):
    """Does d(omega) = theta ^ omega hold, with theta closed and omega
    nondegenerate?  ``genuine`` additionally records [theta] != 0."""
    _check_lcs_input(algebra, omega, theta)
    volume = pfaffian_volume(algebra, omega)
    lee_closed = ce_d(theta).is_zero
    identity = ce_d(omega) == wedge(theta, omega)
    # B^1 = d(Lambda^0) = 0 for trivial coefficients: a closed theta is exact
    # only when it is zero
    genuine = lee_closed and not theta.is_zero
    return LcsVerdict(
        nondegenerate=volume != 0,
        lee_closed=lee_closed,
        identity_holds=identity,
        genuine=genuine,
        witness_volume=volume,
    )


def twisted_exactness_witness(algebra, omega, theta):
    """Solve d_theta(eta) = omega for a 1-form eta (None when not solvable).

    For a genuine lcs pair this exhibits omega as d_theta-exact, the
    first-kind mechanism behind the twisted-cohomology vanishing.
    Preconditions: check_lcs(algebra, omega, theta) must hold.
    """
    verdict = check_lcs(algebra, omega, theta)
    if not verdict.holds:
        raise PreconditionFailed(
            "twisted exactness needs a valid lcs pair; got "
            f"nondegenerate={verdict.nondegenerate}, lee_closed={verdict.lee_closed}, "
            f"identity_holds={verdict.identity_holds}")
    columns, domain, codomain = _d_matrix(algebra, 1, theta)
    solution = linalg.preimage(columns, _coordinates(omega, codomain))
    if solution is None:
        return None
    eta = _form(algebra, 1, domain, solution)
    if twisted_d(algebra, theta, eta) != omega:
        raise InternalInvariantBreach("twisted primitive failed re-verification")
    return eta


# -- the lcs search ----------------------------------------------------------


@dataclass(frozen=True)
class SearchConfig:
    """Knobs for find_lcs.

    ``height``: enumerate twisting forms whose coordinates (against the
    echelon basis of closed covectors) are rationals p/q with
    max(|p|, q) <= height.
    ``max_candidates``: hard cap on examined candidates (None: exhaust).
    ``basis_covectors_first``: emit the unit basis candidates ahead of the
    rest of their height level.
    """

    height: int = 2
    max_candidates: int | None = None
    basis_covectors_first: bool = True


@dataclass(frozen=True)
class LcsSearchResult:
    """Outcome of a bounded lcs search.

    ``witness`` is the first pair found in enumeration order (theta = 0
    means a plain symplectic structure); ``genuine_witness`` is the first
    pair with [theta] != 0.  ``genuine_status`` never claims nonexistence:
    a negative is always NOT_FOUND_UP_TO_HEIGHT(h) (or a candidate-cap
    notice), because the enumeration is a semi-decision.
    """

    height: int
    examined: int
    capped: bool
    witness: tuple | None
    verdict: LcsVerdict | None
    genuine_witness: tuple | None
    genuine_verdict: LcsVerdict | None

    @property
    def found(self):
        return self.witness is not None

    @property
    def genuine_found(self):
        return self.genuine_witness is not None

    @property
    def genuine_status(self):
        if self.genuine_found:
            return "FOUND"
        if self.capped:
            return "CANDIDATE_LIMIT_REACHED"
        return f"NOT_FOUND_UP_TO_HEIGHT({self.height})"


def _ordered_values(max_height):
    """Nonzero rationals of height <= max_height in the documented order:
    by height, integers before proper fractions, positive before negative,
    then by magnitude."""
    values = set()
    for den in range(1, max_height + 1):
        for num in range(-max_height, max_height + 1):
            if num == 0:
                continue
            v = Fraction(num, den)
            if height(v) <= max_height:
                values.add(v)
    return sorted(values, key=lambda v: (
        height(v), 0 if v.denominator == 1 else 1, 0 if v > 0 else 1, abs(v)))


def closed_covector_basis(algebra):
    """Echelon basis of the closed 1-forms (= H^1 cocycles)."""
    return cohomology_space(algebra, 1).cocycle_basis


def theta_candidates(algebra, config):
    """Deterministic stream of twisting candidates.

    Order: the zero form (plain symplectic pass) first; then, level by level
    for h = 1..height, all coordinate vectors over the closed-covector basis
    whose maximum coordinate height is exactly h, by support size, then
    support position, then the documented value order.  With
    ``basis_covectors_first`` the unit basis covectors are hoisted to the
    front of level 1.
    """
    basis = closed_covector_basis(algebra)
    m = len(basis)
    yield algebra.zero_form(1)
    if m == 0:
        return

    def assemble(assignment):
        form = algebra.zero_form(1)
        for pos, value in assignment:
            form = form + basis[pos].scale(value)
        return form

    hoisted = set()
    if config.basis_covectors_first:
        for pos in range(m):
            hoisted.add(((pos, ONE),))
            yield basis[pos]

    for level in range(1, config.height + 1):
        values = _ordered_values(level)
        for support_size in range(1, m + 1):
            for support in itertools.combinations(range(m), support_size):
                for choice in itertools.product(values, repeat=support_size):
                    if max(height(v) for v in choice) != level:
                        continue
                    assignment = tuple(zip(support, choice))
                    if assignment in hoisted:
                        continue
                    yield assemble(assignment)


def find_lcs(algebra, config=SearchConfig()):
    """Bounded search for lcs pairs (omega, theta).

    Each candidate theta is decided exactly: the d_theta-closed 2-forms are
    computed and the symbolic Pfaffian over that solution space either
    produces a nondegenerate combination or proves none exists for this
    theta.  Candidates are enumerated by ``theta_candidates``; the search
    stops at the first genuine witness, recording along the way the first
    witness of any kind (theta = 0 included).
    """
    if algebra.dim % 2:
        raise OddDimension("lcs structures need even dimension")
    if algebra.dim < 4:
        raise WrongDimension("lcs search needs dim >= 4")

    examined = 0
    capped = False
    witness = verdict = None
    genuine_witness = genuine_verdict = None

    if algebra.is_abelian:
        # With d = 0, d_theta-closed for theta != 0 means theta ^ omega = 0,
        # i.e. omega = theta ^ (something), and every such form has zero
        # Pfaffian.  Only the theta = 0 candidate can produce a witness, so
        # the rest of the enumeration is counted in closed form: candidates
        # are exactly the coordinate vectors over the m closed covectors with
        # entry heights <= H, (V + 1)^m of them for V nonzero values.
        m = len(closed_covector_basis(algebra))
        total = (len(_ordered_values(config.height)) + 1) ** m
        examined = total
        if config.max_candidates is not None and config.max_candidates < total:
            examined = config.max_candidates
            capped = True
        if examined >= 1:
            omega = find_symplectic(algebra)
            if omega is not None:
                theta = algebra.zero_form(1)
                this_verdict = check_lcs(algebra, omega, theta)
                if not this_verdict.holds:
                    raise InternalInvariantBreach(
                        "search produced a pair that fails its own verdict")
                witness, verdict = (omega, theta), this_verdict
        return LcsSearchResult(
            height=config.height,
            examined=examined,
            capped=capped,
            witness=witness,
            verdict=verdict,
            genuine_witness=None,
            genuine_verdict=None,
        )

    for theta in theta_candidates(algebra, config):
        if config.max_candidates is not None and examined >= config.max_candidates:
            capped = True
            break
        examined += 1

        if theta.is_zero:
            omega = find_symplectic(algebra)
        else:
            columns, domain, _ = _d_matrix(algebra, 2, theta)
            span = [_form(algebra, 2, domain, vec) for vec in linalg.kernel(columns)]
            omega = nondegenerate_in_span(algebra, span)

        if omega is None:
            continue
        this_verdict = check_lcs(algebra, omega, theta)
        if not this_verdict.holds:
            raise InternalInvariantBreach(
                "search produced a pair that fails its own verdict")
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


# -- almost complex structures ----------------------------------------------


class AlmostComplexStructure:
    """An exact rational matrix J with J^2 = -Id, acting on basis columns:
    J(X_c) = sum_r M[r][c] X_r."""

    __slots__ = ("dim", "matrix")

    def __init__(self, matrix):
        rows = [tuple(as_scalar(v) for v in row) for row in matrix]
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("J must be square")
        self.dim = n
        self.matrix = tuple(rows)
        for i in range(n):
            for j in range(n):
                entry = sum((self.matrix[i][k] * self.matrix[k][j] for k in range(n)),
                            ZERO)
                expected = -ONE if i == j else ZERO
                if entry != expected:
                    raise NotAlmostComplex("J^2 != -Id")

    def apply(self, vector):
        vector = as_vector(vector, self.dim)
        return tuple(
            sum((self.matrix[r][c] * vector[c] for c in range(self.dim)), ZERO)
            for r in range(self.dim)
        )

    def column(self, j):
        """J(X_j) as a coefficient tuple (1-based j)."""
        return tuple(self.matrix[r][j - 1] for r in range(self.dim))

    def __eq__(self, other):
        if not isinstance(other, AlmostComplexStructure):
            return NotImplemented
        return self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return f"AlmostComplexStructure(dim={self.dim})"


@dataclass(frozen=True)
class NijenhuisTensor:
    """N(X, Y) = [JX, JY] - J[JX, Y] - J[X, JY] - [X, Y] on basis pairs."""

    dim: int
    components: dict = field(compare=False)

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
    if not isinstance(acs, AlmostComplexStructure):
        acs = AlmostComplexStructure(acs)
    if acs.dim != algebra.dim:
        raise DimensionMismatch("J has the wrong size for this algebra")
    n = algebra.dim
    components = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            xi = tuple(ONE if t == i - 1 else ZERO for t in range(n))
            xj = tuple(ONE if t == j - 1 else ZERO for t in range(n))
            jxi, jxj = acs.apply(xi), acs.apply(xj)
            value = algebra.bracket_vectors(jxi, jxj)
            value = tuple(
                a - b - c - d
                for a, b, c, d in zip(
                    value,
                    acs.apply(algebra.bracket_vectors(jxi, xj)),
                    acs.apply(algebra.bracket_vectors(xi, jxj)),
                    algebra.bracket_vectors(xi, xj),
                )
            )
            components[(i, j)] = value
    return NijenhuisTensor(dim=n, components=components)


# -- the three nilpotent algebras in dimension four --------------------------

_STANDARD_4D = {
    4: ("torus", "(0,0,0,0)", {}),
    3: ("kodaira_thurston_class", "(0,0,0,12)", {(1, 2): (0, 0, 0, -1)}),
    2: ("filiform_class", "(0,0,12,13)", {(1, 2): (0, 0, -1, 0),
                                          (1, 3): (0, 0, 0, -1)}),
}


@dataclass(frozen=True)
class Classification4D:
    """Isomorphism class of a 4-dimensional nilpotent algebra.

    b_1 is a complete invariant here (abelian, Heisenberg x line, filiform).
    ``standard_symplectic`` is the classical symplectic witness on the
    standard model; ``kahler_admissible`` applies the nilmanifold dichotomy
    (Benson-Gordon / Hasegawa): Kahler forces the torus.
    """

    label: str
    standard_salamon: str
    b1: int
    kahler_admissible: bool
    standard_model: LieAlgebra
    standard_symplectic: KForm


def classify_4d(algebra):
    if algebra.dim != 4:
        raise WrongDimension("classification is for dimension 4 only")
    from .exterior_core import lower_central_series

    invariants = lower_central_series(algebra)
    if not invariants.nilpotent:
        raise NotNilpotent("classification is for nilpotent algebras only")
    b1 = cohomology_space(algebra, 1).betti
    label, salamon, brackets = _STANDARD_4D[b1]
    model = build_algebra(4, brackets)
    if label == "torus":
        witness = model.form({(1, 2): 1, (3, 4): 1})
    else:
        witness = model.form({(1, 4): 1, (2, 3): 1})
    verdict = check_symplectic(model, witness)
    if not verdict.is_symplectic:
        raise InternalInvariantBreach("standard symplectic witness failed")
    return Classification4D(
        label=label,
        standard_salamon=salamon,
        b1=b1,
        kahler_admissible=(b1 == 4),
        standard_model=model,
        standard_symplectic=witness,
    )
