"""Invariant symplectic and locally conformal symplectic structures.

A 2-form omega on a 2n-dimensional algebra is nondegenerate exactly when the
Pfaffian of its skew coefficient matrix is nonzero; that Pfaffian equals the
coefficient of x_1^...^x_{2n} in omega^n / n!, so "witness volume" below is
literal.  An lcs pair is a nondegenerate omega with d(omega) = theta ^ omega
for a closed 1-form theta (the Lee form, unique once dim >= 4); the pair is
*genuine* when [theta] != 0, i.e. the structure is not a global conformal
rescaling of a symplectic one.  Almost complex structures and metrics live in
``hermitian``, which reads nothing from here.

Searches here are semi-decisions by design.  ``find_lcs`` enumerates twisting
candidates in a documented deterministic order up to a height bound and
decides each candidate exactly (symbolic Pfaffian over the solution-space
parameters), so a negative answer is always reported as "not found up to
height H", never as nonexistence.

On a nilpotent algebra Dixmier's theorem (H*_theta = 0 for closed
theta != 0) makes every d_theta-closed 2-form twisted-exact, so a closed
covector b_i of the basis is a Lee form exactly when the symbolic Pfaffian
Q_i of d eta - b_i ^ eta over the primitive eta is not zero.  The
Pfaffian over all theta at once is sum t_i Q_i, linear in theta, so the
b_i decide every theta: the search decides theta = 0 and the basis
covectors in order, skips each one whose Q_i is zero, and reads the
d_theta-closed 2-forms of the first other one off d_theta(Lambda^1), the
span the same theorem gives, in the very basis and with the very values
(``linalg._ratio``) the kernel of d_theta on Lambda^2 would give; a miss
is counted in closed form.
Whether the algebra is nilpotent is read off its structure constants when
they are in Salamon's order (every [X_i, X_j], i < j, in the span of the
X_k with k > j) and left to the lower central series otherwise.  Every
Pfaffian here is that of a linear family sum m_V F_V of 2-forms F_V, each
weighted by a product m_V of distinct variables, and comes from one
memoized first-row expansion (``_symbolic_pfaffian``): a numeric Pfaffian
is one form weighted by 1, a span's gives each form its own variable, and
the one over eta = sum a_j x_j for a closed covector b lists
a_j (dx_j - b ^ x_j).  The expansion runs on int coefficients wherever they
are integral, and stops with WrongDimension once the terms it has formed
pass the size budget.  The shortcut deletes work, not honesty: the
search still answers for the candidates up to height H only, and a
nonexistence claim belongs to a separate, proof-carrying decision.

Inside the searches a form is its term dict ``{monomial: coeff}``, read off
``cohomology._cocycles`` (which, as ``_d_matrix``, validates nothing and
answers any degree); a ``KForm`` is built only for what leaves a search
(the witness, the thetas and ``closed_covector_basis``), and the public
``nondegenerate_in_span`` checks its basis forms before it hands their
terms on.

Dimension 2 is excluded from the lcs operations: there the Lee form is not
unique and the conformal dichotomy collapses.  ``find_symplectic`` refuses
dimension 0, where no 2-form exists to be a witness.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from . import exterior_core, linalg
from .cohomology import (
    _cocycles,
    _d_matrix,
    _primitive,
    cohomology_space,
    twisted_d,
)
from .errors import (
    InternalInvariantBreach,
    InvalidParameter,
    NotNilpotent,
    OddDimension,
    PreconditionFailed,
    WrongDimension,
    _Record,
)
from .exterior_core import (
    KForm,
    _is_nilpotent,
    _masks,
    _require_budget,
    _require_form,
    ce_d,
    wedge,
)
from .polynomials import Poly, nonzero_point
from .scalars import _exact, as_scalar, height


# -- Pfaffian ----------------------------------------------------------------


def _symbolic_pfaffian(dim, nvars, family):
    """Pfaffian, as a Poly in ``nvars`` variables, of the skew matrix
    sum m_V F_V over the ``family`` of pairs (V, F): V a tuple of distinct
    variable indices, () for the constant 1, and m_V their product; F a
    2-form's terms {(i, j): coeff}, i < j.  The tuples V of one family are
    distinct, so each entry takes each monomial at most once.

    The one Pfaffian expansion of the package: by the first row, memoized
    on index subsets, Pf(S) = sum over the partners j of s_1 of
    (-1)^pos a_{s_1 j} Pf(S minus s_1, j), pos being j's place among the
    rest of S.  It runs on ``{packed monomial: coefficient}`` dicts: the
    exponent of variable v is the field of w bits at offset w * v, so m_V
    is the int sum(1 << w * v for v in V) and a product of monomials is a
    sum of ints.  A product of dim / 2 entries raises no variable above
    dim / 2, and w = bit length of dim / 2 holds that, so no field carries
    into the next.  Integral coefficients enter as ints (``_exact``) and the
    unit is {0: 1}, so the arithmetic stays on ints wherever the input
    allows; the result is unpacked to a Poly once, at the end.

    A minor whose first row has no entry is zero at once, and a zero minor
    is skipped before it is counted or multiplied; the sign (-1)^pos is
    settled once per partner, outside the product loop.

    The expansion counts the terms it forms, each product of an entry with
    a minor before it is formed, against ``exterior_core._BUDGET`` // dim,
    read at the call, and ``_require_budget`` refuses a count past it; the
    memo never holds more terms than that.  A skipped zero minor forms no
    term, so it leaves the count as it was.  A bound
    fixed before the expansion could not see terms cancel: on an abelian
    algebra of dimension 14 every minor of Pf(d eta - theta ^ eta) of size
    >= 4 vanishes, yet the entries' term counts multiply past the budget."""
    width = max(1, (dim // 2).bit_length())
    rows = {}
    for variables, form in family:
        key = 0
        for v in variables:
            key += 1 << width * v
        for (i, j), coeff in form.items():
            if coeff:
                row = rows.get(i)
                if row is None:
                    row = rows[i] = {}
                entry = row.get(j)
                if entry is None:
                    entry = row[j] = {}
                entry[key] = _exact(coeff)
    memo = {(): {0: 1}}
    formed = 0
    # formed * dim > _BUDGET exactly when formed > _BUDGET // dim; read at
    # the call, so a budget changed at run time holds
    limit = exterior_core._BUDGET // max(dim, 1)

    def pf(subset):
        nonlocal formed
        total = memo.get(subset)
        if total is not None:
            return total
        row = rows.get(subset[0])
        if row is None:
            return {}
        rest = subset[1:]
        total = {}
        get = total.get
        for pos, partner in enumerate(rest):
            entry = row.get(partner)
            if entry is None:
                continue
            sub = pf(rest[:pos] + rest[pos + 1:])
            if not sub:
                continue
            formed += len(entry) * len(sub)
            if formed > limit:
                _require_budget(formed, dim, "the Pfaffian")
            if pos & 1:
                for ka, ca in entry.items():
                    for kb, cb in sub.items():
                        k = ka + kb
                        total[k] = get(k, 0) - ca * cb
            else:
                for ka, ca in entry.items():
                    for kb, cb in sub.items():
                        k = ka + kb
                        total[k] = get(k, 0) + ca * cb
        total = memo[subset] = {k: c for k, c in total.items() if c}
        return total

    try:
        expanded = pf(tuple(range(1, dim + 1)))
    finally:
        # pf refers to itself: unbinding it frees the memo of symbolic minors
        # now, not whenever the cycle collector next runs
        del pf
    mask = (1 << width) - 1
    shifts = range(0, width * nvars, width)
    return Poly(nvars, {tuple([key >> s & mask for s in shifts]): c
                        for key, c in expanded.items()}, _normalized=True)


def pfaffian_volume(algebra, omega):
    """Pfaffian of omega's skew matrix == coefficient of the top monomial in
    omega^n / n!.  Nonzero iff omega is nondegenerate.  The no-variable case
    of ``_symbolic_pfaffian``, so expanded on ints wherever the coefficients
    are integral; returned as a Fraction."""
    if algebra.dim % 2:
        raise OddDimension("the Pfaffian needs an even-dimensional algebra")
    _require_form(algebra, omega, "omega", 2)
    pf = _symbolic_pfaffian(algebra.dim, 0, [((), omega.coeffs)])
    return as_scalar(pf.terms.get((), 0))


# -- symplectic --------------------------------------------------------------


class SymplecticVerdict(_Record):
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
    pfaffian = pfaffian_volume(algebra, omega)
    return SymplecticVerdict(closed=ce_d(omega).is_zero, pfaffian=pfaffian)


def _lee_pfaffian(algebra, covector):
    """Q(a) = Pf(d eta - b ^ eta) as a Poly in a_1..a_n, where
    eta = sum a_j x_j and b is one closed covector given by its terms
    ``{(k,): beta}``: the family lists a_j (dx_j - b ^ x_j), one form per j,
    read off ``algebra._dx``.

    Dixmier (Acta Sci. Math. Szeged 16, 1955): on a nilpotent algebra every
    twisted cohomology group H*_b vanishes for closed b != 0, so each
    d_b-closed 2-form is some d eta - b ^ eta, and b is a Lee form exactly
    when Q is not the zero polynomial.
    """
    n = algebra.dim
    terms = [(k, beta) for (k,), beta in covector.items()]
    family = []
    for j in range(1, n + 1):
        # -b ^ x_j = sum -beta x_k ^ x_j over the terms beta x_k of b
        form = dict(algebra._dx[j])
        for k, beta in terms:
            if k != j:
                pair, value = ((k, j), -beta) if k < j else ((j, k), beta)
                form[pair] = form.get(pair, 0) + value
        family.append(((j - 1,), form))
    return _symbolic_pfaffian(n, n, family)


def nondegenerate_in_span(algebra, basis_forms):
    """A nondegenerate rational combination of the given 2-forms, or None.

    Exact: the Pfaffian of a symbolic combination is expanded as a polynomial
    in the span parameters; it vanishes identically iff no nondegenerate
    combination exists (over any field extension, by polynomial identity).
    The returned witness comes from a deterministic smallest-point search
    and is sign-normalized (leading coefficient positive), so reruns agree.
    """
    span = []
    for form in basis_forms:
        _require_form(algebra, form, "basis form", 2)
        span.append(form.coeffs)
    found = _nondegenerate_in_span(algebra, span)
    return None if found is None else found[0]


def _nondegenerate_in_span(algebra, span):
    """``nondegenerate_in_span`` over 2-forms given by their terms
    ``{(i, j): coeff}``, as the pair (witness, its Pfaffian volume), or
    None: the volume is the nonzero value that checked the witness, so a
    search hands it to ``_lcs_verdict`` instead of expanding it again.  The
    witness is the one ``KForm`` built here."""
    if not span:
        return None
    pfaffian = _symbolic_pfaffian(algebra.dim, len(span), [
        ((v,), terms) for v, terms in enumerate(span)])
    if pfaffian.is_zero:
        return None
    # the point's integral values as ints, so integral forms give an int sum
    point = map(_exact, nonzero_point(pfaffian))
    terms = linalg.apply(span, {v: value for v, value in enumerate(point) if value})
    # normalize: leading coefficient (first monomial in lex order) positive
    if terms[min(terms)] < 0:
        terms = {mono: -coeff for mono, coeff in terms.items()}
    witness = KForm(algebra, 2, terms, _normalized=True)
    volume = pfaffian_volume(algebra, witness)
    if volume == 0:
        raise InternalInvariantBreach("symbolic Pfaffian point is degenerate")
    return witness, volume


def find_symplectic(algebra):
    """A symplectic form on the algebra, or None if none exists.

    Complete: the closed 2-forms are a finite-dimensional rational space and
    nondegeneracy is decided symbolically over it, so None is a proof of
    nonexistence of invariant symplectic structures (cheap for dim <= 8;
    cost grows combinatorially beyond).
    """
    if algebra.dim % 2:
        raise OddDimension("symplectic structures need even dimension")
    if algebra.dim < 2:
        raise WrongDimension("symplectic structures need dimension >= 2")
    closed, = _cocycles(algebra, (2,))
    found = _nondegenerate_in_span(algebra, closed)
    return None if found is None else found[0]


# -- locally conformal symplectic --------------------------------------------


class LcsVerdict(_Record):
    """Exact verdict on a candidate pair (omega, theta)."""

    nondegenerate: bool
    lee_closed: bool
    identity_holds: bool
    genuine: bool
    witness_volume: Fraction

    @property
    def holds(self):
        return self.nondegenerate and self.lee_closed and self.identity_holds

    def __bool__(self):
        return self.holds


def check_lcs(algebra, omega, theta):
    """Does d(omega) = theta ^ omega hold, with theta closed and omega
    nondegenerate?  ``genuine`` additionally records [theta] != 0."""
    if algebra.dim % 2:
        raise OddDimension("lcs structures need even dimension")
    if algebra.dim < 4:
        raise WrongDimension(
            "lcs operations need dim >= 4 (in dimension 2 the Lee form is not unique)")
    return _lcs_verdict(algebra, omega, theta, pfaffian_volume(algebra, omega))


def _lcs_verdict(algebra, omega, theta, volume):
    """``check_lcs`` past its dimension checks, with omega already checked
    as a 2-form over the algebra and ``volume`` its Pfaffian."""
    _require_form(algebra, theta, "theta", 1)
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
    eta = _primitive(algebra, omega, theta)
    if eta is not None and twisted_d(algebra, theta, eta) != omega:
        raise InternalInvariantBreach("twisted primitive failed re-verification")
    return eta


# -- the lcs search ----------------------------------------------------------


class SearchConfig(_Record):
    """Knobs for find_lcs.

    ``height``: enumerate twisting forms whose coordinates (against the
    echelon basis of closed covectors) are rationals p/q with
    max(|p|, q) <= height.
    ``max_candidates``: hard cap on examined candidates (None: exhaust).
    Both are non-negative ints (bool excluded); anything else raises
    InvalidParameter.
    """

    height: int = 2
    max_candidates: int | None = None

    def __post_init__(self):
        checked = {"height": self.height}
        if self.max_candidates is not None:
            checked["max_candidates"] = self.max_candidates
        for name, value in checked.items():
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidParameter(f"{name} must be a non-negative int, got {value!r}")


class LcsSearchResult(_Record):
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
    then by magnitude.  A pure function of the height, kept as a tuple."""
    values = set()
    for den in range(1, max_height + 1):
        for num in range(-max_height, max_height + 1):
            if num == 0:
                continue
            v = Fraction(num, den)
            if height(v) <= max_height:
                values.add(v)
    return tuple(sorted(values, key=lambda v: (
        height(v), 0 if v.denominator == 1 else 1, 0 if v > 0 else 1, abs(v))))


def _value_count(max_height):
    """``len(_ordered_values(max_height))``, counted without building a value.

    A nonzero p/q in lowest terms has height <= H when 1 <= |p|, q <= H.  The
    coprime pairs with 1 <= p <= q <= H number Phi(H) = sum_{q <= H} phi(q),
    those with p >= q as many, and p = q = 1 is both, so there are
    2 Phi(H) - 1 positive values and V(H) = 2 (2 Phi(H) - 1) for H >= 1.
    phi comes off a sieve of H + 1 entries, refused past the size budget."""
    _require_budget(max_height + 1, 1, "the totient sieve that counts the candidate values")
    phi = list(range(max_height + 1))
    for p in range(2, max_height + 1):
        if phi[p] == p:  # untouched so far: p is prime
            for k in range(p, max_height + 1, p):
                phi[k] -= phi[k] // p
    return 2 * (2 * sum(phi) - 1) if max_height else 0


def closed_covector_basis(algebra):
    """Basis of the closed 1-forms: the ``linalg.kernel`` of d on Lambda^1,
    read without building H^1 (in degree 1 the coboundaries are 0, so the
    space would add nothing to check)."""
    basis, = _cocycles(algebra, (1,))
    return [KForm(algebra, 1, terms, _normalized=True) for terms in basis]


def theta_candidates(algebra, config):
    """Deterministic stream of twisting candidates.

    Order: the zero form (plain symplectic pass) first; then, level by level
    for h = 1..height, all coordinate vectors over the closed-covector basis
    whose maximum coordinate height is exactly h, by support size, then
    support position, then the documented value order, except that the
    unit basis covectors are hoisted to the front of level 1.  Height 0, or
    dimension 0, where the zero form is recorded at the top degree, yields it
    alone.  ``config`` is checked at the call, not at the first ``next``.
    """
    _require_config(config)
    basis, = _cocycles(algebra, (1,))
    return (theta for _, theta in _theta_stream(algebra, config, basis))


def _require_config(config):
    """Refuse a search config that is not a ``SearchConfig`` (exit 3)."""
    if not isinstance(config, SearchConfig):
        raise InvalidParameter(f"config must be a SearchConfig, got {type(config).__name__}")


def _theta_stream(algebra, config, basis):
    """``theta_candidates`` over a closed-covector basis already computed,
    given by its terms, each theta after its (position, value) coordinates
    over that basis."""
    m = len(basis)
    yield (), algebra.zero_form(min(1, algebra.dim))
    if m == 0 or config.height == 0:
        return
    hoisted = {((pos, 1),): KForm(algebra, 1, covector, _normalized=True)
               for pos, covector in enumerate(basis)}
    yield from hoisted.items()

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
                    terms = linalg.apply(basis, dict(assignment))
                    yield assignment, KForm(algebra, 1, terms, _normalized=True)


def _twisted_exact_span(algebra, theta):
    """The d_theta-closed 2-forms for a closed theta != 0 on a nilpotent
    algebra, as the same term dicts, in the same order and with the same
    int and Fraction values as ``_cocycles(algebra, (2,), theta)``, read
    off the n images d_theta x_j instead of the map Lambda^2 -> Lambda^3.

    By Dixmier's theorem H^2_theta = 0, so Z^2_theta = d_theta(Lambda^1).
    The kernel basis ``_cocycles`` gives has one vector per free source f:
    1 at f, 0 at the other free sources and nonzero only below f, so in
    reversed source order it is the reduced echelon basis of Z^2_theta.
    That basis is unique, so it is also the echelon of the images keyed by
    their targets' positions in the reversed lex order of Lambda^2 (read off
    ``algebra.monomials(2)`` and ``exterior_core._masks``), each row
    divided by its pivot entry under the kernel's value rule
    (``linalg._ratio``).  Increasing f is decreasing reversed position, so
    the rows are read last pivot first, and each row last column first.
    """
    monomials = algebra.monomials(2)[::-1]
    position = {mask: r for r, mask in enumerate(_masks(algebra.dim, 2)[::-1])}
    rows = linalg.echelon([{position[mask]: c for mask, c in image.items()}
                           for image in _d_matrix(algebra, 1, theta)])
    return [{monomials[r]: linalg._ratio(v, row[p]) for r, v in reversed(row.items())}
            for p, row in reversed(rows.items())]


def find_lcs(algebra, config=SearchConfig()):
    """Bounded search for lcs pairs (omega, theta).

    Candidates come from ``theta_candidates`` and each is decided exactly,
    theta = 0 included: the d_theta-closed 2-forms are computed and the
    symbolic Pfaffian over that solution space either produces a
    nondegenerate combination or proves none exists for this theta.  The
    search stops at the first genuine witness, recording along the way the
    first witness of any kind (theta = 0 means a plain symplectic one).
    Each witness costs one numeric Pfaffian: the volume that checked it in
    ``nondegenerate_in_span`` is the one its ``check_lcs`` verdict reports.

    On a nilpotent algebra each closed covector b_i decides itself: by
    Dixmier's vanishing theorem every d_theta-closed 2-form with theta != 0
    is some d eta - theta ^ eta, so b_i is a Lee form exactly when
    Q_i(a) = Pf(d eta - b_i ^ eta) is not zero (``_lee_pfaffian``).  And
    P(t, a) = Pf(d eta - theta ^ eta) over theta = sum t_i b_i is
    sum t_i Q_i(a), of degree 1 in t, since (theta ^ eta)^2 = 0 and
    (d eta)^(n/2) is exact in top degree, hence zero on a unimodular
    algebra: the theta that are not Lee forms make up a linear subspace,
    and if every b_i is in it, so is every theta.  The b_i head level 1,
    right after theta = 0, so the search examines theta = 0 and
    b_0 .. b_{m-1} alone, counts a b_i with Q_i == 0 as examined and
    skips it, and a b_i with Q_i != 0 reads its d_theta-closed 2-forms off
    d_theta(Lambda^1) (``_twisted_exact_span``), in the very basis of the
    kernel a non-nilpotent algebra still eliminates for.  Such a b_i that
    gives no pair is an ``InternalInvariantBreach``.  A miss, every Q_i
    zero or height 0, counts the (V + 1)^m candidates, V nonzero values
    (``_value_count``) for each of the m coordinates, in closed form under
    the cap: the result is the one the full enumeration would return.  The
    status stays a semi-decision all the same: the theorem changes what the
    search costs, not what it reports, and a miss is still
    NOT_FOUND_UP_TO_HEIGHT(H).

    The closed covectors and the closed 2-forms of theta = 0 come off one
    untwisted sweep (``_cocycles(algebra, (1, 2))``), as term dicts; a
    ``KForm`` is built only for what leaves the search, the thetas and the
    witness.
    """
    if algebra.dim % 2:
        raise OddDimension("lcs structures need even dimension")
    if algebra.dim < 4:
        raise WrongDimension("lcs search needs dim >= 4")
    _require_config(config)

    basis, closed = _cocycles(algebra, (1, 2))
    m = len(basis)
    candidates = _theta_stream(algebra, config, basis)
    nilpotent = _is_nilpotent(algebra)
    if nilpotent:  # theta = 0, then the hoisted b_0 .. b_{m-1}
        candidates = itertools.islice(candidates, m + 1)

    examined = 0
    capped = False
    witness = verdict = None
    genuine_witness = genuine_verdict = None
    for assignment, theta in candidates:
        if config.max_candidates is not None and examined >= config.max_candidates:
            capped = True
            break
        examined += 1
        # theta combines closed covectors, so it is closed by construction
        if not assignment:
            span = closed
        elif not nilpotent:
            span, = _cocycles(algebra, (2,), theta)
        elif _lee_pfaffian(algebra, theta.coeffs).is_zero:
            continue  # Q_i == 0: no d_theta-closed 2-form is nondegenerate
        else:  # Z^2_theta = d_theta(Lambda^1)
            span = _twisted_exact_span(algebra, theta)
        found = _nondegenerate_in_span(algebra, span)
        if found is None:
            if nilpotent and assignment:
                raise InternalInvariantBreach(
                    "a closed covector with Q_i != 0 gave no lcs pair")
            continue
        omega, volume = found
        this_verdict = _lcs_verdict(algebra, omega, theta, volume)
        if not this_verdict.holds:
            raise InternalInvariantBreach(
                "search produced a pair that fails its own verdict")
        if witness is None:
            witness, verdict = (omega, theta), this_verdict
        if this_verdict.genuine:
            genuine_witness, genuine_verdict = (omega, theta), this_verdict
            break

    if nilpotent and genuine_witness is None and not capped:
        # a miss: the candidates are the coordinate vectors over the m
        # closed covectors with entry heights <= H, (V + 1)^m of them for V
        # nonzero values, and none but theta = 0 can give a witness
        total = (_value_count(config.height) + 1) ** m
        cap = config.max_candidates
        examined = total if cap is None else min(total, cap)
        capped = examined < total

    return LcsSearchResult(
        height=config.height,
        examined=examined,
        capped=capped,
        witness=witness,
        verdict=verdict,
        genuine_witness=genuine_witness,
        genuine_verdict=genuine_verdict,
    )


# -- the three nilpotent algebras in dimension four --------------------------

_STANDARD_4D = {
    4: ("torus", "(0,0,0,0)"),
    3: ("kodaira_thurston_class", "(0,0,0,12)"),
    2: ("filiform_class", "(0,0,12,13)"),
}


class Classification4D(_Record):
    """Isomorphism class of a 4-dimensional nilpotent algebra.

    b_1 is a complete invariant here (abelian, Heisenberg x line, filiform),
    and ``standard_salamon`` is the standard model's tuple.
    ``kahler_admissible`` applies the nilmanifold dichotomy (Benson-Gordon /
    Hasegawa): Kahler forces the torus.
    """

    label: str
    standard_salamon: str
    b1: int
    kahler_admissible: bool


def classify_4d(algebra):
    if algebra.dim != 4:
        raise WrongDimension("classification is for dimension 4 only")
    if not _is_nilpotent(algebra):
        raise NotNilpotent("classification is for nilpotent algebras only")
    b1 = cohomology_space(algebra, 1).betti
    label, salamon = _STANDARD_4D[b1]
    return Classification4D(
        label=label,
        standard_salamon=salamon,
        b1=b1,
        kahler_admissible=(b1 == 4),
    )
