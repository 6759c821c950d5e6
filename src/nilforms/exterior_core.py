"""Exterior algebra of a Lie algebra's dual, with the Chevalley-Eilenberg
differential.

Sign convention (fixed globally, everything downstream depends on it):

    dx_i(X_j, X_k) = -x_i([X_j, X_k])

extended to higher degrees as a graded derivation.  So if the only nonzero
bracket is [X_1, X_2] = -X_4, then dx_4 = x_1 ^ x_2.  With this convention
d^2 = 0 is *equivalent* to the Jacobi identity, which is how constructors
validate their input: an algebra object cannot exist with inconsistent
structure constants.  Every differential of an algebra's forms, plain or
twisted (d_theta = d - theta ^), of one form or of a whole degree, is built
by one step, ``_d_step``: d_theta(x_i ^ x_R) = dx_i ^ x_R - x_i ^ d_theta(x_R),
from d_theta(1) = -theta.  It is the one place where the sign of d is
derived.

Representation notes.  A ``KForm`` is a sparse dict from strictly increasing
index tuples to rational coefficients; sign normalization happens at
insertion, so ``form({(4, 2): 1})`` stores ``{(2, 4): -1}``.  Basis indices
are 1-based throughout, matching the classical x_1, ..., x_n notation.
"""

from __future__ import annotations

import itertools
from math import lcm

from . import linalg
from .errors import (
    AmbientMismatch,
    IndexOutOfRange,
    InvalidParameter,
    JacobiViolation,
    WrongDimension,
    _Record,
)
from .scalars import ZERO, _exact, as_scalar, format_scalar

# The most cells one step may build: the Leibniz table, the lower central
# series, or one degree of the differential sweep.  A cell is one index slot
# of a dim-wide bitmask or vector, so ``count`` of them cost count * dim
# cells.  Every algebra the tests and the benchmark use, and the Betti
# numbers of any algebra up to dimension 21, stay under it; a 25-byte
# ``{"dim": 100000}`` document is refused in milliseconds instead of hanging.
_BUDGET = 10**7


def _require_budget(count, dim, what):
    """Refuse, with WrongDimension naming the estimate and the budget, a step
    that would build ``count`` dim-wide masks or vectors past ``_BUDGET``."""
    if count * dim > _BUDGET:
        raise WrongDimension(f"{what} in dimension {dim} would build about "
                             f"{count * dim} cells, past the budget of {_BUDGET}")

# -- raw term dictionaries ---------------------------------------------------
# Internal helpers operate on bare dicts {increasing tuple: coefficient} or
# {bitmask: coefficient}, without a form object around them.  Forms hold
# Fractions, or ints where the code that built them kept an integral value
# one; an algebra's differential tables hold ints where integral.


def _sort_with_sign(indices):
    """Sort an index tuple, tracking the permutation sign.

    Returns (sorted_tuple, sign) or None when an index repeats.
    """
    idx = list(indices)
    sign = 1
    # insertion sort; counts transpositions exactly and the tuples are tiny
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and idx[j - 1] == idx[j]:
            return None
    return tuple(idx), sign


def _add_term(acc, mono, coeff):
    new = acc.get(mono, 0) + coeff
    if new == 0:
        acc.pop(mono, None)
    else:
        acc[mono] = new


def _wedge_raw(a_terms, b_terms):
    """Wedge of two term dicts over any coefficient ring with +, unary -, *
    and ``== 0``: ints, Fractions and ``Poly`` alike.  A sign is applied by
    negating the product, so a ``Poly`` pays for no product with a constant
    polynomial."""
    out = {}
    for mono_a, ca in a_terms.items():
        for mono_b, cb in b_terms.items():
            merged = _sort_with_sign(mono_a + mono_b)
            if merged is None:
                continue
            mono, sign = merged
            product = ca * cb
            _add_term(out, mono, product if sign > 0 else -product)
    return out


def _indices(mask):
    """The increasing index tuple of a bitmask."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _masks(dim, k):
    """The degree-k monomials in dim variables as bitmasks sum(1 << i), in
    lex order (the order of ``LieAlgebra.monomials(k)``)."""
    bits = [1 << i for i in range(1, dim + 1)]
    return list(map(sum, itertools.combinations(bits, k)))


def _leibniz_table(dx_table):
    """The covector differentials ``{i: {(a, b): c}}`` keyed by the bit
    1 << i, each term as ``(1 << a | 1 << b, (1 << a) - 1, (1 << b) - 1, c)``:
    its bits and the masks of the indices below a and below b."""
    return {1 << i: [((1 << a) | (1 << b), (1 << a) - 1, (1 << b) - 1, c)
                     for (a, b), c in terms.items()]
            for i, terms in dx_table.items()}


def _d_step(dx, below, rest, rest_image):
    """d_theta(x_i ^ x_R) keyed by bitmask, from dx_i and d_theta(x_R):

        d_theta(x_i ^ x_R) = dx_i ^ x_R - x_i ^ d_theta(x_R),

    the graded Leibniz rule, started by d_theta(1) = -theta (plain d:
    d(1) = 0).  This is the one place where the sign of d is derived.
    ``dx`` is dx_i's row of ``_leibniz_table``, ``below`` the mask
    (1 << i) - 1 of the indices below i, ``rest`` the mask of R (i not in
    it) and ``rest_image`` d_theta(x_R) keyed by mask.  A term c x_a ^ x_b
    of dx_i lands on R + a + b with the sign (-1)^(|R & below a| +
    |R & below b|), and nowhere when a or b lies in R; a term c x_T of
    d_theta(x_R) lands on T + i with the sign -(-1)^|T & below i|, moving
    x_i past the indices of T below i, and nowhere when i lies in T.
    Coefficients are only negated and added, so they keep the types that
    the table and ``rest_image`` give them.
    """
    image = {}
    for pair, below_a, below_b, c in dx:
        if not rest & pair:
            odd = ((rest & below_a).bit_count() + (rest & below_b).bit_count()) & 1
            image[rest | pair] = -c if odd else c
    bit = below + 1
    for target, c in rest_image.items():
        if not target & bit:
            key = target | bit
            value = image.get(key, 0) + (c if (target & below).bit_count() & 1 else -c)
            if value:
                image[key] = value
            else:
                del image[key]
    return image


def _d_raw(terms, table, unit_image):
    """d_theta of a term dict ``{increasing tuple: coefficient}`` under a
    ``_leibniz_table``, for forms, with ``unit_image`` d_theta(1) = -theta
    keyed by bitmask (``{}``: plain d).

    Each monomial x_S is built from its last index down by ``_d_step``, so
    the monomials of one call share the images of their common tails; the
    result's masks go back to increasing tuples.
    """
    images = {0: unit_image}
    out = {}
    for mono, coeff in terms.items():
        mask = 0
        for i in reversed(mono):
            rest, bit = mask, 1 << i
            mask |= bit
            if mask not in images:
                images[mask] = _d_step(table[bit], bit - 1, rest, images[rest])
        for key, c in images[mask].items():
            _add_term(out, key, coeff * c)
    return {_indices(mask): c for mask, c in out.items()}


# -- Lie algebras ------------------------------------------------------------


class LieAlgebra:
    """A finite-dimensional real Lie algebra given by structure constants.

    ``constants`` maps (i, j, k) with i < j to the coefficient of X_k in
    [X_i, X_j].  Construction validates index ranges and the Jacobi identity
    (as d^2 = 0 on every dual covector); there is no unchecked constructor.

    Instances are immutable in spirit: nothing mutates the constants after
    construction, and cohomology results are memoized on the instance.
    """

    __slots__ = ("dim", "constants", "_dx", "_brackets", "_leibniz_dx", "_hash",
                 "_cohomology_cache")

    def __init__(self, dim, constants):
        if isinstance(dim, bool) or not isinstance(dim, int) or dim < 0:
            raise InvalidParameter(f"dimension must be a nonnegative integer, got {dim!r}")
        clean = {}
        for key, value in dict(constants).items():
            try:
                i, j, k = key
            except (TypeError, ValueError):
                raise InvalidParameter(f"constants key {key!r} is not an (i, j, k) triple")
            for idx in (i, j, k):
                if isinstance(idx, bool) or not isinstance(idx, int) or not 1 <= idx <= dim:
                    raise IndexOutOfRange(f"index {idx} outside 1..{dim} in key {key!r}")
            if i >= j:
                raise IndexOutOfRange(f"bracket key needs i < j, got ({i}, {j})")
            coeff = as_scalar(value)
            if coeff != 0:
                clean[(i, j, k)] = coeff
        self._build(dim, clean)
        self._check_jacobi()

    def _build(self, dim, constants):
        """Set every field from validated ``{(i, j, k): Fraction}`` constants,
        without the Jacobi check.

        ``_dx`` maps i to the terms ``{(a, b): c}`` of dx_i with each
        integral c an int (``_exact``), and ``_leibniz_dx`` is the one table
        d runs on, derived from it once.  ``_brackets`` maps (a, b) to
        [X_a, X_b] as sparse ``{k: c}``, under both orders and only where
        nonzero, so it holds at most twice as many entries as ``constants``;
        every map built from ad reads it.  ``constants`` keeps its Fractions,
        which the hash, equality and every repr read, and so does
        ``_brackets``."""
        _require_budget(dim, dim, "the Leibniz table")
        self.dim = dim
        self.constants = constants
        self._dx = {i: {} for i in range(1, dim + 1)}
        self._brackets = brackets = {}
        for (i, j, k), coeff in constants.items():
            negated = -coeff
            self._dx[k][(i, j)] = _exact(negated)
            brackets.setdefault((i, j), {})[k] = coeff
            brackets.setdefault((j, i), {})[k] = negated
        self._leibniz_dx = _leibniz_table(self._dx)
        self._hash = None
        self._cohomology_cache = {}

    def _check_jacobi(self):
        """Raise JacobiViolation unless d(dx_m) = 0 for every m, naming the
        lexicographically first offending 3-monomial of the first such m.

        The constants are first scaled by their common denominator L, so
        the check runs on ints; d o d is quadratic in the constants, so each
        d(dx_m) is L^2 times the true one and vanishes where it does.  Each
        d(x_a ^ x_b) that some dx_m uses is built once by ``_d_step``, and
        d(dx_m) is the sum of c_ab d(x_a ^ x_b) over the terms of dx_m.
        """
        dx, table = self._dx, self._leibniz_dx
        scale = lcm(*(c.denominator for c in self.constants.values()))
        if scale != 1:
            dx = {i: {pair: c.numerator * (scale // c.denominator) for pair, c in terms.items()}
                  for i, terms in dx.items()}
            table = _leibniz_table(dx)
        images = {}
        for terms in dx.values():
            if not terms:
                continue
            dd = {}
            for (a, b), c in terms.items():
                image = images.get((a, b))
                if image is None:
                    bit = 1 << b
                    images[a, b] = image = _d_step(
                        table[1 << a], (1 << a) - 1, bit, _d_step(table[bit], bit - 1, 0, {}))
                for key, v in image.items():
                    dd[key] = dd.get(key, 0) + c * v
            if any(dd.values()):
                raise JacobiViolation(min(_indices(key) for key, v in dd.items() if v))

    # -- structure access ---------------------------------------------------

    def c(self, i, j, k):
        """Structure constant: coefficient of X_k in [X_i, X_j], any i, j."""
        return self._brackets.get((i, j), {}).get(k, ZERO)

    def bracket(self, i, j):
        """[X_i, X_j] as a coefficient tuple of length dim."""
        self._check_index(i)
        self._check_index(j)
        return tuple(self.c(i, j, k) for k in range(1, self.dim + 1))

    def _check_index(self, i):
        if isinstance(i, bool) or not isinstance(i, int) or not 1 <= i <= self.dim:
            raise IndexOutOfRange(f"basis index {i} outside 1..{self.dim}")

    # -- form builders -------------------------------------------------------

    def monomials(self, k):
        if isinstance(k, bool) or not isinstance(k, int):
            raise InvalidParameter(f"degree {k!r} is not an int")
        if not 0 <= k <= self.dim:
            return []
        return list(itertools.combinations(range(1, self.dim + 1), k))

    def zero_form(self, degree):
        return KForm(self, degree, {})

    def one(self):
        """The constant function 1, i.e. the canonical basis 0-form."""
        return KForm(self, 0, {(): 1})

    def covector(self, i):
        self._check_index(i)
        return KForm(self, 1, {(i,): 1})

    def basis_form(self, *indices):
        """x_{i1} ^ ... ^ x_{ik} for the given (not necessarily sorted) indices."""
        return KForm(self, len(indices), {tuple(indices): 1})

    def form(self, terms):
        """Build a form from {index tuple: coefficient}; degree is inferred.

        Tuples may be in any order (signs are normalized on the way in), but
        all must have the same length.
        """
        terms = dict(terms)
        if not terms:
            raise InvalidParameter("cannot infer degree from an empty term map; "
                                   "use zero_form(degree)")
        degrees = {len(mono) for mono in terms}
        if len(degrees) != 1:
            raise InvalidParameter(f"mixed term degrees {sorted(degrees)}")
        return KForm(self, degrees.pop(), terms)

    def dx(self, i):
        """The differential of the i-th covector as a 2-form; below
        dimension 2 it is the zero form of the top degree, as from ``ce_d``."""
        self._check_index(i)
        if self.dim < 2:
            return self.zero_form(self.dim)
        return KForm(self, 2, {pair: as_scalar(c) for pair, c in self._dx[i].items()},
                     _normalized=True)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.constants == other.constants

    def __hash__(self):
        # computed on first use: most queries never hash their algebra
        if self._hash is None:
            self._hash = hash((self.dim, frozenset(self.constants.items())))
        return self._hash

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.constants)})"


def as_vector(values, dim):
    """Coerce a sequence to a length-``dim`` tuple of exact rationals."""
    vec = tuple(as_scalar(v) for v in values)
    if len(vec) != dim:
        raise InvalidParameter(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def build_algebra(dim, brackets):
    """Construct a validated algebra from a bracket table.

    ``brackets`` maps (i, j) with i < j to the coefficient vector of
    [X_i, X_j].  Omitted pairs commute.  Raises JacobiViolation (with a
    witness triple) or IndexOutOfRange on bad input.
    """
    constants = {}
    for key, vec in dict(brackets).items():
        try:
            i, j = key
        except (TypeError, ValueError):
            raise InvalidParameter(f"bracket key {key!r} is not an (i, j) pair")
        if any(isinstance(x, bool) or not isinstance(x, int) for x in (i, j)):
            raise InvalidParameter(f"bracket key {key!r} must hold integers")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise IndexOutOfRange(f"bracket key {key!r} outside 1..{dim}")
        if i >= j:
            raise IndexOutOfRange(f"bracket key needs i < j, got ({i}, {j})")
        for k, coeff in enumerate(as_vector(vec, dim), start=1):
            if coeff != 0:
                constants[(i, j, k)] = coeff
    return LieAlgebra(dim, constants)


# -- differential forms ------------------------------------------------------


class KForm:
    """A left-invariant k-form: sparse rational coefficients on the wedge
    basis of increasing index tuples."""

    __slots__ = ("algebra", "degree", "coeffs")

    def __init__(self, algebra, degree, terms, _normalized=False):
        if not isinstance(algebra, LieAlgebra):
            raise InvalidParameter("first argument must be a LieAlgebra")
        if isinstance(degree, bool) or not isinstance(degree, int) or degree < 0:
            raise InvalidParameter(f"degree must be a nonnegative integer, got {degree!r}")
        if degree > algebra.dim:
            raise InvalidParameter(
                f"degree {degree} exceeds dim {algebra.dim}; such forms are "
                "identically zero and never materialized")
        self.algebra = algebra
        self.degree = degree
        if _normalized:
            self.coeffs = dict(terms)
            return
        coeffs = {}
        for mono, value in dict(terms).items():
            mono = tuple(mono)
            if len(mono) != degree:
                raise InvalidParameter(
                    f"term {mono} has length {len(mono)}, expected degree {degree}")
            for idx in mono:
                if (isinstance(idx, bool) or not isinstance(idx, int)
                        or not 1 <= idx <= algebra.dim):
                    raise IndexOutOfRange(f"index {idx} outside 1..{algebra.dim}")
            coeff = as_scalar(value)
            if coeff == 0:
                continue
            sorted_sign = _sort_with_sign(mono)
            if sorted_sign is None:
                continue  # repeated index: the term is zero
            key, sign = sorted_sign
            _add_term(coeffs, key, coeff * sign)
        self.coeffs = coeffs

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    def coefficient(self, indices):
        """Coefficient on the given monomial, in any index order."""
        sorted_sign = _sort_with_sign(tuple(indices))
        if sorted_sign is None:
            return ZERO
        mono, sign = sorted_sign
        return self.coeffs.get(mono, ZERO) * sign

    def terms(self):
        """(monomial, coefficient) pairs in lexicographic monomial order."""
        return [(mono, self.coeffs[mono]) for mono in sorted(self.coeffs)]

    # -- arithmetic ----------------------------------------------------------

    def _check_compatible(self, other):
        if not isinstance(other, KForm):
            raise InvalidParameter(f"expected a KForm, got {type(other).__name__}")
        if self.algebra != other.algebra:
            raise AmbientMismatch("forms live over different algebras")

    def __add__(self, other):
        self._check_compatible(other)
        if self.degree != other.degree:
            if self.is_zero:
                return other
            if other.is_zero:
                return self
            raise InvalidParameter(
                f"cannot add forms of degrees {self.degree} and {other.degree}")
        out = dict(self.coeffs)
        for mono, coeff in other.coeffs.items():
            _add_term(out, mono, coeff)
        return KForm(self.algebra, self.degree, out, _normalized=True)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return KForm(self.algebra, self.degree,
                     {m: -c for m, c in self.coeffs.items()}, _normalized=True)

    def scale(self, value):
        value = as_scalar(value)
        if value == 0:
            return KForm(self.algebra, self.degree, {}, _normalized=True)
        return KForm(self.algebra, self.degree,
                     {m: c * value for m, c in self.coeffs.items()}, _normalized=True)

    __mul__ = scale
    __rmul__ = scale

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, KForm):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        if not self.coeffs and not other.coeffs:
            return True  # zero is zero, whatever the recorded degree
        return self.degree == other.degree and self.coeffs == other.coeffs

    def __hash__(self):
        # zero is zero whatever its degree, as in __eq__
        return hash((self.algebra, self.degree if self.coeffs else None,
                     frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"<{self.degree}-form {format_form(self)}>"


def _require_form(algebra, form, name, degree=None):
    """Refuse anything but a KForm over ``algebra`` for the argument ``name``;
    with ``degree`` given, also a nonzero form of another degree (zero is
    zero whatever its degree, as ``KForm.__eq__`` has it).  Public entry
    points call this once per form argument; private builders trust them."""
    if not isinstance(form, KForm):
        raise InvalidParameter(f"{name} must be a KForm")
    if form.algebra != algebra:
        raise AmbientMismatch(f"{name} lives over a different algebra")
    if degree is not None and form.degree != degree and not form.is_zero:
        raise InvalidParameter(f"{name} must be a {degree}-form, got degree {form.degree}")


def _format_sum(terms, space):
    """The one writer of a signed sum of ``(body, nonzero coefficient)``
    terms, ``"0"`` when there are none: a coefficient of 1 is elided, -1
    leaves its sign, an empty body leaves the bare coefficient, and each
    later term is joined by its sign with ``space`` on either side."""
    text = ""
    for body, coeff in terms:
        if not body:
            term = format_scalar(coeff)
        elif coeff == 1 or coeff == -1:
            term = body if coeff > 0 else f"-{body}"
        else:
            term = f"{format_scalar(coeff)}*{body}"
        if text:
            sign, term = ("-", term[1:]) if term.startswith("-") else ("+", term)
            text += f"{space}{sign}{space}"
        text += term
    return text or "0"


def format_form(form):
    """Human-readable rendering like ``x1^x3 - 2*x2^x4``."""
    return _format_sum((("^".join(f"x{i}" for i in mono), coeff)
                        for mono, coeff in form.terms()), " ")


def wedge(a, b):
    """Exterior product.  Degrees add; anything past the top degree is the
    zero form (recorded at degree dim)."""
    a._check_compatible(b)
    algebra = a.algebra
    degree = a.degree + b.degree
    if degree > algebra.dim:
        return algebra.zero_form(algebra.dim)
    return KForm(algebra, degree, _wedge_raw(a.coeffs, b.coeffs), _normalized=True)


def ce_d(a):
    """Chevalley-Eilenberg differential of ``a``."""
    return _d_form(a, {})


def _d_form(form, unit_image):
    """d_theta of a form, d_theta(1) = -theta given by ``unit_image`` as in
    ``_d_raw``; past the top degree it is the zero form of degree dim."""
    algebra = form.algebra
    degree = form.degree + 1
    if degree > algebra.dim:
        return algebra.zero_form(algebra.dim)
    return KForm(algebra, degree, _d_raw(form.coeffs, algebra._leibniz_dx, unit_image),
                 _normalized=True)


# -- invariants --------------------------------------------------------------


class AlgebraInvariants(_Record):
    """Cheap structural fingerprint of an algebra.

    ``step`` is the nilpotency class (1 for nonzero abelian algebras, 0 only
    for the zero algebra) and is None when the algebra is not nilpotent.
    """

    dim: int
    nilpotent: bool
    step: int | None
    lower_central_dims: tuple
    unimodular: bool


def lower_central_series(algebra):
    """Lower central series dimensions and derived invariants.

    The series g = g^0 >= g^1 = [g, g] >= g^2 = [g^1, g] >= ... is followed
    until it hits zero (nilpotent) or stabilizes (not).
    """
    n = algebra.dim
    _require_budget(n * n, n, "the lower central series")
    brackets = algebra._brackets
    # sparse vectors {index: value}; g^0 is spanned by the basis
    current = [{i: 1} for i in range(1, n + 1)]
    dims = [n]
    while dims[-1]:
        # [v, X_j] = sum_i v_i [X_i, X_j]
        basis = linalg.echelon(
            linalg.apply({i: brackets.get((i, j), {}) for i in v}, v)
            for v in current for j in range(1, n + 1))
        dims.append(len(basis))
        if len(basis) == dims[-2]:
            break  # stabilized without reaching zero
        current = basis.values()

    nilpotent = dims[-1] == 0
    step = len(dims) - 1 if nilpotent else None

    return AlgebraInvariants(
        dim=n,
        nilpotent=nilpotent,
        step=step,
        lower_central_dims=tuple(dims),
        unimodular=_is_unimodular(algebra),
    )


def _is_unimodular(algebra):
    """Whether every ad X_a is traceless: tr ad X_a = sum_b [X_a, X_b]_b,
    one pass over the bracket table."""
    trace = {}
    for (a, b), bracket in algebra._brackets.items():
        if b in bracket:
            trace[a] = trace.get(a, 0) + bracket[b]
    return not any(trace.values())


def _is_nilpotent(algebra):
    """Whether the algebra is nilpotent, read off the structure constants
    when they are in Salamon's order: if every [X_i, X_j] (i < j) lies in
    the span of the X_k with k > j, each ad X strictly raises the index
    filtration span{X_k : k >= m}, so the lower central series reaches
    zero.  Any other basis order is left to ``lower_central_series``."""
    if all(k > j for _, j, k in algebra.constants):
        return True
    return lower_central_series(algebra).nilpotent

