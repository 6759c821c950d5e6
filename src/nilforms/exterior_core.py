"""Exterior algebra of a Lie algebra's dual, with the Chevalley-Eilenberg
differential.

Sign convention (fixed globally, everything downstream depends on it):

    dx_i(X_j, X_k) = -x_i([X_j, X_k])

extended to higher degrees as a graded derivation.  So if the only nonzero
bracket is [X_1, X_2] = -X_4, then dx_4 = x_1 ^ x_2.  With this convention
d^2 = 0 is *equivalent* to the Jacobi identity, which is how constructors
validate their input: an algebra object cannot exist with inconsistent
structure constants.

Representation notes.  A ``KForm`` is a sparse dict from strictly increasing
index tuples to rational coefficients; sign normalization happens at
insertion, so ``form({(4, 2): 1})`` stores ``{(2, 4): -1}``.  Basis indices
are 1-based throughout, matching the classical x_1, ..., x_n notation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .errors import (
    AmbientMismatch,
    IndexOutOfRange,
    InvalidParameter,
    JacobiViolation,
)
from .scalars import ZERO, as_scalar, format_scalar

# -- raw term dictionaries ---------------------------------------------------
# Internal helpers operate on bare dicts {increasing tuple: Fraction} so the
# Jacobi check can run before any LieAlgebra object exists.


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


def _merge_monomials(left, right):
    """Wedge two increasing monomials: (merged tuple, sign) or None."""
    overlap = set(left) & set(right)
    if overlap:
        return None
    sign = 1
    # count inversions between the blocks; both are already sorted
    for a in left:
        for b in right:
            if a > b:
                sign = -sign
    merged = tuple(sorted(left + right))
    return merged, sign


def _add_term(acc, mono, coeff):
    new = acc.get(mono, ZERO) + coeff
    if new == 0:
        acc.pop(mono, None)
    else:
        acc[mono] = new


def _wedge_raw(a_terms, b_terms):
    out = {}
    for mono_a, ca in a_terms.items():
        for mono_b, cb in b_terms.items():
            merged = _merge_monomials(mono_a, mono_b)
            if merged is None:
                continue
            mono, sign = merged
            _add_term(out, mono, ca * cb * sign)
    return out


def _d_raw(terms, dx_table):
    """Graded-Leibniz extension of the covector differentials in dx_table."""
    out = {}
    for mono, coeff in terms.items():
        for t, index in enumerate(mono):
            rest = mono[:t] + mono[t + 1 :]
            sign = -1 if t % 2 else 1
            for dmono, dcoeff in dx_table.get(index, {}).items():
                merged = _merge_monomials(dmono, rest)
                if merged is None:
                    continue
                out_mono, merge_sign = merged
                _add_term(out, out_mono, coeff * dcoeff * sign * merge_sign)
    return out


# -- Lie algebras ------------------------------------------------------------


class LieAlgebra:
    """A finite-dimensional real Lie algebra given by structure constants.

    ``constants`` maps (i, j, k) with i < j to the coefficient of X_k in
    [X_i, X_j].  Construction validates index ranges and the Jacobi identity
    (as d^2 = 0 on every dual covector); there is no unchecked constructor.

    Instances are immutable in spirit: nothing mutates the constants after
    construction, and cohomology results are memoized on the instance.
    """

    __slots__ = ("dim", "constants", "labels", "_dx", "_hash", "_cohomology_cache",
                 "_d_columns")

    def __init__(self, dim, constants, labels=None):
        if not isinstance(dim, int) or dim < 0:
            raise InvalidParameter(f"dimension must be a nonnegative integer, got {dim!r}")
        clean = {}
        for key, value in dict(constants).items():
            try:
                i, j, k = key
            except (TypeError, ValueError):
                raise InvalidParameter(f"constants key {key!r} is not an (i, j, k) triple")
            for idx in (i, j, k):
                if not isinstance(idx, int) or not 1 <= idx <= dim:
                    raise IndexOutOfRange(f"index {idx} outside 1..{dim} in key {key!r}")
            if i >= j:
                raise IndexOutOfRange(f"bracket key needs i < j, got ({i}, {j})")
            coeff = as_scalar(value)
            if coeff != 0:
                clean[(i, j, k)] = coeff
        if labels is not None:
            labels = tuple(str(s) for s in labels)
            if len(labels) != dim:
                raise InvalidParameter(f"expected {dim} labels, got {len(labels)}")
        self.dim = dim
        self.constants = clean
        self.labels = labels
        self._dx = self._build_dx()
        self._check_jacobi()
        self._hash = hash((dim, frozenset(self.constants.items())))
        self._cohomology_cache = {}
        self._d_columns = {}

    def _build_dx(self):
        table = {i: {} for i in range(1, self.dim + 1)}
        for (i, j, k), coeff in self.constants.items():
            _add_term(table[k], (i, j), -coeff)
        return table

    def _check_jacobi(self):
        for m in range(1, self.dim + 1):
            dd = _d_raw(self._dx[m], self._dx)
            if dd:
                witness = min(dd)  # lexicographically first offending 3-monomial
                raise JacobiViolation(witness)

    # -- structure access ---------------------------------------------------

    def c(self, i, j, k):
        """Structure constant: coefficient of X_k in [X_i, X_j], any i, j."""
        if i == j:
            return ZERO
        if i < j:
            return self.constants.get((i, j, k), ZERO)
        return -self.constants.get((j, i, k), ZERO)

    def bracket(self, i, j):
        """[X_i, X_j] as a coefficient tuple of length dim."""
        self._check_index(i)
        self._check_index(j)
        return tuple(self.c(i, j, k) for k in range(1, self.dim + 1))

    def bracket_vectors(self, v, w):
        """Bilinear extension of the bracket to arbitrary coefficient vectors."""
        v = as_vector(v, self.dim)
        w = as_vector(w, self.dim)
        out = [ZERO] * self.dim
        for (i, j, k), coeff in self.constants.items():
            factor = v[i - 1] * w[j - 1] - v[j - 1] * w[i - 1]
            if factor != 0:
                out[k - 1] += coeff * factor
        return tuple(out)

    @property
    def is_abelian(self):
        return not self.constants

    def _check_index(self, i):
        if not isinstance(i, int) or not 1 <= i <= self.dim:
            raise IndexOutOfRange(f"basis index {i} outside 1..{self.dim}")

    def label(self, i):
        self._check_index(i)
        return self.labels[i - 1] if self.labels else f"x{i}"

    # -- form builders -------------------------------------------------------

    def monomials(self, k):
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
        """The differential of the i-th covector as a 2-form."""
        self._check_index(i)
        return KForm(self, 2, dict(self._dx[i]), _normalized=True)

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, LieAlgebra):
            return NotImplemented
        return self.dim == other.dim and self.constants == other.constants

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"LieAlgebra(dim={self.dim}, brackets={len(self.constants)})"


def as_vector(values, dim):
    """Coerce a sequence to a length-``dim`` tuple of exact rationals."""
    vec = tuple(as_scalar(v) for v in values)
    if len(vec) != dim:
        raise InvalidParameter(f"expected a vector of length {dim}, got {len(vec)}")
    return vec


def build_algebra(dim, brackets, labels=None):
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
        if not (isinstance(i, int) and isinstance(j, int)):
            raise InvalidParameter(f"bracket key {key!r} must hold integers")
        if not (1 <= i <= dim and 1 <= j <= dim):
            raise IndexOutOfRange(f"bracket key {key!r} outside 1..{dim}")
        if i >= j:
            raise IndexOutOfRange(f"bracket key needs i < j, got ({i}, {j})")
        for k, coeff in enumerate(as_vector(vec, dim), start=1):
            if coeff != 0:
                constants[(i, j, k)] = coeff
    return LieAlgebra(dim, constants, labels=labels)


# -- differential forms ------------------------------------------------------


class KForm:
    """A left-invariant k-form: sparse rational coefficients on the wedge
    basis of increasing index tuples."""

    __slots__ = ("algebra", "degree", "coeffs")

    def __init__(self, algebra, degree, terms, _normalized=False):
        if not isinstance(algebra, LieAlgebra):
            raise InvalidParameter("first argument must be a LieAlgebra")
        if not isinstance(degree, int) or degree < 0:
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
                if not isinstance(idx, int) or not 1 <= idx <= algebra.dim:
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

    def support(self):
        return sorted(self.coeffs)

    def to_vector(self, monomial_order=None):
        """Coordinates against a monomial list (defaults to the lex basis)."""
        if monomial_order is None:
            monomial_order = self.algebra.monomials(self.degree)
        return [self.coeffs.get(mono, ZERO) for mono in monomial_order]

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

    def wedge(self, other):
        return wedge(self, other)

    def d(self):
        return ce_d(self)

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
        return hash((self.algebra, self.degree, frozenset(self.coeffs.items())))

    def __repr__(self):
        return f"<{self.degree}-form {format_form(self)}>"


def format_form(form):
    """Human-readable rendering like ``x1^x3 - 2*x2^x4``."""
    if form.is_zero:
        return "0"
    chunks = []
    for mono, coeff in form.terms():
        body = "^".join(form.algebra.label(i) for i in mono) if mono else "1"
        if coeff == 1 and mono:
            text = body
        elif coeff == -1 and mono:
            text = f"-{body}"
        else:
            text = f"{format_scalar(coeff)}*{body}" if mono else format_scalar(coeff)
        if chunks and not text.startswith("-"):
            chunks.append(f"+ {text}")
        elif chunks:
            chunks.append(f"- {text[1:]}")
        else:
            chunks.append(text)
    return " ".join(chunks)


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
    algebra = a.algebra
    degree = a.degree + 1
    if degree > algebra.dim:
        return algebra.zero_form(algebra.dim)
    return KForm(algebra, degree, _d_raw(a.coeffs, algebra._dx), _normalized=True)


# -- invariants --------------------------------------------------------------


@dataclass(frozen=True)
class AlgebraInvariants:
    """Cheap structural fingerprint of an algebra.

    ``step`` is the nilpotency class (1 for nonzero abelian algebras, 0 only
    for the zero algebra) and is None when the algebra is not nilpotent.
    ``betti`` stays None until filled in by the cohomology layer.
    """

    dim: int
    nilpotent: bool
    step: int | None
    lower_central_dims: tuple
    center_dim: int
    derived_dim: int
    unimodular: bool
    betti: tuple | None = None


def lower_central_series(algebra):
    """Lower central series dimensions and derived invariants.

    The series g = g^0 >= g^1 = [g, g] >= g^2 = [g^1, g] >= ... is followed
    until it hits zero (nilpotent) or stabilizes (not).
    """
    n = algebra.dim
    identity = [[as_scalar(1 if r == c else 0) for c in range(n)] for r in range(n)]
    current = identity
    dims = [n]
    while True:
        generated = []
        for v in current:
            for j in range(1, n + 1):
                basis_j = [ZERO] * n
                basis_j[j - 1] = as_scalar(1)
                w = algebra.bracket_vectors(v, basis_j)
                if any(x != 0 for x in w):
                    generated.append(list(w))
        reduced, _ = linalg.rref(generated, n)
        dims.append(len(reduced))
        if len(reduced) == dims[-2]:
            break  # stabilized without reaching zero
        current = reduced
        if not reduced:
            break

    nilpotent = dims[-1] == 0
    step = len(dims) - 1 if nilpotent else None

    # center: v with [v, X_j] = 0 for all j
    rows = []
    for j in range(1, n + 1):
        for k in range(n):
            rows.append([algebra.c(i, j, k + 1) for i in range(1, n + 1)])
    center_dim = len(linalg.nullspace(rows, n)) if n else 0

    unimodular = all(
        sum((algebra.c(i, j, j) for j in range(1, n + 1)), ZERO) == 0
        for i in range(1, n + 1)
    )

    return AlgebraInvariants(
        dim=n,
        nilpotent=nilpotent,
        step=step,
        lower_central_dims=tuple(dims),
        center_dim=center_dim,
        derived_dim=dims[1] if len(dims) > 1 else 0,
        unimodular=unimodular,
    )


def direct_sum(left, right):
    """Block-diagonal direct sum; right-hand indices are shifted by left.dim."""
    shift = left.dim
    constants = dict(left.constants)
    for (i, j, k), coeff in right.constants.items():
        constants[(i + shift, j + shift, k + shift)] = coeff
    labels = None
    if left.labels or right.labels:
        left_labels = left.labels or tuple(f"x{i}" for i in range(1, left.dim + 1))
        right_labels = right.labels or tuple(f"y{i}" for i in range(1, right.dim + 1))
        labels = left_labels + right_labels
    return LieAlgebra(left.dim + right.dim, constants, labels=labels)
