"""Chevalley-Eilenberg cohomology, plain and twisted, with exact quotients.

For nilpotent algebras the untwisted Betti numbers here agree with the de
Rham cohomology of the associated compact nilmanifold (Nomizu), which is what
makes these small exact computations topologically meaningful.

The twisted variant uses the Lichnerowicz differential

    d_theta(a) = d(a) - theta ^ a

for a closed 1-form theta; d_theta^2 = 0 follows from d(theta) = 0.

Arguments are checked once, at the public boundary: every form through
``exterior_core._require_form``, and theta (closed included) once per public
call, by ``_require_twist`` in ``twisted_d``, ``CohomologySpace``,
``cohomology_space`` and ``betti_profile``.  The private builders
``_d_matrix`` and ``_cocycles`` validate nothing and trust their callers,
and answer any degree (past the top Lambda^k = 0: no columns, no cocycles).

Determinism: every space carries a canonical representative basis, the rows
of the reduced echelon basis of the cocycles Z (lexicographic monomial order)
whose pivots are not pivots of the coboundaries B.  B sits in Z, so each such
row is 0 on B's pivots, the one cocycle of its class that is: these rows are
the reduced echelon basis of Z / B, identical on every run and machine, so
frozen expected values in tests are meaningful.  One elimination gives that
basis of Z: the kernel of d_theta with its sources reversed.  Each kernel
vector is 1 at its free source, 0 at the other free ones and nonzero only at
pivots before it in that order, so in lex order it is a row of the unique
reduced echelon basis of Z.

Differentials: ``_d_images`` sweeps the degrees once.  It gives d_theta on
Lambda^k by its columns, the images of the lex-ordered monomials with their
targets keyed by bitmask, and builds them from those of Lambda^(k-1) by
``exterior_core._d_step``, d_theta(x_i ^ x_R) = dx_i ^ x_R - x_i ^
d_theta(x_R) with i the lowest index; ``twisted_d`` runs the same step down
each monomial of one form.
``betti_profile`` ranks each degree as the sweep yields it, with
``linalg._rank``, which only reads the images the sweep builds the next
degree from; a space takes degrees k - 1 and k off one sweep; ``_d_matrix``
reads one degree off it; and ``_cocycles`` reads the kernels of every
degree a search asks for off one sweep, as term dicts ``{monomial: coeff}``
with no ``KForm`` around them.  A kernel or a preimage reads only the
source order (the reduced echelon form of a row space is unique under its
column order, and the sources are the columns there), so it takes the
images as they come.  The coboundaries B
are the one place where targets become echelon columns, so a space re-keys
only B's images, by the lex position of their targets in Lambda^k.
"""

from __future__ import annotations

import itertools
from math import comb

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
    _Record,
)
from .exterior_core import (
    KForm,
    _d_form,
    _d_step,
    _is_unimodular,
    _masks,
    _require_budget,
    _require_form,
    ce_d,
    wedge,
)
from .scalars import ZERO, _exact, as_scalar


def _require_twist(algebra, theta):
    """Validate a twisting form: a closed 1-form over the algebra.  None and
    the zero form are the untwisted case, returned as None."""
    if theta is None:
        return None
    _require_form(algebra, theta, "theta", 1)
    if theta.is_zero:
        return None
    if not ce_d(theta).is_zero:
        raise LeeFormNotClosed("theta is not closed, so d_theta^2 != 0")
    return theta


def _require_degree(degree, top, name="degree"):
    """Refuse a degree that is not an int in 0..top; a bool is refused too,
    since True == 1 would pass for a degree (and hit its cache key)."""
    if isinstance(degree, bool) or not isinstance(degree, int) or not 0 <= degree <= top:
        raise InvalidParameter(f"{name} must be an int in 0..{top}, got {degree!r}")


def twisted_d(algebra, theta, form):
    """Lichnerowicz differential d_theta = d - theta ^ . (theta=None: plain d)."""
    _require_form(algebra, form, "form")
    return _twisted_d(_require_twist(algebra, theta), form)


def _twisted_d(theta, form):
    """d_theta(form) for a theta already validated (None: plain d)."""
    return _d_form(form, _unit_image(theta))


def _unit_image(theta):
    """d_theta(1) = -theta keyed by bitmask, ints wherever integral: the
    start of every d_theta recurrence (``exterior_core._d_step``).  None and
    a zero form of any degree twist nothing."""
    return {} if theta is None else {1 << i: -_exact(c) for (i,), c in theta.coeffs.items()}


def _d_images(algebra, theta=None):
    """Yield d_theta on Lambda^0, Lambda^1, ..., Lambda^n by its columns:
    for each degree k, the images d_theta x_S of the degree-k monomials in
    lex order, each a sparse ``{target bitmask: coefficient}``.  Nothing
    is cached, and a yielded list is never touched again: the next degree
    only reads it.

    A monomial x_S is the bitmask sum(1 << i for i in S).  Degree k is built
    from degree k - 1 by ``exterior_core._d_step``, with i the lowest index
    of S and R the rest, starting from d_theta(1) = -theta.  In lex order
    the sources with lowest index i come in a block, and their rests R, the
    (k-1)-subsets of {i+1..n}, are the last C(n - i, k - 1) sources of
    degree k - 1, in order.

    Nothing is validated here: theta is None or a closed 1-form (a zero
    form of any degree twists nothing).  The public callers pass it through
    ``_require_twist`` first; ``find_lcs`` passes combinations of closed
    covectors, closed by construction, and ``twisted_exactness_witness``
    passes theta to ``_primitive`` only once ``check_lcs`` holds.
    """
    n = algebra.dim
    table = algebra._leibniz_dx
    masks = [0]
    images = [_unit_image(theta)]
    yield images
    for k in range(1, n + 1):
        _require_budget(comb(n, k), n, "the differential sweep")
        last = len(masks)
        new_masks, new_images = [], []
        for i in range(1, n + 1):
            bit = 1 << i
            dx = table[bit]
            for r in range(last - comb(n - i, k - 1), last):
                rest = masks[r]
                new_masks.append(bit | rest)
                rest_image = images[r]
                # with dx_i and d_theta(x_R) both empty, so is the image
                new_images.append(_d_step(dx, bit - 1, rest, rest_image)
                                  if dx or rest_image else {})
        masks, images = new_masks, new_images
        yield images


def _d_matrix(algebra, k, theta=None):
    """d_theta on Lambda^k by its columns, degree k of ``_d_images``.

    Targets stay keyed by mask: a kernel or preimage over these columns
    is a statement about the sources, and the echelon form that yields it
    is unique under the source order whatever the targets are called.
    """
    return next(itertools.islice(_d_images(algebra, theta), k, None), [])


def _space_key(algebra, degree, theta):
    """A space's value: algebra, degree, theta's sorted terms (None plain)."""
    twist = None if theta is None else tuple(sorted(theta.coeffs.items()))
    return algebra, degree, twist


def _form(algebra, degree, monomials, vector):
    """The form whose coefficients are the sparse ``vector`` over monomials."""
    terms = {monomials[i]: c for i, c in sorted(vector.items())}
    return KForm(algebra, degree, terms, _normalized=True)


def _cocycles(algebra, degrees, theta=None):
    """Z^k_theta for each k in ``degrees``, all off one ``_d_images`` sweep
    that stops at the highest: per degree, the ``linalg.kernel`` basis of
    d_theta on Lambda^k (not echelon) as term dicts ``{monomial: coeff}``
    in lex monomial order, with no ``KForm`` around them.  The one source of
    cocycles for the searches; validates nothing, as ``_d_matrix``."""
    bases = {}
    sweep = itertools.islice(_d_images(algebra, theta), max(degrees) + 1)
    for k, columns in enumerate(sweep):
        if k in degrees:
            monomials = algebra.monomials(k)
            bases[k] = [{monomials[i]: c for i, c in vector.items()}
                        for vector in linalg.kernel(columns)]
    return [bases.get(k, []) for k in degrees]


class CohomologyClass:
    """An element of a CohomologySpace, held as its coordinates against the
    canonical representative basis and read as the form they name.  Classes
    compare, hash and add by their space's value (algebra, degree, twist)."""

    __slots__ = ("space", "coords")

    def __init__(self, space, coords):
        self.space = space
        self.coords = tuple(as_scalar(c) for c in coords)
        if len(self.coords) != space.betti:
            raise InvalidParameter("coordinate length does not match betti number")

    @property
    def representative(self):
        """sum c_i r_i over the basis representatives r_i with c_i != 0."""
        terms = linalg.apply([rep.coeffs for rep in self.space.representative_basis],
                             {i: c for i, c in enumerate(self.coords) if c})
        return KForm(self.space.algebra, self.space.degree, terms, _normalized=True)

    @property
    def is_zero(self):
        return all(c == 0 for c in self.coords)

    def scale(self, value):
        value = as_scalar(value)
        return CohomologyClass(self.space, [c * value for c in self.coords])

    def __add__(self, other):
        if not isinstance(other, CohomologyClass) or other.space._key != self.space._key:
            raise AmbientMismatch("classes live in different cohomology spaces")
        return CohomologyClass(self.space, [a + b for a, b in zip(self.coords, other.coords)])

    def __sub__(self, other):
        return self + other.scale(-1)

    def __eq__(self, other):
        if not isinstance(other, CohomologyClass):
            return NotImplemented
        return self.space._key == other.space._key and self.coords == other.coords

    def __hash__(self):
        return hash((self.space._key, self.coords))

    def __repr__(self):
        return f"<class {self.coords} in {self.space!r}>"


class CohomologySpace:
    """H^k(g) or its twisted analogue H^k_theta(g), fully materialized.

    The constructor raises InternalInvariantBreach unless d_theta maps
    every coboundary to zero (checked exactly), that is, unless the
    coboundaries sit inside the cocycles, as the quotient basis needs.

    d_theta on Lambda^(k-1) and on Lambda^k come off one ``_d_images``
    sweep.  The cocycles are the kernel of the latter under the reversed
    source order, keyed back: the reduced echelon basis of Z, and the only
    one kept.  The coboundaries are rows whose columns are targets, so
    their echelon form follows the target order: only they are re-keyed
    by the lex position of their targets in Lambda^k.
    """

    def __init__(self, algebra, degree, theta=None):
        _require_degree(degree, algebra.dim)
        theta = _require_twist(algebra, theta)
        self.algebra = algebra
        self.degree = degree
        self.theta = theta
        self._key = _space_key(algebra, degree, theta)

        # d_theta on Lambda^(k-1) (none in degree 0) and on Lambda^k, off one sweep
        *lower, columns = itertools.islice(_d_images(algebra, theta),
                                           max(degree - 1, 0), degree + 1)
        self._monomials = algebra.monomials(degree)
        self._position = {mono: i for i, mono in enumerate(self._monomials)}
        position = {mask: i for i, mask in enumerate(_masks(algebra.dim, degree))}
        images = [{position[mask]: c for mask, c in image.items()}
                  for below in lower for image in below]
        if any(linalg.apply(columns, image) for image in images):
            raise InternalInvariantBreach(
                "coboundaries do not sit inside cocycles; d^2 = 0 is broken")
        self._coboundaries = linalg.echelon(images)
        # Z's reduced echelon basis (module docstring); echelon makes int rows
        last = len(columns) - 1
        cocycles = ({last - c: v for c, v in vector.items()}
                    for vector in linalg.kernel(columns[::-1]))
        self._quotient = linalg.echelon(z for z in cocycles
                                        if min(z) not in self._coboundaries)
        self.betti = len(self._quotient)
        self._slot = {p: i for i, p in enumerate(self._quotient)}  # pivot: position
        self.representative_basis = [_form(algebra, degree, self._monomials, v)
                                     for v in linalg.unit_rows(self._quotient)]

    # -- the quotient map ----------------------------------------------------

    def reduce(self, form):
        """Coordinates of [form] against the representative basis.

        Raises NotClosed when the form is not a d_theta-cocycle.
        """
        _require_form(self.algebra, form, "form", self.degree)
        if not _twisted_d(self.theta, form).is_zero:
            raise NotClosed("form is not a cocycle for this differential")
        coords = self._coords(form)
        return tuple(coords.get(i, ZERO) for i in range(self.betti))

    def _coords(self, form):
        """[form]'s coordinates ``{basis position: value}``, zeros left out,
        for a form its caller knows is a cocycle of this space's degree (a
        wedge of closed forms, say): the reduced vector at the quotient
        pivots, read through ``_slot``, checked to lie in the quotient's
        span and nothing else."""
        vec = linalg.reduce({self._position[mono]: c for mono, c in form.coeffs.items()},
                            self._coboundaries)
        # the reduced vector must be exactly the coordinate combination
        if linalg.reduce(vec, self._quotient):
            raise InternalInvariantBreach("cocycle escaped the quotient basis")
        return {self._slot[p]: v for p, v in vec.items() if p in self._slot}

    def class_of(self, form):
        return CohomologyClass(self, self.reduce(form))

    def classes(self):
        """The canonical basis classes of this space."""
        return [CohomologyClass(self, [int(i == j) for j in range(self.betti)])
                for i in range(self.betti)]

    def __repr__(self):
        twist = "" if self.theta is None else ", twisted"
        # a space whose d^2 check failed has no rank to print
        rank = f" rank {self.betti}" if hasattr(self, "betti") else ""
        return f"H^{self.degree}(dim {self.algebra.dim}{twist}){rank}"


def cohomology_space(algebra, degree, theta=None):
    """Memoized accessor; spaces are computed once per (degree, theta)."""
    _require_degree(degree, algebra.dim)
    theta = _require_twist(algebra, theta)
    key = _space_key(algebra, degree, theta)
    cache = algebra._cohomology_cache
    if key not in cache:
        cache[key] = CohomologySpace(algebra, degree, theta)
    return cache[key]


def betti_profile(algebra, theta=None):
    """(b_0, ..., b_n), twisted when theta is given, from ranks alone.

    b_k = C(n, k) - r_k - r_{k-1}, where r_k is the rank of
    d_theta : Lambda^k -> Lambda^{k+1} (r_{-1} = r_n = 0), taken of the
    bitmask images of one ``_d_images`` sweep as they come: no position
    table, no cohomology space, and nothing is cached on the algebra.  On a
    unimodular algebra the untwisted d on Lambda^{n-1-k} is, up to sign,
    the transpose of d on Lambda^k under the wedge pairing into Lambda^n
    (Poincare duality), so r_{n-1-k} = r_k and only k <= (n - 1) / 2 is
    eliminated.  Twisted and non-unimodular profiles take every rank.
    """
    theta = _require_twist(algebra, theta)
    n = algebra.dim
    if theta is None and _is_unimodular(algebra):
        half = [linalg._rank(images)
                for images in itertools.islice(_d_images(algebra), (n + 1) // 2)]
        ranks = [half[min(k, n - 1 - k)] for k in range(n)]
    else:
        ranks = [linalg._rank(images)
                 for images in itertools.islice(_d_images(algebra, theta), n)]
    ranks = [0, *ranks, 0]
    betti = tuple(comb(n, k) - ranks[k + 1] - ranks[k] for k in range(n + 1))
    if min(betti) < 0:
        raise InternalInvariantBreach(f"negative Betti number in {betti}")
    return betti


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


def _cup_table(algebra):
    """The cup products of the basis classes of H^1, memoized with the
    algebra's spaces: ``{(i, j): {k: c}}``, the sparse H^2 coordinates C_ij
    of r_i ^ r_j over H^1's representatives r, nonzero products only, under
    both orders.  Each is reduced once, for i < j, as C_ji = -C_ij and
    C_ii = 0 for 1-forms; a wedge of closed forms is closed, so no cocycle
    check is run.  Below dimension 2, H^1 has at most one class and the
    table is empty.
    """
    cache = algebra._cohomology_cache
    if "cup" not in cache:
        reps = cohomology_space(algebra, 1).representative_basis
        h2 = cohomology_space(algebra, min(2, algebra.dim))
        table = {}
        for i, j in itertools.combinations(range(len(reps)), 2):
            coords = h2._coords(wedge(reps[i], reps[j]))
            if coords:
                table[i, j] = coords
                table[j, i] = {k: -c for k, c in coords.items()}
        cache["cup"] = table
    return cache["cup"]


def _cup_coords(table, a, b):
    """The sparse H^2 coordinates sum a_i b_j C_ij of the cup of two
    degree-1 classes given by sparse coordinates ``a``, ``b``."""
    return linalg.apply(table, {(i, j): x * y for i, x in a.items()
                                for j, y in b.items() if (i, j) in table})


class LefschetzResult(_Record):
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
    _require_degree(p, n, "p")
    _require_form(algebra, omega, "omega", 2)
    if not ce_d(omega).is_zero:
        raise OmegaNotClosed("omega must be closed")

    power_form = algebra.one()
    for _ in range(n - p):
        power_form = wedge(power_form, omega)

    domain = cohomology_space(algebra, p)
    codomain = cohomology_space(algebra, 2 * n - p)
    # a cocycle wedged with a power of the closed omega is closed
    columns = [codomain._coords(wedge(rep, power_form))
               for rep in domain.representative_basis]
    matrix = [[ZERO] * domain.betti for _ in range(codomain.betti)]
    for c, column in enumerate(columns):
        for r, value in column.items():
            matrix[r][c] = value
    return LefschetzResult(
        p=p,
        power=n - p,
        matrix=tuple(map(tuple, matrix)),
        rank=linalg._rank(columns),
        domain_betti=domain.betti,
        codomain_betti=codomain.betti,
    )


class MasseyResult(_Record):
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


def _primitive(algebra, target, theta=None):
    """The 1-form x with d_theta(x) = target and free variables zero, or
    None when target is not d_theta-exact; the target is keyed by mask, as
    the columns are."""
    masks = {sum(1 << i for i in mono): c for mono, c in target.coeffs.items()}
    solution = linalg.preimage(_d_matrix(algebra, 1, theta), masks)
    return None if solution is None else _form(algebra, 1, algebra.monomials(1), solution)


def triple_massey(algebra, a, b, c):
    """<a, b, c> for degree-1 untwisted classes with a.b = b.c = 0.

    Closed 1-forms are accepted and lifted to their classes.  Raises
    CupObstruction when a cup precondition fails.  Both cups and the
    indeterminacy a H^1 + H^1 c are read bilinearly off the algebra's
    ``_cup_table``; only the primitives and the representative are wedged.
    Below dimension 2 the products land, as for ``cup``, in the clipped
    space H^dim, and every triple product is the zero class there.
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
    # the cups a.b and b.c, and the indeterminacy, read off the cup table
    table = _cup_table(algebra)
    sa, sb, sc = ({i: x for i, x in enumerate(cls.coords) if x} for cls in lifted)
    if _cup_coords(table, sa, sb):
        raise CupObstruction("a cup b is nonzero; <a, b, c> undefined")
    if _cup_coords(table, sb, sc):
        raise CupObstruction("b cup c is nonzero; <a, b, c> undefined")

    ra, rb, rc = (cls.representative for cls in lifted)
    x = _primitive(algebra, wedge(ra, rb))
    y = _primitive(algebra, wedge(rb, rc))
    if x is None or y is None:
        raise InternalInvariantBreach("exact form has no primitive")
    # representative x^c + (-1)^(|a|+1) a^y; |a| = 1 makes the sign +1
    representative = wedge(x, rc) + wedge(ra, y)
    if not ce_d(representative).is_zero:
        raise InternalInvariantBreach("Massey representative is not closed")
    h2 = cohomology_space(algebra, min(2, algebra.dim))
    coords = h2._coords(representative)
    rep_class = CohomologyClass(h2, [coords.get(i, ZERO) for i in range(h2.betti)])

    # the indeterminacy a H^1 + H^1 c, spanned by the cups with H^1's basis
    basis = linalg.echelon(
        _cup_coords(table, *pair)
        for k in range(lifted[0].space.betti)
        for pair in ((sa, {k: 1}), ({k: 1}, sc)))
    indeterminacy = tuple(
        CohomologyClass(h2, [row.get(i, ZERO) for i in range(h2.betti)])
        for row in linalg.unit_rows(basis)
    )
    nonzero = bool(linalg.reduce(coords, basis))
    return MasseyResult(
        representative=representative,
        rep_class=rep_class,
        indeterminacy_basis=indeterminacy,
        nonzero_mod_indeterminacy=nonzero,
        primitive_ab=x,
        primitive_bc=y,
    )
