"""Fixtures and hypothesis strategies shared across the suite."""

import importlib.util
import random
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import HealthCheck, assume, settings, strategies as st

from nilforms import (
    InnerProduct,
    KForm,
    LieAlgebra,
    build_algebra,
    cohomology_space,
    get_example,
)
from nilforms.cohomology import _cocycles
from nilforms.coordinate_model import invariant_coframe
from nilforms.linalg import span_rank

from oracles import as_fraction, sympy_matrix

settings.register_profile(
    "suite",
    derandomize=True,
    deadline=None,
    max_examples=60,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("suite")


def corpus_script():
    """``scripts/corpus.py`` as a module: its command lines, its census of
    the 34 six-dimensional nilpotent algebras, and its ``main``."""
    path = Path(__file__).resolve().parent.parent / "scripts" / "corpus.py"
    spec = importlib.util.spec_from_file_location("corpus", path)
    corpus = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(corpus)
    return corpus


def cocycle_forms(algebra, k, theta=None):
    """``_cocycles`` of the one degree k, each term dict as its k-form."""
    basis, = _cocycles(algebra, (k,), theta)
    return [KForm(algebra, k, terms, _normalized=True) for terms in basis]


@pytest.fixture(scope="session")
def torus():
    return get_example("torus4").algebra


@pytest.fixture(scope="session")
def kt():
    return get_example("kodaira_thurston").algebra


@pytest.fixture(scope="session")
def filiform():
    return get_example("filiform_0_0_12_13").algebra


@pytest.fixture(scope="session")
def six_dim():
    return get_example("six_dim_example").algebra


@pytest.fixture(scope="session")
def so3():
    """Compact simple algebra: valid Jacobi, not nilpotent, unimodular."""
    return build_algebra(3, {
        (1, 2): (0, 0, 1),
        (2, 3): (1, 0, 0),
        (1, 3): (0, -1, 0),
    })


SOLVABLE_NONUNIMODULAR = {(1, 2, 2): -1, (1, 3, 3): -1, (1, 4, 4): -1}


@pytest.fixture(scope="session")
def solvable_nonunimodular():
    """dx2 = e12, dx3 = e13, dx4 = e14.

    Jacobi holds, trace(ad X1) = -3, and every closed 2-form lies in the
    span of e12, e13, e14, so no symplectic form exists.
    """
    return LieAlgebra(4, SOLVABLE_NONUNIMODULAR)


# Brackets of three solvable 4-dimensional algebras that are not nilpotent,
# with the answers of the per-candidate lcs search (height 2) frozen before
# the nilpotent shortcut: candidates examined, witness, genuine witness.
# Only r3_minus1_plus_r is unimodular.
NON_NILPOTENT_4D = {
    "aff_plus_aff": ({(1, 2): (0, 1, 0, 0), (3, 4): (0, 0, 0, 1)}, 2,
                     ("x1^x2 + x3^x4", "0"), ("x1^x2 + x1^x4 + x3^x4", "x1")),
    "r3_minus1_plus_r": ({(1, 2): (0, 1, 0, 0), (1, 3): (0, 0, -1, 0)}, 2,
                         ("x1^x4 + x2^x3", "0"), ("x1^x2 + x3^x4", "x1")),
    "aff_plus_r2": ({(1, 2): (0, 1, 0, 0)}, 3,
                    ("x1^x2 + x3^x4", "0"), ("x1^x2 - x2^x3 - x3^x4", "x3")),
}


def unchecked_algebra(dim, constants):
    """An algebra on ``constants`` built by the constructor's own table
    builder, without its Jacobi check: the one way a test reaches a later
    check with d^2 != 0, or reads the jacobiator of rejected constants."""
    algebra = LieAlgebra.__new__(LieAlgebra)
    algebra._build(dim, {key: Fraction(value) for key, value in constants.items()})
    return algebra


def wrong_coframe():
    """The model's coframe with x3 = dz + y dx: d x3 = -x1 ^ x2, not x1 ^ x2,
    and a left translation moves it, but it is still dual to the coordinate
    basis at the origin."""
    x1, x2, x3, x4 = invariant_coframe()
    return x1, x2, {(3,): x3[(3,)], (1,): -x3[(1,)]}, x4


# -- strategies ---------------------------------------------------------------

small_rationals = st.fractions(
    min_value=Fraction(-4), max_value=Fraction(4), max_denominator=3)

small_nonzero = small_rationals.filter(lambda v: v != 0)


@st.composite
def two_step_algebras(draw, min_dim=3, max_dim=5):
    """Brackets landing in the last basis vector only; always a Lie algebra
    (the image is central and kills every nested bracket)."""
    dim = draw(st.integers(min_dim, max_dim))
    constants = {}
    for i in range(1, dim):
        for j in range(i + 1, dim):
            c = draw(small_rationals)
            if c:
                constants[(i, j, dim)] = c
    return LieAlgebra(dim, constants)


@st.composite
def filtered_4d_algebras(draw):
    """dx3 = a*e12, dx4 in span{e12, e13, e23}: nilpotent for every choice."""
    a = draw(small_rationals)
    b = draw(small_rationals)
    c = draw(small_rationals)
    e = draw(small_rationals)
    constants = {}
    if a:
        constants[(1, 2, 3)] = -a
    for (i, j), coeff in (((1, 2), b), ((1, 3), c), ((2, 3), e)):
        if coeff:
            constants[(i, j, 4)] = -coeff
    return LieAlgebra(4, constants)


EXTENSION_COEFFS = (1, -1, 2, -2, Fraction(1, 2))


def central_extension(rng, dim, generators):
    """A nilpotent algebra by iterated central extension, b1 = generators.

    x_1..x_generators are closed; each later dx_k is a nonzero combination of
    one or two closed 2-forms of the algebra spanned by x_1..x_{k-1}, chosen
    outside the exact ones, so d^2 = 0 holds by construction and every new
    covector stays non-closed.
    """
    constants = {}
    for k in range(generators + 1, dim + 1):
        space = cohomology_space(LieAlgebra(k - 1, constants), 2)
        closed = cocycle_forms(space.algebra, 2)
        while True:
            dx = sum((f.scale(rng.choice(EXTENSION_COEFFS))
                      for f in rng.sample(closed, min(2, len(closed)))),
                     space.algebra.zero_form(2))
            if any(space.reduce(dx)):
                break
        for (i, j), coeff in dx.coeffs.items():
            constants[(i, j, k)] = -coeff
    return LieAlgebra(dim, constants)


def seeded_central_extension(seed, dim, generators):
    return central_extension(random.Random(f"{seed}:{dim}:{generators}"),
                             dim, generators)


@st.composite
def nilpotent_algebras(draw, dims=range(4, 9)):
    """Higher-step nilpotent algebras from ``central_extension``, seeded by
    one drawn integer (a hypothesis-driven random source costs a draw per
    call and makes each example many times slower)."""
    dim = draw(st.sampled_from(dims))
    generators = draw(st.integers(2, min(3, dim - 1)))
    return seeded_central_extension(draw(st.integers(0, 2**32)), dim, generators)


def permuted(algebra, perm):
    """The same algebra on the renamed basis X_i -> X_perm[i - 1]."""
    constants = {}
    for (i, j, k), coeff in algebra.constants.items():
        a, b = perm[i - 1], perm[j - 1]
        constants[(min(a, b), max(a, b), perm[k - 1])] = coeff if a < b else -coeff
    return LieAlgebra(algebra.dim, constants)


@st.composite
def permuted_nilpotent_algebras(draw, dims=range(4, 9)):
    """``nilpotent_algebras`` on a shuffled basis, so that the structure
    constants are in general no longer in Salamon's order."""
    algebra = draw(nilpotent_algebras(dims))
    return permuted(algebra, draw(st.permutations(range(1, algebra.dim + 1))))


def non_nilpotent_4d_algebras():
    return st.sampled_from([brackets for brackets, *_ in NON_NILPOTENT_4D.values()]) \
        .map(lambda brackets: build_algebra(4, brackets))


def catalog_algebras():
    return st.sampled_from(
        ["torus4", "kodaira_thurston", "filiform_0_0_12_13", "six_dim_example"]
    ).map(lambda name: get_example(name).algebra)


@st.composite
def forms_on(draw, algebra_strategy, degrees=(0, 1, 2, 3)):
    algebra = draw(algebra_strategy)
    degree = draw(st.sampled_from([k for k in degrees if k <= algebra.dim]))
    monos = algebra.monomials(degree)
    terms = {}
    for mono in monos:
        value = draw(st.one_of(st.just(Fraction(0)), small_rationals))
        if value:
            terms[mono] = value
    return algebra.form({m: c for m, c in terms.items()}) if terms \
        else algebra.zero_form(degree)


def euclidean_metric(dim):
    """The metric whose Gram matrix is the identity."""
    return InnerProduct([[1 if i == j else 0 for j in range(dim)] for i in range(dim)])


@st.composite
def posdef_metrics(draw, dim):
    """Gram matrices A^T A with A integer and invertible; the determinant is
    det(A)^2, so the volume is always rational."""
    entries = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
        min_size=dim, max_size=dim))
    assume(span_rank([dict(enumerate(row)) for row in entries]) == dim)
    gram = [[sum(Fraction(entries[r][i]) * entries[r][j] for r in range(dim))
             for j in range(dim)] for i in range(dim)]
    return InnerProduct(gram)


MATRIX_VALUES = (0, 0, 0, 1, -1, Fraction(1, 2), 2)


def fixed_matrix(seed, dim):
    """A fixed invertible dim x dim matrix, entries drawn from
    ``MATRIX_VALUES`` by a seeded generator until one is invertible."""
    rng = random.Random(seed)
    while True:
        matrix = [[rng.choice(MATRIX_VALUES) for _ in range(dim)] for _ in range(dim)]
        if sympy_matrix(matrix).det() != 0:
            return matrix


def cayley_rotation(dim, seed):
    """The Cayley transform Q = (Id - S)(Id + S)^-1 of a seeded skew matrix
    S with entries in {-1, 0, 1}: an orthogonal rational matrix, as rows."""
    rng = random.Random(f"cayley:{dim}:{seed}")
    skew = sympy.zeros(dim)
    for i in range(dim):
        for j in range(i + 1, dim):
            skew[i, j] = rng.choice((-1, 0, 1))
            skew[j, i] = -skew[i, j]
    eye = sympy.eye(dim)
    q = (eye - skew) * (eye + skew).inv()
    return tuple(tuple(as_fraction(q[r, c]) for c in range(dim)) for r in range(dim))


def standard_complex_structure(dim):
    """J0 X_{2p-1} = X_{2p}, J0 X_{2p} = -X_{2p-1}, as a matrix acting on
    columns."""
    return tuple(tuple(1 if r == c + 1 and c % 2 == 0 else -1 if c == r + 1 and r % 2 == 0
                       else 0 for c in range(dim)) for r in range(dim))


def cayley_complex_structure(dim, seed):
    """J = Q J0 Q^T for Q = ``cayley_rotation(dim, seed)``, as a matrix
    acting on columns.  Q is orthogonal, so J is, and the identity metric is
    compatible with J; the fundamental form is dense."""
    q = sympy_matrix(cayley_rotation(dim, seed))
    acs = q * sympy_matrix(standard_complex_structure(dim)) * q.T
    return tuple(tuple(as_fraction(acs[r, c]) for c in range(dim)) for r in range(dim))


@st.composite
def complex_structures(draw, dim):
    """J = A J0 A^-1 for the standard J0 (J0 X_{2p-1} = X_{2p}) and A integer
    and invertible, as a matrix acting on columns."""
    entries = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim),
        min_size=dim, max_size=dim))
    a = [list(map(Fraction, row)) for row in entries]
    assume(span_rank([dict(enumerate(row)) for row in a]) == dim)
    inverse = sympy_matrix(a).inv()
    # A J0 has columns A J0 e_c: A e_{c+1} for even c, -A e_{c-1} for odd c
    a_j0 = [[row[c + 1] if c % 2 == 0 else -row[c - 1] for c in range(dim)]
            for row in a]
    return tuple(tuple(sum(a_j0[r][k] * as_fraction(inverse[k, c]) for k in range(dim))
                       for c in range(dim)) for r in range(dim))
