"""Quantified property suite.

Every law the acceptance criteria call out is fuzzed here: the differential
squares to zero, the wedge is a graded-commutative Leibniz partner of d, the
Pfaffian squares to the determinant, the oracle's raw star obeys its
sign law and its defining law with the induced pairing, d and the oracle's
delta are adjoint on unimodular algebras, the Lee form equals the oracle's
codifferential route, nilpotent Betti profiles satisfy
Poincare duality, the two serializers round-trip, and every witness a search
returns survives independent re-verification.

The module keeps its own case budget; ``test_total_fuzz_budget`` pins the
suite-wide count at one thousand or more.
"""

import copy
import itertools
from fractions import Fraction
from math import comb

import pytest
from hypothesis import Phase, given, settings, strategies as st

from nilforms import (
    DegenerateMetric,
    InnerProduct,
    JacobiViolation,
    KForm,
    LieAlgebra,
    NotHermitian,
    SearchConfig,
    as_scalar,
    betti_profile,
    build_algebra,
    ce_d,
    check_lcs,
    check_symplectic,
    classify_4d,
    classify_hermitian,
    cohomology_space,
    find_lcs,
    find_symplectic,
    format_salamon,
    format_scalar,
    get_example,
    json_to_algebra,
    json_to_form,
    algebra_to_json,
    form_to_json,
    parse_salamon,
    names,
    nijenhuis,
    pfaffian_volume,
    twisted_d,
    wedge,
)
from nilforms import cohomology, linalg
from nilforms.cohomology import _d_images, _d_matrix, _form
from nilforms.exterior_core import _is_nilpotent, lower_central_series
from nilforms.hermitian import _hermitian_pair, _is_parallel
from nilforms.structures import (
    closed_covector_basis,
    nondegenerate_in_span,
)

from conftest import (
    SOLVABLE_NONUNIMODULAR,
    catalog_algebras,
    cocycle_forms,
    complex_structures,
    filtered_4d_algebras,
    fixed_matrix,
    forms_on,
    nilpotent_algebras,
    non_nilpotent_4d_algebras,
    permuted,
    permuted_nilpotent_algebras,
    posdef_metrics,
    small_rationals,
    two_step_algebras,
    unchecked_algebra,
)
from oracles import (
    _twisted_exact_pfaffian,
    as_fraction,
    basis_vector,
    betti_by_koszul,
    change_basis,
    d_matrix_by_koszul,
    direct_sum,
    gysin_betti,
    jacobiator,
    reference_codifferential,
    reference_koszul_table,
    reference_form_pairing,
    reference_fundamental_form,
    reference_lee_form,
    reference_lee_parallel,
    reference_nijenhuis,
    reference_pairing,
    reference_rref,
    reference_star_raw,
    reference_symbolic_pfaffian,
    skew_matrix,
    sympy_matrix,
    sympy_pfaffian_squared_is_det,
)

CASE_BUDGET = []


# for properties whose every example reruns a slow oracle: each shrink step
# would rerun it too, so a failure reports as it is found instead of after
# minutes of shrinking
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def fuzz(*strategies, n=60, phases=tuple(Phase), **kw):
    def wrap(fn):
        CASE_BUDGET.append((fn.__name__, n))
        return settings(max_examples=n, phases=phases)(given(*strategies, **kw)(fn))
    return wrap


# -- differential laws --------------------------------------------------------


@fuzz(forms_on(two_step_algebras()))
def test_d_squared_vanishes_on_two_step(form):
    assert ce_d(ce_d(form)).is_zero


@fuzz(forms_on(filtered_4d_algebras()))
def test_d_squared_vanishes_on_filtered_4d(form):
    assert ce_d(ce_d(form)).is_zero


@fuzz(forms_on(filtered_4d_algebras(), degrees=(0, 1, 2)),
      forms_on(filtered_4d_algebras(), degrees=(0, 1, 2)))
def test_graded_leibniz(a, b):
    b = KForm(a.algebra, b.degree, dict(b.terms()))  # transplant coefficients
    sign = (-1) ** a.degree
    assert ce_d(wedge(a, b)) \
        == wedge(ce_d(a), b) + wedge(a, ce_d(b)).scale(sign)


@fuzz(forms_on(two_step_algebras(), degrees=(0, 1, 2)),
      forms_on(two_step_algebras(), degrees=(0, 1, 2)))
def test_graded_commutativity(a, b):
    if a.algebra.dim != b.algebra.dim:
        return
    b = KForm(a.algebra, b.degree, dict(b.terms()))
    sign = (-1) ** (a.degree * b.degree)
    assert wedge(a, b) == wedge(b, a).scale(sign)


@fuzz(forms_on(filtered_4d_algebras(), degrees=(1, 2)),
      forms_on(filtered_4d_algebras(), degrees=(1,)),
      forms_on(filtered_4d_algebras(), degrees=(1,)))
def test_wedge_associativity(a, b, c):
    b = KForm(a.algebra, b.degree, dict(b.terms()))
    c = KForm(a.algebra, c.degree, dict(c.terms()))
    assert wedge(wedge(a, b), c) == wedge(a, wedge(b, c))


@fuzz(two_step_algebras(min_dim=4, max_dim=4),
      forms_on(filtered_4d_algebras(), degrees=(1,)))
def test_twisted_differential_squares_to_zero(algebra, raw_theta):
    closed = [f for f in
              (algebra.covector(i) for i in range(1, algebra.dim + 1))
              if ce_d(f).is_zero]
    theta = closed[0] if closed else algebra.zero_form(1)
    form = KForm(algebra, raw_theta.degree, dict(raw_theta.terms()))
    once = twisted_d(algebra, theta, form)
    assert twisted_d(algebra, theta, once).is_zero


# the Koszul oracle takes over a second for one algebra of dimension 6, so
# the dimensions stay at most 5; two-step constants have denominators up to 3
@fuzz(st.one_of(two_step_algebras(), nilpotent_algebras(dims=(4, 5)),
                non_nilpotent_4d_algebras()), st.data(), n=30, phases=NO_SHRINK)
def test_d_matrix_equals_the_koszul_route(algebra, data):
    basis = closed_covector_basis(algebra)
    theta = _combination(algebra, basis, _nonzero_coords(data, len(basis)))
    for twist in (None, theta):
        for k in range(algebra.dim + 1):
            columns = _d_matrix(algebra, k, twist)
            rows, _, codomain = d_matrix_by_koszul(algebra, k, twist)
            masks = [sum(1 << i for i in mono) for mono in codomain]
            assert set().union(*columns) <= set(masks)
            assert [[column.get(mask, 0) for column in columns]
                    for mask in masks] == rows


# -- Pfaffian laws ------------------------------------------------------------


def _random_two_form(algebra, coeffs):
    pairs = list(itertools.combinations(range(1, algebra.dim + 1), 2))
    terms = {pair: c for pair, c in zip(pairs, coeffs) if c != 0}
    return KForm(algebra, 2, terms)


@fuzz(st.integers(2, 3),
      st.lists(small_rationals, min_size=15, max_size=15))
def test_pfaffian_squared_is_the_determinant(half, coeffs):
    algebra = LieAlgebra(2 * half, {})
    omega = _random_two_form(algebra, coeffs)
    pf = pfaffian_volume(algebra, omega)
    assert sympy_pfaffian_squared_is_det(skew_matrix(omega), pf)


@fuzz(st.lists(small_rationals, min_size=6, max_size=6))
def test_pfaffian_matches_the_power_route(coeffs):
    algebra = LieAlgebra(4, {})
    omega = _random_two_form(algebra, coeffs)
    square = wedge(omega, omega)
    assert pfaffian_volume(algebra, omega) \
        == square.coefficient((1, 2, 3, 4)) / 2


@fuzz(st.integers(1, 4),
      st.lists(small_rationals, min_size=28, max_size=28))
def test_pfaffian_equals_the_independent_expansion(half, coeffs):
    # Pf^2 = det cannot see the sign; the oracle's own recursion can
    algebra = LieAlgebra(2 * half, {})
    omega = _random_two_form(algebra, coeffs)
    reference = reference_symbolic_pfaffian(
        algebra.dim, 0, [(pair, (), c) for pair, c in omega.coeffs.items()])
    assert pfaffian_volume(algebra, omega) == reference.terms.get((), 0)


# -- Hodge laws of the oracle's Lee-form route -------------------------------


@fuzz(posdef_metrics(4), forms_on(catalog_algebras(), degrees=(0, 1, 2, 3)))
def test_star_star_sign_law(metric, form):
    algebra = form.algebra
    if algebra.dim != 4:
        return
    k = form.degree
    twice = reference_star_raw(algebra, metric, reference_star_raw(algebra, metric, form))
    det = as_fraction(sympy_matrix(metric.matrix).det())
    assert twice == form.scale(Fraction((-1) ** (k * (4 - k))) / det)


@fuzz(posdef_metrics(4),
      forms_on(catalog_algebras(), degrees=(0, 1, 2, 3)),
      forms_on(catalog_algebras(), degrees=(1, 2, 3, 4)))
def test_d_delta_adjointness_on_unimodular(metric, alpha, beta):
    algebra = alpha.algebra
    if algebra.dim != 4 or beta.algebra.dim != 4 \
            or beta.degree != alpha.degree + 1:
        return
    beta = KForm(algebra, beta.degree, dict(beta.terms()))
    assert reference_form_pairing(metric, ce_d(alpha), beta) \
        == reference_form_pairing(metric, alpha,
                                  reference_codifferential(algebra, metric, beta))


@pytest.mark.parametrize("dim", range(2, 7))
@fuzz(st.data(), n=12)
def test_the_raw_star_obeys_its_defining_law(dim, data):
    """a ^ star_raw(b) = <a, b> x_1 ^ ... ^ x_n for forms of one common
    degree, any of 0..n, on the abelian algebra of the metric's dimension
    (the star and the pairing read only that)."""
    metric = data.draw(posdef_metrics(dim))
    algebra = LieAlgebra(dim, {})
    degree = data.draw(st.integers(0, dim))
    a, b = (data.draw(forms_on(st.just(algebra), degrees=(degree,))) for _ in range(2))
    top = algebra.basis_form(*range(1, algebra.dim + 1))
    assert wedge(a, reference_star_raw(algebra, metric, b)) \
        == top.scale(reference_form_pairing(metric, a, b))


# -- metrics ------------------------------------------------------------------


@st.composite
def symmetric_matrices(draw):
    dim = draw(st.integers(1, 5))
    rows = [[0] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = draw(st.sampled_from(
                (0, 1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3))))
        rows[i][i] = draw(st.integers(-1, 4))
    return rows


@fuzz(symmetric_matrices(), n=60)
def test_metric_gate_reports_the_first_bad_minor_as_sympy_does(rows):
    reference = sympy_matrix(rows)
    minors = [as_fraction(reference[:k, :k].det()) for k in range(1, len(rows) + 1)]
    bad = next(((k, m) for k, m in enumerate(minors, 1) if m <= 0), None)
    if bad is None:
        assert InnerProduct(rows).dim == len(rows)
        return
    try:
        InnerProduct(rows)
    except DegenerateMetric as exc:
        assert str(exc) == (f"leading principal minor {bad[0]} is {bad[1]}; "
                            "metric is not positive definite")
    else:
        raise AssertionError("an indefinite Gram matrix was accepted")


# -- Hermitian tensors --------------------------------------------------------


def test_hermitian_tensors_on_the_catalog_pairs_equal_the_dense_reference():
    for name in names():
        entry = get_example(name)
        if entry.acs is None:
            continue
        components = nijenhuis(entry.algebra, entry.acs).components
        assert repr(components) == repr(reference_nijenhuis(entry.algebra, entry.acs))


@fuzz(st.one_of(catalog_algebras(), nilpotent_algebras(dims=(4, 6))), st.data(), n=40)
def test_hermitian_tensors_equal_the_dense_reference(algebra, data):
    acs = data.draw(complex_structures(algebra.dim))
    components = nijenhuis(algebra, acs).components
    assert repr(components) == repr(reference_nijenhuis(algebra, acs))


def _reductive_plus_line():
    """so(3) + R and e(2) + R: unimodular, not nilpotent, X4 central."""
    line = LieAlgebra(1, {})
    so3 = build_algebra(3, {(1, 2): (0, 0, 1), (2, 3): (1, 0, 0), (1, 3): (0, -1, 0)})
    e2 = build_algebra(3, {(1, 2): (0, 0, 1), (1, 3): (0, -1, 0)})
    return st.sampled_from([direct_sum(so3, line), direct_sum(e2, line)])


def _planted_covectors(algebra, metric, orthogonal):
    """g(Z, .) over a kernel basis of central Z; with ``orthogonal`` Z is
    also g-orthogonal to [g, g], so g(Z, .) is closed as well as dual to a
    Killing field (ad_Z = 0), hence parallel."""
    n = algebra.dim
    columns = []
    for c in range(1, n + 1):
        column = {("ad", j, k): v for j in range(1, n + 1)
                  for k, v in enumerate(algebra.bracket(c, j), 1) if v}
        if orthogonal:
            for i, j in itertools.combinations(range(1, n + 1), 2):
                value = reference_pairing(metric, basis_vector(n, c), algebra.bracket(i, j))
                if value:
                    column[("g", i, j)] = value
        columns.append(column)
    return [algebra.form({(l,): reference_pairing(metric, [z.get(c, 0) for c in range(n)],
                                                  basis_vector(n, l))
                          for l in range(1, n + 1)})
            for z in linalg.kernel(columns)]


def test_parallel_check_equals_the_connection_table():
    """``classify_hermitian``'s parallel Lee form (closed, with a Killing
    dual) against the full Levi-Civita table, on random, closed and planted
    covectors; both outcomes occur on nonzero covectors."""
    seen = set()

    @settings(max_examples=60)
    @given(st.one_of(nilpotent_algebras(), non_nilpotent_4d_algebras(),
                     _reductive_plus_line(), catalog_algebras()), st.data())
    def check(algebra, data):
        n = algebra.dim
        # a diagonal metric can make ad_T fail skewness on the diagonal alone
        metric = data.draw(st.one_of(
            posdef_metrics(n),
            st.lists(st.integers(1, 3), min_size=n, max_size=n).map(
                lambda d: InnerProduct([[d[i] if i == j else 0 for j in range(n)]
                                        for i in range(n)]))))
        basis = closed_covector_basis(algebra)
        raw = data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n))
        thetas = [algebra.form({(k,): v for k, v in enumerate(raw, 1)}),
                  _combination(algebra, basis, _nonzero_coords(data, len(basis)))
                  if basis else algebra.zero_form(1),
                  *_planted_covectors(algebra, metric, orthogonal=False),
                  *_planted_covectors(algebra, metric, orthogonal=True)]
        table = reference_koszul_table(algebra, metric)
        for theta in thetas:
            parallel = _is_parallel(algebra, metric, theta)
            assert parallel == reference_lee_parallel(table, theta)
            if not theta.is_zero:
                seen.add(parallel)

    check()
    assert seen == {True, False}


def _j_invariant(base, acs):
    """g = B + J^T B J, which is J-invariant because J^2 = -Id."""
    n = len(acs)
    return InnerProduct([[base[a][b] + sum(acs[r][a] * base[r][s] * acs[s][b]
                                           for r in range(n) for s in range(n))
                          for b in range(n)] for a in range(n)])


@fuzz(st.one_of(catalog_algebras(), nilpotent_algebras(dims=(4, 6))), st.data(),
      st.booleans())
def test_fundamental_form_and_compatibility_equal_the_dense_reference(
        algebra, data, compatible):
    n = algebra.dim
    base = data.draw(posdef_metrics(n))
    acs = data.draw(complex_structures(n))
    metric = _j_invariant(base.matrix, acs) if compatible else base
    expected = reference_fundamental_form(metric, acs)
    assert expected is not None or not compatible
    try:
        omega = _hermitian_pair(algebra, metric, acs)[2]
    except NotHermitian as exc:
        assert expected is None
        assert str(exc) == "metric is not J-invariant: g(JX, JY) != g(X, Y)"
    else:
        assert repr(omega.coeffs) == repr(expected)


@fuzz(st.one_of(catalog_algebras(), nilpotent_algebras(dims=(6, 4)),
                non_nilpotent_4d_algebras(),
                st.just(LieAlgebra(4, SOLVABLE_NONUNIMODULAR))),
      st.data(), n=40, phases=NO_SHRINK)
def test_the_lee_form_equals_the_codifferential_route(algebra, data):
    """theta solved from d(w) ^ w^(m-2) = theta ^ w^(m-1) against the
    oracle's -(1/(m-1)) * (delta w)(J.), on unimodular algebras and not."""
    n = algebra.dim
    acs = data.draw(complex_structures(n))
    metric = _j_invariant(data.draw(posdef_metrics(n)).matrix, acs)
    assert classify_hermitian(algebra, metric, acs).lee \
        == reference_lee_form(algebra, metric, acs)


# -- global profiles ----------------------------------------------------------


def _combination(algebra, basis, coords):
    return sum((f.scale(c) for f, c in zip(basis, coords)), algebra.zero_form(1))


def _nonzero_coords(data, length):
    return data.draw(st.lists(small_rationals, min_size=length, max_size=length)
                     .filter(any))


# betti_profile takes ranks alone, so chi = 0 holds on it identically and
# duality by construction on unimodular input; the laws are checked on the
# full spaces, which use neither


def _full_betti(algebra, theta=None):
    return tuple(cohomology_space(algebra, k, theta).betti
                 for k in range(algebra.dim + 1))


def _quotient_by_reference(algebra, k, theta):
    """The representative rows of H^k_theta the way they were built before
    the quotient was read off the cocycle echelon: every cocycle of the
    natural-order kernel (``_cocycles``) reduced modulo the reduced echelon
    form of the coboundaries (images of the monomials under ``twisted_d``),
    then the reduced echelon form of what is left, all by dense Fraction
    reduction."""
    monomials = algebra.monomials(k)

    def dense(form):
        return [form.coeffs.get(mono, 0) for mono in monomials]

    images = [dense(twisted_d(algebra, theta, KForm(algebra, k - 1, {mono: 1})))
              for mono in algebra.monomials(k - 1)] if k else []
    boundary, pivots = reference_rref(images, len(monomials))
    reduced = []
    for cocycle in cocycle_forms(algebra, k, theta):
        vec = dense(cocycle)
        for row, p in zip(boundary, pivots):
            vec = [a - vec[p] * b for a, b in zip(vec, row)]
        reduced.append(vec)
    return reference_rref(reduced, len(monomials))[0], dense


@fuzz(st.one_of(nilpotent_algebras(dims=range(4, 8)), non_nilpotent_4d_algebras()),
      st.data(), n=30)
def test_representatives_equal_the_reduce_then_reduce_route(algebra, data):
    # plain on nilpotent and solvable algebras; twisted on the solvable ones,
    # where H_theta need not vanish: each of them has such a twist among
    # the basis covectors and their negatives
    twists = [None]
    if not _is_nilpotent(algebra):
        basis = closed_covector_basis(algebra)
        twists += [b.scale(s) for b in basis for s in (1, -1)]
        twists.append(_combination(algebra, basis, _nonzero_coords(data, len(basis))))
    for theta in twists:
        for k in range(algebra.dim + 1):
            rows, dense = _quotient_by_reference(algebra, k, theta)
            space = cohomology_space(algebra, k, theta)
            assert [dense(rep) for rep in space.representative_basis] == rows


# a class holds only its coordinates: however it is made, its representative
# is sum c_i rep_i over the space's basis, summed here term by term, and
# reducing that form gives the class back
@fuzz(nilpotent_algebras(dims=range(4, 8)), st.data(), n=20)
def test_a_class_is_its_coordinates(algebra, data):
    for theta in _plain_and_twisted(algebra, data):
        for k in range(algebra.dim + 1):
            space = cohomology_space(algebra, k, theta)
            coords = data.draw(st.lists(small_rationals, min_size=space.betti,
                                        max_size=space.betti))
            cocycle = sum(map(KForm.scale, space.representative_basis, coords),
                          algebra.zero_form(k))
            if k:
                mono = data.draw(st.sampled_from(algebra.monomials(k - 1)))
                cocycle += twisted_d(algebra, theta, algebra.form({mono: 1}))
            reduced = space.class_of(cocycle)
            basis = space.classes()
            made = [reduced, *basis, reduced.scale(data.draw(small_rationals)),
                    *(reduced + cls for cls in basis), *(reduced - cls for cls in basis)]
            for cls in made:
                terms = {}
                for c, rep in zip(cls.coords, space.representative_basis):
                    for mono, value in rep.coeffs.items():
                        terms[mono] = terms.get(mono, 0) + c * value
                assert cls.representative == KForm(algebra, k, terms)
                assert space.class_of(cls.representative) == cls
            assert reduced.coords == tuple(coords)


@fuzz(st.one_of(two_step_algebras(), nilpotent_algebras()))
def test_poincare_duality_on_nilpotent_algebras(algebra):
    betti = _full_betti(algebra)
    assert betti == tuple(reversed(betti))
    assert betti[0] == 1 and betti[-1] == 1


@fuzz(catalog_algebras())
def test_poincare_duality_on_the_catalog(algebra):
    betti = _full_betti(algebra)
    assert betti == tuple(reversed(betti))


@fuzz(st.one_of(two_step_algebras(), nilpotent_algebras()), n=40)
def test_euler_characteristic_vanishes(algebra):
    betti = _full_betti(algebra)
    assert sum((-1) ** k * b for k, b in enumerate(betti)) == 0


@fuzz(st.one_of(nilpotent_algebras(), non_nilpotent_4d_algebras()))
def test_rank_profile_equals_the_full_spaces(algebra):
    assert betti_profile(algebra) == _full_betti(algebra)


@fuzz(st.one_of(nilpotent_algebras(), non_nilpotent_4d_algebras()), st.data(), n=40)
def test_twisted_rank_profile_equals_the_full_spaces(algebra, data):
    basis = closed_covector_basis(algebra)
    theta = _combination(algebra, basis, _nonzero_coords(data, len(basis)))
    assert betti_profile(algebra, theta) == _full_betti(algebra, theta)


# betti_profile ranks the degrees of one sweep as they come and uses
# duality on unimodular input; the reference ranks the _d_matrix columns of
# every degree, each off a fresh sweep.  Permuted bases put
# closed covectors between non-closed ones, and the constants below are not
# integral: x1, x2, x4 closed, dx3 = -x12 / 2, dx5 = 3 x13 / 2 - x24 / 3.
NON_INTEGRAL = LieAlgebra(5, {(1, 2, 3): Fraction(1, 2), (1, 3, 5): Fraction(-3, 2),
                              (2, 4, 5): Fraction(1, 3)})


def _betti_by_d_matrix(algebra, theta=None):
    n = algebra.dim
    ranks = [0, *(linalg.span_rank(_d_matrix(algebra, k, theta)) for k in range(n)), 0]
    return tuple(comb(n, k) - ranks[k + 1] - ranks[k] for k in range(n + 1))


def _plain_and_twisted(algebra, data):
    basis = closed_covector_basis(algebra)
    return None, _combination(algebra, basis, _nonzero_coords(data, len(basis)))


@fuzz(st.one_of(permuted_nilpotent_algebras(), st.just(NON_INTEGRAL),
                non_nilpotent_4d_algebras()), st.data(), n=40)
def test_betti_profile_equals_the_ranks_of_the_d_matrix(algebra, data):
    for theta in _plain_and_twisted(algebra, data):
        assert betti_profile(algebra, theta) == _betti_by_d_matrix(algebra, theta)


def _non_integral_basis_change(seed, dim):
    """``fixed_matrix(s, dim)`` for the first s >= ``seed`` whose inverse
    is not integral."""
    for s in itertools.count(seed):
        matrix = fixed_matrix(s, dim)
        if any(v.q != 1 for v in sympy_matrix(matrix).inv()):
            return matrix


# no change of basis moves a rank.  With a non-integral P^-1 the constants
# in the new basis are Fractions, and so are the images of the sweep that
# betti_profile hands to _rank: the case in which _rank clears denominators
@fuzz(nilpotent_algebras(), st.integers(0, 2**16), n=20)
def test_betti_numbers_do_not_depend_on_the_basis(algebra, seed):
    matrix = _non_integral_basis_change(seed, algebra.dim)
    assert betti_profile(change_basis(algebra, matrix)) == betti_profile(algebra)


# nor does it move the lower central series, unimodularity, the existence of
# a symplectic form or the class in dimension 4.  The changed basis is in
# general out of Salamon's order, so its nilpotency is read off the series
@fuzz(nilpotent_algebras(dims=(4, 5, 6)), st.integers(0, 2**16), n=20)
def test_structure_answers_do_not_depend_on_the_basis(algebra, seed):
    changed = change_basis(algebra, fixed_matrix(seed, algebra.dim))
    assert lower_central_series(changed) == lower_central_series(algebra)
    if algebra.dim % 2 == 0:
        assert (find_symplectic(changed) is None) == (find_symplectic(algebra) is None)
    if algebra.dim == 4:
        assert classify_4d(changed).label == classify_4d(algebra).label


# _d_matrix reads one degree off the sweep of _d_images, which builds each
# degree from the one below; twisted_d builds each monomial on its own from
# its last index down.  Both run exterior_core._d_step, so this compares two
# traversals of one step, not two sign rules: the independent check of the
# step is the Koszul oracle (test_d_agrees_with_the_koszul_oracle in
# test_exterior_core.py, and the Koszul route above, which stops at
# dimension 5)
@fuzz(st.one_of(nilpotent_algebras(dims=(6, 7, 8)), st.just(NON_INTEGRAL),
                non_nilpotent_4d_algebras()), st.data(), n=30)
def test_d_matrix_equals_twisted_d_on_each_monomial(algebra, data):
    for theta in _plain_and_twisted(algebra, data):
        for k in range(algebra.dim + 1):
            images = [twisted_d(algebra, theta, algebra.form({mono: 1})).coeffs
                      for mono in algebra.monomials(k)]
            assert _d_matrix(algebra, k, theta) == [
                {sum(1 << i for i in mono): c for mono, c in image.items()}
                for image in images]


# _rank only reads its vectors: betti_profile ranks degree k of the sweep
# while _d_images still needs it to build degree k + 1.  span_rank, which
# also takes zero entries, leaves its input alone too.  Vectors of at most
# four entries over six coordinates give both peeling rules work
@fuzz(st.lists(st.dictionaries(st.integers(0, 5), small_rationals, max_size=4), max_size=8))
def test_rank_leaves_its_vectors_as_they_were(vectors):
    nonzero = [{c: v for c, v in vec.items() if v} for vec in vectors]
    before = copy.deepcopy(vectors), copy.deepcopy(nonzero)
    ranks = linalg.span_rank(vectors), linalg._rank(nonzero)
    assert (vectors, nonzero) == before
    dense = [[vec.get(c, 0) for c in range(6)] for vec in vectors]
    assert ranks == (len(reference_rref(dense, 6)[1]),) * 2


@fuzz(permuted_nilpotent_algebras(), n=20)
def test_rank_leaves_the_images_of_the_sweep_as_they_were(algebra):
    for images in _d_images(algebra):
        before = copy.deepcopy(images)
        linalg._rank(images)
        assert images == before


# the Koszul oracle takes about 1.3 s per profile in dimension 6
@fuzz(st.one_of(permuted_nilpotent_algebras(dims=(4, 5, 6)), st.just(NON_INTEGRAL),
                non_nilpotent_4d_algebras()), st.data(), n=10, phases=NO_SHRINK)
def test_betti_profile_equals_the_koszul_oracle(algebra, data):
    for theta in _plain_and_twisted(algebra, data):
        assert betti_profile(algebra, theta) == betti_by_koszul(algebra, theta)


# the Gysin route builds cohomology spaces of h = g/<X_n> only, so a sweep
# fault does not cancel out; sympy's Koszul oracle stops at dimension 6
@fuzz(nilpotent_algebras(dims=range(7, 11)), n=12, phases=NO_SHRINK)
def test_betti_profile_equals_the_gysin_route(algebra):
    swept = []

    def counted(sweep_algebra, theta=None):
        swept.append(sweep_algebra.dim)
        return _d_images(sweep_algebra, theta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cohomology, "_d_images", counted)
        gysin = gysin_betti(algebra)
    assert algebra.dim not in swept
    assert betti_profile(algebra) == gysin


def test_the_gysin_route_refuses_another_order():
    with pytest.raises(ValueError, match="Salamon's order"):
        gysin_betti(permuted(parse_salamon("(0,0,12,13)"), (4, 3, 2, 1)))


# -- Dixmier vanishing ---------------------------------------------------------


@fuzz(nilpotent_algebras(), st.data(), n=30)
def test_twisted_betti_numbers_vanish_on_nilpotent_algebras(algebra, data):
    basis = closed_covector_basis(algebra)
    theta = _combination(algebra, basis, _nonzero_coords(data, len(basis)))
    assert betti_profile(algebra, theta) == (0,) * (algebra.dim + 1)


@fuzz(nilpotent_algebras(dims=(4, 6, 8)), st.data(), n=30)
def test_twisted_exact_pfaffian_is_the_pfaffian_of_d_theta_eta(algebra, data):
    # P(t, a) at a point is the Pfaffian of d eta - theta ^ eta there
    basis = closed_covector_basis(algebra)
    t = data.draw(st.lists(small_rationals, min_size=len(basis), max_size=len(basis)))
    a = data.draw(st.lists(small_rationals, min_size=algebra.dim,
                           max_size=algebra.dim))
    theta = _combination(algebra, basis, t)
    eta = _combination(algebra, [algebra.covector(j)
                                 for j in range(1, algebra.dim + 1)], a)
    omega = twisted_d(algebra, theta, eta)
    pfaffian = _twisted_exact_pfaffian(algebra, [b.coeffs for b in basis])
    assert pfaffian.evaluate(t + a) == pfaffian_volume(algebra, omega)


@fuzz(nilpotent_algebras(dims=(4, 6, 8)), st.data(), n=30)
def test_no_twisted_candidate_survives_a_zero_global_pfaffian(algebra, data):
    basis = closed_covector_basis(algebra)
    if not _twisted_exact_pfaffian(algebra, [b.coeffs for b in basis]).is_zero:
        return
    theta = _combination(algebra, basis, _nonzero_coords(data, len(basis)))
    span = [_form(algebra, 2, algebra.monomials(2), vec)
            for vec in linalg.kernel(_d_matrix(algebra, 2, theta))]
    assert nondegenerate_in_span(algebra, span) is None


# -- serialization round trips ------------------------------------------------


@fuzz(small_rationals)
def test_scalar_round_trip(value):
    assert as_scalar(format_scalar(value)) == value


@fuzz(filtered_4d_algebras())
def test_salamon_round_trip(algebra):
    assert parse_salamon(format_salamon(algebra)) == algebra


@fuzz(two_step_algebras())
def test_algebra_json_round_trip(algebra):
    assert json_to_algebra(algebra_to_json(algebra)) == algebra


@fuzz(forms_on(filtered_4d_algebras()))
def test_form_json_round_trip(form):
    assert json_to_form(form.algebra, form_to_json(form)) == form


# -- constructor honesty ------------------------------------------------------


@fuzz(st.dictionaries(
    st.tuples(st.integers(1, 3), st.integers(2, 4), st.integers(1, 4)),
    st.integers(-2, 2), max_size=5))
def test_constructor_accepts_or_refuses_with_a_witness(raw):
    constants = {(i, j, k): v for (i, j, k), v in raw.items() if i < j and v}
    try:
        LieAlgebra(4, constants)
    except JacobiViolation as exc:
        assert any(x != 0 for x in jacobiator(unchecked_algebra(4, constants), *exc.triple))


# -- search honesty -----------------------------------------------------------


@fuzz(filtered_4d_algebras(), n=40)
def test_find_symplectic_witnesses_verify(algebra):
    omega = find_symplectic(algebra)
    if omega is not None:
        assert check_symplectic(algebra, omega).is_symplectic


@fuzz(filtered_4d_algebras(), n=40)
def test_find_lcs_witnesses_reverify(algebra):
    result = find_lcs(algebra, SearchConfig(height=1, max_candidates=25))
    if result.witness is not None:
        omega, theta = result.witness
        assert check_lcs(algebra, omega, theta).holds
    if result.genuine_witness is not None:
        omega, theta = result.genuine_witness
        verdict = check_lcs(algebra, omega, theta)
        assert verdict.holds and verdict.genuine


@fuzz(two_step_algebras(min_dim=4, max_dim=4), n=40)
def test_unimodularity_of_nilpotent_algebras(algebra):
    assert lower_central_series(algebra).unimodular


def test_total_fuzz_budget():
    assert sum(n for _, n in CASE_BUDGET) >= 1000
