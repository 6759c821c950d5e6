"""find_lcs against the per-candidate search it shortcuts on nilpotent algebras.

``oracles.reference_find_lcs`` decides every twisting candidate on its own,
as ``find_lcs`` did before the Pfaffians Q_i(a) = Pf(d eta - b_i ^ eta) of
the closed covectors b_i began to settle all theta != 0 candidates of a
nilpotent algebra.  The two must report the same status, count, cap and
witnesses, on generated nilpotent algebras whose searches both find a
genuine pair and miss one.

The shortcut rests on cheap pieces, each checked against the route it
replaced: the Pfaffian of a family of (variables, 2-form) pairs, expanded
on int coefficients and packed monomials, against the all-Fraction
expansion on exponent tuples (``oracles.reference_symbolic_pfaffian``,
reached through ``reference_family_pfaffian``), for the global polynomial
P(t, a) = Pf(d eta - theta ^ eta) (``oracles._twisted_exact_pfaffian``)
and for the span witnesses alike; the closed covectors read off the kernel
of d on Lambda^1 against the representatives of H^1, read off the kernel
under the reversed source order; and the nilpotency test read off
Salamon's order against the lower central series, on bases shuffled so
that it must fall back.  P itself is evaluated at fixed points against
the Pfaffians of the forms d eta - theta ^ eta it stands for, and each
Q_i ``find_lcs`` expands is P at t = e_i.  The closed covectors with
Q_i == 0 are skipped, and when P is zero every theta != 0 is: the twisted
kernels a search builds are counted, and the agreement with the reference
is checked again after a change of basis (``oracles.change_basis``) that
leaves no closed covector a unit covector.  The one theta != 0 a search
decides reads its d_theta-closed 2-forms off the kernel basis of d_theta
on Lambda^2, and by Dixmier's theorem that basis is also the reduced
echelon basis of d_theta(Lambda^1) (``oracles._twisted_exact_span``, the
route ``find_lcs`` once took): the two are checked equal, key order and
value types included.

The last test states the theorem find_lcs rests on: P is linear in t, so
height 1 decides the search on nilpotent input, with the proof in its
docstring.
"""

import functools
import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilforms import (
    LieAlgebra,
    SearchConfig,
    betti_profile,
    build_algebra,
    cohomology_space,
    find_lcs,
    format_form,
    lower_central_series,
    parse_salamon,
    pfaffian_volume,
    theta_candidates,
    twisted_d,
)
from nilforms import cohomology, linalg, structures
from nilforms.cohomology import _cocycles, _d_images, _d_matrix, _form
from nilforms.exterior_core import _is_nilpotent
from nilforms.polynomials import Poly, nonzero_point
from nilforms.structures import (
    _lee_pfaffian,
    _symbolic_pfaffian,
    closed_covector_basis,
    nondegenerate_in_span,
)

from conftest import (
    NON_NILPOTENT_4D,
    catalog_algebras,
    corpus_script,
    fixed_matrix,
    nilpotent_algebras,
    non_nilpotent_4d_algebras,
    permuted,
    permuted_nilpotent_algebras,
    seeded_central_extension,
)
from oracles import (
    _twisted_exact_pfaffian,
    _twisted_exact_span,
    change_basis,
    reference_find_lcs,
    reference_nonzero_point,
    reference_rref,
    reference_symbolic_pfaffian,
)

# (dimension, b1): every algebra of dimension 4 has a genuine lcs pair; most
# of dimension 6 and 8 have none, so both branches of the shortcut run
SHAPES = ((4, 2), (4, 3), (6, 2), (6, 3), (8, 2), (8, 3))
SEEDS = range(4)

CONFIGS = {
    # theta = 0 alone: no basis covector may slip in ahead of level 1
    "h0": SearchConfig(height=0),
    "h1": SearchConfig(height=1),
    "h2": SearchConfig(height=2),
    "h2-cap5": SearchConfig(height=2, max_candidates=5),
    "h2-cap30": SearchConfig(height=2, max_candidates=30),
    "h1-cap0": SearchConfig(height=1, max_candidates=0),
    # exactly the 3^b1 candidates of height 1: examined all, not capped
    "h1-cap9": SearchConfig(height=1, max_candidates=9),
    "h1-cap27": SearchConfig(height=1, max_candidates=27),
}


def reference_family_pfaffian(dim, nvars, family):
    """``_symbolic_pfaffian``'s family as the oracle's contributions: each
    variable tuple becomes its exponent tuple, one per 2-form term."""
    return reference_symbolic_pfaffian(dim, nvars, [
        (pair, tuple(int(v in variables) for v in range(nvars)), coeff)
        for variables, form in family for pair, coeff in form.items()])


def covector_terms(algebra):
    """The closed covectors as the term dicts ``_twisted_exact_pfaffian``
    takes."""
    return [b.coeffs for b in closed_covector_basis(algebra)]


def summary(result):
    def pair(found):
        return found and tuple(format_form(f) for f in found)
    return (result.genuine_status, result.examined, result.capped,
            pair(result.witness), pair(result.genuine_witness))


def cases():
    for dim, b1 in SHAPES:
        for seed in SEEDS:
            for name, config in CONFIGS.items():
                # the uncapped reference at height 2 over 343 candidates
                # takes most of a second in dimension 8
                if (dim, b1, name) == (8, 3, "h2"):
                    continue
                yield pytest.param(dim, b1, seed, config,
                                   id=f"dim{dim}-b1_{b1}-seed{seed}-{name}")


@pytest.mark.parametrize("dim,b1,seed,config", cases())
def test_find_lcs_matches_the_per_candidate_search(dim, b1, seed, config):
    algebra = seeded_central_extension(seed, dim, b1)
    assert summary(find_lcs(algebra, config)) \
        == summary(reference_find_lcs(algebra, config))


@pytest.mark.parametrize("config", [c for name, c in CONFIGS.items() if name != "h2"],
                         ids=[name for name in CONFIGS if name != "h2"])
def test_find_lcs_matches_the_per_candidate_search_on_the_torus(config):
    algebra = parse_salamon("(0,0,0,0)")
    assert summary(find_lcs(algebra, config)) \
        == summary(reference_find_lcs(algebra, config))


# Solvable, not nilpotent: H*_theta need not vanish, so P == 0 proves nothing
# here, and the genuine pairs these algebras carry are not d_theta-exact.
SOLVABLE_WITH_ZERO_P = {
    "r3": {(1, 2): (0, 1, 0, 0), (1, 3): (0, 0, 1, 0)},
    "r4": {(1, 2): (0, 1, 0, 0), (1, 3): (0, 0, 1, 0), (1, 4): (0, 0, 0, -1)},
}


@pytest.mark.parametrize("brackets", SOLVABLE_WITH_ZERO_P.values(),
                         ids=SOLVABLE_WITH_ZERO_P.keys())
def test_the_shortcut_needs_a_nilpotent_algebra(brackets):
    algebra = build_algebra(4, brackets)
    assert not lower_central_series(algebra).nilpotent
    assert _twisted_exact_pfaffian(algebra, covector_terms(algebra)).is_zero
    config = SearchConfig(height=2)
    result = find_lcs(algebra, config)
    assert result.genuine_status == "FOUND"
    assert summary(result) == summary(reference_find_lcs(algebra, config))


def test_generated_algebras_reach_both_outcomes():
    statuses = {summary(find_lcs(seeded_central_extension(seed, dim, b1),
                                 CONFIGS["h1"]))[0]
                for dim, b1 in SHAPES for seed in SEEDS}
    assert statuses == {"FOUND", "NOT_FOUND_UP_TO_HEIGHT(1)"}


# -- exact ints in the Pfaffian, and the nilpotency test behind the shortcut --

RATIONAL_CONSTANTS = LieAlgebra(4, {(1, 2, 3): Fraction(1, 2), (1, 3, 4): Fraction(-3, 2)})


@settings(max_examples=40)
@given(st.one_of(catalog_algebras(), nilpotent_algebras(dims=(4, 6)),
                 non_nilpotent_4d_algebras(), st.just(RATIONAL_CONSTANTS)))
def test_int_pfaffian_equals_the_fraction_expansion(algebra):
    basis = covector_terms(algebra)
    fast = _twisted_exact_pfaffian(algebra, basis)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structures, "_symbolic_pfaffian", reference_family_pfaffian)
        slow = _twisted_exact_pfaffian(algebra, basis)
    assert fast == slow
    assert repr(fast) == repr(slow)
    if all(c.denominator == 1 for c in algebra.constants.values()) \
            and all(c.denominator == 1 for b in basis for c in b.values()):
        assert all(type(c) is int for c in fast.terms.values())
    if fast:
        assert repr(nonzero_point(fast)) == repr(reference_nonzero_point(slow))


@settings(max_examples=30)
@given(st.one_of(nilpotent_algebras(dims=(4, 6, 8)), st.just(RATIONAL_CONSTANTS)))
def test_span_witness_equals_the_fraction_expansion(algebra):
    # the spans find_lcs decides: the closed 2-forms, and the d_theta-closed
    # ones for the first closed covector
    basis = closed_covector_basis(algebra)
    for theta in (None, *basis[:1]):
        span = [_form(algebra, 2, algebra.monomials(2), vec)
                for vec in linalg.kernel(_d_matrix(algebra, 2, theta))]
        fast = nondegenerate_in_span(algebra, span)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(structures, "_symbolic_pfaffian", reference_family_pfaffian)
            slow = nondegenerate_in_span(algebra, span)
        assert fast == slow
        assert repr(fast) == repr(slow)


@pytest.mark.parametrize("dim", [2, 4, 8, 16])
def test_the_exponent_width_holds_the_top_power(dim):
    # a * sum x_{2i-1} ^ x_{2i} has Pfaffian a^m, m = dim / 2, the largest
    # exponent a packed field must hold; b, in no entry, would show a carry
    m = dim // 2
    algebra = LieAlgebra(dim, {})
    omega = algebra.form({(2 * i - 1, 2 * i): 1 for i in range(1, m + 1)})
    family = [((0,), omega.coeffs)]
    pfaffian = _symbolic_pfaffian(dim, 2, family)
    assert pfaffian == Poly(2, {(m, 0): 1})
    assert repr(pfaffian) == repr(reference_family_pfaffian(dim, 2, family))
    assert nondegenerate_in_span(algebra, [omega]) == omega


@settings(max_examples=40)
@given(st.one_of(catalog_algebras(), nilpotent_algebras(), non_nilpotent_4d_algebras()))
def test_closed_covectors_equal_the_cocycles_of_h1(algebra):
    # B^1 = 0, so H^1's representatives, read off the kernel of d under the
    # reversed source order, are the reduced echelon basis of Z^1: the
    # reduced echelon form of the natural-order kernel
    monomials = algebra.monomials(1)

    def dense(form):
        return [form.coeffs.get(mono, 0) for mono in monomials]

    rows, _ = reference_rref([dense(form) for form in closed_covector_basis(algebra)],
                             algebra.dim)
    representatives = cohomology_space(algebra, 1).representative_basis
    assert [dense(rep) for rep in representatives] == rows


@pytest.mark.parametrize("salamon", ["(0,0,12,13)", "(0,0,0,0,12,34)", "(0,0,0,0)"])
def test_find_lcs_reads_the_closed_covectors_once(salamon):
    # Z^1 and the closed 2-forms of theta = 0 come off one untwisted sweep:
    # one request for Z^1, one plain d swept from degree 0
    calls, sweeps = [], []

    def counted(algebra, degrees, theta=None):
        if 1 in degrees:
            calls.append(theta)
        return _cocycles(algebra, degrees, theta)

    def swept(algebra, theta=None):
        if theta is None:
            sweeps.append(algebra)
        return _d_images(algebra, theta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structures, "_cocycles", counted)
        patch.setattr(cohomology, "_d_images", swept)
        find_lcs(parse_salamon(salamon), SearchConfig(height=2))
    assert calls == [None]
    assert len(sweeps) == 1


def test_rational_constants_keep_their_fractions():
    pfaffian = _twisted_exact_pfaffian(RATIONAL_CONSTANTS, covector_terms(RATIONAL_CONSTANTS))
    assert any(c.denominator != 1 for c in pfaffian.terms.values())


# P is linear in t, so a sign slip in -theta ^ eta turns P into -P, which no
# zero test can see; P's values against the Pfaffians of the forms
# d_theta(eta) themselves do
P_NONZERO = ["(0,0,12,13)", "(0,0,0,0,0,12+34)", "(0,0,0,0,12,14+25)"]


@pytest.mark.parametrize("salamon", P_NONZERO)
def test_the_twisted_exact_pfaffian_is_the_pfaffian_of_each_d_theta_eta(salamon):
    algebra = parse_salamon(salamon)
    basis = closed_covector_basis(algebra)
    pfaffian = _twisted_exact_pfaffian(algebra, [b.coeffs for b in basis])
    m = len(basis)
    for r in range(1, 4):
        # small nonzero integers, so that no monomial of P vanishes
        point = [((v * r) % 4 + 1) * (-1) ** (v + r) for v in range(m + algebra.dim)]
        theta = sum((b.scale(t) for t, b in zip(point, basis)), algebra.zero_form(1))
        eta = algebra.form({(j,): a for j, a in enumerate(point[m:], 1)})
        value = pfaffian_volume(algebra, twisted_d(algebra, theta, eta))
        assert value != 0
        assert pfaffian.evaluate(point) == value


def test_the_filiform_twisted_pfaffian_at_x2_and_x4():
    # theta = x2, eta = x4: d_theta(eta) = x1^x3 - x2^x4, of Pfaffian 1
    filiform = parse_salamon("(0,0,12,13)")
    assert pfaffian_volume(filiform, twisted_d(filiform, filiform.covector(2),
                                               filiform.covector(4))) == 1
    pfaffian = _twisted_exact_pfaffian(filiform, covector_terms(filiform))
    assert pfaffian.evaluate([0, 1, 0, 0, 0, 1]) == 1


@settings(max_examples=40)
@given(st.one_of(nilpotent_algebras(), permuted_nilpotent_algebras(),
                 non_nilpotent_4d_algebras()))
def test_is_nilpotent_agrees_with_the_lower_central_series(algebra):
    assert _is_nilpotent(algebra) == lower_central_series(algebra).nilpotent


@pytest.mark.parametrize("brackets", [b for b, *_ in NON_NILPOTENT_4D.values()]
                         + list(SOLVABLE_WITH_ZERO_P.values()),
                         ids=list(NON_NILPOTENT_4D) + list(SOLVABLE_WITH_ZERO_P))
def test_is_nilpotent_rejects_solvable_algebras(brackets):
    assert not _is_nilpotent(build_algebra(4, brackets))


@pytest.mark.parametrize("salamon", ["(0,0,12,13)", "(0,0,0,12)",
                                     "(0,0,12,13,14,15)", "(0,0,0,0,12,34)"])
def test_is_nilpotent_on_a_reversed_basis(salamon):
    # reversing the basis puts every bracket below both its arguments, so
    # only the lower central series can decide
    algebra = parse_salamon(salamon)
    reversed_algebra = permuted(algebra, range(algebra.dim, 0, -1))
    assert all(k < i for i, _, k in reversed_algebra.constants)
    assert _is_nilpotent(reversed_algebra)


@pytest.mark.parametrize("perm", list(itertools.permutations(range(1, 5))),
                         ids=lambda perm: "".join(map(str, perm)))
def test_find_lcs_on_a_permuted_filiform(perm):
    # the closed covectors are the images of x1 and x2, and theta = x2 is
    # the first genuine Lee form: it is the third candidate when the images
    # keep their order, the second when they swap
    algebra = permuted(parse_salamon("(0,0,12,13)"), perm)
    result = find_lcs(algebra, SearchConfig(height=2))
    assert result.genuine_status == "FOUND"
    assert result.examined == (3 if perm[0] < perm[1] else 2)
    assert format_form(result.genuine_witness[1]) == f"x{perm[1]}"
    if perm[0] < perm[1]:
        original = find_lcs(parse_salamon("(0,0,12,13)"), SearchConfig(height=2))
        assert (result.genuine_status, result.examined) \
            == (original.genuine_status, original.examined)


@pytest.mark.parametrize("perm", [(6, 5, 4, 3, 2, 1), (2, 1, 4, 3, 6, 5),
                                  (3, 6, 1, 5, 2, 4)])
def test_find_lcs_on_a_permuted_six_dimensional_filiform(perm):
    salamon = parse_salamon("(0,0,12,13,14,15)")
    algebra = permuted(salamon, perm)
    config = SearchConfig(height=2)
    result = find_lcs(algebra, config)
    original = find_lcs(salamon, config)
    assert (result.genuine_status, result.examined) \
        == (original.genuine_status, original.examined) \
        == ("NOT_FOUND_UP_TO_HEIGHT(2)", 49)
    assert summary(result) == summary(reference_find_lcs(algebra, config))


# -- the candidates P already rules out ---------------------------------------
# K, the closed theta with P(theta, a) == 0 in a, holds no Lee form, and
# find_lcs builds no twisted kernel for a candidate in K.


@pytest.mark.parametrize("salamon,status,examined,decided", [
    # x1 and x2 lie in K, so only theta = 0 and x3 get a twisted kernel
    ("(0,0,0,12)", "FOUND", 4, ["0", "x3"]),
    # x1 lies in K
    ("(0,0,12,13)", "FOUND", 3, ["0", "x2"]),
    # P == 0: K holds every closed theta, and the 7^2 candidates of height 2
    # are counted, not decided
    ("(0,0,12,13,14,15)", "NOT_FOUND_UP_TO_HEIGHT(2)", 49, ["0"]),
])
def test_find_lcs_builds_no_twisted_kernel_for_a_theta_p_rules_out(
        salamon, status, examined, decided):
    # theta = 0 reads Z^2 off the untwisted sweep, and every theta != 0
    # reads it off the kernel of d_theta on Lambda^2
    thetas = []

    def counted(algebra, degrees, theta=None):
        if 2 in degrees:
            thetas.append("0" if theta is None else format_form(theta))
        return _cocycles(algebra, degrees, theta)

    def twisted(algebra, k, theta=None):
        if k == 2 and theta is not None:
            thetas.append(format_form(theta))
        return _d_matrix(algebra, k, theta)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(structures, "_cocycles", counted)
        patch.setattr(structures, "_d_matrix", twisted)
        result = find_lcs(parse_salamon(salamon), SearchConfig(height=2))
    assert result.genuine_status == status
    assert result.examined == examined
    assert thetas == decided


# After the change of basis the closed covectors are no longer unit
# covectors, so theta's coefficients are not its coordinates over them:
# find_lcs must decide each hoisted candidate by the Q_i of the covector it
# is, and any covector misread, dropped or swapped on the way is wrong.
# Between them the matrices put candidates in K before the genuine one, and
# make a misread covector skip a genuine one.
CHANGED_BASES = {
    "(0,0,12,13)": (8, 9),
    "(0,0,0,12)": (6, 8),
    "(0,0,0,0,12,14+25)": (7, 10),
    "(0,0,0,12,13,14+35)": (1, 7),
    "(0,0,0,0,0,12+34)": (2, 3),
}


@pytest.mark.parametrize("height", [1, 2])
@pytest.mark.parametrize("salamon,seed", [
    (salamon, seed) for salamon, seeds in CHANGED_BASES.items() for seed in seeds])
def test_find_lcs_matches_the_per_candidate_search_in_a_changed_basis(salamon, seed, height):
    original = parse_salamon(salamon)
    algebra = change_basis(original, fixed_matrix(seed, original.dim))
    assert any(len(b.coeffs) > 1 for b in closed_covector_basis(algebra))
    config = SearchConfig(height=height)
    assert summary(find_lcs(algebra, config)) \
        == summary(reference_find_lcs(algebra, config))


# -- each closed covector decides itself --------------------------------------


def assert_each_lee_pfaffian_is_p_at_its_unit_vector(algebra):
    """Q_i(a), as ``find_lcs`` expands it for the closed covector b_i alone,
    equals the global P(t, a) with t = e_i, term for term."""
    covectors = covector_terms(algebra)
    m, n = len(covectors), algebra.dim
    pfaffian = _twisted_exact_pfaffian(algebra, covectors)
    for i, covector in enumerate(covectors):
        at_unit = pfaffian.substitute({v: int(v == i) for v in range(m)})
        assert _lee_pfaffian(algebra, covector) \
            == Poly(n, {expo[m:]: c for expo, c in at_unit.terms.items()})


@settings(max_examples=40)
@given(nilpotent_algebras())
def test_each_lee_pfaffian_is_p_at_its_unit_vector(algebra):
    assert_each_lee_pfaffian_is_p_at_its_unit_vector(algebra)


@pytest.mark.parametrize("salamon,seed", [
    (salamon, seed) for salamon, seeds in CHANGED_BASES.items() for seed in seeds])
def test_each_lee_pfaffian_is_p_at_its_unit_vector_in_a_changed_basis(salamon, seed):
    original = parse_salamon(salamon)
    assert_each_lee_pfaffian_is_p_at_its_unit_vector(
        change_basis(original, fixed_matrix(seed, original.dim)))


# -- Z^2_theta read off d_theta(Lambda^1) -------------------------------------


def kernel_span(algebra, theta):
    """The kernel basis of d_theta on Lambda^2, keyed by monomials."""
    monomials = algebra.monomials(2)
    return [{monomials[i]: c for i, c in vector.items()}
            for vector in linalg.kernel(_d_matrix(algebra, 2, theta))]


def typed(span):
    """Each term dict as its (monomial, type, value) triples, in order."""
    return [[(mono, type(c), c) for mono, c in terms.items()] for terms in span]


def exact_span_algebras():
    for dim, b1 in SHAPES:
        for seed in SEEDS:
            yield f"dim{dim}-b1_{b1}-seed{seed}", seeded_central_extension(seed, dim, b1)
    for salamon, seeds in CHANGED_BASES.items():
        original = parse_salamon(salamon)
        for seed in seeds:
            yield f"{salamon}-basis{seed}", change_basis(original, fixed_matrix(seed, original.dim))
    yield "rational", RATIONAL_CONSTANTS


EXACT_SPAN_ALGEBRAS = dict(exact_span_algebras())


@pytest.mark.parametrize("algebra", EXACT_SPAN_ALGEBRAS.values(), ids=EXACT_SPAN_ALGEBRAS)
def test_the_twisted_exact_span_is_the_kernel_basis(algebra):
    # by Dixmier Z^2_theta = d_theta(Lambda^1), and the reduced echelon
    # basis of a subspace is unique: the same forms, keys, order and types
    assert _is_nilpotent(algebra)
    thetas = [theta for theta in theta_candidates(algebra, SearchConfig(height=1))
              if not theta.is_zero]
    assert thetas
    for theta in thetas:
        assert typed(_twisted_exact_span(algebra, theta)) == typed(kernel_span(algebra, theta))


def test_the_twisted_exact_span_keeps_fractions_and_ints():
    # the route's values keep both types, so the type check above bites
    values = [c for algebra in EXACT_SPAN_ALGEBRAS.values()
              for theta in itertools.islice(theta_candidates(algebra, SearchConfig(height=1)), 1, None)
              for terms in _twisted_exact_span(algebra, theta) for c in terms.values()]
    assert {type(c) for c in values} == {int, Fraction}


# -- the search is decided at height 1 on nilpotent input ---------------------


def generated(dim, b1, seed, changed):
    """``seeded_central_extension(seed, dim, b1)``, or its image under
    ``fixed_matrix(seed, dim)`` when ``changed``."""
    algebra = seeded_central_extension(seed, dim, b1)
    return change_basis(algebra, fixed_matrix(seed, dim)) if changed else algebra


DECIDED = {
    **{salamon: functools.partial(parse_salamon, salamon)
       for salamon in corpus_script().CENSUS},
    **{f"dim{dim}-b1_{b1}-seed{seed}{'-basis' if changed else ''}":
       functools.partial(generated, dim, b1, seed, changed)
       for dim, b1 in SHAPES for seed in SEEDS for changed in (False, True)},
}


@pytest.mark.parametrize("build", DECIDED.values(), ids=DECIDED)
def test_the_search_is_decided_at_height_one_on_nilpotent_input(build):
    """On a nilpotent algebra, P decides the search, and height 1 suffices.

    Let g be nilpotent of dimension n = 2k >= 4, b_0..b_{m-1} its closed
    covectors (m = b1, as B^1 = 0), theta = sum t_i b_i, eta = sum a_j x_j
    and P(t, a) = Pf(d eta - theta ^ eta), so that
    (d eta - theta ^ eta)^k = k! P vol.

    P is linear in t: theta ^ theta = 0 gives (theta ^ eta)^2 = 0, so
    (d eta - theta ^ eta)^k = (d eta)^k - k (d eta)^(k-1) ^ theta ^ eta.
    (d eta)^k = d(eta ^ (d eta)^(k-1)) is exact in top degree, and d
    vanishes on Lambda^(n-1) of a unimodular algebra, nilpotent ones
    included; so (d eta)^k = 0 and P = sum t_i P_i(a).

    P decides every theta != 0: by Dixmier's vanishing theorem (Acta Sci.
    Math. Szeged 16, 1955) H^2_theta = 0, so the d_theta-closed 2-forms are
    the d eta - theta ^ eta, and one of them is nondegenerate iff
    P(t, .) is not the zero polynomial (which then has a nonzero rational
    point).  Such a theta has [theta] != 0, since B^1 = 0.  So the closed
    theta that are not Lee forms make up the linear subspace
    K = {t : sum t_i P_i = 0}.

    What the search returns: theta = 0 comes first, then at the head of
    height 1 the unit coordinate vectors, the closed covectors b_0, b_1, ...
    themselves.  If P == 0, no theta != 0 at any height is a Lee form.  If
    not, let i be least with P_i != 0: b_0..b_{i-1} lie in K and b_i does
    not, so the search stops at b_i, its (i + 2)-th candidate, at every
    height >= 1, and with the same d_theta-closed 2-forms the same omega.
    find_lcs rests on this: it decides theta = 0 and b_0, b_1, ... alone,
    each b_i by its own P_i (``structures._lee_pfaffian``); the assertions
    below check the theorem on P and on the search's answers.
    """
    algebra = build()
    covectors = covector_terms(algebra)
    m = len(covectors)
    assert m == betti_profile(algebra)[1]
    pfaffian = _twisted_exact_pfaffian(algebra, covectors)
    assert all(sum(expo[:m]) == 1 for expo in pfaffian.terms)

    first = find_lcs(algebra, SearchConfig(height=1))
    assert first.genuine_found == bool(pfaffian)
    second = find_lcs(algebra, SearchConfig(height=2))
    assert second.genuine_witness == first.genuine_witness
    if pfaffian:
        i = min(v for expo in pfaffian.terms for v in range(m) if expo[v])
        _, theta = first.genuine_witness
        assert theta.coeffs == covectors[i]
        assert first.examined == second.examined == i + 2
