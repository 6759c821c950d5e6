"""Symplectic and lcs detection, almost complex structures, 4d classifier."""

import math
from fractions import Fraction

import pytest

from nilforms import (
    AlmostComplexStructure,
    InternalInvariantBreach,
    InvalidParameter,
    NotAlmostComplex,
    NotNilpotent,
    OddDimension,
    PreconditionFailed,
    SearchConfig,
    WrongDimension,
    build_algebra,
    check_lcs,
    check_symplectic,
    classify_4d,
    find_lcs,
    find_symplectic,
    format_form,
    lower_central_series,
    nijenhuis,
    nondegenerate_in_span,
    parse_salamon,
    pfaffian_volume,
    theta_candidates,
    twisted_d,
    twisted_exactness_witness,
    wedge,
)

from conftest import NON_NILPOTENT_4D
from oracles import skew_matrix, sympy_pfaffian_squared_is_det


def top_coefficient_of_power(omega, half):
    """omega^half / half! in the top monomial; the Pfaffian by its other
    definition."""
    power = omega
    for _ in range(half - 1):
        power = wedge(power, omega)
    top = tuple(range(1, omega.algebra.dim + 1))
    return power.coefficient(top) / math.factorial(half)


STANDARD = {
    "torus": ("(0,0,0,0)", {(1, 2): 1, (3, 4): 1}),
    "kt": ("(0,0,0,12)", {(1, 4): 1, (2, 3): 1}),
    "filiform": ("(0,0,12,13)", {(1, 4): 1, (2, 3): 1}),
}


@pytest.mark.parametrize("salamon,omega_terms", STANDARD.values(),
                         ids=STANDARD.keys())
def test_pfaffian_against_the_power_route(salamon, omega_terms):
    algebra = parse_salamon(salamon)
    omega = algebra.form(omega_terms)
    pf = pfaffian_volume(algebra, omega)
    assert pf == top_coefficient_of_power(omega, algebra.dim // 2)
    assert sympy_pfaffian_squared_is_det(skew_matrix(omega), pf)


def test_pfaffian_of_six_dim_witness(six_dim):
    omega = six_dim.form({(1, 5): 1, (2, 3): 1, (4, 6): 1})
    pf = pfaffian_volume(six_dim, omega)
    assert pf == top_coefficient_of_power(omega, 3)
    assert pf != 0


def test_pfaffian_rejects_odd_dimension():
    algebra = parse_salamon("(0,0,12)")
    with pytest.raises(OddDimension):
        pfaffian_volume(algebra, algebra.zero_form(2))


def test_check_symplectic_verdicts(filiform):
    good = check_symplectic(filiform, filiform.form({(1, 4): 1, (2, 3): 1}))
    assert good.closed and good.pfaffian == 1 and good.is_symplectic
    degenerate = check_symplectic(filiform, filiform.form({(1, 2): 1}))
    assert not degenerate.is_symplectic
    not_closed = check_symplectic(filiform, filiform.form({(1, 3): 1, (2, 4): 1}))
    assert not not_closed.closed


def test_find_symplectic_on_the_catalog(torus, kt, filiform, six_dim):
    for algebra in (torus, kt, filiform, six_dim):
        omega = find_symplectic(algebra)
        assert omega is not None
        verdict = check_symplectic(algebra, omega)
        assert verdict.is_symplectic


def test_find_symplectic_proves_nonexistence(solvable_nonunimodular):
    # closed 2-forms all live in the span of e12, e13, e14: rank <= 2
    assert find_symplectic(solvable_nonunimodular) is None


def test_nondegenerate_in_span_empty():
    algebra = parse_salamon("(0,0,0,0)")
    assert nondegenerate_in_span(algebra, []) is None


def test_nondegenerate_in_span_normalizes_the_leading_sign(filiform):
    span = [filiform.form({(1, 3): 1, (2, 4): -1})]
    witness = nondegenerate_in_span(filiform, span)
    assert witness.terms()[0][1] > 0


# spans over the 4-torus, where every 2-form is closed: only the support
# decides whether a nondegenerate combination exists
SPANS = {
    "misses_x4": ([{(1, 2): 1}, {(2, 3): 1}], False),
    "star_without_matching": ([{(1, 2): 1}, {(1, 3): 1}, {(1, 4): 1}], False),
    "matching": ([{(1, 2): 1}, {(1, 3): 1, (2, 4): 1}, {(3, 4): 1}], True),
}


@pytest.mark.parametrize("span,found", SPANS.values(), ids=SPANS.keys())
def test_nondegenerate_in_span_follows_the_support(torus, span, found):
    witness = nondegenerate_in_span(torus, [torus.form(terms) for terms in span])
    if not found:
        assert witness is None
    else:
        assert pfaffian_volume(torus, witness) != 0


def test_check_lcs_on_the_canonical_pair(filiform):
    omega = filiform.form({(1, 3): 1, (2, 4): -1})
    theta = filiform.covector(2)
    verdict = check_lcs(filiform, omega, theta)
    assert verdict.holds and verdict.genuine
    assert verdict.witness_volume == 1


def test_check_lcs_identity_failure(filiform):
    omega = filiform.form({(1, 4): 1, (2, 3): 1})  # symplectic, not twisted
    verdict = check_lcs(filiform, omega, filiform.covector(2))
    assert not verdict.identity_holds
    assert not verdict.holds


def test_an_lcs_verdict_is_true_exactly_when_it_holds(filiform):
    theta = filiform.covector(2)
    assert check_lcs(filiform, filiform.form({(1, 3): 1, (2, 4): -1}), theta)
    # x1^x2 is degenerate: no volume, so no lcs structure
    assert not check_lcs(filiform, filiform.form({(1, 2): 1}), theta)


def test_check_lcs_rejects_odd_and_small():
    with pytest.raises(WrongDimension):
        algebra = parse_salamon("(0,0)")
        check_lcs(algebra, algebra.zero_form(2), algebra.zero_form(1))


def test_find_lcs_on_the_filiform(filiform):
    result = find_lcs(filiform, SearchConfig(height=1))
    assert result.genuine_status == "FOUND"
    assert result.examined == 3
    omega, theta = result.genuine_witness
    assert theta == filiform.covector(2)
    assert omega == filiform.form({(1, 3): 1, (2, 4): -1})
    # the plain symplectic pass comes first, so the first witness is untwisted
    first_omega, first_theta = result.witness
    assert first_theta.is_zero
    assert check_symplectic(filiform, first_omega).is_symplectic


def test_find_lcs_semi_decision_on_the_torus(torus):
    for h in (1, 2, 3):
        result = find_lcs(torus, SearchConfig(height=h))
        assert result.genuine_witness is None
        assert result.genuine_status == f"NOT_FOUND_UP_TO_HEIGHT({h})"
        assert result.witness is not None  # plain symplectic still reported


def test_find_lcs_abelian_count_matches_enumeration(torus):
    # the closed-form candidate count must agree with what the generator
    # would actually yield
    config = SearchConfig(height=2)
    streamed = sum(1 for _ in theta_candidates(torus, config))
    assert find_lcs(torus, config).examined == streamed


@pytest.mark.parametrize("h", [0, 1, 3])  # height 2: the test above
def test_find_lcs_abelian_count_matches_enumeration_at_each_height(torus, h):
    config = SearchConfig(height=h)
    streamed = sum(1 for _ in theta_candidates(torus, config))
    assert find_lcs(torus, config).examined == streamed


@pytest.mark.parametrize("config", [None, {"height": 1}, 1], ids=repr)
def test_theta_candidates_checks_its_config_when_called(config):
    # the error comes from the call itself, before any candidate is asked for
    with pytest.raises(InvalidParameter, match="config must be a SearchConfig"):
        theta_candidates(parse_salamon("(0,0,0,12)"), config)


@pytest.mark.parametrize("salamon", ["(0,0,0,12)", "(0,0,12,13)",
                                     "(0,0,0,0,12,34)", "(0,0,12,13,14,15)"])
def test_height_zero_examines_theta_zero_alone(salamon):
    algebra = parse_salamon(salamon)
    config = SearchConfig(height=0)
    assert [theta.is_zero for theta in theta_candidates(algebra, config)] == [True]
    result = find_lcs(algebra, config)
    assert (result.examined, result.capped) == (1, False)
    assert result.genuine_witness is None
    assert result.genuine_status == "NOT_FOUND_UP_TO_HEIGHT(0)"


@pytest.mark.parametrize("fields", [
    {"height": -3}, {"height": -1}, {"height": "2"}, {"height": 2.5},
    {"height": True}, {"height": None}, {"max_candidates": -2},
    {"max_candidates": False}, {"max_candidates": 1.0}, {"max_candidates": "5"},
], ids=repr)
def test_search_config_rejects_what_is_not_a_count(fields):
    with pytest.raises(InvalidParameter):
        SearchConfig(**fields)


def test_find_lcs_candidate_cap(filiform, torus):
    capped = find_lcs(filiform, SearchConfig(height=1, max_candidates=1))
    assert capped.capped
    assert capped.genuine_status == "CANDIDATE_LIMIT_REACHED"
    also_capped = find_lcs(torus, SearchConfig(height=3, max_candidates=7))
    assert also_capped.examined == 7 and also_capped.capped


@pytest.mark.parametrize("brackets,examined,witness,genuine",
                         NON_NILPOTENT_4D.values(), ids=NON_NILPOTENT_4D.keys())
def test_find_lcs_on_non_nilpotent_algebras(brackets, examined, witness, genuine):
    algebra = build_algebra(4, brackets)
    assert not lower_central_series(algebra).nilpotent
    result = find_lcs(algebra, SearchConfig(height=2))
    assert result.genuine_status == "FOUND"
    assert (result.examined, result.capped) == (examined, False)
    assert tuple(map(format_form, result.witness)) == witness
    assert tuple(map(format_form, result.genuine_witness)) == genuine


def test_find_lcs_counts_every_candidate_when_none_is_genuine():
    algebra = parse_salamon("(0,0,0,0,12,34)")
    config = SearchConfig(height=2)
    result = find_lcs(algebra, config)
    assert result.genuine_status == "NOT_FOUND_UP_TO_HEIGHT(2)"
    assert result.examined == len(list(theta_candidates(algebra, config))) == 2401
    assert not result.capped
    capped = find_lcs(algebra, SearchConfig(height=2, max_candidates=7))
    assert capped.genuine_status == "CANDIDATE_LIMIT_REACHED"
    assert capped.examined == 7 and capped.capped
    assert capped.witness == result.witness  # the theta = 0 pass comes first


def test_theta_candidates_order(filiform):
    stream = theta_candidates(filiform, SearchConfig(height=1))
    first = next(stream)
    assert first.is_zero
    second = next(stream)
    assert second == filiform.covector(1)
    third = next(stream)
    assert third == filiform.covector(2)


def test_twisted_exactness_witness(filiform):
    omega = filiform.form({(1, 3): 1, (2, 4): -1})
    theta = filiform.covector(2)
    primitive = twisted_exactness_witness(filiform, omega, theta)
    assert primitive == filiform.covector(4)
    assert twisted_d(filiform, theta, primitive) == omega


def test_twisted_exactness_needs_a_verdict(filiform):
    with pytest.raises(PreconditionFailed):
        twisted_exactness_witness(
            filiform, filiform.form({(1, 2): 1}), filiform.covector(2))


ROTATION_J = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def test_acs_validation():
    acs = AlmostComplexStructure(ROTATION_J)
    assert tuple(row[0] for row in acs.matrix) == (0, 1, 0, 0)
    with pytest.raises(NotAlmostComplex):
        AlmostComplexStructure(((1, 0), (0, 1)))


@pytest.mark.parametrize("matrix", [
    ((1, 0), (0, 1)),
    ((0, 0), (0, 0)),
    ((0, -1), (1, 1)),
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, 0), (0, 0, 1, 0)),
    ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 1)),
    ((0, -2, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0)),
    ((0,),),
], ids=["identity", "zero", "trace", "zero-column", "one-entry", "scaled", "dim1"])
def test_acs_rejects_every_non_square_root_of_minus_one(matrix):
    with pytest.raises(NotAlmostComplex) as excinfo:
        AlmostComplexStructure(matrix)
    assert str(excinfo.value) == "J^2 != -Id"


def test_acs_accepts_a_square_root_of_minus_one():
    j = ((1, -2, 0, 0), (1, -1, 0, 0), (0, 0, 0, Fraction(-1, 2)), (0, 0, 2, 0))
    assert AlmostComplexStructure(j).matrix == tuple(
        tuple(Fraction(v) for v in row) for row in j)
    assert AlmostComplexStructure(()).dim == 0


def test_nijenhuis_vanishes_where_it_should(torus, kt):
    assert nijenhuis(torus, ROTATION_J).is_integrable
    assert nijenhuis(kt, ROTATION_J).is_integrable


def test_nijenhuis_obstruction_on_the_filiform(filiform):
    tensor = nijenhuis(filiform, ROTATION_J)
    assert not tensor.is_integrable
    assert tensor.component(1, 3) == (0, 0, 0, 1)
    assert tensor.component(3, 1) == (0, 0, 0, -1)
    assert tensor.component(2, 2) == (0, 0, 0, 0)


def test_nijenhuis_tensors_compare_by_components(torus, kt, filiform):
    flat = nijenhuis(torus, ROTATION_J)
    obstructed = nijenhuis(filiform, ROTATION_J)
    assert flat.dim == obstructed.dim == 4
    assert flat != obstructed
    assert flat == nijenhuis(kt, ROTATION_J)
    assert hash(flat) == hash(nijenhuis(kt, ROTATION_J))
    assert obstructed == nijenhuis(filiform, ROTATION_J)


def test_classify_4d_all_three_classes(torus, kt, filiform):
    t = classify_4d(torus)
    assert t.label == "torus" and t.kahler_admissible
    assert t.standard_salamon == "(0,0,0,0)"
    k = classify_4d(kt)
    assert k.label == "kodaira_thurston_class" and not k.kahler_admissible
    f = classify_4d(filiform)
    assert f.label == "filiform_class" and f.b1 == 2
    assert f.standard_salamon == "(0,0,12,13)"


def test_classify_4d_witnesses_are_symplectic(torus, kt, filiform):
    for algebra in (torus, kt, filiform):
        result = classify_4d(algebra)
        assert check_symplectic(result.standard_model,
                                result.standard_symplectic).is_symplectic


def test_classify_4d_input_gates(six_dim, solvable_nonunimodular):
    with pytest.raises(WrongDimension):
        classify_4d(six_dim)
    with pytest.raises(NotNilpotent):
        classify_4d(solvable_nonunimodular)
