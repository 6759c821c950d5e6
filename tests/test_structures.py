"""Symplectic and lcs detection, 4d classifier."""

import math
from fractions import Fraction

import pytest

from nilforms import (
    AmbientMismatch,
    InternalInvariantBreach,
    InvalidParameter,
    LieAlgebra,
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
    nondegenerate_in_span,
    parse_salamon,
    pfaffian_volume,
    theta_candidates,
    twisted_d,
    twisted_exactness_witness,
    wedge,
)
from nilforms import exterior_core, structures

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


def test_the_pfaffian_in_dimension_zero_is_one():
    # the empty matrix: its Pfaffian, like its determinant, is 1
    point = LieAlgebra(0, {})
    assert pfaffian_volume(point, point.zero_form(0)) == 1


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


def test_the_value_count_is_the_length_of_the_value_list():
    for h in range(40):
        assert structures._value_count(h) == len(structures._ordered_values(h)), h


def test_find_lcs_counts_a_large_height_without_listing_its_values(torus, monkeypatch):
    # V(H) = 2 (2 Phi(H) - 1) nonzero values of height <= H, with
    # Phi(10^5) = sum of phi(q) for q <= 10^5 = 3039650754 (OEIS A002088);
    # the count lists no value past height 3
    listed = structures._ordered_values

    def only_small(h):
        assert h <= 3, f"listed the values of height {h}"
        return listed(h)

    monkeypatch.setattr(structures, "_ordered_values", only_small)
    result = find_lcs(torus, SearchConfig(height=100000))
    assert result.genuine_status == "NOT_FOUND_UP_TO_HEIGHT(100000)"
    assert (result.examined, result.capped) == ((2 * (2 * 3039650754 - 1) + 1) ** 4, False)


@pytest.mark.parametrize("config", [None, {"height": 1}, 1], ids=repr)
def test_theta_candidates_checks_its_config_when_called(config):
    # the error comes from the call itself, before any candidate is asked for
    with pytest.raises(InvalidParameter, match="config must be a SearchConfig"):
        theta_candidates(parse_salamon("(0,0,0,12)"), config)


def test_the_point_algebra_has_no_closed_covector_and_theta_zero_alone():
    # Lambda^1 = 0 in dimension 0: no closed covector, and theta = 0 is the
    # zero form recorded at the top degree, as wedge and ce_d record a zero
    # form past the top
    point = parse_salamon("()")
    assert structures.closed_covector_basis(point) == []
    candidates = list(theta_candidates(point, SearchConfig()))
    assert candidates == [point.zero_form(0)] and candidates[0].degree == 0


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


def test_theta_candidates_at_height_one_in_full():
    # closed covectors x1, x2 and -x3 + x4: theta = 0, the three hoisted unit
    # covectors, then by support size, support position and the values 1, -1
    algebra = parse_salamon("(0,0,12,12)")
    stream = theta_candidates(algebra, SearchConfig(height=1))
    assert [format_form(theta) for theta in stream] == [
        "0", "x1", "x2", "-x3 + x4",
        "-x1", "-x2", "x3 - x4",
        "x1 + x2", "x1 - x2", "-x1 + x2", "-x1 - x2",
        "x1 - x3 + x4", "x1 + x3 - x4", "-x1 - x3 + x4", "-x1 + x3 - x4",
        "x2 - x3 + x4", "x2 + x3 - x4", "-x2 - x3 + x4", "-x2 + x3 - x4",
        "x1 + x2 - x3 + x4", "x1 + x2 + x3 - x4",
        "x1 - x2 - x3 + x4", "x1 - x2 + x3 - x4",
        "-x1 + x2 - x3 + x4", "-x1 + x2 + x3 - x4",
        "-x1 - x2 - x3 + x4", "-x1 - x2 + x3 - x4",
    ]


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


# -- guards, invariant nets and the size budget -----------------------------

HEISENBERG = parse_salamon("(0,0,12)")
POINT = parse_salamon("()")
PLANE = parse_salamon("(0,0)")
TORUS = parse_salamon("(0,0,0,0)")

GUARDS = {
    "pfaffian_odd": (OddDimension, "the Pfaffian needs an even-dimensional",
                     lambda: pfaffian_volume(HEISENBERG, HEISENBERG.zero_form(2))),
    "check_symplectic_odd": (OddDimension, "symplectic structures need even",
                             lambda: check_symplectic(HEISENBERG, HEISENBERG.zero_form(2))),
    "find_symplectic_odd": (OddDimension, "symplectic structures need even",
                            lambda: find_symplectic(HEISENBERG)),
    "find_symplectic_dim0": (WrongDimension, "symplectic structures need dimension >= 2",
                             lambda: find_symplectic(POINT)),
    "check_lcs_odd": (OddDimension, "lcs structures need even",
                      lambda: check_lcs(HEISENBERG, HEISENBERG.zero_form(2),
                                        HEISENBERG.zero_form(1))),
    "check_lcs_dim2": (WrongDimension, "lcs operations need dim >= 4",
                       lambda: check_lcs(PLANE, PLANE.zero_form(2), PLANE.zero_form(1))),
    "find_lcs_odd": (OddDimension, "lcs structures need even", lambda: find_lcs(HEISENBERG)),
    "find_lcs_dim2": (WrongDimension, "lcs search needs dim >= 4", lambda: find_lcs(PLANE)),
    "span_not_a_form": (InvalidParameter, "basis form must be a KForm",
                        lambda: nondegenerate_in_span(TORUS, [{(1, 2): 1}])),
    "span_other_algebra": (AmbientMismatch, "basis form lives over a different algebra",
                           lambda: nondegenerate_in_span(TORUS, [PLANE.form({(1, 2): 1})])),
    "span_one_form": (InvalidParameter, "basis form must be a 2-form",
                      lambda: nondegenerate_in_span(TORUS, [TORUS.form({(1, 2): 1}),
                                                            TORUS.covector(1)])),
}


@pytest.mark.parametrize("error,message,call", GUARDS.values(), ids=GUARDS)
def test_structures_guards_raise_their_class(error, message, call):
    with pytest.raises(error, match=f"^{message}"):
        call()


def test_a_degenerate_span_point_is_a_breach(torus, monkeypatch):
    # each net guards a fact the code before it proves; a monkeypatch breaks
    # the fact, and the net must report a breach, not a wrong answer.
    # Pf(t1 x1^x2 + t2 x3^x4) = t1 t2: the point (1, 0) is a zero of it
    monkeypatch.setattr(structures, "nonzero_point", lambda pfaffian: (1, 0))
    with pytest.raises(InternalInvariantBreach, match="^symbolic Pfaffian point is degenerate"):
        nondegenerate_in_span(torus, [torus.form({(1, 2): 1}), torus.form({(3, 4): 1})])


def test_a_wrong_twisted_primitive_is_a_breach(filiform, monkeypatch):
    monkeypatch.setattr(structures, "_primitive",
                        lambda algebra, omega, theta: algebra.zero_form(1))
    with pytest.raises(InternalInvariantBreach, match="^twisted primitive failed"):
        twisted_exactness_witness(filiform, filiform.form({(1, 3): 1, (2, 4): -1}),
                                  filiform.covector(2))


def test_a_search_pair_that_fails_its_verdict_is_a_breach(filiform, monkeypatch):
    # a degenerate "witness" for the first candidate, theta = 0, handed over
    # with its true volume 0
    monkeypatch.setattr(structures, "_nondegenerate_in_span",
                        lambda algebra, forms: (algebra.form({(1, 2): 1}), Fraction(0)))
    with pytest.raises(InternalInvariantBreach, match="^search produced a pair"):
        find_lcs(filiform)


def test_a_kept_covector_without_a_pair_is_a_breach(filiform, monkeypatch):
    # Q_i != 0 for theta = x2, so by Dixmier its d_theta-closed 2-forms hold
    # a nondegenerate one; an empty span breaks that
    monkeypatch.setattr(structures, "_twisted_exact_span", lambda algebra, theta: [])
    with pytest.raises(InternalInvariantBreach, match="^a closed covector with Q_i != 0"):
        find_lcs(filiform)


@pytest.mark.parametrize("salamon", ["(0,0,12,13)", "(0,0,0,0,12,34)"])
def test_find_lcs_expands_no_pfaffian_over_theta_and_eta_together(monkeypatch, salamon):
    # each closed covector b_i is decided by its own Q_i(a): no family entry
    # is weighted by a product t_i a_j, as those of the global P(t, a) were
    pfaffian = structures._symbolic_pfaffian
    widths = []

    def recorded(dim, nvars, family):
        widths.extend(len(variables) for variables, _ in family)
        return pfaffian(dim, nvars, family)

    monkeypatch.setattr(structures, "_symbolic_pfaffian", recorded)
    find_lcs(parse_salamon(salamon), SearchConfig(height=2))
    assert max(widths) == 1


@pytest.mark.parametrize("salamon,expected", [
    ("(0,0,12,13)", 2),  # a witness at theta = 0, then a genuine one
    ("(0,0,0,0,12,34)", 1),  # the witness at theta = 0 alone
])
def test_a_search_expands_one_numeric_pfaffian_per_witness(monkeypatch, salamon, expected):
    calls = []

    def counted(algebra, omega):
        calls.append(omega)
        return pfaffian_volume(algebra, omega)

    monkeypatch.setattr(structures, "pfaffian_volume", counted)
    result = find_lcs(parse_salamon(salamon), SearchConfig(height=2))
    assert len(calls) == expected
    # the verdict's volume is the one that checked the witness
    omega = result.witness[0]
    assert result.verdict.witness_volume == pfaffian_volume(omega.algebra, omega) != 0


ABELIAN_8 = LieAlgebra(8, {})


@pytest.mark.parametrize("search", [find_symplectic, find_lcs], ids=lambda f: f.__name__)
def test_a_pfaffian_past_the_budget_is_refused(monkeypatch, search):
    # the differential sweep builds at most C(8, 4) * 8 = 560 cells; the
    # Pfaffian over Z^2 (28 variables) builds more
    monkeypatch.setattr(exterior_core, "_BUDGET", 1000)
    with pytest.raises(WrongDimension,
                       match="^the Pfaffian in dimension 8 would build about .* "
                             "past the budget of 1000"):
        search(ABELIAN_8)


def test_the_pfaffian_budget_counts_every_term_formed(monkeypatch):
    # over Z^2 of the abelian algebra the expansion forms 105 + 105 + 45 + 10
    # = 265 terms at its minors of sizes 8, 6, 4 and 2: 2120 cells
    monkeypatch.setattr(exterior_core, "_BUDGET", 2119)
    with pytest.raises(WrongDimension, match="about 2120 cells"):
        find_symplectic(ABELIAN_8)
    monkeypatch.setattr(exterior_core, "_BUDGET", 2120)
    assert pfaffian_volume(ABELIAN_8, find_symplectic(ABELIAN_8)) != 0


def test_classify_4d_all_three_classes(torus, kt, filiform):
    t = classify_4d(torus)
    assert t.label == "torus" and t.kahler_admissible
    assert t.standard_salamon == "(0,0,0,0)"
    k = classify_4d(kt)
    assert k.label == "kodaira_thurston_class" and not k.kahler_admissible
    f = classify_4d(filiform)
    assert f.label == "filiform_class" and f.b1 == 2
    assert f.standard_salamon == "(0,0,12,13)"


def test_classify_4d_models_are_their_salamon_tuples(torus, kt, filiform):
    for algebra in (torus, kt, filiform):
        assert parse_salamon(classify_4d(algebra).standard_salamon) == algebra


def test_classify_4d_input_gates(six_dim, solvable_nonunimodular):
    with pytest.raises(WrongDimension):
        classify_4d(six_dim)
    with pytest.raises(NotNilpotent):
        classify_4d(solvable_nonunimodular)
