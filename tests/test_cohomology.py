"""Plain and twisted cohomology, cup products, Lefschetz maps, Massey triples.

Betti numbers are cross-checked against an oracle that assembles every
differential matrix from the Koszul formula and takes ranks with sympy, so
none of the library's matrix plumbing is trusted twice.
"""

import pytest
from fractions import Fraction

from hypothesis import given, settings

from nilforms import (
    AmbientMismatch,
    CohomologyClass,
    CohomologySpace,
    CupObstruction,
    InternalInvariantBreach,
    InvalidParameter,
    JacobiViolation,
    LieAlgebra,
    NotClosed,
    OddDimension,
    OmegaNotClosed,
    SearchConfig,
    betti_profile,
    ce_d,
    cohomology_space,
    cup,
    find_lcs,
    find_symplectic,
    heisenberg_line,
    lefschetz_map,
    parse_salamon,
    triple_massey,
    twisted_d,
    wedge,
)

from nilforms import cohomology, linalg
from nilforms.cohomology import _d_matrix

from conftest import unchecked_algebra
from oracles import betti_by_koszul
from test_linalg_kernel import columns_of, matrices


def test_betti_profiles_match_the_koszul_oracle(torus, kt, filiform, so3):
    for algebra in (torus, kt, filiform, so3):
        assert betti_profile(algebra) == betti_by_koszul(algebra)


def test_frozen_betti_values(torus, kt, filiform, six_dim):
    assert betti_profile(torus) == (1, 4, 6, 4, 1)
    assert betti_profile(kt) == (1, 3, 4, 3, 1)
    assert betti_profile(filiform) == (1, 2, 2, 2, 1)
    assert betti_profile(six_dim)[1] == 4


# the profiles bench/make_expected.py cross-checks with sympy ranks of an
# independent differential
@pytest.mark.parametrize("build,profile", [
    (lambda: heisenberg_line(5), (1, 9, 35, 75, 90, 84, 90, 75, 35, 9, 1)),
    (lambda: parse_salamon("(0,0," + ",".join(f"[1,{k}]" for k in range(2, 10)) + ")"),
     (1, 2, 5, 12, 20, 24, 20, 12, 5, 2, 1)),
    (lambda: parse_salamon("(0,0,0,0,[1,2],[1,3],[1,4],[2,3],[2,4],[3,4])"),
     (1, 4, 20, 56, 84, 90, 84, 56, 20, 4, 1)),
], ids=["heisenberg_line_5", "filiform_10", "free_2step_4"])
def test_dimension_ten_betti_profiles(build, profile):
    assert betti_profile(build()) == profile


# computed with the full cohomology spaces before betti_profile took ranks
# alone
@pytest.mark.parametrize("build,profile", [
    (lambda: parse_salamon("(0,0," + ",".join(f"[1,{k}]" for k in range(2, 12)) + ")"),
     (1, 2, 6, 18, 37, 56, 64, 56, 37, 18, 6, 2, 1)),
    (lambda: heisenberg_line(6),
     (1, 11, 54, 154, 275, 297, 264, 297, 275, 154, 54, 11, 1)),
], ids=["filiform_12", "heisenberg_line_6"])
def test_dimension_twelve_betti_profiles(build, profile):
    assert betti_profile(build()) == profile


# bench/gen.py's draw(1, "w", 14, 3); the profile is the one the elimination
# gave before span_rank peeled singletons
DRAW_1_W_14_3 = (
    "(0,0,0,-[1,3]+[2,3],-[1,4]+2*[2,3]+[2,4],-[1,4]+[2,3]+[2,4],"
    "4*[1,4]-2*[1,5]-[2,3]+2*[2,5],5*[1,4]-2*[1,5]-[2,4]+2*[2,6],"
    "7*[1,4]-3*[1,5]+[1,7]-2*[2,7]+[2,8],-[1,3]+2*[3,4],"
    "-[1,4]+2*[1,5]-2*[1,6]+[1,10]-[2,10]-2*[3,6],[1,4]-[1,10]-2*[2,4]+[2,10]+2*[3,5],"
    "-6*[1,4]+[1,5]+[1,12]+2*[2,4]+2*[2,10]-[2,12]-2*[4,5],[1,4]-[1,6]+[2,6])"
)


def test_dimension_fourteen_betti_profile():
    assert betti_profile(parse_salamon(DRAW_1_W_14_3)) \
        == (1, 3, 12, 32, 67, 117, 165, 186, 165, 117, 67, 32, 12, 3, 1)


def test_duality_is_not_assumed_off_unimodular_algebras(solvable_nonunimodular):
    # [X1, X2] = X2 (tr ad X1 = 1) and [X1, X2] = X1 (tr ad X2 = 1):
    # H^2 = 0 while H^0 = R
    for aff in (LieAlgebra(2, {(1, 2, 2): 1}), LieAlgebra(2, {(1, 2, 1): 1})):
        assert betti_profile(aff) == betti_by_koszul(aff) == (1, 1, 0)
    assert betti_profile(solvable_nonunimodular) \
        == betti_by_koszul(solvable_nonunimodular) == (1, 1, 0, 0, 0)


def test_negative_betti_numbers_are_a_breach():
    # structure constants that fail Jacobi, so d^2 != 0: the constructor
    # refuses them, and the shadow below skips it to reach the rank path
    shadow = unchecked_algebra(3, dict.fromkeys(
        ((1, 2, 3), (1, 3, 2), (2, 3, 1), (1, 2, 2)), 1))
    with pytest.raises(InternalInvariantBreach):
        betti_profile(shadow)


def test_coboundaries_outside_the_cocycles_are_a_breach():
    # dx1 = -x12, dx2 = -x12, dx3 = -x13 fails Jacobi: d(dx3) = x123.  In
    # degree 2 the cocycles x12 and x13 - x23/2 and the coboundaries x12 and
    # x13 have the same pivots, so the pivots alone would give H^2 = 0; the
    # exact check d(dx3) != 0 must raise instead
    shadow = unchecked_algebra(3, dict.fromkeys(((1, 2, 2), (1, 3, 3), (1, 2, 1)), 1))
    with pytest.raises(InternalInvariantBreach, match="d\\^2 = 0 is broken"):
        CohomologySpace(shadow, 2)


def test_betti_profile_caches_nothing():
    algebra = parse_salamon("(0,0,12,13,14,15)")
    assert betti_profile(algebra) == (1, 2, 3, 4, 3, 2, 1)
    assert betti_profile(algebra, algebra.covector(1)) == (0,) * 7
    assert algebra._cohomology_cache == {}
    # nor does find_lcs: it reads the closed covectors and each candidate's
    # d_theta-closed 2-forms off the kernels of _d_matrix
    algebra = parse_salamon("(0,0,12,13)")
    assert find_lcs(algebra, SearchConfig(height=1)).genuine_found
    assert algebra._cohomology_cache == {}
    # nor does find_symplectic: it reads the closed 2-forms the same way
    assert find_symplectic(algebra) is not None
    assert algebra._cohomology_cache == {}


def test_theta_is_checked_once_per_public_call(monkeypatch):
    # each public call proves theta closed once (one d of theta); the
    # matrices of d_theta behind it trust that check
    calls = []

    def counted(form):
        calls.append(form)
        return ce_d(form)

    monkeypatch.setattr(cohomology, "ce_d", counted)
    algebra = parse_salamon("(0,0,12,13,14,15,16)")
    x1 = algebra.covector(1)
    counts = []
    for call in (lambda: betti_profile(algebra, theta=x1),
                 lambda: CohomologySpace(algebra, 3, x1),
                 lambda: cohomology_space(algebra, 3, x1)):
        calls.clear()
        call()
        counts.append(len(calls))
    # cohomology_space checks theta before its cache, the space it builds again
    assert counts == [1, 1, 2]


def test_reduce_applies_the_stored_theta(monkeypatch):
    # the space proved theta closed when it was built: a reduce takes one d,
    # that of its form (d_theta by _d_form; a re-check of theta would add a
    # ce_d of theta)
    algebra = parse_salamon("(0,0,0,12)")
    space = CohomologySpace(algebra, 2, algebra.covector(1))
    calls = []
    for name in ("ce_d", "_d_form"):
        def counted(form, *rest, d=getattr(cohomology, name)):
            calls.append(form)
            return d(form, *rest)

        monkeypatch.setattr(cohomology, name, counted)
    forms = [algebra.form({(1, 2): 1}), algebra.form({(1, 3): 2}), algebra.zero_form(2)]
    assert [space.reduce(form) for form in forms] == [(), (), ()]
    assert calls == forms
    # x2 ^ x3 is d-closed, but d_theta of it is -x1 ^ x2 ^ x3
    with pytest.raises(NotClosed):
        space.reduce(algebra.form({(2, 3): 1}))


def test_betti_profile_sweeps_the_images_once(monkeypatch):
    # one sweep gives every degree; a sweep per degree would be quadratic
    starts = []
    sweep = cohomology._d_images

    def counted(*args):
        starts.append(args)
        return sweep(*args)

    monkeypatch.setattr(cohomology, "_d_images", counted)
    algebra = parse_salamon("(0,0,12,13,14,15,16)")
    for theta in (None, algebra.covector(1)):
        starts.clear()
        betti_profile(algebra, theta)
        assert len(starts) == 1


def test_twisted_profiles_leave_the_cache_alone():
    algebra = parse_salamon("(0,0,12,13)")
    before = len(algebra._cohomology_cache)
    for t in range(1, 201):
        theta = algebra.covector(1).scale(t % 7 - 3) + algebra.covector(2).scale(t)
        betti_profile(algebra, theta)
    assert len(algebra._cohomology_cache) == before


def test_a_sweep_over_theta_keeps_each_twisted_space():
    # a space must come back as the same object however many twists came
    # after it, and its classes must still compare and add
    algebra = LieAlgebra(2, {(1, 2, 2): 1})
    x1 = algebra.covector(1)
    space = cohomology_space(algebra, 1, x1.scale(-1))
    (old,) = space.classes()
    for s in range(1, 41):
        cohomology_space(algebra, 1, x1.scale(s))
    again = cohomology_space(algebra, 1, x1.scale(-1))
    assert again is space
    (new,) = again.classes()
    assert old == new and hash(old) == hash(new)
    assert old + new == new.scale(2)


def test_classes_of_equal_algebras_built_apart_are_equal():
    # classes compare by the value of their space, not by which algebra
    # object's cache holds it
    spaces = []
    for _ in range(2):
        algebra = LieAlgebra(2, {(1, 2, 2): 1})
        spaces.append(cohomology_space(algebra, 1, algebra.covector(1).scale(-1)))
    assert spaces[0] is not spaces[1]
    (x,), (y,) = (space.classes() for space in spaces)
    assert x == y and hash(x) == hash(y)
    assert x + y == y.scale(2) == x.scale(2)
    assert x - y == x.scale(0)
    plain = cohomology_space(spaces[0].algebra, 1)
    (z,) = plain.classes()
    assert z != x
    with pytest.raises(AmbientMismatch):
        x + z


def test_so3_has_the_sphere_profile(so3):
    assert betti_profile(so3) == (1, 0, 0, 1)


def test_twisted_betti_matches_oracle_and_vanishes(filiform, kt):
    x2 = filiform.covector(2)
    assert betti_profile(filiform, x2) == betti_by_koszul(filiform, x2)
    assert betti_profile(filiform, x2) == (0, 0, 0, 0, 0)
    x1 = kt.covector(1)
    assert betti_profile(kt, x1) == (0, 0, 0, 0, 0)


def test_twisted_d_squares_to_zero(filiform):
    theta = filiform.covector(2)
    for degree in range(filiform.dim):
        for mono in filiform.monomials(degree):
            form = filiform.basis_form(*mono)
            once = twisted_d(filiform, theta, form)
            assert twisted_d(filiform, theta, once).is_zero


def test_twist_requires_a_closed_covector(filiform):
    x3 = filiform.covector(3)  # dx3 = e12 != 0
    with pytest.raises(NotClosed):
        cohomology_space(filiform, 1, x3)


def test_class_arithmetic(kt):
    h1 = cohomology_space(kt, 1)
    a = h1.class_of(kt.covector(1))
    b = h1.class_of(kt.covector(2))
    assert a != b
    assert (a - a).is_zero
    assert a + b == h1.class_of(kt.covector(1) + kt.covector(2))
    assert a.scale(Fraction(3)) == h1.class_of(kt.covector(1).scale(3))


def test_classes_and_spaces_print_their_coordinates_and_rank(kt):
    h1 = cohomology_space(kt, 1)
    assert repr(h1.class_of(kt.covector(1))) == \
        "<class (Fraction(1, 1), Fraction(0, 1), Fraction(0, 1)) in H^1(dim 4) rank 3>"
    assert repr(cohomology_space(kt, 1, kt.covector(1))) == "H^1(dim 4, twisted) rank 0"


def test_exact_forms_reduce_to_zero(kt):
    h2 = cohomology_space(kt, 2)
    assert h2.class_of(ce_d(kt.covector(4))).is_zero
    assert h2.betti == 4


def test_class_of_rejects_non_cocycles(kt):
    with pytest.raises(NotClosed):
        cohomology_space(kt, 1).class_of(kt.covector(4))


def test_cup_is_represented_by_the_wedge(kt):
    h1 = cohomology_space(kt, 1)
    a = h1.class_of(kt.covector(1))
    b = h1.class_of(kt.covector(2))
    ab = cup(a, b)
    expected = cohomology_space(kt, 2).class_of(
        wedge(kt.covector(1), kt.covector(2)))
    assert ab == expected


def test_cup_is_independent_of_representatives(kt):
    h1 = cohomology_space(kt, 1)
    a = h1.class_of(kt.covector(1))
    shifted = h1.class_of(kt.covector(1) + ce_d(kt.one()))
    b = h1.class_of(kt.covector(3))
    assert cup(a, b) == cup(shifted, b)


def test_lefschetz_table_on_the_torus(torus):
    omega = torus.form({(1, 2): 1, (3, 4): 1})
    result = lefschetz_map(torus, omega, 1)
    assert result.rank == 4
    assert result.is_isomorphism


def test_lefschetz_drops_rank_on_kt(kt):
    omega = kt.form({(1, 4): 1, (2, 3): 1})
    result = lefschetz_map(kt, omega, 1)
    assert result.domain_betti == 3 and result.codomain_betti == 3
    assert result.rank == 2
    assert not result.is_injective


def test_lefschetz_rank_is_scale_invariant(kt):
    omega = kt.form({(1, 4): 1, (2, 3): 1})
    assert lefschetz_map(kt, omega, 1).rank \
        == lefschetz_map(kt, omega.scale(Fraction(-5, 3)), 1).rank


def test_massey_on_kt_is_nonzero(kt):
    h1 = cohomology_space(kt, 1)
    a = h1.class_of(kt.covector(1))
    b = h1.class_of(kt.covector(2))
    result = triple_massey(kt, a, a, b)
    assert result.nonzero_mod_indeterminacy
    assert not result.rep_class.is_zero
    # the defining identity: d(representative primitives) recovers the cups
    assert ce_d(result.primitive_ab) == wedge(kt.covector(1), kt.covector(1))
    assert ce_d(result.primitive_bc) == wedge(kt.covector(1), kt.covector(2))


def test_massey_accepts_raw_closed_one_forms(kt):
    by_class = triple_massey(
        kt,
        cohomology_space(kt, 1).class_of(kt.covector(1)),
        cohomology_space(kt, 1).class_of(kt.covector(1)),
        cohomology_space(kt, 1).class_of(kt.covector(2)))
    by_form = triple_massey(kt, kt.covector(1), kt.covector(1), kt.covector(2))
    assert by_form.nonzero_mod_indeterminacy == by_class.nonzero_mod_indeterminacy
    assert by_form.representative == by_class.representative


def test_massey_shift_by_indeterminacy_stays_nonzero(kt):
    # changing the ab-primitive by the closed form x3 moves the representative
    # by x3 ^ c, which must land inside the indeterminacy subspace without
    # rescuing the verdict
    from nilforms.linalg import echelon, reduce

    result = triple_massey(kt, kt.covector(1), kt.covector(1), kt.covector(2))
    h2 = cohomology_space(kt, 2)
    shifted = h2.class_of(
        result.representative + wedge(kt.covector(3), kt.covector(2)))
    basis = echelon(dict(enumerate(c.coords)) for c in result.indeterminacy_basis)
    assert not reduce(dict(enumerate((shifted - result.rep_class).coords)), basis)
    assert reduce(dict(enumerate(shifted.coords)), basis)


def test_massey_needs_vanishing_cups(kt):
    # [x1] cup [x3] = [e13] != 0 on this algebra
    with pytest.raises(CupObstruction):
        triple_massey(kt, kt.covector(1), kt.covector(3), kt.covector(3))


def _twisted_class(g):
    return cohomology_space(g, 1, g.covector(1)).class_of(g.zero_form(1))


def _h1_class(g, k):
    return cohomology_space(g, 1).class_of(g.covector(k))


# each guard with the start of its message, so no earlier check of the same
# class can stand in for it
GUARDS = {
    "cup_non_class": (InvalidParameter, "cup expects",
                      lambda kt, torus, fil: cup(kt.covector(1), _h1_class(kt, 1))),
    "cup_twisted": (InvalidParameter, "cup is defined on untwisted",
                    lambda kt, torus, fil: cup(_h1_class(kt, 1), _twisted_class(kt))),
    "cup_two_algebras": (AmbientMismatch, "classes live over different",
                         lambda kt, torus, fil: cup(_h1_class(kt, 1), _h1_class(torus, 1))),
    "lefschetz_odd": (OddDimension, "Lefschetz maps need", lambda kt, torus, fil: lefschetz_map(
        parse_salamon("(0,0,12)"), parse_salamon("(0,0,12)").zero_form(2), 1)),
    "lefschetz_not_closed": (OmegaNotClosed, "omega must be closed",
                             lambda kt, torus, fil: lefschetz_map(fil, fil.form({(2, 4): 1}), 1)),
    "massey_non_class": (InvalidParameter, "a must be a CohomologyClass",
                         lambda kt, torus, fil: triple_massey(
                             kt, "x1", kt.covector(1), kt.covector(2))),
    "massey_other_algebra": (AmbientMismatch, "b lives over a different",
                             lambda kt, torus, fil: triple_massey(
                                 kt, kt.covector(1), torus.covector(1), kt.covector(2))),
    "massey_twisted": (InvalidParameter, "Massey products are untwisted",
                       lambda kt, torus, fil: triple_massey(
                           kt, kt.covector(1), kt.covector(1), _twisted_class(kt))),
    "massey_degree_two": (InvalidParameter, "a must be a degree-1",
                          lambda kt, torus, fil: triple_massey(
                              kt, cohomology_space(kt, 2).classes()[0], kt.covector(1),
                              kt.covector(2))),
    # [x2] cup [x1] = -[e12] = 0 (e12 = d x4), but [x1] cup [x3] = [e13] != 0
    "massey_b_cup_c": (CupObstruction, "b cup c is nonzero",
                       lambda kt, torus, fil: triple_massey(
                           kt, kt.covector(2), kt.covector(1), kt.covector(3))),
    "class_coordinates": (InvalidParameter, "coordinate length",
                          lambda kt, torus, fil: CohomologyClass(cohomology_space(kt, 1), [1])),
}


@pytest.mark.parametrize("error,message,call", GUARDS.values(), ids=GUARDS)
def test_cohomology_guards_raise_their_class(kt, torus, filiform, error, message, call):
    with pytest.raises(error, match=f"^{message}"):
        call(kt, torus, filiform)


def test_massey_vanishes_on_the_torus(torus):
    # on an abelian algebra only repeated arguments give defined products
    result = triple_massey(torus, torus.covector(1), torus.covector(1),
                           torus.covector(1))
    assert not result.nonzero_mod_indeterminacy
    assert result.representative.is_zero


def test_massey_on_a_line_is_the_zero_product():
    # H^2 = 0 in dimension 1: the product lands, as a cup does, in the
    # clipped space H^1, and is zero there
    line = LieAlgebra(1, {})
    x1 = line.covector(1)
    result = triple_massey(line, x1, x1, x1)
    assert result.rep_class.space is cohomology_space(line, 1)
    assert result.rep_class.is_zero and result.representative.is_zero
    assert result.indeterminacy_basis == ()
    assert not result.nonzero_mod_indeterminacy


def test_non_integral_constants_stay_exact():
    # [X1, X2] = X3 / 2, so dx3 = -x1 ^ x2 / 2, on the target mask of x1 ^ x2
    algebra = LieAlgebra(3, {(1, 2, 3): Fraction(1, 2)})
    column = _d_matrix(algebra, 1)[2]
    assert column == {0b110: Fraction(-1, 2)}
    assert type(column[0b110]) is Fraction
    assert [rep.coeffs for rep in cohomology_space(algebra, 1).representative_basis] \
        == [{(1,): 1}, {(2,): 1}]
    result = triple_massey(algebra, algebra.covector(1), algebra.covector(1),
                           algebra.covector(2))
    assert result.primitive_ab.is_zero
    assert result.primitive_bc.coeffs == {(3,): Fraction(-2)}
    assert result.representative.coeffs == {(1, 3): Fraction(-2)}
    assert result.nonzero_mod_indeterminacy


def test_integral_constants_run_on_ints():
    # the Leibniz table holds ints where a constant is integral; the
    # constants and the forms built from them keep their Fractions
    algebra = parse_salamon("(0,0,12,2*13)")
    assert _d_matrix(algebra, 1) == [{}, {}, {0b110: 1}, {0b1010: 2}]
    assert {type(c) for image in _d_matrix(algebra, 2, algebra.covector(2))
            for c in image.values()} == {int}
    assert {type(c) for c in algebra.constants.values()} == {Fraction}
    assert type(algebra.dx(4).coeffs[(1, 3)]) is Fraction
    assert type(ce_d(algebra.covector(4)).coeffs[(1, 3)]) is Fraction


@pytest.mark.parametrize("degree", [-1, 5, 7, True, False, 1.5, "2", None])
def test_degrees_outside_0_to_dim_are_refused(filiform, degree):
    with pytest.raises(InvalidParameter):
        cohomology_space(filiform, degree)
    with pytest.raises(InvalidParameter):
        CohomologySpace(filiform, degree)


NON_FORM_CALLS = {
    "twisted_d": lambda g: twisted_d(g, None, 5),
    "reduce": lambda g: cohomology_space(g, 2).reduce(5),
    "class_of": lambda g: cohomology_space(g, 2).class_of("x"),
    "lefschetz_map": lambda g: lefschetz_map(g, 5, 1),
    "find_lcs_config": lambda g: find_lcs(g, None),
}


@pytest.mark.parametrize("call", NON_FORM_CALLS.values(), ids=NON_FORM_CALLS)
def test_arguments_of_the_wrong_type_are_invalid_parameters(kt, call):
    with pytest.raises(InvalidParameter):
        call(kt)


FOREIGN_FORM_CALLS = {
    "twisted_d": lambda g, x: twisted_d(g, None, x(1)),
    "twisted_d_theta": lambda g, x: twisted_d(g, x(1), g.covector(1)),
    "reduce": lambda g, x: cohomology_space(g, 1).reduce(x(1)),
    "lefschetz_map": lambda g, x: lefschetz_map(g, x(1, 2), 1),
}


@pytest.mark.parametrize("call", FOREIGN_FORM_CALLS.values(), ids=FOREIGN_FORM_CALLS)
def test_forms_over_another_algebra_are_ambient_mismatches(kt, torus, call):
    with pytest.raises(AmbientMismatch):
        call(kt, torus.basis_form)


def test_lefschetz_takes_a_zero_form_of_any_degree(kt):
    # as pfaffian_volume does: zero is zero whatever its degree
    result = lefschetz_map(kt, kt.zero_form(3), 1)
    assert result.rank == 0 and result.domain_betti == 3
    with pytest.raises(InvalidParameter, match="omega must be a 2-form, got degree 1"):
        lefschetz_map(kt, kt.covector(1), 1)


@pytest.mark.parametrize("p", [-1, 3, True, 1.0, "1", None])
def test_lefschetz_refuses_a_p_that_is_not_an_int_in_range(kt, p):
    omega = kt.basis_form(1, 4) + kt.basis_form(2, 3)
    with pytest.raises(InvalidParameter):
        lefschetz_map(kt, omega, p)


def test_jacobi_witness_with_rational_constants():
    # d(dx_3) = -2/9 x2^x3^x4 + 4/9 x1^x2^x4: the witness is the first
    # monomial of the first covector that fails
    constants = {(2, 3, 2): Fraction(1, 3), (2, 4, 3): Fraction(-2, 3),
                 (1, 2, 2): Fraction(-2, 3)}
    with pytest.raises(JacobiViolation) as caught:
        LieAlgebra(4, constants)
    assert caught.value.triple == (1, 2, 4)


@settings(max_examples=300)
@given(matrices())
def test_the_reversed_kernel_is_the_reduced_echelon_basis_of_the_kernel(matrix):
    # the identity CohomologySpace reads Z off: the kernel under the reversed
    # column order, keyed back, is the reduced echelon basis of the kernel
    rows, ncols = matrix
    columns = columns_of(rows, ncols)
    last = ncols - 1
    reversed_kernel = [{last - c: v for c, v in vector.items()}
                       for vector in linalg.kernel(columns[::-1])]
    expected = linalg.unit_rows(linalg.echelon(linalg.kernel(columns)))
    assert sorted(reversed_kernel, key=min) == expected


def test_cohomology_spaces_are_memoized(filiform):
    assert cohomology_space(filiform, 2) is cohomology_space(filiform, 2)
