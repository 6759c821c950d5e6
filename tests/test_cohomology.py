"""Plain and twisted cohomology, cup products, Lefschetz maps, Massey triples.

Betti numbers are cross-checked against an oracle that assembles every
differential matrix from the Koszul formula and takes ranks with sympy, so
none of the library's matrix plumbing is trusted twice.
"""

import pytest
from fractions import Fraction

from nilforms import (
    CupObstruction,
    NotClosed,
    betti_profile,
    ce_d,
    cohomology_space,
    cup,
    heisenberg_line,
    lefschetz_map,
    parse_salamon,
    triple_massey,
    twisted_d,
    wedge,
)

from oracles import betti_by_koszul


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
    from nilforms.linalg import in_row_space, rref

    result = triple_massey(kt, kt.covector(1), kt.covector(1), kt.covector(2))
    h2 = cohomology_space(kt, 2)
    shifted = h2.class_of(
        result.representative + wedge(kt.covector(3), kt.covector(2)))
    rows, pivots = rref(
        [list(c.coords) for c in result.indeterminacy_basis], h2.betti)
    assert in_row_space(rows, pivots, list((shifted - result.rep_class).coords))
    assert not in_row_space(rows, pivots, list(shifted.coords))


def test_massey_needs_vanishing_cups(kt):
    # [x1] cup [x3] = [e13] != 0 on this algebra
    with pytest.raises(CupObstruction):
        triple_massey(kt, kt.covector(1), kt.covector(3), kt.covector(3))


def test_massey_vanishes_on_the_torus(torus):
    # on an abelian algebra only repeated arguments give defined products
    result = triple_massey(torus, torus.covector(1), torus.covector(1),
                           torus.covector(1))
    assert not result.nonzero_mod_indeterminacy
    assert result.representative.is_zero


def test_cohomology_spaces_are_memoized(filiform):
    assert cohomology_space(filiform, 2) is cohomology_space(filiform, 2)
