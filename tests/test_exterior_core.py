"""Algebra construction, wedge, and the invariant differential.

The differential and the wedge are each checked against a second route:
the Koszul formula and the shuffle sum from ``oracles``.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from nilforms import (
    IndexOutOfRange,
    InvalidParameter,
    JacobiViolation,
    KForm,
    LieAlgebra,
    Poly,
    WrongDimension,
    betti_profile,
    build_algebra,
    ce_d,
    format_form,
    get_example,
    lower_central_series,
    parse_salamon,
    twisted_d,
    wedge,
)
from nilforms import exterior_core
from nilforms.cohomology import _d_images

from conftest import (
    nilpotent_algebras,
    non_nilpotent_4d_algebras,
    small_nonzero,
    unchecked_algebra,
)
from oracles import (
    bracket_vectors,
    direct_sum,
    eval_on_basis,
    jacobiator,
    koszul_d_eval,
    shuffle_wedge_eval,
)

# every example reruns the oracles, and so would every shrink step
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def test_structure_constants_of_the_filiform(filiform):
    assert filiform.bracket(1, 2) == (0, 0, Fraction(-1), 0)
    assert filiform.bracket(1, 3) == (0, 0, 0, Fraction(-1))
    assert filiform.bracket(2, 3) == (0, 0, 0, 0)
    assert filiform.bracket(2, 1) == (0, 0, Fraction(1), 0)


def test_dx_matches_the_tuple_notation(filiform):
    assert filiform.dx(3) == filiform.basis_form(1, 2)
    assert filiform.dx(4) == filiform.basis_form(1, 3)
    assert filiform.dx(1).is_zero and filiform.dx(2).is_zero


def test_jacobi_violation_carries_a_witness_triple():
    with pytest.raises(JacobiViolation) as info:
        parse_salamon("(0,0,12,34)")
    i, j, k = info.value.triple
    assert 1 <= i < j < k <= 4


def test_jacobi_witness_is_a_real_violation():
    # rebuild the rejected constants without validation to check the triple
    constants = {(1, 2, 3): -1, (3, 4, 4): -1}
    with pytest.raises(JacobiViolation) as info:
        LieAlgebra(4, constants)
    triple = info.value.triple
    assert any(v != 0 for v in jacobiator(unchecked_algebra(4, constants), *triple))


def test_bracket_vectors_is_bilinear(kt):
    # the oracles' vector bracket, which the jacobiator and the dense
    # Nijenhuis reference build on, against the basis brackets
    v = (Fraction(1), Fraction(2), Fraction(0), Fraction(0))
    w = (Fraction(0), Fraction(1), Fraction(1), Fraction(0))
    direct = bracket_vectors(kt, v, w)
    expanded = [Fraction(0)] * 4
    for i in range(4):
        for j in range(4):
            if v[i] and w[j]:
                bij = kt.bracket(i + 1, j + 1)
                expanded = [expanded[r] + v[i] * w[j] * bij[r] for r in range(4)]
    assert list(direct) == expanded


def test_wedge_agrees_with_the_shuffle_oracle(filiform):
    a = filiform.form({(1,): 2, (3,): Fraction(1, 2)})
    b = filiform.form({(1, 2): 1, (2, 4): -3})
    product = wedge(a, b)
    for indices in itertools.combinations(range(1, 5), 3):
        assert eval_on_basis(product, indices) \
            == shuffle_wedge_eval(a, b, list(indices))


def test_wedge_is_graded_commutative_on_samples(kt):
    a = kt.form({(1,): 1, (2,): -2})
    b = kt.form({(3,): 1, (4,): 5})
    assert wedge(a, b) == wedge(b, a).scale(-1)
    c = kt.form({(1, 2): 1})
    assert wedge(c, b) == wedge(b, c)


# the Koszul formula and the shuffle sum share nothing with _d_step, the one
# place where the sign of d is derived: flipping either of its two sign
# terms fails this test.  theta combines the closed basis covectors, read
# off dx(i) rather than off a differential matrix, with the first of the
# drawn coefficients
@settings(max_examples=25, phases=NO_SHRINK)
@given(st.one_of(nilpotent_algebras(dims=(4, 5)), non_nilpotent_4d_algebras()),
       st.lists(small_nonzero, min_size=6, max_size=6))
@example(get_example("filiform_0_0_12_13").algebra, [1, -2, 0, 0, 0, 0])
@example(get_example("kodaira_thurston").algebra, [Fraction(1, 2), 3, 1, 0, 0, 0])
@example(get_example("six_dim_example").algebra, [1, 2, -1, Fraction(2, 3), 0, 0])
def test_d_agrees_with_the_koszul_oracle(algebra, coords):
    closed = [i for i in range(1, algebra.dim + 1) if algebra.dx(i).is_zero]
    theta = algebra.form({(i,): c for i, c in zip(closed, coords)})
    for twist in (None, theta):
        for degree in range(algebra.dim):
            for mono in algebra.monomials(degree):
                form = algebra.basis_form(*mono)
                image = ce_d(form) if twist is None else twisted_d(algebra, twist, form)
                for target in itertools.combinations(range(1, algebra.dim + 1), degree + 1):
                    expected = koszul_d_eval(algebra, form, list(target))
                    if twist is not None:
                        expected -= shuffle_wedge_eval(twist, form, list(target))
                    assert image.coefficient(target) == expected


def test_d_squared_is_zero_on_basis_forms(six_dim):
    for degree in range(six_dim.dim):
        for mono in six_dim.monomials(degree):
            assert ce_d(ce_d(six_dim.basis_form(*mono))).is_zero


def test_leibniz_on_a_sample(kt):
    a = kt.form({(1,): 1, (4,): 2})
    b = kt.form({(2, 3): 1})
    left = ce_d(wedge(a, b))
    right = wedge(ce_d(a), b) + wedge(a, ce_d(b)).scale(-1)
    assert left == right


def test_subtraction_adds_the_negative(kt):
    a = kt.form({(1, 2): 3, (2, 4): Fraction(1, 2)})
    b = kt.form({(1, 2): 3, (3, 4): -1})
    assert a - b == kt.form({(2, 4): Fraction(1, 2), (3, 4): 1})
    assert (a - a).is_zero


def test_form_normalization_orders_and_signs():
    algebra = parse_salamon("(0,0,0,0)")
    form = KForm(algebra, 2, {(3, 1): Fraction(2)})
    assert form.terms() == [((1, 3), Fraction(-2))]
    assert KForm(algebra, 2, {(1, 1): Fraction(5)}).is_zero


def test_zero_forms_compare_equal_across_degrees(torus):
    assert torus.zero_form(0) == torus.zero_form(2)


def test_zero_forms_hash_equal_across_degrees(torus):
    assert hash(torus.zero_form(1)) == hash(torus.zero_form(2))
    assert len({torus.zero_form(k) for k in range(5)}) == 1
    assert len({torus.covector(1), torus.covector(1).scale(2), torus.zero_form(1)}) == 3


def test_a_zero_form_of_another_degree_adds_as_the_other_operand(kt):
    x12 = kt.form({(1, 2): 1})
    for total in (kt.zero_form(1) + x12, x12 + kt.zero_form(3)):
        assert total.degree == 2 and total == x12
    with pytest.raises(InvalidParameter, match="degrees 1 and 2"):
        kt.covector(1) + x12


def test_bool_basis_indices_are_refused(kt):
    """True == 1, but a bool is not a basis index (it would print as
    ``xTrue``), so every index check refuses it with its own class."""
    with pytest.raises(IndexOutOfRange):
        LieAlgebra(3, {(True, 2, 3): 1})
    for call in (kt.covector, kt.dx, lambda i: kt.bracket(i, 2)):
        with pytest.raises(IndexOutOfRange):
            call(True)
    with pytest.raises(InvalidParameter):
        build_algebra(3, {(True, 2): (0, 0, 1)})
    with pytest.raises(IndexOutOfRange):
        kt.form({(True, 2): 1})
    with pytest.raises(InvalidParameter):
        Poly.variable(2, False)


def test_bool_dimensions_and_degrees_are_refused(kt):
    """Nor is a bool a dimension or a degree: ``LieAlgebra(True, {})`` would
    pass for ``LieAlgebra(1, {})`` and ``KForm(g, True, ...)`` would print
    as a ``True``-form."""
    for call in (lambda: LieAlgebra(True, {}), lambda: LieAlgebra(False, {}),
                 lambda: build_algebra(True, {}),
                 lambda: KForm(kt, True, {(1,): 1}), lambda: kt.zero_form(True),
                 lambda: kt.zero_form(False)):
        with pytest.raises(InvalidParameter, match="must be a nonnegative integer"):
            call()


def test_bool_coefficients_and_monomial_degrees_are_refused(kt):
    """A bool is no structure constant, form coefficient or monomial degree."""
    for call in (lambda: build_algebra(2, {(1, 2): (True, 0)}),
                 lambda: kt.form({(1, 2): True}), lambda: kt.monomials(True)):
        with pytest.raises(InvalidParameter):
            call()


def test_format_form(filiform):
    omega = filiform.form({(1, 3): 1, (2, 4): -1})
    assert format_form(omega) == "x1^x3 - x2^x4"
    assert format_form(filiform.zero_form(2)) == "0"
    assert format_form(filiform.one().scale(Fraction(1, 2))) == "1/2"


def test_invariants_fingerprint(filiform, torus, so3):
    fil = lower_central_series(filiform)
    assert fil.nilpotent and fil.step == 3
    assert fil.lower_central_dims == (4, 2, 1, 0)
    assert fil.unimodular
    assert lower_central_series(torus).step == 1
    rigid = lower_central_series(so3)
    assert not rigid.nilpotent
    assert rigid.unimodular


def test_zero_algebra_has_step_zero():
    zero = lower_central_series(LieAlgebra(0, {}))
    assert zero.nilpotent and zero.step == 0
    assert zero.lower_central_dims == (0,)
    line = lower_central_series(LieAlgebra(1, {}))
    assert line.step == 1 and line.lower_central_dims == (1, 0)


def test_dx_below_dimension_two_is_the_top_degree_zero_form():
    line = LieAlgebra(1, {})
    assert line.dx(1).is_zero and line.dx(1) == ce_d(line.covector(1))


def test_direct_sum_of_kt_and_line(kt):
    line = build_algebra(1, {})
    total = direct_sum(kt, line)
    assert total.dim == 5
    assert total.bracket(1, 2) == (0, 0, 0, Fraction(-1), 0)
    assert total.bracket(1, 5) == (0,) * 5


# -- the size budget -----------------------------------------------------------

BUDGET_SITES = {
    "leibniz table": ("the Leibniz table", lambda g: LieAlgebra(g.dim, g.constants)),
    "lower central series": ("the lower central series", lower_central_series),
    "differential sweep": ("the differential sweep", betti_profile),
}


@pytest.mark.parametrize("what,call", BUDGET_SITES.values(), ids=BUDGET_SITES)
def test_each_budget_site_refuses_past_a_tiny_budget(filiform, monkeypatch, what, call):
    # the algebra is built under the default budget, so only ``call`` meets it
    monkeypatch.setattr(exterior_core, "_BUDGET", 3)
    with pytest.raises(WrongDimension, match=f"{what} in dimension 4 .* past the budget of 3"):
        call(filiform)


def test_the_sweep_refuses_before_building_the_degree_past_the_budget(filiform, monkeypatch):
    # C(4, k) * 4 cells in degree k: 4, 24, 16, 4 for k = 1, 2, 3, 4
    monkeypatch.setattr(exterior_core, "_BUDGET", 20)
    sweep = _d_images(filiform)
    assert [len(images) for images in itertools.islice(sweep, 2)] == [1, 4]
    with pytest.raises(WrongDimension, match="about 24 cells"):
        next(sweep)


def test_a_dimension_100000_algebra_is_past_the_default_budget():
    # arithmetic only: nothing of that size is built
    with pytest.raises(WrongDimension, match="10000000000 cells, past the budget of 10000000"):
        exterior_core._require_budget(100000, 100000, "the Leibniz table")
