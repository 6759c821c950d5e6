"""The explicit group law, invariant coframe, and lattice checks.

These are polynomial identities, so every assertion is proof-strength for
the model rather than a sample.
"""

from fractions import Fraction

import pytest

from nilforms import DimensionMismatch, Poly
from nilforms.coordinate_model import (
    NCOORDS,
    RING_VARS,
    _coframe_dual_at_origin,
    _d,
    _is_integral,
    _pullback,
    _structure_equations,
    invariant_coframe,
    inverse,
    multiply,
    verify_realization,
)
from nilforms.exterior_core import _wedge_raw

from conftest import wrong_coframe


def coordinates():
    return tuple(Poly.variable(RING_VARS, v) for v in range(NCOORDS))


def translation_parameters():
    return tuple(Poly.variable(RING_VARS, NCOORDS + v) for v in range(NCOORDS))


def test_multiply_matches_the_stated_law():
    x, y, z, t = coordinates()
    a, b, c, e = translation_parameters()
    prod = multiply((a, b, c, e), (x, y, z, t))
    assert prod[0] == a + x
    assert prod[1] == b + y
    assert prod[2] == c + z + b * x
    assert prod[3] == e + t + c * x + b * x * x * Fraction(1, 2)


def test_inverse_law_symbolically():
    element = coordinates()
    back = multiply(inverse(element), element)
    assert back[0].is_zero and back[1].is_zero
    assert back[2].is_zero and back[3].is_zero


def test_numeric_spot_check():
    left = (2, 1, 0, 0)
    right = (1, 0, 0, 0)
    assert multiply(left, right) == (3, 1, 1, Fraction(1, 2))


def test_poly_d_of_the_coframe():
    x1, x2, x3, x4 = invariant_coframe()
    assert _d(x1) == {}
    assert _d(x2) == {}
    assert _d(x3) == _wedge_raw(x1, x2)
    assert _d(x4) == _wedge_raw(x1, x3)


def test_poly_d_squared_is_zero():
    x, y, z, t = coordinates()
    form = {(1,): y * z, (3,): x * x, (4,): t}
    assert _d(_d(form)) == {}


def test_pullback_under_identity_and_translation():
    x1, x2, x3, x4 = invariant_coframe()
    assert _pullback(x3, coordinates()) == x3
    translation = multiply(translation_parameters(), coordinates())
    for covector in (x1, x2, x3, x4):
        assert _pullback(covector, translation) == covector


def test_pullback_sees_forms_that_are_not_invariant():
    # a left translation moves dz and y dx, so the invariance check is not vacuous
    y = coordinates()[1]
    b = translation_parameters()[1]
    one = Poly.constant(RING_VARS, 1)
    translation = multiply(translation_parameters(), coordinates())
    assert _pullback({(3,): one}, translation) == {(3,): one, (1,): b}
    assert _pullback({(1,): y}, translation) == {(1,): b + y}


def test_pullback_commutes_with_d():
    x, y, z, t = coordinates()
    translation = multiply(translation_parameters(), coordinates())
    form = {(1,): z, (2,): x * y}
    assert _d(_pullback(form, translation)) == _pullback(_d(form), translation)


def test_pullback_validates_arity():
    x1 = invariant_coframe()[0]
    with pytest.raises(DimensionMismatch):
        _pullback(x1, coordinates()[:3])


def test_integrality_refutes_the_integer_lattice():
    # on generic points of Z^4 the law and the inverse leave halves, which
    # the symbolic integrality behind ``lattice_closed`` must see
    # exponents over (x, y, z, t, a, b, c, e)
    b_x2 = (2, 0, 0, 0, 0, 1, 0, 0)
    a2_b = (0, 0, 0, 0, 2, 1, 0, 0)
    product = multiply(translation_parameters(), coordinates())[3]
    inverted = inverse(translation_parameters())[3]
    assert product.terms[b_x2] == Fraction(1, 2)
    assert inverted.terms[a2_b] == Fraction(-1, 2)
    assert not _is_integral(product)
    assert not _is_integral(inverted)


def test_verify_realization_passes_everything():
    report = verify_realization()
    assert report.salamon == "(0,0,12,13)"
    assert report.all_pass
    checks = dict(report.checks)
    assert checks["structure_equations"]
    assert checks["left_invariance"]
    assert checks["lattice_closed"]
    assert checks["integer_lattice_negative_control"]


def test_structure_equations_refuse_a_wrong_coframe():
    assert _structure_equations(invariant_coframe())
    assert not _structure_equations(wrong_coframe())


def test_duality_at_the_origin_refuses_a_scaled_coframe():
    # 2 x1 is dual to 2 X1 at the origin, not to X1; d stays right
    x1, x2, x3, x4 = invariant_coframe()
    doubled = ({(1,): x1[(1,)] * 2}, x2, x3, x4)
    assert _coframe_dual_at_origin(invariant_coframe())
    assert not _coframe_dual_at_origin(doubled)


def test_report_names_are_stable():
    names = [name for name, _ in verify_realization().checks]
    assert names == [
        "structure_equations",
        "left_invariance",
        "associativity",
        "identity",
        "inverse",
        "lattice_closed",
        "integer_lattice_negative_control",
        "coframe_dual_at_origin",
    ]
