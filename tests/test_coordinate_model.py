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
    PolyForm,
    invariant_coframe,
    inverse,
    multiply,
    verify_realization,
)


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
    assert x1.d().is_zero
    assert x2.d().is_zero
    assert x3.d() == x1.wedge(x2)
    assert x4.d() == x1.wedge(x3)


def test_poly_d_squared_is_zero():
    x, y, z, t = coordinates()
    form = PolyForm(1, {(1,): y * z, (3,): x * x, (4,): t})
    assert form.d().d().is_zero


def test_pullback_under_identity_and_translation():
    x1, x2, x3, x4 = invariant_coframe()
    assert x3.pullback(coordinates()) == x3
    translation = multiply(translation_parameters(), coordinates())
    for covector in (x1, x2, x3, x4):
        assert covector.pullback(translation) == covector


def test_pullback_commutes_with_d():
    x, y, z, t = coordinates()
    translation = multiply(translation_parameters(), coordinates())
    form = PolyForm(1, {(1,): z, (2,): x * y})
    assert form.d().pullback(translation) == form.pullback(translation).d()


def test_pullback_validates_arity():
    x1 = invariant_coframe()[0]
    with pytest.raises(DimensionMismatch):
        x1.pullback(coordinates()[:3])


def test_verify_realization_passes_everything():
    report = verify_realization()
    assert report.salamon == "(0,0,12,13)"
    assert report.all_pass
    assert report.check("structure_equations")
    assert report.check("left_invariance")
    assert report.check("lattice_closed")
    assert report.check("integer_lattice_negative_control")


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
