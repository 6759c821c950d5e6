"""Polynomial arithmetic on int coefficients and the nonzero-point search.

``nonzero_point`` fixes one variable at a time in one walk over the terms;
``oracles.reference_nonzero_point`` does the same search by
``Poly.substitute``.  The two must pick the same point, or fail the same
way, on polynomials whose coefficients mix ints and Fractions.
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nilforms import InvalidParameter, Poly
from nilforms.polynomials import nonzero_point

from oracles import reference_nonzero_point

COEFFS = st.sampled_from((1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(4)))


@st.composite
def mixed_polys(draw, max_vars=4):
    """A sparse random polynomial times linear factors t_i - c, so that the
    search has to step past roots; coefficients are ints and Fractions."""
    nvars = draw(st.integers(1, max_vars))
    exponents = st.tuples(*[st.integers(0, 2)] * nvars)
    terms = draw(st.dictionaries(exponents, COEFFS, max_size=5))
    poly = Poly(nvars, terms, _normalized=True)
    for index, root in draw(st.lists(st.tuples(st.integers(0, nvars - 1),
                                               st.integers(0, 3)), max_size=4)):
        poly = poly * (Poly(nvars, {tuple(int(i == index) for i in range(nvars)): 1},
                            _normalized=True) - root)
    return poly


def outcome(search, poly):
    try:
        return repr(search(poly))
    except InvalidParameter as exc:
        return f"InvalidParameter: {exc}"


@settings(max_examples=150)
@given(mixed_polys())
def test_nonzero_point_equals_the_substitution_search(poly):
    assert outcome(nonzero_point, poly) == outcome(reference_nonzero_point, poly)


def test_nonzero_point_steps_past_roots():
    t = [Poly.variable(2, i) for i in range(2)]
    poly = t[0] * (t[0] - 1) * (t[1] - 2) * (t[1] - t[0] - 1)
    assert nonzero_point(poly) == (Fraction(2), Fraction(0))
    assert all(type(v) is Fraction for v in nonzero_point(poly))
    with pytest.raises(InvalidParameter, match="zero polynomial"):
        nonzero_point(Poly(2))


def test_int_coefficients_stay_ints():
    x = Poly(2, {(1, 0): 2}, _normalized=True)
    y = Poly(2, {(0, 1): -3}, _normalized=True)
    product = (x + y) * (x - y)
    assert product.terms == {(2, 0): 4, (0, 2): -9}
    assert all(type(c) is int for c in product.terms.values())
    assert product == Poly(2, {(2, 0): 4, (0, 2): -9})
    assert repr(product) == repr(Poly(2, {(2, 0): 4, (0, 2): -9}))
    half = x * Fraction(1, 2)
    assert half.terms == {(1, 0): 1} and type(half.terms[(1, 0)]) is Fraction


def test_polynomials_compare_only_with_polynomials_and_rationals():
    three = Poly.constant(2, 3)
    assert three == 3 and three == Fraction(3) and three == Poly.constant(2, 3)
    assert three != Fraction(1, 3) and Poly(2) == 0
    for other in ("abc", "3", None, 3.0, (3,)):
        assert (three == other) is False
        assert (three != other) is True
    # True == 1, but a bool is no rational
    assert (Poly.constant(2, 1) == True) is False


def test_constants_hash_as_the_rationals_they_equal():
    for value in (0, 3, -2, Fraction(3, 2)):
        constant = Poly.constant(2, value)
        assert constant == value and hash(constant) == hash(value)
        assert len({value, constant}) == 1
    assert hash(Poly(2, {})) == hash(0)
    x = Poly.variable(2, 0)
    assert hash(x + 3 - x) == hash(3)


def test_a_scalar_minus_a_polynomial():
    assert 1 - Poly.variable(2, 0) == Poly(2, {(0, 0): 1, (1, 0): -1})


def test_derivatives_lower_one_exponent_to_fraction_values():
    poly = Poly(2, {(2, 1): 1, (0, 1): 3, (1, 0): Fraction(1, 2)}, _normalized=True)
    assert poly.derivative(0).terms == {(1, 1): 2, (0, 0): Fraction(1, 2)}
    assert poly.derivative(1).terms == {(2, 0): 1, (0, 0): 3}
    assert {type(c) for c in poly.derivative(1).terms.values()} == {Fraction}


def test_scalar_factors_equal_their_constant_polynomials():
    x = Poly(2, {(1, 0): 2, (0, 1): Fraction(1, 3)}, _normalized=True)
    for scalar in (0, 1, -3, Fraction(3, 2), "-5/4"):
        constant = Poly.constant(2, scalar)
        for product in (x * scalar, scalar * x):
            expected = Poly.__mul__(x, constant)
            assert [(e, c, type(c)) for e, c in product.terms.items()] \
                == [(e, c, type(c)) for e, c in expected.terms.items()]
            assert repr(product) == repr(expected)
    for product in (lambda: x * True, lambda: True * x, lambda: Poly.constant(2, True)):
        with pytest.raises(InvalidParameter):
            product()


def test_arity_and_exponents_must_be_nonnegative_ints():
    """``int(e)`` would truncate 1.5 to 1, and True == 1, so neither an
    exponent nor an arity is coerced."""
    for expo in ((1.5,), (True,), ("1",), (-1,)):
        with pytest.raises(InvalidParameter, match="exponent"):
            Poly(1, {expo: 1})
    for call in (lambda: Poly(True, {(1,): 1}), lambda: Poly.constant(True, 1),
                 lambda: Poly("x", {}), lambda: Poly(-1, {}),
                 lambda: Poly(1.0, {(1,): 1}, _normalized=True)):
        with pytest.raises(InvalidParameter, match="arity"):
            call()
