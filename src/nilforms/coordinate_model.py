"""A global coordinate realization of the filiform algebra (0,0,12,13).

The group is R^4 with coordinates (x, y, z, t) and polynomial multiplication

    (a, b, c, e) * (x, y, z, t)
        = (a + x, b + y, c + z + b*x, e + t + c*x + b*x^2/2),

and the covectors

    x1 = dx,  x2 = dy,  x3 = dz - y dx,  x4 = dt - z dx

form a left-invariant coframe whose differentials reproduce the tuple
notation "(0,0,12,13)".  Everything here is verified symbolically, as
polynomial identities with exact coefficients: invariance under a generic
translation, associativity of the law, and that the subset
2Z x Z x Z x Z is a subgroup (so the quotient is compact) while the naive
integer lattice Z^4 is not closed under the law.

A form on R^4 is a plain term dict {increasing tuple over 1..4: nonzero
Poly}, 1 = dx, ..., 4 = dt, with coefficients in the RING_VARS variables.
Zero terms are left out, so two forms are equal exactly when their dicts
are; products and derivatives run on ``exterior_core``'s shared wedge, and
their sums on ``linalg.apply``.

``verify_realization`` runs the whole battery and reports named booleans;
nothing in it is stubbed or sampled.
"""

from __future__ import annotations

import functools
from fractions import Fraction

from . import linalg
from .errors import DimensionMismatch, _Record
from .exterior_core import _wedge_raw
from .notation import parse_salamon
from .polynomials import Poly

#: ring layout: coordinates first, translation parameters second
NCOORDS = 4
RING_VARS = 8


def _var(index):
    return Poly.variable(RING_VARS, index)


def _const(value):
    return Poly.constant(RING_VARS, value)


# -- forms on R^4 -------------------------------------------------------------


def _gradient(poly):
    """dp as 1-form terms: the partial derivatives in the coordinate
    variables (translation parameters differentiate to zero)."""
    terms = {}
    for v in range(NCOORDS):
        partial = poly.derivative(v)
        if not partial.is_zero:
            terms[(v + 1,)] = partial
    return terms


def _d(form):
    """Exterior derivative in the coordinate variables only:
    d(p dx_I) = dp ^ dx_I."""
    return linalg.apply({mono: _wedge_raw(_gradient(poly), {mono: 1})
                         for mono, poly in form.items()}, dict.fromkeys(form, 1))


def _pullback(form, components):
    """phi^* for the polynomial map with the given coordinate components
    (a 4-tuple of Polys); coefficients compose, differentials go through
    the Jacobian."""
    if len(components) != NCOORDS:
        raise DimensionMismatch("a coordinate map needs 4 components")
    assignment = dict(enumerate(components))
    differentials = [_gradient(comp) for comp in components]
    return linalg.apply(
        {mono: functools.reduce(_wedge_raw, [differentials[i - 1] for i in mono], {(): 1})
         for mono in form},
        {mono: poly.substitute(assignment) for mono, poly in form.items()})


# -- the group law -----------------------------------------------------------


def multiply(left, right):
    """The polynomial group law; works on any ring elements supporting
    +, * and Fraction scaling (Polys or plain numbers)."""
    a, b, c, e = left
    x, y, z, t = right
    return (
        a + x,
        b + y,
        c + z + b * x,
        e + t + c * x + b * x * x * Fraction(1, 2),
    )


def inverse(element):
    a, b, c, e = element
    return (-a, -b, -c + a * b, -e + a * c - a * a * b * Fraction(1, 2))


def invariant_coframe():
    """x1 = dx, x2 = dy, x3 = dz - y dx, x4 = dt - z dx."""
    y = _var(1)
    z = _var(2)
    one = _const(1)
    return ({(1,): one}, {(2,): one}, {(3,): one, (1,): -y}, {(4,): one, (1,): -z})


SALAMON = "(0,0,12,13)"


# -- the verification battery ------------------------------------------------


class RealizationReport(_Record):
    """Named outcomes of the symbolic checks; all proofs, no sampling.

    ``integer_lattice_negative_control`` is True when the plain integer
    lattice FAILS to be closed under the law, as it must.
    """

    salamon: str
    checks: tuple

    @property
    def all_pass(self):
        return all(ok for _, ok in self.checks)


def _structure_equations(coframe):
    algebra = parse_salamon(SALAMON)
    differentials = [algebra.dx(k).coeffs for k in range(1, NCOORDS + 1)]
    products = {(i, j): _wedge_raw(coframe[i - 1], coframe[j - 1])
                for dx in differentials for i, j in dx}
    return all(_d(form) == linalg.apply(products, dx)
               for form, dx in zip(coframe, differentials))


def _left_invariance(coframe):
    params = tuple(_var(4 + i) for i in range(4))
    coords = tuple(_var(i) for i in range(4))
    translation = multiply(params, coords)
    return all(_pullback(form, translation) == form for form in coframe)


def _associativity():
    g1 = tuple(Poly.variable(12, i) for i in range(4))
    g2 = tuple(Poly.variable(12, i) for i in range(4, 8))
    g3 = tuple(Poly.variable(12, i) for i in range(8, 12))
    return multiply(multiply(g1, g2), g3) == multiply(g1, multiply(g2, g3))


def _identity_law():
    coords = tuple(_var(i) for i in range(4))
    params = tuple(_var(4 + i) for i in range(4))
    zero = tuple(_const(0) for _ in range(4))
    return multiply(zero, coords) == coords and multiply(params, zero) == params


def _inverse_law():
    params = tuple(_var(4 + i) for i in range(4))
    inv = inverse(params)
    zero = tuple(_const(0) for _ in range(4))
    return multiply(params, inv) == zero and multiply(inv, params) == zero


def _is_integral(poly):
    return all(c.denominator == 1 for c in poly.terms.values())


def _is_even(poly):
    return all(c.denominator == 1 and c.numerator % 2 == 0
               for c in poly.terms.values())


def _lattice_closed():
    """2Z x Z x Z x Z: products and inverses stay integral with even first
    component.  Coefficient-level integrality, so this is a proof, not a
    spot check."""
    two = _const(2)
    left = (two * _var(4), _var(5), _var(6), _var(7))
    right = (two * _var(0), _var(1), _var(2), _var(3))
    product = multiply(left, right)
    inv = inverse(left)
    return (all(_is_integral(p) for p in product)
            and all(_is_integral(p) for p in inv)
            and _is_even(product[0]) and _is_even(inv[0]))


def _integer_lattice_fails():
    """Negative control: Z^4 is not closed, witnessed at a concrete pair."""
    witness = multiply((Fraction(0), Fraction(1), Fraction(0), Fraction(0)),
                       (Fraction(1), Fraction(0), Fraction(0), Fraction(0)))
    return any(v.denominator != 1 for v in witness)


def _coframe_dual_at_origin(coframe):
    origin = (0,) * RING_VARS
    for row, form in enumerate(coframe, start=1):
        for col in range(1, NCOORDS + 1):
            value = form.get((col,), _const(0)).evaluate(origin)
            if value != (1 if row == col else 0):
                return False
    return True


def verify_realization():
    coframe = invariant_coframe()
    checks = (
        ("structure_equations", _structure_equations(coframe)),
        ("left_invariance", _left_invariance(coframe)),
        ("associativity", _associativity()),
        ("identity", _identity_law()),
        ("inverse", _inverse_law()),
        ("lattice_closed", _lattice_closed()),
        ("integer_lattice_negative_control", _integer_lattice_fails()),
        ("coframe_dual_at_origin", _coframe_dual_at_origin(coframe)),
    )
    return RealizationReport(salamon=SALAMON, checks=checks)
