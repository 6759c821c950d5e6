"""Sparse multivariate polynomials with exact rational coefficients.

Small and purpose-built: enough arithmetic for symbolic Pfaffians over
solution-space parameters and for polynomial coframes on coordinate models.
Monomials are exponent tuples of a fixed arity; there is no variable-name
bookkeeping here (callers keep their own name lists for printing).

A coefficient is an exact rational: a ``Fraction``, or an ``int`` where it
is integral and the caller built it from ints.  Sums and products start from
int ``0``, so integer inputs stay on int arithmetic; the two kinds compare,
hash and print alike, so which one a coefficient has never shows in a
result.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalInvariantBreach, InvalidParameter
from .scalars import ZERO, as_scalar


class Poly:
    """Immutable polynomial: {exponent tuple: nonzero rational, int where
    integral}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars, terms=None, _normalized=False):
        if isinstance(nvars, bool) or not isinstance(nvars, int) or nvars < 0:
            raise InvalidParameter(f"polynomial arity {nvars!r} is not an int >= 0")
        self.nvars = nvars
        if _normalized:
            self.terms = terms or {}
            return
        clean = {}
        for expo, coeff in (terms or {}).items():
            expo = tuple(expo)
            if len(expo) != nvars or any(isinstance(e, bool) or not isinstance(e, int)
                                         or e < 0 for e in expo):
                raise InvalidParameter(f"bad exponent tuple {expo!r} for arity {nvars}")
            coeff = as_scalar(coeff)
            if coeff != 0:
                clean[expo] = clean.get(expo, ZERO) + coeff
                if clean[expo] == 0:
                    del clean[expo]
        self.terms = clean

    # -- constructors --------------------------------------------------------

    @classmethod
    def constant(cls, nvars, value):
        value = as_scalar(value)
        if value == 0:
            return cls(nvars, {}, _normalized=True)
        return cls(nvars, {(0,) * nvars: value}, _normalized=True)

    @classmethod
    def variable(cls, nvars, index):
        if isinstance(index, bool) or not isinstance(index, int) or not 0 <= index < nvars:
            raise InvalidParameter(f"variable index {index} outside 0..{nvars - 1}")
        expo = tuple(1 if i == index else 0 for i in range(nvars))
        return cls(nvars, {expo: as_scalar(1)}, _normalized=True)

    # -- queries -------------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def total_degree(self):
        return max((sum(e) for e in self.terms), default=0)

    # -- arithmetic ----------------------------------------------------------

    def _check(self, other):
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        elif other.nvars != self.nvars:
            raise InvalidParameter("polynomial arity mismatch")
        return other

    def __add__(self, other):
        other = self._check(other)
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            new = out.get(expo, 0) + coeff
            if new == 0:
                out.pop(expo, None)
            else:
                out[expo] = new
        return Poly(self.nvars, out, _normalized=True)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()}, _normalized=True)

    def __sub__(self, other):
        return self + (-self._check(other))

    def __rsub__(self, other):
        return self._check(other) + (-self)

    def __mul__(self, other):
        if not isinstance(other, Poly):
            # a scalar scales each value, as its constant polynomial would
            value = as_scalar(other)
            terms = {e: c * value for e, c in self.terms.items()} if value else {}
            return Poly(self.nvars, terms, _normalized=True)
        other = self._check(other)
        out = {}
        for ea, ca in self.terms.items():
            for eb, cb in other.terms.items():
                expo = tuple(x + y for x, y in zip(ea, eb))
                new = out.get(expo, 0) + ca * cb
                if new == 0:
                    out.pop(expo, None)
                else:
                    out[expo] = new
        return Poly(self.nvars, out, _normalized=True)

    __rmul__ = __mul__

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            raise InvalidParameter("only nonnegative integer powers")
        result = Poly.constant(self.nvars, 1)
        base = self
        e = exponent
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- calculus and substitution -------------------------------------------

    def derivative(self, index):
        out = {}
        for expo, coeff in self.terms.items():
            e = expo[index]
            if e == 0:
                continue
            # lowering one entry keeps distinct exponents distinct, so no
            # two terms meet; ZERO + makes each value a Fraction
            out[expo[:index] + (e - 1,) + expo[index + 1 :]] = ZERO + coeff * e
        return Poly(self.nvars, out, _normalized=True)

    def substitute(self, assignment):
        """Replace variables by polynomials (or scalars) of the same arity.

        ``assignment`` maps variable index -> replacement; unmentioned
        variables stay themselves.
        """
        replacements = {}
        for index, value in assignment.items():
            if not isinstance(value, Poly):
                value = Poly.constant(self.nvars, value)
            elif value.nvars != self.nvars:
                raise InvalidParameter("substitution arity mismatch")
            replacements[index] = value
        result = Poly.constant(self.nvars, 0)
        for expo, coeff in self.terms.items():
            term = Poly.constant(self.nvars, coeff)
            for index, e in enumerate(expo):
                if e == 0:
                    continue
                if index in replacements:
                    term = term * (replacements[index] ** e)
                else:
                    partial = tuple(e if i == index else 0 for i in range(self.nvars))
                    term = term * Poly(self.nvars, {partial: 1}, _normalized=True)
            result = result + term
        return result

    def evaluate(self, values):
        """Full evaluation at a point (sequence of nvars scalars)."""
        values = [as_scalar(v) for v in values]
        if len(values) != self.nvars:
            raise InvalidParameter("wrong number of values")
        total = ZERO
        for expo, coeff in self.terms.items():
            term = coeff
            for v, e in zip(values, expo):
                if e:
                    term *= v ** e
            total += term
        return total

    # -- identity ------------------------------------------------------------

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)) and not isinstance(other, bool):
            other = Poly.constant(self.nvars, other)
        if not isinstance(other, Poly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        # a constant equals its value (see __eq__), so it hashes as the value
        constant = (0,) * self.nvars
        if not self.terms or self.terms.keys() == {constant}:
            return hash(self.terms.get(constant, 0))
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        chunks = []
        for expo in sorted(self.terms, key=lambda e: (sum(e), e), reverse=True):
            coeff = self.terms[expo]
            factors = [f"t{i}^{e}" if e > 1 else f"t{i}"
                       for i, e in enumerate(expo) if e]
            body = "*".join(factors) or "1"
            chunks.append(f"{coeff}*{body}")
        return "Poly(" + " + ".join(chunks) + ")"


def nonzero_point(poly):
    """A deterministic rational point where ``poly`` does not vanish.

    Standard derandomized search: a nonzero polynomial of total degree d,
    seen as a polynomial in one variable at a time, stays nonzero for some
    value in {0, ..., d}.  Variables are fixed in index order, smallest
    value first, so the witness is canonical and small.  Raises
    InvalidParameter on the zero polynomial; by the lemma every other
    polynomial has a point, so a search that finds none is an
    InternalInvariantBreach.
    """
    if poly.is_zero:
        raise InvalidParameter("the zero polynomial has no nonzero point")
    bound = poly.total_degree()
    point = []
    terms = poly.terms
    for index in range(poly.nvars):
        for candidate in range(bound + 1):
            attempt = _fix(terms, index, candidate)
            if attempt:
                terms = attempt
                break
        else:
            raise InternalInvariantBreach("no nonzero point found for a nonzero polynomial")
        point.append(Fraction(candidate))
    return tuple(point)


def _fix(terms, index, value):
    """The terms of a polynomial with variable ``index`` set to the rational
    ``value``, in one walk: each term's exponent there is zeroed and its
    coefficient multiplied by value ** exponent."""
    out = {}
    for expo, coeff in terms.items():
        e = expo[index]
        if e:
            if not value:
                continue
            expo = expo[:index] + (0,) + expo[index + 1:]
            coeff = coeff * value ** e
        new = out.get(expo, 0) + coeff
        if new:
            out[expo] = new
        else:
            del out[expo]
    return out
