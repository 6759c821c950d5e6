"""Text and JSON interchange for algebras and forms.

The compact tuple notation "(0,0,12,13)" lists the differentials of the dual
basis: entry k is dx_k written as a signed sum of coefficient-tagged pairs,
so "(0,0,12,13)" reads dx_1 = dx_2 = 0, dx_3 = x_1^x_2, dx_4 = x_1^x_3.
Pairs are two digits for dimension <= 9 and bracketed "[i,j]" from dimension
10 up (two-phase parse: entries are split first so the dimension is known
before any pair is read).  Coefficients are optional "p*" or "p/q*" factors,
an elided coefficient is +-1, and a leading sign is allowed, as in
"(0,0,0,-12+2*13)".

Canonical output: terms sorted by pair, coefficient 1 elided, no spaces.
Parsing is strict about syntax (deterministic positions in errors) but merges
repeated pairs instead of rejecting them.  Covector sums ("x1-2*x3") are read
by the same signed-sum reader, with "x<i>" in place of a pair.  Digits are
ASCII 0-9 only.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    SalamonSyntaxError,
    SchemaViolation,
)
from .exterior_core import KForm, LieAlgebra, _format_sum
from .scalars import as_scalar, format_scalar


# -- tuple notation ----------------------------------------------------------


class _Cursor:
    __slots__ = ("text", "pos", "end")

    def __init__(self, text, pos=0, end=None):
        self.text = text
        self.pos = pos
        self.end = len(text) if end is None else end

    def skip_space(self):
        while self.pos < self.end and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        return self.text[self.pos] if self.pos < self.end else ""

    def take(self):
        ch = self.peek()
        self.pos += 1
        return ch

    def unexpected(self, *expected):
        return SalamonSyntaxError(
            f"unexpected {self.peek()!r}" if self.peek() else "unexpected end",
            self.pos, expected)

    def expect(self, char, expected=None):
        if self.peek() != char:
            raise self.unexpected(expected or repr(char))
        self.pos += 1

    def at_digit(self):
        """ASCII 0-9 only: str.isdigit also takes '²', which int refuses."""
        return self.pos < self.end and "0" <= self.text[self.pos] <= "9"

    def digits(self, what):
        start = self.pos
        while self.at_digit():
            self.pos += 1
        if self.pos == start:
            raise self.unexpected(what)
        return self.text[start:self.pos]


def _split_entries(text):
    """Top-level comma split of the parenthesized interior, respecting
    bracket pairs, as [(start, end)] spans."""
    cur = _Cursor(text)
    cur.skip_space()
    cur.expect("(")
    spans = []
    start = cur.pos
    depth = 0
    while True:
        ch = cur.peek()
        if ch == "":
            raise cur.unexpected("')'")
        if ch == "[":
            depth += 1
        elif ch == "]":
            if depth == 0:
                raise SalamonSyntaxError("unmatched ']'", cur.pos, ())
            depth -= 1
        elif ch == "," and depth == 0:
            spans.append((start, cur.pos))
            start = cur.pos + 1
        elif ch == ")" and depth == 0:
            spans.append((start, cur.pos))
            break
        cur.pos += 1
    cur.pos += 1
    cur.end = len(text)
    cur.skip_space()
    if cur.pos != len(text):
        raise SalamonSyntaxError("trailing characters", cur.pos, ("end of input",))
    if len(spans) == 1 and not text[spans[0][0]:spans[0][1]].strip():
        return []
    return spans


def _parse_pair(cur, n, digits=None):
    """The pair at the cursor; below dimension 10, ``digits`` is the run of
    digits just read, if the caller has read it already."""
    if n >= 10:
        cur.skip_space()
        cur.expect("[", "'[i,j]' pair")
        i = _integer(cur.pos, cur.digits("first index"))
        cur.expect(",")
        j = _integer(cur.pos, cur.digits("second index"))
        cur.expect("]")
        return _checked_pair(i, j, n, cur.pos)
    if digits is None:
        digits = cur.digits("two-digit pair")
    start = cur.pos - len(digits)
    if len(digits) != 2:
        raise SalamonSyntaxError(
            f"pair must be exactly two digits, got {digits!r}", start,
            ("two-digit pair",))
    return _checked_pair(int(digits[0]), int(digits[1]), n, start)


def _checked_pair(i, j, n, pos):
    if i >= j:
        raise SalamonSyntaxError(
            f"pair indices must satisfy i < j, got ({i},{j})", pos, ())
    if not (1 <= i and j <= n):
        raise IndexOutOfRange(
            f"pair ({i},{j}) is out of range for dimension {n}")
    return (i, j)


def _integer(pos, digits):
    """The int that ``digits``, read from position ``pos`` on, spell."""
    try:
        return int(digits)
    except ValueError:  # past the interpreter's int-conversion limit
        raise SalamonSyntaxError(
            f"{len(digits)}-digit number is too long", pos, ()) from None


def _signed_sum(cur, read_atom, dim, empty):
    """A lone "0", or [sign] term (+- term)*, as {atom: coefficient} without
    zero entries.  A term is an optional "p*" or "p/q*" coefficient, then the
    atom ``read_atom(cur, tagged, digits, dim)`` reads, ``tagged`` telling it
    whether a coefficient came first and ``digits`` holding a run of digits
    that no "/" or "*" followed, already read, or None.  A coefficient stays
    an int unless written as a fraction.  ``empty`` is the (message,
    expected) of an empty sum."""
    start = cur.pos
    cur.skip_space()
    if cur.peek() == "":
        raise SalamonSyntaxError(empty[0], start, (empty[1],))
    if cur.peek() == "0":
        zero_pos = cur.pos
        cur.pos += 1
        cur.skip_space()
        if cur.pos != cur.end:
            raise SalamonSyntaxError(
                "'0' entries cannot carry terms", zero_pos, ())
        return {}

    terms = {}
    while True:
        coeff = 1
        if cur.peek() in "+-":
            coeff = -1 if cur.take() == "-" else 1
        elif terms:
            raise cur.unexpected("'+'", "'-'")
        cur.skip_space()
        num_pos = cur.pos
        digits = None
        if cur.at_digit():
            digits = cur.digits("coefficient")
            if cur.peek() == "/":
                cur.take()
                den = _integer(cur.pos, cur.digits("denominator"))
                if den == 0:
                    raise SalamonSyntaxError("zero denominator", num_pos, ())
                coeff *= Fraction(_integer(num_pos, digits), den)
                cur.expect("*")
                digits = None
            elif cur.peek() == "*":
                cur.take()
                coeff *= _integer(num_pos, digits)
                digits = None
        # no coefficient: any digits read are the atom's
        atom = read_atom(cur, digits is None and cur.pos != num_pos, digits, dim)
        if coeff == 0:
            raise SalamonSyntaxError("zero coefficient", num_pos, ())
        terms[atom] = terms.get(atom, 0) + coeff
        cur.skip_space()
        if cur.pos == cur.end:
            return {atom: c for atom, c in terms.items() if c != 0}


def _pair_term(cur, tagged, digits, n):
    if digits is not None and n >= 10:
        raise SalamonSyntaxError(
            "bare digits are ambiguous from dimension 10 up", cur.pos - len(digits),
            ("'[i,j]' pair", "'*'"))
    if tagged or digits is not None or cur.peek() == "[":
        return _parse_pair(cur, n, digits)
    raise cur.unexpected("coefficient", "pair")


def _parse_entry(text, start, end, n):
    """One differential, as {(i, j): coefficient}."""
    return _signed_sum(_Cursor(text, start, end), _pair_term, n,
                       ("empty entry", "'0' or a sum of pairs"))


def parse_salamon(text):
    """Build the algebra whose dual differentials match the tuple notation.

    Jacobi (equivalently d^2 = 0) is enforced by the algebra constructor, so
    structurally valid but non-Lie input raises JacobiViolation.
    """
    if not isinstance(text, str):
        raise InvalidParameter("tuple notation must be a string")
    spans = _split_entries(text)
    n = len(spans)
    constants = {}
    for k, (start, end) in enumerate(spans, start=1):
        for (i, j), coeff in _parse_entry(text, start, end, n).items():
            # dx_k = sum coeff * x_i^x_j  <=>  c^k_ij = -coeff
            constants[(i, j, k)] = -coeff
    return LieAlgebra(n, constants)


def _format_pair(i, j, n):
    return f"[{i},{j}]" if n >= 10 else f"{i}{j}"


def format_salamon(algebra):
    """Canonical tuple notation; round-trips through parse_salamon."""
    n = algebra.dim
    entries = (_format_sum(((_format_pair(i, j, n), coeff)
                            for (i, j), coeff in algebra.dx(k).terms()), "")
               for k in range(1, n + 1))
    return "(" + ",".join(entries) + ")"


def _covector_term(cur, tagged, digits, dim):
    if digits is not None:
        raise cur.unexpected("'*'")
    cur.skip_space()
    if cur.peek() != "x":
        raise cur.unexpected("'x<i>'")
    cur.take()
    index = _integer(cur.pos, cur.digits("covector index"))
    if not 1 <= index <= dim:
        raise IndexOutOfRange(f"x{index} is out of range for dimension {dim}")
    return (index,)


def parse_covector_sum(algebra, text):
    """1-form shorthand for the command line: "x1-2*x3", "1/2*x2", "0"."""
    if not isinstance(text, str):
        raise InvalidParameter("covector sum must be a string")
    terms = _signed_sum(_Cursor(text), _covector_term, algebra.dim,
                        ("empty covector sum", "'0' or a sum of x<i> terms"))
    return KForm(algebra, 1, terms)


# -- JSON interchange --------------------------------------------------------


def _expect(condition, pointer, message):
    if not condition:
        raise SchemaViolation(pointer, message)


def _scalar_at(value, pointer):
    if isinstance(value, bool):
        raise SchemaViolation(pointer, "expected a rational, got a boolean")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        try:
            return as_scalar(value)
        except InvalidParameter:
            raise SchemaViolation(pointer, f"not a rational literal: {value!r}")
    raise SchemaViolation(pointer, "expected an integer or 'p/q' string")


def algebra_to_json(algebra):
    """{"dim": n, "d": {"k": [[coeff, [i, j]], ...]}}

    Only nonzero differentials appear; coefficients are exact strings.
    """
    d = {}
    for k in range(1, algebra.dim + 1):
        dxk = algebra.dx(k)
        if dxk.is_zero:
            continue
        d[str(k)] = [[format_scalar(c), [i, j]] for (i, j), c in dxk.terms()]
    return {"dim": algebra.dim, "d": d}


def json_to_algebra(obj):
    _expect(isinstance(obj, dict), "", "algebra document must be an object")
    unknown = set(obj) - {"dim", "d"}
    _expect(not unknown, "", f"unknown keys: {sorted(unknown)}")
    _expect("dim" in obj, "/dim", "missing")
    dim = obj["dim"]
    _expect(isinstance(dim, int) and not isinstance(dim, bool) and dim >= 0,
            "/dim", "must be a nonnegative integer")
    d = obj.get("d", {})
    _expect(isinstance(d, dict), "/d", "must be an object")
    constants = {}
    for key, entry in d.items():
        pointer = f"/d/{key}"
        _expect(isinstance(key, str) and key.isascii() and key.isdigit(),
                pointer, "key must be a decimal index string")
        k = _scalar_at(key, pointer).numerator
        _expect(1 <= k <= dim, pointer, f"index out of range for dim {dim}")
        _expect(isinstance(entry, list), pointer, "must be a list of terms")
        for t, term in enumerate(entry):
            tptr = f"{pointer}/{t}"
            _expect(isinstance(term, list) and len(term) == 2, tptr,
                    "term must be [coefficient, [i, j]]")
            coeff = _scalar_at(term[0], f"{tptr}/0")
            _expect(coeff != 0, f"{tptr}/0", "coefficient must be nonzero")
            pair = term[1]
            _expect(isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(x, int) and not isinstance(x, bool)
                            for x in pair),
                    f"{tptr}/1", "pair must be [i, j] with integer entries")
            i, j = pair
            _expect(1 <= i < j <= dim, f"{tptr}/1",
                    f"need 1 <= i < j <= {dim}, got [{i}, {j}]")
            key_ijk = (i, j, k)
            _expect(key_ijk not in constants, tptr,
                    f"pair [{i}, {j}] appears twice")
            constants[key_ijk] = -coeff
    return LieAlgebra(dim, constants)


def form_to_json(form):
    """{"degree": k, "terms": [[coeff, [i1, ..., ik]], ...]} lex sorted."""
    return {
        "degree": form.degree,
        "terms": [[format_scalar(c), list(mono)] for mono, c in form.terms()],
    }


def json_to_form(algebra, obj):
    _expect(isinstance(obj, dict), "", "form document must be an object")
    unknown = set(obj) - {"degree", "terms"}
    _expect(not unknown, "", f"unknown keys: {sorted(unknown)}")
    _expect("degree" in obj, "/degree", "missing")
    degree = obj["degree"]
    _expect(isinstance(degree, int) and not isinstance(degree, bool)
            and 0 <= degree <= algebra.dim,
            "/degree", f"must be an integer in 0..{algebra.dim}")
    raw = obj.get("terms", [])
    _expect(isinstance(raw, list), "/terms", "must be a list")
    terms = {}
    for t, term in enumerate(raw):
        tptr = f"/terms/{t}"
        _expect(isinstance(term, list) and len(term) == 2, tptr,
                "term must be [coefficient, [indices]]")
        coeff = _scalar_at(term[0], f"{tptr}/0")
        mono = term[1]
        _expect(isinstance(mono, list) and len(mono) == degree
                and all(isinstance(x, int) and not isinstance(x, bool)
                        for x in mono),
                f"{tptr}/1", f"monomial must be a list of {degree} integers")
        _expect(all(1 <= x <= algebra.dim for x in mono), f"{tptr}/1",
                f"indices must lie in 1..{algebra.dim}")
        _expect(all(a < b for a, b in zip(mono, mono[1:])), f"{tptr}/1",
                "indices must be strictly increasing")
        key = tuple(mono)
        _expect(key not in terms, tptr, "monomial appears twice")
        if coeff != 0:
            terms[key] = coeff
    return KForm(algebra, degree, terms, _normalized=True)
