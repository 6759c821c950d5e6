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
repeated pairs instead of rejecting them.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import (
    IndexOutOfRange,
    InvalidParameter,
    SalamonSyntaxError,
    SchemaViolation,
)
from .exterior_core import KForm, LieAlgebra
from .scalars import format_scalar, parse_scalar


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

    def expect(self, char, *expected):
        if self.peek() != char:
            raise SalamonSyntaxError(
                f"unexpected {self.peek()!r}" if self.peek() else "unexpected end",
                self.pos, expected or (repr(char),))
        self.pos += 1

    def digits(self, what):
        start = self.pos
        while self.pos < self.end and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise SalamonSyntaxError(
                f"unexpected {self.peek()!r}" if self.peek() else "unexpected end",
                start, (what,))
        return self.text[start:self.pos]


def _split_entries(text):
    """Top-level comma split of the parenthesized interior, respecting
    bracket pairs.  Returns [(start, end)] spans and the closing position."""
    cur = _Cursor(text)
    cur.skip_space()
    cur.expect("(", "'('")
    spans = []
    start = cur.pos
    depth = 0
    while True:
        ch = cur.peek()
        if ch == "":
            raise SalamonSyntaxError("unexpected end", cur.pos, ("')'",))
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
    close = cur.pos
    cur.pos += 1
    cur.end = len(text)
    cur.skip_space()
    if cur.pos != len(text):
        raise SalamonSyntaxError("trailing characters", cur.pos, ("end of input",))
    if len(spans) == 1:
        lone = text[spans[0][0]:spans[0][1]]
        if not lone.strip():
            return [], close
    return spans, close


def _parse_pair(cur, n):
    if n >= 10:
        cur.skip_space()
        cur.expect("[", "'[i,j]' pair")
        i = int(cur.digits("first index"))
        cur.expect(",", "','")
        j = int(cur.digits("second index"))
        cur.expect("]", "']'")
        return _checked_pair(i, j, n, cur.pos)
    start = cur.pos
    d = cur.digits("two-digit pair")
    if len(d) != 2:
        raise SalamonSyntaxError(
            f"pair must be exactly two digits, got {d!r}", start,
            ("two-digit pair",))
    return _checked_pair(int(d[0]), int(d[1]), n, start)


def _checked_pair(i, j, n, pos):
    if i >= j:
        raise SalamonSyntaxError(
            f"pair indices must satisfy i < j, got ({i},{j})", pos, ())
    if not (1 <= i and j <= n):
        raise IndexOutOfRange(
            f"pair ({i},{j}) is out of range for dimension {n}")
    return (i, j)


def _parse_entry(text, start, end, n):
    """One differential, as {(i, j): coefficient}; a coefficient stays an
    int unless the entry writes it as a fraction."""
    cur = _Cursor(text, start, end)
    cur.skip_space()
    if cur.peek() == "":
        raise SalamonSyntaxError("empty entry", start, ("'0' or a sum of pairs",))
    if cur.peek() == "0":
        zero_pos = cur.pos
        cur.pos += 1
        cur.skip_space()
        if cur.pos != cur.end:
            raise SalamonSyntaxError(
                "'0' entries cannot carry terms", zero_pos, ())
        return {}

    terms = {}
    sign = 1
    if cur.peek() in "+-":
        sign = -1 if cur.take() == "-" else 1
    while True:
        cur.skip_space()
        coeff = sign
        if cur.peek().isdigit():
            num_pos = cur.pos
            d = cur.digits("coefficient or pair")
            if cur.peek() == "/":
                cur.take()
                den = cur.digits("denominator")
                if int(den) == 0:
                    raise SalamonSyntaxError("zero denominator", num_pos, ())
                coeff *= Fraction(int(d), int(den))
                cur.expect("*", "'*'")
                pair = _parse_pair(cur, n)
            elif cur.peek() == "*":
                cur.take()
                coeff *= int(d)
                pair = _parse_pair(cur, n)
            else:
                if n >= 10:
                    raise SalamonSyntaxError(
                        "bare digits are ambiguous from dimension 10 up",
                        num_pos, ("'[i,j]' pair", "'*'"))
                if len(d) != 2:
                    raise SalamonSyntaxError(
                        f"pair must be exactly two digits, got {d!r}", num_pos,
                        ("two-digit pair",))
                pair = _checked_pair(int(d[0]), int(d[1]), n, num_pos)
            if coeff == 0:
                raise SalamonSyntaxError("zero coefficient", num_pos, ())
        elif cur.peek() == "[":
            pair = _parse_pair(cur, n)
        else:
            raise SalamonSyntaxError(
                f"unexpected {cur.peek()!r}" if cur.peek() else "unexpected end",
                cur.pos, ("coefficient", "pair"))
        terms[pair] = terms.get(pair, 0) + coeff
        cur.skip_space()
        if cur.pos == cur.end:
            break
        op = cur.take()
        if op not in "+-":
            raise SalamonSyntaxError(
                f"unexpected {op!r}", cur.pos - 1, ("'+'", "'-'"))
        sign = -1 if op == "-" else 1
    return {pair: c for pair, c in terms.items() if c != 0}


def parse_salamon(text):
    """Build the algebra whose dual differentials match the tuple notation.

    Jacobi (equivalently d^2 = 0) is enforced by the algebra constructor, so
    structurally valid but non-Lie input raises JacobiViolation.
    """
    if not isinstance(text, str):
        raise InvalidParameter("tuple notation must be a string")
    spans, _ = _split_entries(text)
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
    entries = []
    for k in range(1, n + 1):
        dxk = algebra.dx(k)
        if dxk.is_zero:
            entries.append("0")
            continue
        parts = []
        for (i, j), coeff in dxk.terms():
            pair = _format_pair(i, j, n)
            if coeff == 1:
                term = pair
            elif coeff == -1:
                term = "-" + pair
            else:
                term = format_scalar(coeff) + "*" + pair
            if parts and not term.startswith("-"):
                parts.append("+")
            parts.append(term)
        entries.append("".join(parts))
    return "(" + ",".join(entries) + ")"


def parse_covector_sum(algebra, text):
    """1-form shorthand for the command line: "x1-2*x3", "1/2*x2", "0"."""
    if not isinstance(text, str):
        raise InvalidParameter("covector sum must be a string")
    cur = _Cursor(text)
    cur.skip_space()
    if cur.peek() == "":
        raise SalamonSyntaxError("empty covector sum", cur.pos,
                                 ("'0' or a sum of x<i> terms",))
    if cur.peek() == "0":
        cur.take()
        cur.skip_space()
        if cur.pos != cur.end:
            raise SalamonSyntaxError("'0' cannot carry terms", cur.pos, ())
        return algebra.zero_form(1)

    terms = {}
    sign = 1
    if cur.peek() in "+-":
        sign = -1 if cur.take() == "-" else 1
    while True:
        cur.skip_space()
        coeff = Fraction(sign)
        if cur.peek().isdigit():
            num_pos = cur.pos
            num = cur.digits("coefficient")
            if cur.peek() == "/":
                cur.take()
                den = cur.digits("denominator")
                if int(den) == 0:
                    raise SalamonSyntaxError("zero denominator", num_pos, ())
                coeff *= Fraction(int(num), int(den))
            else:
                coeff *= int(num)
            cur.expect("*", "'*'")
            cur.skip_space()
        if cur.peek() != "x":
            raise SalamonSyntaxError(
                f"unexpected {cur.peek()!r}" if cur.peek() else "unexpected end",
                cur.pos, ("'x<i>'",))
        cur.take()
        index = int(cur.digits("covector index"))
        if not (1 <= index <= algebra.dim):
            raise IndexOutOfRange(
                f"x{index} is out of range for dimension {algebra.dim}")
        terms[(index,)] = terms.get((index,), Fraction(0)) + coeff
        cur.skip_space()
        if cur.pos == cur.end:
            break
        op = cur.take()
        if op not in "+-":
            raise SalamonSyntaxError(
                f"unexpected {op!r}", cur.pos - 1, ("'+'", "'-'"))
        sign = -1 if op == "-" else 1
    return KForm(algebra, 1, {m: c for m, c in terms.items() if c != 0},
                 _normalized=True)


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
            return parse_scalar(value)
        except (InvalidParameter, ValueError):
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
        _expect(isinstance(key, str) and key.isdigit(), pointer,
                "key must be a decimal index string")
        k = int(key)
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
