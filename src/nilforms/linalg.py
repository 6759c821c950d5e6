"""Exact linear algebra over the rationals: one sparse, fraction-free kernel.

Inside the kernel a row is a sparse dict ``{column: int}``.  Rows enter with
their denominators cleared and are kept divided by the gcd of their entries,
so elimination never builds a ``Fraction``: clearing column ``p`` of a row
``v`` with the pivot row ``b`` is the fraction-free step

    v  <-  v * (b[p] / g) - b * (v[p] / g),    g = gcd(v[p], b[p])

of Bareiss (Math. Comp. 22, 1968), with the row divided by the gcd of its
entries afterwards in place of Bareiss's exact division.  A row's pivot is its
first nonzero column, and back-substitution leaves the reduced row echelon
form.  Values leave as ``row[c] / row[pivot]``, a ``Fraction`` from
``unit_rows``, ``reduce`` and ``preimage``; ``kernel`` keeps such a value an
int wherever it is integral (``_ratio``), the free coordinate 1 included, so
the cocycle bases the searches build from it stay on ints.  Where an exact
value is needed mid-way (``reduce``) the kernel carries the row's common
denominator beside it.

The reduced row echelon form of a row space is unique.  So neither the order
in which rows are eliminated nor the integer scale of a row can change what
leaves this module: echelon bases, kernel bases (one vector per free column,
free coordinate 1), particular solutions (free variables 0) and every
representative chosen from them downstream are the same on every run and
platform, and the same as any other exact elimination under this column
order would give.

One forward pass serves both ``echelon`` and ``_rank``.  It clears the pivot
columns of each row least first, off a heap to which a fill column that is a
pivot is pushed as it appears, so no step searches the row for its next
pivot.  ``echelon`` feeds it its rows shortest first, which keeps fill down
and, by the uniqueness above, moves no output, and then back-substitutes.
A rank needs no canonical form, so ``_rank``, the one rank path
(``span_rank`` is ``_rank`` of a copy without zero entries), stops after the
forward pass.  It takes its rows shortest first too, and since no pivot
order can change a rank it renumbers the coordinates by increasing nonzero
count, in the spirit of Markowitz (Management Sci. 3, 1957).  It only reads
its input, so ``cohomology`` can rank the images of one degree while it
still builds the next degree from them.

Before it eliminates, ``_rank`` peels singletons, the first step of the
structured Gaussian elimination of LaMacchia and Odlyzko (CRYPTO '90, LNCS
537).  Two rules read only the supports of the vectors still live:

- a coordinate held by exactly one vector makes that vector independent of
  the others (every combination that uses it is nonzero there), so the rank
  is one more than the rank of the rest: count it and drop it;
- a vector with exactly one coordinate c is a multiple of e_c, so the span
  is span(e_c) plus the span of the others with their c-entries removed,
  and the rank is one more than the rank of those: count it and delete c
  from every other vector, which creates no fill.

Neither rule touches a value, and neither writes to a vector: a deleted
coordinate leaves the holder sets and lowers the live count of each vector
that held it.  Whatever neither rule can take goes to the forward pass.

The interface is sparse rows in, canonical echelon out: ``echelon`` (a
basis of the span of some rows), ``unit_rows`` (that basis as rational
rows), ``reduce`` (a vector modulo such a basis), ``span_rank`` (the
dimension of a span), and, for a linear map given by its sparse columns
(``columns[c]`` the image of the c-th basis vector), ``apply`` (the image of
a vector), ``kernel`` and ``preimage``.  Their inputs may hold ints or
Fractions, and none takes an option: for spans B inside Z, the rows of
``echelon`` of Z whose pivots B lacks are the canonical basis of Z modulo B.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd, lcm

# -- the kernel: sparse integer rows -----------------------------------------


def _integral(row):
    """``(ints, den)`` with ``row == ints / den``, zero entries dropped."""
    den = lcm(*(v.denominator for v in row.values()))
    return {c: v.numerator * (den // v.denominator) for c, v in row.items() if v}, den


def _primitive(vec):
    """``vec`` divided by the gcd of its entries, first entry positive."""
    g = gcd(*vec.values())
    if vec[min(vec)] < 0:
        g = -g
    return vec if g == 1 else {c: v // g for c, v in vec.items()}


def _reduce(vec, basis, den=1):
    """Clear every pivot column of ``basis`` (pivot entries positive) from
    the integer row ``vec``, a row the caller owns: it is updated in place
    and may be the returned row.

    Exact: returns ``(vec', den')`` with ``vec' / den'`` equal to
    ``vec / den`` minus a combination of basis rows.  The pivot columns of
    the row wait on a heap and are cleared least first, a fill column that
    is a pivot joining the heap as it appears; a basis row has no entry left
    of its pivot, so a cleared column stays clear, and a column pushed twice
    is found clear the second time.
    """
    pending = [c for c in vec if c in basis]
    heapify(pending)
    while pending:
        p = heappop(pending)
        x = vec.get(p)
        if x is None:
            continue
        row = basis[p]
        g = gcd(x, row[p])
        a, b = x // g, row[p] // g
        if b != 1:
            vec = {c: v * b for c, v in vec.items()}
            den *= b
        for c, r in row.items():
            v = vec.get(c)
            if v is None:
                vec[c] = -a * r
                if c in basis:
                    heappush(pending, c)
            else:
                v -= a * r
                if v:
                    vec[c] = v
                else:
                    del vec[c]
        g = gcd(den, *vec.values())
        if g != 1:
            vec = {c: v // g for c, v in vec.items()}
            den //= g
    return vec, den


def _forward(rows):
    """Forward elimination: ``{pivot column: primitive integer row}``, an
    echelon basis of the span of ``rows``, not reduced above its pivots."""
    basis = {}
    for row in rows:
        vec, _ = _reduce(_integral(row)[0], basis)
        if vec:
            basis[min(vec)] = _primitive(vec)
    return basis


def echelon(rows):
    """Reduced row echelon basis of the span of sparse rational ``rows``.

    Returns ``{pivot column: primitive integer row}``, pivots and each
    row's columns in increasing order, pivot entries positive, zero rows
    dropped; the row ``r`` with pivot ``p`` stands for the canonical row
    ``r / r[p]``.  Rows are eliminated shortest first, which keeps the fill
    down and cannot change the result.
    """
    basis = _forward(sorted(rows, key=len))
    # back-substitution, newest row first: each row is reduced by rows that
    # are already clear of every pivot but their own
    for p in reversed(list(basis)):
        row = basis.pop(p)
        basis[p] = _primitive(_reduce(row, basis)[0])
    return {p: dict(sorted(row.items())) for p, row in sorted(basis.items())}


def span_rank(vectors):
    """Dimension of the span of sparse rational ``vectors``, which may hold
    zero entries: ``_rank`` of a copy without them."""
    return _rank([{c: v for c, v in vec.items() if v} for vec in vectors])


def _rank(vectors):
    """Dimension of the span of sparse rational ``vectors`` without zero
    entries, which it only reads, so a caller may hand over rows it still
    needs.

    First the two peeling rules of the module docstring, which read only
    the supports; a deletion takes the coordinate out of ``holders`` and
    lowers the ``live`` count of each vector that held it, and the
    renumbering below skips it.  Then the forward pass over what is left,
    under the fill-reducing order above; the basis it builds is not
    canonical and never leaves this function.
    """
    rows = {}
    holders = {}
    for i, vec in enumerate(vectors):
        if vec:
            rows[i] = vec
            for c in vec:
                holders.setdefault(c, set()).add(i)
    rank = 0
    # rule one; dropping a vector shrinks only the holder sets of its
    # coordinates, so it can make new singleton coordinates but never a
    # singleton vector
    single = [c for c, held in holders.items() if len(held) == 1]
    while single:
        held = holders.get(single.pop())
        if held is None or len(held) != 1:
            continue
        rank += 1
        i = held.pop()
        for c in rows.pop(i):
            held = holders[c]
            held.discard(i)
            if len(held) == 1:
                single.append(c)
            elif not held:
                del holders[c]
    # rule two; deleting a coordinate shortens only the vectors that hold
    # it and changes no other holder set, so it can make new singleton
    # vectors but never a singleton coordinate: one sweep of each rule
    # reaches the point where neither applies
    live = {i: len(row) for i, row in rows.items()}
    single = [i for i, count in live.items() if count == 1]
    while single:
        row = rows.pop(single.pop(), None)
        if row is None:
            continue
        rank += 1
        for i in holders.pop(next(c for c in row if c in holders)):
            if i in rows:
                live[i] -= 1
                if live[i] == 1:
                    single.append(i)
                elif not live[i]:
                    del rows[i]
    order = sorted(holders, key=lambda c: (len(holders[c]), c))
    order = {c: i for i, c in enumerate(order)}
    return rank + len(_forward(
        {order[c]: v for c, v in rows[i].items() if c in order}
        for i in sorted(rows, key=live.__getitem__)))


def _ratio(v, pivot):
    """``v / pivot`` for ints: an int when ``pivot`` divides ``v``, a
    ``Fraction`` otherwise, the one rule that keeps a value an int."""
    value, rest = divmod(v, pivot)
    return Fraction(v, pivot) if rest else value


def unit_rows(basis):
    """The canonical rows of an ``echelon`` basis, pivot entries 1, as
    sparse ``{column: Fraction}``."""
    return [{c: Fraction(v, row[p]) for c, v in sorted(row.items())}
            for p, row in basis.items()]


def reduce(vector, basis):
    """The sparse rational ``vector`` modulo the span of an ``echelon``
    basis: the unique representative that vanishes on every pivot column."""
    vec, den = _integral(vector)
    vec, den = _reduce(vec, basis, den)
    return {c: Fraction(v, den) for c, v in sorted(vec.items())}


def _rows(columns):
    """The rows of a map given by sparse columns (empty rows omitted)."""
    rows = {}
    for c, column in enumerate(columns):
        for r, v in column.items():
            rows.setdefault(r, {})[c] = v
    return list(rows.values())


def apply(columns, vector):
    """The image ``sum(vector[c] * columns[c])`` of a sparse ``vector``,
    zero entries dropped: the forward direction of ``preimage``.

    ``columns`` is anything indexed by the keys of ``vector`` (a list, or a
    dict keyed by 1-based indices or by pairs), each column a sparse dict.
    """
    image = {}
    for c, x in vector.items():
        for r, v in columns[c].items():
            image[r] = image.get(r, 0) + x * v
    return {r: v for r, v in image.items() if v}


def kernel(columns):
    """Kernel basis of the map whose c-th column is ``columns[c]``.

    One sparse vector ``{column: value}`` per free column, in increasing
    order: the free coordinate is 1, the other free coordinates 0, and the
    pivot coordinates are back-filled from the echelon form.  A pivot of the
    echelon form sits left of every other column of its row, so the free
    column is the largest index of its vector.  A value is an int wherever
    it is integral and a ``Fraction`` otherwise.
    """
    basis = echelon(_rows(columns))
    vectors = {f: {f: 1} for f in range(len(columns)) if f not in basis}
    for p, row in basis.items():
        pivot = row[p]
        for c, v in row.items():
            if c != p:
                vectors[c][p] = _ratio(-v, pivot)
    return [dict(sorted(vec.items())) for vec in vectors.values()]


def preimage(columns, target):
    """One sparse ``x`` with ``sum(x[c] * columns[c]) == target``, or None.

    Free coordinates are 0, so ``x`` is the echelon solution with minimal
    support under the column order.
    """
    n = len(columns)
    basis = echelon(_rows([*columns, target]))
    if n in basis:
        return None
    return {p: Fraction(row[n], row[p]) for p, row in basis.items() if n in row}

