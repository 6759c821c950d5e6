"""Seeded inputs for the benchmark: random nilpotent algebras as tuple strings.

Algebras come from iterated central extension.  The first ``generators``
covectors are closed; each later dx_k is a small-integer combination of the
closed 2-forms in x_1, ..., x_{k-1}, so d^2 = 0 (Jacobi) holds by
construction and the algebra is nilpotent.  The closed 2-forms are computed
here with a small exact kernel of our own, never with the program under test,
so a change to the program cannot change the inputs it is given.
"""

from __future__ import annotations

import itertools
import random
import re
from fractions import Fraction
from math import gcd, lcm


def _merge(left, right):
    """Wedge of two increasing monomials: (monomial, sign) or None."""
    if set(left) & set(right):
        return None
    sign = 1
    for a in left:
        for b in right:
            if a > b:
                sign = -sign
    return tuple(sorted(left + right)), sign


def differential(terms, dx):
    """Differential of a form {monomial: coeff}, by the graded Leibniz rule."""
    out = {}
    for mono, coeff in terms.items():
        for t, index in enumerate(mono):
            rest = mono[:t] + mono[t + 1:]
            sign = -1 if t % 2 else 1
            for dmono, dcoeff in dx.get(index, {}).items():
                merged = _merge(dmono, rest)
                if merged is None:
                    continue
                mono_out, msign = merged
                out[mono_out] = out.get(mono_out, 0) + coeff * dcoeff * sign * msign
    return {m: c for m, c in out.items() if c != 0}


def kernel(columns, row_keys):
    """Kernel basis of the map whose column c is the sparse dict columns[c]."""
    keys = sorted(row_keys)
    rows = [[Fraction(col.get(key, 0)) for col in columns] for key in keys]
    ncols = len(columns)
    pivots = []
    r = 0
    for c in range(ncols):
        src = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if src is None:
            continue
        rows[r], rows[src] = rows[src], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for i, p in enumerate(pivots):
            vec[p] = -rows[i][free]
        basis.append(vec)
    return basis


def _integral(vec):
    """Scale a rational vector to coprime integers."""
    den = lcm(*(x.denominator for x in vec))
    ints = [int(x * den) for x in vec]
    g = 0
    for x in ints:
        g = gcd(g, x)
    return [x // g for x in ints] if g else ints


def random_nilpotent(rng, dim, generators, combine=2):
    """dx table {k: {(i, j): int}} of a random nilpotent algebra.

    Each non-generator dx_k is an integer combination of ``combine`` closed
    2-forms, chosen so that dx_{generators+1}, ..., dx_dim stay linearly
    independent; then b1 equals ``generators``.
    """
    dx = {k: {} for k in range(1, dim + 1)}
    pairs_all = list(itertools.combinations(range(1, dim + 1), 2))
    images = []
    for k in range(generators + 1, dim + 1):
        pairs = list(itertools.combinations(range(1, k), 2))
        triples = list(itertools.combinations(range(1, k), 3))
        columns = [differential({p: 1}, dx) for p in pairs]
        closed = kernel(columns, triples)
        for _ in range(100):
            picks = rng.sample(closed, min(combine, len(closed)))
            vec = [Fraction(0)] * len(pairs)
            for basis_vec in picks:
                c = rng.choice((1, -1, 2, -2))
                vec = [a + c * b for a, b in zip(vec, basis_vec)]
            if not any(vec):
                continue
            ints = _integral(vec)
            image = [0] * len(pairs_all)
            for p, c in zip(pairs, ints):
                image[pairs_all.index(p)] = c
            stacked = [dict(enumerate(v)) for v in images + [image]]
            if not kernel(stacked, range(len(pairs_all))):  # still independent
                break
        else:
            raise RuntimeError(f"no independent closed 2-form for dx_{k}")
        images.append(image)
        dx[k] = {p: c for p, c in zip(pairs, ints) if c != 0}
        if differential(dx[k], dx):
            raise RuntimeError("generated dx is not closed")
    return dx


def to_tuple(dx, dim):
    """Tuple notation, '[i,j]' pairs from dimension 10 up."""
    entries = []
    for k in range(1, dim + 1):
        parts = []
        for (i, j), c in sorted(dx[k].items()):
            pair = f"[{i},{j}]" if dim >= 10 else f"{i}{j}"
            body = pair if abs(c) == 1 else f"{abs(c)}*{pair}"
            parts.append(("-" if c < 0 else ("+" if parts else "")) + body)
        entries.append("".join(parts) or "0")
    return "(" + ",".join(entries) + ")"


def draw(seed, label, dim, generators, combine=2):
    """One random nilpotent algebra in tuple notation, fixed by (seed, label)."""
    rng = random.Random(f"{seed}:{label}")
    return to_tuple(random_nilpotent(rng, dim, generators, combine), dim)


def from_tuple(text):
    """(dim, dx table) of tuple notation with integer coefficients, as
    ``to_tuple`` writes it; the benchmark's own reading, for cross-checks."""
    entries = re.split(r",(?![^\[]*\])", text.strip()[1:-1])
    dx = {}
    for k, entry in enumerate(entries, start=1):
        terms = {}
        for sign, coeff, pair in re.findall(
                r"([+-]?)(?:(\d+)\*)?(\[\d+,\d+\]|\d\d)", entry):
            if pair.startswith("["):
                i, j = map(int, pair[1:-1].split(","))
            else:
                i, j = int(pair[0]), int(pair[1])
            value = (-1 if sign == "-" else 1) * int(coeff or 1)
            terms[(i, j)] = terms.get((i, j), 0) + value
        dx[k] = {pair: c for pair, c in terms.items() if c}
    return len(entries), dx
