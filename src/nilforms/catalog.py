"""Worked examples: the algebras the test suite and CLI lean on.

Every ExpectedFact carries a provenance tag:

* "derived": recomputed from scratch, every one, by the tests.
* "literature": a classical statement (attributed in the README) whose
  machine-checkable shadow, if any, is a separate derived fact.  Recorded
  for reference and never asserted; no module reads one, and
  ``verify-paper`` writes its NOTE lines in its own words.

Facts store plain data (index tuples, coefficient dicts); construct forms
against ``entry.algebra`` when needed.
"""

from __future__ import annotations

from .errors import InvalidParameter, UnknownName, _Record
from .exterior_core import LieAlgebra, build_algebra
from .notation import parse_salamon

PROVENANCES = ("derived", "literature")


class ExpectedFact(_Record):
    fact: str
    value: object
    provenance: str

    def __post_init__(self):
        if self.provenance not in PROVENANCES:
            raise InvalidParameter(
                f"provenance must be one of {PROVENANCES}, got {self.provenance!r}")


class CatalogEntry(_Record):
    name: str
    salamon: str
    description: str
    algebra: LieAlgebra
    facts: tuple
    metric: tuple | None = None
    acs: tuple | None = None

    def fact(self, key):
        for item in self.facts:
            if item.fact == key:
                return item
        raise UnknownName(f"{self.name} has no fact {key!r}")


_EUCLIDEAN_4 = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
_ROTATION_PAIRS_J = ((0, -1, 0, 0), (1, 0, 0, 0), (0, 0, 0, -1), (0, 0, 1, 0))


def _entry(name, salamon, **fields):
    """A catalog entry whose algebra is parsed from its own Salamon tuple."""
    return CatalogEntry(name=name, salamon=salamon, algebra=parse_salamon(salamon),
                        **fields)


def _torus4():
    return _entry(
        "torus4", "(0,0,0,0)",
        description="abelian algebra of the 4-torus",
        facts=(
            ExpectedFact("betti_profile", (1, 4, 6, 4, 1), "derived"),
            ExpectedFact("symplectic_witness", {(1, 2): 1, (3, 4): 1}, "derived"),
            ExpectedFact("hermitian_label", "kahler", "derived"),
            ExpectedFact("kahler_admissible", True, "derived"),
            ExpectedFact("lefschetz_p1_rank", 4, "derived"),
        ),
        metric=_EUCLIDEAN_4,
        acs=_ROTATION_PAIRS_J,
    )


def _kodaira_thurston():
    return _entry(
        "kodaira_thurston", "(0,0,0,12)",
        description="Heisenberg x line; symplectic and complex, never both "
                    "compatibly (no Kahler metric)",
        facts=(
            ExpectedFact("betti_profile", (1, 3, 4, 3, 1), "derived"),
            ExpectedFact("first_betti_odd", True, "derived"),
            ExpectedFact("symplectic_witness", {(1, 4): 1, (2, 3): 1}, "derived"),
            ExpectedFact("massey_triple_nonzero", (1, 1, 2), "derived"),
            ExpectedFact("lefschetz_p1_rank", 2, "derived"),
            ExpectedFact("hermitian_label", "vaisman", "derived"),
            ExpectedFact("kahler_metric_exists", False, "literature"),
        ),
        metric=_EUCLIDEAN_4,
        acs=_ROTATION_PAIRS_J,
    )


def _filiform():
    return _entry(
        "filiform_0_0_12_13", "(0,0,12,13)",
        description="filiform nilpotent algebra: genuinely locally conformal "
                    "symplectic, no complex structure, not symplectic-Lefschetz",
        facts=(
            ExpectedFact("betti_profile", (1, 2, 2, 2, 1), "derived"),
            ExpectedFact("symplectic_witness", {(1, 4): 1, (2, 3): 1}, "derived"),
            ExpectedFact(
                "genuine_lcs_witness",
                {"theta": {(2,): 1}, "omega": {(1, 3): 1, (2, 4): -1}},
                "derived"),
            ExpectedFact("twisted_betti_at_lee", (0, 0, 0, 0, 0), "derived"),
            ExpectedFact("lefschetz_p1_rank", 0, "derived"),
            ExpectedFact("massey_triple_nonzero", (1, 2, 2), "derived"),
            ExpectedFact("standard_acs_not_integrable", True, "derived"),
            ExpectedFact("lattice_quotient_compact", True, "derived"),
            ExpectedFact("complex_structure_exists", False, "literature"),
            ExpectedFact("kahler_metric_exists", False, "literature"),
        ),
        acs=_ROTATION_PAIRS_J,
    )


def _six_dim_example():
    return _entry(
        "six_dim_example", "(0,0,0,0,12,34)",
        description="six-dimensional two-step algebra with two independent "
                    "central extensions",
        facts=(
            ExpectedFact("b1", 4, "derived"),
            ExpectedFact("symplectic_witness",
                         {(1, 5): 1, (2, 3): 1, (4, 6): 1}, "derived"),
        ),
    )


_BUILDERS = {
    "torus4": _torus4,
    "kodaira_thurston": _kodaira_thurston,
    "filiform_0_0_12_13": _filiform,
    "six_dim_example": _six_dim_example,
}

_CACHE = {}


def names():
    return sorted(_BUILDERS)


def get_example(name):
    if name not in _BUILDERS:
        raise UnknownName(
            f"no catalog entry {name!r}; available: {', '.join(names())}")
    if name not in _CACHE:
        _CACHE[name] = _BUILDERS[name]()
    return _CACHE[name]


def heisenberg_line(n):
    """Dimension 2n: the (2n-1)-dimensional Heisenberg algebra times a line.

    Pairs (X_1, X_2), ..., (X_{2n-3}, X_{2n-2}) all bracket onto the last
    basis vector; X_{2n-1} spans the extra line.  n = 2 reproduces the
    Kodaira-Thurston algebra.
    """
    if not isinstance(n, int) or n < 2:
        raise InvalidParameter(f"need an integer n >= 2, got {n!r}")
    dim = 2 * n
    center = tuple(-1 if k == dim - 1 else 0 for k in range(dim))
    brackets = {(2 * i - 1, 2 * i): center for i in range(1, n)}
    return build_algebra(dim, brackets)
