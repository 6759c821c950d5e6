"""End-to-end verification battery for the headline results.

Every machine check recomputes its claim from scratch through the public
API and compares against exact expected values, derived independently (by
hand, with the cochain-level arithmetic recorded in the test suite) before
being frozen.  Most are the catalog's "derived" facts, which a check reads
by name when it runs, so a fact the catalog lacks fails only the checks
that read it.  The rest are written in the checks themselves: the
filiform's brackets, its twisted primitive x4 and N(X1, X3) = X4, the three
4-d classification labels, the Kodaira-Thurston Lee form -x3 and twisted
Betti profile at x1, b1 = 5 for ``heisenberg_line(3)`` and the torus's
genuine-search status.

No check reads a literature fact.  The battery states the classical
nonexistence results in NOTE lines of its own text, never asserted; their
machine-checkable shadows (odd first Betti number, failing Lefschetz maps,
nonvanishing Massey products, non-integrable standard almost complex
structures) are separate checks.

``_battery`` lists the report's lines in order and ``verify_all`` runs it;
``all_machine_pass`` is the single gate the command line and the
acceptance tests use.
"""

from __future__ import annotations

from .catalog import get_example, heisenberg_line
from .cohomology import betti_profile, cohomology_space, lefschetz_map, triple_massey
from .coordinate_model import verify_realization
from .errors import NilformsError, _Record
from .exterior_core import format_form
from .hermitian import classify_hermitian, nijenhuis
from .notation import format_salamon, parse_salamon
from .structures import (
    SearchConfig,
    check_lcs,
    check_symplectic,
    classify_4d,
    find_lcs,
    find_symplectic,
    twisted_exactness_witness,
)


class CheckResult(_Record):
    """``passed`` is None for documented-only facts (notes, never gates)."""

    name: str
    passed: bool | None
    detail: str
    provenance: str

    @property
    def is_machine(self):
        return self.passed is not None


def _note(name, detail):
    return CheckResult(name, None, detail, "literature")


def _symplectic_witness(entry):
    return entry.algebra.form(entry.fact("symplectic_witness").value)


def _betti(entry):
    profile = betti_profile(entry.algebra)
    return profile == entry.fact("betti_profile").value, f"betti {profile}"


def _symplectic_search(entry):
    found = find_symplectic(entry.algebra)
    ok = (found == _symplectic_witness(entry)
          and check_symplectic(entry.algebra, found).is_symplectic)
    return ok, f"witness {format_form(found)}"


def _massey(entry):
    triple = map(entry.algebra.covector, entry.fact("massey_triple_nonzero").value)
    result = triple_massey(entry.algebra, *triple)
    return result.nonzero_mod_indeterminacy, (
        f"representative {format_form(result.representative)}")


def _classification(entry, label):
    """A 4-d class that admits no Kahler metric, with the catalog's b1."""
    result = classify_4d(entry.algebra)
    ok = (result.label == label
          and result.b1 == entry.fact("betti_profile").value[1]
          and not result.kahler_admissible)
    return ok, f"label {result.label}, b1 = {result.b1}"


def _battery():
    """The report's lines in order: a machine check is a ``(name, run)``
    pair whose ``run()`` returns ``(passed, detail)``, a note is its
    ``CheckResult``.  ``@check(name)`` adds the closure below it."""
    fil = get_example("filiform_0_0_12_13")
    kt = get_example("kodaira_thurston")
    torus = get_example("torus4")
    six = get_example("six_dim_example")
    battery = []

    def check(name):
        return lambda run: battery.append((name, run))

    def lcs_pair():
        pair = fil.fact("genuine_lcs_witness").value
        return fil.algebra.form(pair["omega"]), fil.algebra.form(pair["theta"])

    @check("filiform_structure_constants")
    def run():
        g = fil.algebra
        ok = (g.bracket(1, 2) == (0, 0, -1, 0)
              and g.bracket(1, 3) == (0, 0, 0, -1)
              and all(v == 0 for v in g.bracket(2, 3))
              and all(v == 0 for v in g.bracket(2, 4)))
        return ok, "[X1,X2] = -X3, [X1,X3] = -X4, all other pairs commute"

    battery += [("filiform_betti_profile", lambda: _betti(fil)),
                ("filiform_symplectic_search", lambda: _symplectic_search(fil))]

    @check("filiform_canonical_lcs_pair")
    def run():
        omega, theta = lcs_pair()
        verdict = check_lcs(fil.algebra, omega, theta)
        ok = verdict.holds and verdict.genuine and verdict.witness_volume == 1
        return ok, (f"omega = {format_form(omega)}, theta = "
                    f"{format_form(theta)}, Pf = {verdict.witness_volume}")

    @check("filiform_lcs_search_genuine")
    def run():
        result = find_lcs(fil.algebra, SearchConfig(height=1))
        ok = (result.genuine_status == "FOUND"
              and result.genuine_witness == lcs_pair())
        return ok, f"status {result.genuine_status} after {result.examined} candidates"

    @check("filiform_lcs_search_first_witness")
    def run():
        omega, theta = find_lcs(fil.algebra, SearchConfig(height=1)).witness
        ok = omega == _symplectic_witness(fil) and theta.is_zero
        return ok, "plain symplectic witness precedes the twisted one"

    @check("filiform_twisted_betti_vanish")
    def run():
        profile = betti_profile(fil.algebra, theta=lcs_pair()[1])
        return (profile == fil.fact("twisted_betti_at_lee").value,
                f"twisted betti {profile}")

    @check("filiform_twisted_primitive")
    def run():
        eta = twisted_exactness_witness(fil.algebra, *lcs_pair())
        return eta == fil.algebra.covector(4), f"omega = d_theta({format_form(eta)})"

    battery += [("filiform_massey_nonzero", lambda: _massey(fil))]

    @check("filiform_lefschetz_fails")
    def run():
        result = lefschetz_map(fil.algebra, _symplectic_witness(fil), 1)
        ok = (result.rank == fil.fact("lefschetz_p1_rank").value
              and not result.is_isomorphism)
        return ok, f"H^1 -> H^3 has rank {result.rank}, betti need {result.domain_betti}"

    @check("filiform_standard_acs_not_integrable")
    def run():
        tensor = nijenhuis(fil.algebra, fil.acs)
        ok = ((not tensor.is_integrable) == fil.fact("standard_acs_not_integrable").value
              and tensor.component(1, 3) == (0, 0, 0, 1))
        return ok, "N(X1, X3) = X4 for the pairwise-rotation J"

    battery += [("filiform_classification",
                 lambda: _classification(fil, "filiform_class"))]

    @check("filiform_coordinate_model")
    def run():
        failing = [name for name, ok in verify_realization().checks if not ok]
        return not failing, (
            "all symbolic model checks pass" if not failing
            else f"failing: {', '.join(failing)}")

    battery += [
        _note("filiform_no_complex_structure",
              "no invariant complex structure exists (4-dim nilpotent "
              "classification); the non-integrability check above is the "
              "machine-checkable shadow"),
        _note("filiform_no_kahler_metric",
              "carries no Kahler metric (nilmanifold dichotomy); failing "
              "Lefschetz and nonzero Massey product are the computed "
              "obstructions"),
    ]

    @check("kodaira_thurston_betti_profile")
    def run():
        profile = betti_profile(kt.algebra)
        ok = (profile == kt.fact("betti_profile").value
              and (profile[1] % 2 == 1) == kt.fact("first_betti_odd").value)
        return ok, f"betti {profile}, first Betti number odd"

    battery += [("kodaira_thurston_symplectic_search", lambda: _symplectic_search(kt)),
                ("kodaira_thurston_massey_nonzero", lambda: _massey(kt))]

    @check("kodaira_thurston_lefschetz_fails")
    def run():
        result = lefschetz_map(kt.algebra, _symplectic_witness(kt), 1)
        ok = (result.rank == kt.fact("lefschetz_p1_rank").value
              and not result.is_isomorphism)
        return ok, f"H^1 -> H^3 has rank {result.rank} < {result.domain_betti}"

    @check("kodaira_thurston_vaisman")
    def run():
        g = kt.algebra
        result = classify_hermitian(g, kt.metric, kt.acs)
        ok = (result.label == kt.fact("hermitian_label").value and result.integrable
              and result.lee == g.covector(3).scale(-1)
              and result.genuine_lee and result.lee_parallel)
        return ok, f"label {result.label}, Lee form {format_form(result.lee)}"

    battery += [("kodaira_thurston_classification",
                 lambda: _classification(kt, "kodaira_thurston_class"))]

    @check("kodaira_thurston_twisted_betti_vanish")
    def run():
        profile = betti_profile(kt.algebra, theta=kt.algebra.covector(1))
        return profile == (0, 0, 0, 0, 0), f"twisted betti {profile} at theta = x1"

    battery += [
        _note("kodaira_thurston_no_kahler_metric",
              "symplectic and complex yet never Kahler; odd first Betti "
              "number is the computed obstruction"),
        ("torus_betti_profile", lambda: _betti(torus)),
    ]

    @check("torus_kahler")
    def run():
        result = classify_hermitian(torus.algebra, torus.metric, torus.acs)
        ok = result.label == torus.fact("hermitian_label").value and result.lee.is_zero
        return ok, f"label {result.label}"

    @check("torus_lefschetz_isomorphism")
    def run():
        result = lefschetz_map(torus.algebra, _symplectic_witness(torus), 1)
        ok = (result.is_isomorphism
              and result.rank == torus.fact("lefschetz_p1_rank").value)
        return ok, f"H^1 -> H^3 rank {result.rank}, bijective"

    @check("torus_classification")
    def run():
        result = classify_4d(torus.algebra)
        ok = (result.label == "torus"
              and result.kahler_admissible == torus.fact("kahler_admissible").value)
        return ok, f"label {result.label}, Kahler admissible"

    @check("torus_no_genuine_lcs_at_height_1")
    def run():
        result = find_lcs(torus.algebra, SearchConfig(height=1))
        omega, theta = result.witness
        ok = (result.found and theta.is_zero
              and not result.genuine_found
              and result.genuine_status == "NOT_FOUND_UP_TO_HEIGHT(1)"
              and check_symplectic(torus.algebra, omega).is_symplectic)
        return ok, f"genuine search: {result.genuine_status}"

    @check("notation_roundtrip")
    def run():
        cases = ["(0,0,12,13)", "(0,0,0,-12+2*13)", "(0,0,0,0,12,34)"]
        ok = all(format_salamon(parse_salamon(c)) == c for c in cases)
        return ok, "parse/format round trips are identities on canonical input"

    @check("heisenberg_tower")
    def run():
        ok = (heisenberg_line(2) == kt.algebra
              and cohomology_space(heisenberg_line(3), 1).betti == 5)
        return ok, "n = 2 is the Kodaira-Thurston algebra; n = 3 has b1 = 5"

    @check("six_dim_symplectic_witness")
    def run():
        omega = _symplectic_witness(six)
        verdict = check_symplectic(six.algebra, omega)
        return verdict.is_symplectic, (
            f"witness {format_form(omega)}, Pf = {verdict.pfaffian}")

    @check("six_dim_first_betti")
    def run():
        b1 = cohomology_space(six.algebra, 1).betti
        return b1 == six.fact("b1").value, f"b1 = {b1}"

    @check("six_dim_symplectic_search")
    def run():
        found = find_symplectic(six.algebra)
        ok = found is not None and check_symplectic(six.algebra, found).is_symplectic
        return ok, f"witness {format_form(found)}"

    return battery


def verify_all():
    """Run every check; exceptions become failures, never crashes."""
    results = []
    for row in _battery():
        if not isinstance(row, CheckResult):
            name, run = row
            try:
                passed, detail = run()
            except Exception as exc:  # noqa: BLE001  honest failure over crash
                # a package error by its message: str() of a KeyError
                # subclass such as UnknownName is the repr of it
                message = exc
                if isinstance(exc, NilformsError) and exc.args:
                    message = exc.args[0]
                passed, detail = False, f"raised {type(exc).__name__}: {message}"
            row = CheckResult(name, bool(passed), detail, "derived")
        results.append(row)
    return tuple(results)


def all_machine_pass(results):
    return all(r.passed for r in results if r.is_machine)
