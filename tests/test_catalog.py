"""Built-in examples and their expected-fact records."""

import pytest

from nilforms import (
    ExpectedFact,
    InvalidParameter,
    UnknownName,
    betti_profile,
    check_lcs,
    check_symplectic,
    classify_4d,
    classify_hermitian,
    cohomology_space,
    format_salamon,
    get_example,
    heisenberg_line,
    lefschetz_map,
    nijenhuis,
    parse_salamon,
    triple_massey,
    verify_realization,
)
from nilforms.catalog import PROVENANCES, names


def _lee(entry):
    return entry.algebra.form(entry.fact("genuine_lcs_witness").value["theta"])


def _symplectic(entry):
    return entry.algebra.form(entry.fact("symplectic_witness").value)


def _genuine_lcs(g, witness):
    verdict = check_lcs(g, g.form(witness["omega"]), g.form(witness["theta"]))
    return verdict.holds and verdict.genuine


def _lattice_closed(entry):
    report = verify_realization()
    return report.salamon == entry.salamon and dict(report.checks)["lattice_closed"]


# each derived fact recomputed from scratch: rule(entry, value) holds exactly
# when the library agrees with the recorded value
DERIVED_RULES = {
    "betti_profile": lambda e, v: betti_profile(e.algebra) == v,
    "b1": lambda e, v: cohomology_space(e.algebra, 1).betti == v,
    "first_betti_odd": lambda e, v: (betti_profile(e.algebra)[1] % 2 == 1) == v,
    "symplectic_witness": lambda e, v: check_symplectic(e.algebra, e.algebra.form(v)),
    "genuine_lcs_witness": lambda e, v: _genuine_lcs(e.algebra, v),
    "twisted_betti_at_lee": lambda e, v: betti_profile(e.algebra, _lee(e)) == v,
    "lefschetz_p1_rank": lambda e, v: lefschetz_map(e.algebra, _symplectic(e), 1).rank == v,
    "massey_triple_nonzero": lambda e, v: triple_massey(
        e.algebra, *map(e.algebra.covector, v)).nonzero_mod_indeterminacy,
    "standard_acs_not_integrable": lambda e, v:
        (not nijenhuis(e.algebra, e.acs).is_integrable) == v,
    "lattice_quotient_compact": lambda e, v: _lattice_closed(e) == v,
    "hermitian_label": lambda e, v: classify_hermitian(e.algebra, e.metric, e.acs).label == v,
    "kahler_admissible": lambda e, v: classify_4d(e.algebra).kahler_admissible == v,
}

DERIVED = [(name, fact) for name in names() for fact in get_example(name).facts
           if fact.provenance == "derived"]


def _holds(entry, fact):
    assert fact.fact in DERIVED_RULES, f"no rule recomputes the derived fact {fact.fact!r}"
    return bool(DERIVED_RULES[fact.fact](entry, fact.value))


def test_names_are_stable():
    assert sorted(names()) == [
        "filiform_0_0_12_13", "kodaira_thurston", "six_dim_example", "torus4"]


def test_unknown_name_lists_the_choices():
    with pytest.raises(UnknownName) as info:
        get_example("filiform")
    assert "torus4" in str(info.value)


def test_an_unknown_fact_names_the_entry_and_the_key():
    with pytest.raises(UnknownName) as info:
        get_example("torus4").fact("symplectic")
    assert info.value.args == ("torus4 has no fact 'symplectic'",)


def test_entries_parse_their_own_salamon_strings():
    for name in names():
        entry = get_example(name)
        assert parse_salamon(entry.salamon) == entry.algebra
        assert format_salamon(entry.algebra) == entry.salamon


def test_every_fact_has_a_known_provenance():
    for name in names():
        for fact in get_example(name).facts:
            assert fact.provenance in PROVENANCES


@pytest.mark.parametrize("name,fact", DERIVED,
                         ids=[f"{name}-{fact.fact}" for name, fact in DERIVED])
def test_every_derived_fact_recomputes(name, fact):
    assert _holds(get_example(name), fact)


def test_a_derived_fact_without_a_rule_fails():
    fact = ExpectedFact("no_such_fact", True, "derived")
    with pytest.raises(AssertionError, match="no rule"):
        _holds(get_example("torus4"), fact)


def test_literature_facts_are_flagged_not_asserted():
    entry = get_example("filiform_0_0_12_13")
    complex_fact = entry.fact("complex_structure_exists")
    assert complex_fact.value is False
    provenances = {f.fact: f.provenance for f in entry.facts}
    assert provenances["complex_structure_exists"] == "literature"
    assert provenances["kahler_metric_exists"] == "literature"


def test_catalog_entries_are_cached():
    assert get_example("torus4").algebra is get_example("torus4").algebra


def test_kt_entry_carries_hermitian_data():
    entry = get_example("kodaira_thurston")
    assert entry.metric is not None and entry.acs is not None
    assert get_example("torus4").acs is not None
    assert get_example("filiform_0_0_12_13").metric is None


def test_heisenberg_line_small_cases(kt):
    assert heisenberg_line(2) == kt
    assert format_salamon(heisenberg_line(2)) == "(0,0,0,12)"
    six = heisenberg_line(3)
    assert six.dim == 6
    assert betti_profile(six)[1] == 5


def test_heisenberg_line_bracket_shape():
    algebra = heisenberg_line(4)
    assert algebra.dim == 8
    for i in range(1, 4):
        vec = algebra.bracket(2 * i - 1, 2 * i)
        assert vec[-1] == -1
        assert all(v == 0 for v in vec[:-1])
    assert all(v == 0 for v in algebra.bracket(7, 8))


def test_heisenberg_line_rejects_small_n():
    with pytest.raises(InvalidParameter):
        heisenberg_line(1)
    with pytest.raises(InvalidParameter):
        heisenberg_line("2")
