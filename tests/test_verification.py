"""The verify-paper battery against the catalog it reads: a check that reads
a catalog fact compares its result with that fact's value, so a wrong value
fails exactly the checks that read it, and so does a missing one."""

import pytest

from nilforms import CatalogEntry, ExpectedFact, get_example, verification
from nilforms.cli import main

FILIFORM = "filiform_0_0_12_13"
KT = "kodaira_thurston"

# (example, fact) -> (a wrong value, the checks that read the fact); the
# value is chosen so that every one of those checks must fail on it: a wrong
# symplectic witness is not closed or is degenerate, a Lee form is not closed
# and a Massey triple <x1, x1, x1> is zero
PERTURBED = {
    (FILIFORM, "betti_profile"): (
        (1, 3, 2, 2, 1), {"filiform_betti_profile", "filiform_classification"}),
    (FILIFORM, "symplectic_witness"): (
        {(3, 4): 1}, {"filiform_symplectic_search",
                      "filiform_lcs_search_first_witness",
                      "filiform_lefschetz_fails"}),
    (FILIFORM, "genuine_lcs_witness"): (
        {"theta": {(3,): 1}, "omega": {(1, 3): 1, (2, 4): -1}},
        {"filiform_canonical_lcs_pair", "filiform_lcs_search_genuine",
         "filiform_twisted_betti_vanish", "filiform_twisted_primitive"}),
    (FILIFORM, "twisted_betti_at_lee"): (
        (1, 1, 1, 1, 1), {"filiform_twisted_betti_vanish"}),
    (FILIFORM, "lefschetz_p1_rank"): (1, {"filiform_lefschetz_fails"}),
    (FILIFORM, "massey_triple_nonzero"): ((1, 1, 1), {"filiform_massey_nonzero"}),
    (FILIFORM, "standard_acs_not_integrable"): (
        False, {"filiform_standard_acs_not_integrable"}),
    (KT, "betti_profile"): (
        (1, 4, 4, 3, 1), {"kodaira_thurston_betti_profile",
                          "kodaira_thurston_classification"}),
    (KT, "first_betti_odd"): (False, {"kodaira_thurston_betti_profile"}),
    (KT, "symplectic_witness"): (
        {(3, 4): 1}, {"kodaira_thurston_symplectic_search",
                      "kodaira_thurston_lefschetz_fails"}),
    (KT, "massey_triple_nonzero"): ((1, 1, 1), {"kodaira_thurston_massey_nonzero"}),
    (KT, "lefschetz_p1_rank"): (3, {"kodaira_thurston_lefschetz_fails"}),
    (KT, "hermitian_label"): ("kahler", {"kodaira_thurston_vaisman"}),
    ("torus4", "betti_profile"): ((1, 5, 6, 4, 1), {"torus_betti_profile"}),
    ("torus4", "symplectic_witness"): ({(1, 2): 1}, {"torus_lefschetz_isomorphism"}),
    ("torus4", "hermitian_label"): ("vaisman", {"torus_kahler"}),
    ("torus4", "kahler_admissible"): (False, {"torus_classification"}),
    ("torus4", "lefschetz_p1_rank"): (3, {"torus_lefschetz_isomorphism"}),
    ("six_dim_example", "b1"): (5, {"six_dim_first_betti"}),
    ("six_dim_example", "symplectic_witness"): (
        {(1, 2): 1}, {"six_dim_symplectic_witness"}),
}


def _with_facts(monkeypatch, example, facts):
    """Make the battery see ``example`` with ``facts`` in place of its own."""
    entry = get_example(example)
    changed = CatalogEntry(**dict(zip(entry._fields, entry._values()), facts=facts))
    monkeypatch.setattr(verification, "get_example",
                        lambda name: changed if name == example else get_example(name))


def test_the_table_perturbs_exactly_the_facts_the_battery_reads(monkeypatch):
    read = set()
    fact = CatalogEntry.fact

    def recording(entry, key):
        read.add((entry.name, key))
        return fact(entry, key)

    monkeypatch.setattr(CatalogEntry, "fact", recording)
    assert verification.all_machine_pass(verification.verify_all())
    assert read == set(PERTURBED)


@pytest.mark.parametrize("example,fact", sorted(PERTURBED))
def test_a_wrong_catalog_value_fails_exactly_the_checks_that_read_it(
        monkeypatch, example, fact):
    value, readers = PERTURBED[example, fact]
    facts = tuple(ExpectedFact(f.fact, value, f.provenance) if f.fact == fact else f
                  for f in get_example(example).facts)
    _with_facts(monkeypatch, example, facts)
    assert {r.name for r in verification.verify_all() if r.passed is False} == readers


@pytest.mark.parametrize("example,fact", sorted(PERTURBED))
def test_a_missing_catalog_fact_fails_only_the_checks_that_read_it(
        monkeypatch, capsys, example, fact):
    _, readers = PERTURBED[example, fact]
    _with_facts(monkeypatch, example,
                tuple(f for f in get_example(example).facts if f.fact != fact))
    assert main(["verify-paper"]) == 1
    out = capsys.readouterr().out.splitlines()
    failed = dict(line[5:].split(": ", 1) for line in out if line.startswith("FAIL "))
    assert set(failed) == readers
    detail = f"raised UnknownName: {example} has no fact {fact!r}"
    assert all(d == detail for d in failed.values())
    machine = sum(1 for line in out if line.startswith(("PASS ", "FAIL ")))
    assert out[-1] == f"{machine - len(readers)}/{machine} machine checks pass"
