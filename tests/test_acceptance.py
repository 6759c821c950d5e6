"""Acceptance battery.

One test per headline claim, exact equality throughout.  Each test prints a
single pass line (visible with -s or -rP) so the battery reads as a checklist.
Frozen values here were recomputed through the independent oracles in
oracles.py before being inlined; none are copied from the implementation.
"""

import sys
from pathlib import Path

from nilforms import (
    AlmostComplexStructure,
    SearchConfig,
    betti_profile,
    get_example,
    ce_d,
    check_lcs,
    classify_4d,
    classify_hermitian,
    cohomology_space,
    find_lcs,
    lefschetz_map,
    nijenhuis,
    pfaffian_volume,
    triple_massey,
    twisted_d,
    verify_realization,
    wedge,
)

sys.path.insert(0, str(Path(__file__).parent))

from test_properties import CASE_BUDGET  # noqa: E402


def _ok(label):
    print(f"PASS {label}")


def test_criterion_1_betti_reproduction(torus, kt, filiform):
    assert betti_profile(torus) == (1, 4, 6, 4, 1)
    assert betti_profile(kt) == (1, 3, 4, 3, 1)
    assert betti_profile(kt)[1] == 3
    assert betti_profile(filiform) == (1, 2, 2, 2, 1)
    assert betti_profile(filiform)[1] == 2
    _ok("criterion 1: Betti profiles (torus, Kodaira-Thurston, filiform)")


def test_criterion_2_standard_symplectic_forms(torus, kt, filiform):
    cases = [
        (kt, kt.form({(1, 4): 1, (2, 3): 1})),
        (filiform, filiform.form({(1, 4): 1, (2, 3): 1})),
        (torus, torus.form({(1, 2): 1, (3, 4): 1})),
    ]
    for algebra, omega in cases:
        assert ce_d(omega) == algebra.zero_form(3)
        assert pfaffian_volume(algebra, omega) in (1, -1)
    _ok("criterion 2: listed symplectic forms closed with unit Pfaffian")


def test_criterion_3_genuine_lcs_identity(filiform):
    omega = filiform.form({(1, 3): 1, (2, 4): -1})  # e13 + e42
    theta = filiform.covector(2)
    assert ce_d(omega) == wedge(theta, omega)
    assert ce_d(theta) == filiform.zero_form(2)
    h1 = cohomology_space(filiform, 1)
    assert not h1.class_of(theta).is_zero
    assert pfaffian_volume(filiform, omega) == 1
    verdict = check_lcs(filiform, omega, theta)
    assert verdict.holds and verdict.genuine
    _ok("criterion 3: e13+e42 is genuinely lcs with Lee covector x2")


def test_criterion_4_twisted_exactness_and_vanishing(filiform):
    theta = filiform.covector(2)
    x4 = filiform.covector(4)
    assert twisted_d(filiform, theta, x4) == filiform.form(
        {(1, 3): 1, (2, 4): -1})
    assert betti_profile(filiform, theta=theta) == (0, 0, 0, 0, 0)
    _ok("criterion 4: d_theta x4 recovers the lcs form; twisted Betti all 0")


def test_criterion_5_kahler_obstructions(kt):
    omega = kt.form({(1, 4): 1, (2, 3): 1})
    lef = lefschetz_map(kt, omega, 1)
    assert not lef.is_injective
    x1, x2 = kt.covector(1), kt.covector(2)
    massey = triple_massey(kt, x1, x1, x2)
    assert massey.nonzero_mod_indeterminacy
    assert not classify_4d(kt).kahler_admissible
    _ok("criterion 5: Lefschetz failure, Massey triple, not Kahler admissible")


def test_criterion_6_hermitian_classifier(torus, kt, filiform):
    torus_entry = get_example("torus4")
    kt_entry = get_example("kodaira_thurston")
    torus_cls = classify_hermitian(torus, torus_entry.metric, torus_entry.acs)
    assert torus_cls.label == "kahler"

    kt_cls = classify_hermitian(kt, kt_entry.metric, kt_entry.acs)
    assert kt_cls.lck
    assert kt_cls.lee == kt.form({(3,): -1})
    assert ce_d(kt_cls.fundamental) == wedge(kt_cls.lee, kt_cls.fundamental)
    assert kt_cls.vaisman

    transplanted = get_example("filiform_0_0_12_13").acs
    assert transplanted == kt_entry.acs
    tensor = nijenhuis(filiform, AlmostComplexStructure(transplanted))
    assert not tensor.is_integrable
    _ok("criterion 6: torus Kahler, KT Vaisman lcK (lee -x3), filiform J "
        "not integrable")


def test_criterion_7_realization():
    report = verify_realization()
    by_name = dict(report.checks)
    for name in ("structure_equations", "left_invariance", "lattice_closed",
                 "integer_lattice_negative_control"):
        assert by_name[name], name
    assert report.all_pass
    _ok("criterion 7: coordinate model realizes (0,0,12,13) with the "
        "rescaled lattice, integer control rejected")


def test_criterion_8_property_suite_budget():
    names = {name for name, _ in CASE_BUDGET}
    for needle in ("d_squared", "leibniz", "commutativity", "pfaffian",
                   "star", "adjoint", "poincare", "round_trip", "reverify"):
        assert any(needle in name for name in names), needle
    assert sum(count for _, count in CASE_BUDGET) >= 1000
    _ok("criterion 8: fuzzed property suite registers >= 1000 cases")


def test_criterion_9_semi_decision_honesty(torus):
    result = find_lcs(torus, SearchConfig(height=3))
    assert result.genuine_witness is None
    assert result.genuine_status == "NOT_FOUND_UP_TO_HEIGHT(3)"
    assert "nonexistent" not in result.genuine_status.lower()

    filiform_entry = get_example("filiform_0_0_12_13")
    for key in ("complex_structure_exists", "kahler_metric_exists"):
        fact = filiform_entry.fact(key)
        assert fact.provenance == "literature"
        assert fact.value is False
    _ok("criterion 9: bounded search reported honestly; nonexistence facts "
        "carry literature provenance")
