"""Semantics of the frozen result types: construction, defaults, equality,
hashing, immutability and repr."""

from fractions import Fraction

import pytest

from nilforms import (
    CheckResult,
    ExpectedFact,
    InvalidParameter,
    LcsSearchResult,
    LcsVerdict,
    SearchConfig,
    SymplecticVerdict,
)


def test_defaults_and_positional_construction():
    assert SearchConfig().height == 2
    assert SearchConfig().max_candidates is None
    assert SearchConfig(1, 5) == SearchConfig(height=1, max_candidates=5)
    assert SearchConfig(3) == SearchConfig(max_candidates=None, height=3)
    assert SearchConfig(1) != SearchConfig(2)


def test_records_refuse_assignment():
    config = SearchConfig()
    with pytest.raises(AttributeError):
        config.height = 3
    with pytest.raises(AttributeError):
        del config.height
    assert config.height == 2


def test_equal_records_hash_alike():
    first = CheckResult("name", True, "detail", "derived")
    second = CheckResult(name="name", passed=True, detail="detail", provenance="derived")
    assert first == second
    assert hash(first) == hash(second)
    assert len({first, second, CheckResult("name", False, "detail", "derived")}) == 2
    assert first != ("name", True, "detail", "derived")


def test_records_of_different_types_differ():
    verdict = LcsVerdict(True, True, True, False, Fraction(1))
    assert verdict != SearchConfig()
    assert verdict == LcsVerdict(True, True, True, False, Fraction(1))
    # equal field values, different types (values SearchConfig accepts)
    assert SymplecticVerdict(1, 2) != SearchConfig(1, 2)


def test_reprs():
    assert repr(SearchConfig()) == "SearchConfig(height=2, max_candidates=None)"
    assert repr(CheckResult("torus_betti", None, "b = (1, 4, 6, 4, 1)", "literature")) == (
        "CheckResult(name='torus_betti', passed=None, "
        "detail='b = (1, 4, 6, 4, 1)', provenance='literature')")
    verdict = LcsVerdict(True, True, True, True, Fraction(1, 2))
    result = LcsSearchResult(1, 3, False, None, None, None, verdict)
    assert repr(result) == (
        "LcsSearchResult(height=1, examined=3, capped=False, witness=None, "
        "verdict=None, genuine_witness=None, genuine_verdict=LcsVerdict("
        "nondegenerate=True, lee_closed=True, identity_holds=True, "
        "genuine=True, witness_volume=Fraction(1, 2)))")


def test_post_init_checks_run():
    assert ExpectedFact("b1", 2, "derived").provenance == "derived"
    with pytest.raises(InvalidParameter):
        ExpectedFact("b1", 2, "bogus")


GUARDS = {
    "too_many_positional": (lambda: SearchConfig(1, 2, 3),
                            "SearchConfig takes 2 fields, got 3 positional values"),
    "missing_field": (lambda: CheckResult("name", True),
                      "CheckResult is missing field 'detail'"),
    "unknown_field": (lambda: SearchConfig(depth=1),
                      r"SearchConfig got unexpected or repeated fields \['depth'\]"),
    "repeated_field": (lambda: SearchConfig(1, height=2),
                       r"SearchConfig got unexpected or repeated fields \['height'\]"),
}


@pytest.mark.parametrize("call,message", GUARDS.values(), ids=GUARDS)
def test_construction_guards_raise_type_error(call, message):
    with pytest.raises(TypeError, match=f"^{message}$"):
        call()
