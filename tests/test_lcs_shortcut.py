"""find_lcs against the per-candidate search it shortcuts on nilpotent algebras.

``oracles.reference_find_lcs`` decides every twisting candidate on its own,
as ``find_lcs`` did before one polynomial, Pf(d eta - theta ^ eta), began to
settle all theta != 0 candidates of a nilpotent algebra at once.  The two
must report the same status, count, cap and witnesses, on generated
nilpotent algebras whose searches both find a genuine pair and miss one.
"""

import pytest

from nilforms import (
    SearchConfig,
    build_algebra,
    find_lcs,
    format_form,
    lower_central_series,
    parse_salamon,
)
from nilforms.structures import _twisted_exact_pfaffian, closed_covector_basis

from conftest import seeded_central_extension
from oracles import reference_find_lcs

# (dimension, b1): every algebra of dimension 4 has a genuine lcs pair; most
# of dimension 6 and 8 have none, so both branches of the shortcut run
SHAPES = ((4, 2), (4, 3), (6, 2), (6, 3), (8, 2), (8, 3))
SEEDS = range(4)

CONFIGS = {
    "h1": SearchConfig(height=1),
    "h2": SearchConfig(height=2),
    "h2-cap5": SearchConfig(height=2, max_candidates=5),
    "h2-cap30": SearchConfig(height=2, max_candidates=30),
    "h1-cap0": SearchConfig(height=1, max_candidates=0),
    # exactly the 3^b1 candidates of height 1: examined all, not capped
    "h1-cap9": SearchConfig(height=1, max_candidates=9),
    "h1-cap27": SearchConfig(height=1, max_candidates=27),
}


def summary(result):
    def pair(found):
        return found and tuple(format_form(f) for f in found)
    return (result.genuine_status, result.examined, result.capped,
            pair(result.witness), pair(result.genuine_witness))


def cases():
    for dim, b1 in SHAPES:
        for seed in SEEDS:
            for name, config in CONFIGS.items():
                # the uncapped reference at height 2 over 343 candidates
                # takes most of a second in dimension 8
                if (dim, b1, name) == (8, 3, "h2"):
                    continue
                yield pytest.param(dim, b1, seed, config,
                                   id=f"dim{dim}-b1_{b1}-seed{seed}-{name}")


@pytest.mark.parametrize("dim,b1,seed,config", cases())
def test_find_lcs_matches_the_per_candidate_search(dim, b1, seed, config):
    algebra = seeded_central_extension(seed, dim, b1)
    assert summary(find_lcs(algebra, config)) \
        == summary(reference_find_lcs(algebra, config))


@pytest.mark.parametrize("config", [c for name, c in CONFIGS.items() if name != "h2"],
                         ids=[name for name in CONFIGS if name != "h2"])
def test_find_lcs_matches_the_per_candidate_search_on_the_torus(config):
    algebra = parse_salamon("(0,0,0,0)")
    assert summary(find_lcs(algebra, config)) \
        == summary(reference_find_lcs(algebra, config))


# Solvable, not nilpotent: H*_theta need not vanish, so P == 0 proves nothing
# here, and the genuine pairs these algebras carry are not d_theta-exact.
SOLVABLE_WITH_ZERO_P = {
    "r3": {(1, 2): (0, 1, 0, 0), (1, 3): (0, 0, 1, 0)},
    "r4": {(1, 2): (0, 1, 0, 0), (1, 3): (0, 0, 1, 0), (1, 4): (0, 0, 0, -1)},
}


@pytest.mark.parametrize("brackets", SOLVABLE_WITH_ZERO_P.values(),
                         ids=SOLVABLE_WITH_ZERO_P.keys())
def test_the_shortcut_needs_a_nilpotent_algebra(brackets):
    algebra = build_algebra(4, brackets)
    assert not lower_central_series(algebra).nilpotent
    assert _twisted_exact_pfaffian(algebra, closed_covector_basis(algebra)).is_zero
    config = SearchConfig(height=2)
    result = find_lcs(algebra, config)
    assert result.genuine_status == "FOUND"
    assert summary(result) == summary(reference_find_lcs(algebra, config))


def test_generated_algebras_reach_both_outcomes():
    statuses = {summary(find_lcs(seeded_central_extension(seed, dim, b1),
                                 CONFIGS["h1"]))[0]
                for dim, b1 in SHAPES for seed in SEEDS}
    assert statuses == {"FOUND", "NOT_FOUND_UP_TO_HEIGHT(1)"}
