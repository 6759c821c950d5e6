"""The benchmark's workloads: query lists, how to answer a query, and how to
check an answer.

Every query names its input as tuple notation (or CLI arguments) and builds a
fresh ``LieAlgebra`` when it runs.  Reusing an instance, or going through the
catalog's ``get_example``, would let the per-instance cohomology cache and
the catalog cache turn every pass after the first into dictionary lookups.

Fixed queries are checked against ``expected.json``.  Seeded draws have no
stored answer; they are checked by mathematical laws, outside the timed
region (see ``betti_laws`` and ``lcs_laws``).
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from pathlib import Path

from gen import draw

BENCH_DIR = Path(__file__).resolve().parent
EXPECTED_PATH = BENCH_DIR / "expected.json"

WORKLOADS = ("betti", "lcs_search", "cli")


@dataclass(frozen=True)
class Query:
    qid: str
    args: tuple  # betti: (tuple,); lcs_search: (tuple, height); cli: argv
    seeded: bool = False
    generators: int = 0  # seeded draws: number of closed covectors, = b1
    smoke: bool = False  # cheap enough for the seconds-long smoke run


def _filiform(n):
    """Model filiform L_n: dx_k = x_1 ^ x_{k-1} for k >= 3."""
    pair = "[1,{}]" if n >= 10 else "1{}"
    return "(0,0," + ",".join(pair.format(k - 1) for k in range(3, n + 1)) + ")"


BETTI_FIXED = (
    Query("heisenberg_line_4", ("(0,0,0,0,0,0,0,12+34+56)",), smoke=True),
    Query("filiform_8", (_filiform(8),), smoke=True),
    Query("heisenberg_line_5", ("(0,0,0,0,0,0,0,0,0,[1,2]+[3,4]+[5,6]+[7,8])",)),
    Query("free_2step_4", ("(0,0,0,0,[1,2],[1,3],[1,4],[2,3],[2,4],[3,4])",)),
    Query("filiform_10", (_filiform(10),)),
)

LCS_FIXED = (
    Query("six_dim_example", ("(0,0,0,0,12,34)", 2)),
    Query("n6_12_13_14", ("(0,0,0,12,13,14)", 2)),
    Query("n6_12_13_23", ("(0,0,0,12,13,23)", 2)),
    Query("filiform_6", ("(0,0,12,13,14,15)", 2), smoke=True),
    Query("filiform_4", ("(0,0,12,13)", 2), smoke=True),
    Query("kodaira_thurston", ("(0,0,0,12)", 2), smoke=True),
)

CLI_FIXED = (
    Query("analyze_filiform_4", ("analyze", "(0,0,12,13)"), smoke=True),
    Query("analyze_kodaira_thurston", ("analyze", "kodaira_thurston"), smoke=True),
    Query("analyze_torus4", ("analyze", "torus4")),
    Query("analyze_filiform_6", ("analyze", "(0,0,12,13,14,15)")),
    Query("analyze_json", ("analyze", "--json", "(0,0,0,12)")),
    Query("cohomology_theta", ("cohomology", "(0,0,12,13)", "--theta", "x2")),
    Query("search_symplectic", ("search-symplectic", "(0,0,0,0,12,34)")),
    Query("verify_paper", ("verify-paper",)),
    Query("model_check", ("model-check",)),
    Query("malformed_tuple", ("analyze", "(0,0,1x)"), smoke=True),
    Query("jacobi_violation", ("analyze", "(0,0,12,0,34)"), smoke=True),
)


def queries(workload, seed):
    """The query list of one pass; the same seed gives the same list.

    The seeded draws are sized so that no seed moves the pass time much: the
    dimension-10 draw uses one closed 2-form per step (two would cost 8-12 s
    instead of 1.5-3 s), and the lcs draw searches height 1 only (at most 9
    candidates).
    """
    if workload == "betti":
        return BETTI_FIXED + (
            Query("random_8", (draw(seed, "betti-8", 8, 3, combine=2),),
                  seeded=True, generators=3, smoke=True),
            Query("random_10", (draw(seed, "betti-10", 10, 4, combine=1),),
                  seeded=True, generators=4),
        )
    if workload == "lcs_search":
        return LCS_FIXED + (
            Query("random_6", (draw(seed, "lcs-6", 6, 2, combine=2), 1),
                  seeded=True, generators=2, smoke=True),
        )
    if workload == "cli":
        order = list(CLI_FIXED)
        random.Random(f"{seed}:cli").shuffle(order)
        return tuple(order)
    raise ValueError(f"unknown workload {workload!r}")


# -- answering ---------------------------------------------------------------


def answer_betti(nilforms, query):
    """(answer, None): the law checks need the Betti tuple only."""
    algebra = nilforms.parse_salamon(query.args[0])
    return {"betti": list(nilforms.betti_profile(algebra))}, None


def answer_lcs(nilforms, query):
    """(answer, raw): raw is (algebra, witness) for the law checks of a
    seeded draw, else None, so the process does not hold on to every
    algebra's cohomology cache."""
    text, height = query.args
    algebra = nilforms.parse_salamon(text)
    result = nilforms.find_lcs(algebra, nilforms.SearchConfig(height=height))
    witness = result.genuine_witness
    answer = {
        "status": result.genuine_status,
        "examined": result.examined,
        "omega": None if witness is None else nilforms.format_form(witness[0]),
        "theta": None if witness is None else nilforms.format_form(witness[1]),
    }
    return answer, (algebra, witness) if query.seeded else None


def load_expected():
    with open(EXPECTED_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def expected_answer(expected, workload, query):
    """The stored answer of a fixed query, or None if the query changed."""
    entry = expected.get(workload, {}).get(query.qid)
    if entry is None or entry["args"] != list(query.args):
        return None
    return entry["answer"]


# -- laws for seeded draws ----------------------------------------------------


def betti_laws(query, betti):
    """Failed laws of a Betti profile: Poincare duality, chi = 0, b0, b1."""
    failures = []
    n = len(betti) - 1
    if betti[0] != 1:
        failures.append("b0 != 1")
    if betti[1] != query.generators:
        failures.append(f"b1 = {betti[1]}, expected {query.generators}")
    if any(betti[k] != betti[n - k] for k in range(n + 1)):
        failures.append("Poincare duality fails")
    if sum((-1) ** k * b for k, b in enumerate(betti)) != 0:
        failures.append("Euler characteristic is not 0")
    return failures


def lcs_laws(query, answer, raw, oracles):
    """Failed laws of an lcs answer, recomputed through the test oracles.

    A witness must satisfy d(theta) = 0, d(omega) = theta ^ omega and have a
    nonzero Pfaffian (Pf^2 = det); theta != 0 makes it genuine, since exact
    1-forms vanish.  Seeded draws search height 1, so a miss must have
    examined all 3^b1 candidates (values -1, 0, 1 on each closed covector).
    """
    algebra, witness = raw
    total = 3 ** query.generators
    failures = []
    if witness is None:
        if answer["status"] != "NOT_FOUND_UP_TO_HEIGHT(1)":
            failures.append(f"status {answer['status']} without a witness")
        if answer["examined"] != total:
            failures.append(f"examined {answer['examined']}, expected {total}")
        return failures
    if answer["examined"] > total:
        failures.append(f"examined {answer['examined']} > {total} candidates")
    omega, theta = witness
    n = algebra.dim
    if all(oracles.eval_on_basis(theta, (i,)) == 0 for i in range(1, n + 1)):
        failures.append("theta is zero, so the witness is not genuine")
    for pair in itertools.combinations(range(1, n + 1), 2):
        if oracles.koszul_d_eval(algebra, theta, list(pair)) != 0:
            failures.append("theta is not closed")
            break
    for triple in itertools.combinations(range(1, n + 1), 3):
        if (oracles.koszul_d_eval(algebra, omega, list(triple))
                != oracles.shuffle_wedge_eval(theta, omega, list(triple))):
            failures.append("d(omega) != theta ^ omega")
            break
    skew = [[oracles.eval_on_basis(omega, (i, j)) if i != j else 0
             for j in range(1, n + 1)] for i in range(1, n + 1)]
    if oracles.sympy_matrix(skew).det() == 0:
        failures.append("omega is degenerate (Pfaffian 0)")
    return failures
