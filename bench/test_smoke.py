"""Seconds-long smoke run of the benchmark's own code.

    python3 -m pytest bench/test_smoke.py

Answers the cheap queries of every workload once and checks them exactly as
a full run does, traces one CLI call twice, and checks the seeded generator
and the refusal to run without a program.  Not part of the repository's
tier-1 suite, which collects ``tests/`` only.
"""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer as tracing
import workloads


def smoke_queries(workload, seed=3):
    return [q for q in workloads.queries(workload, seed) if q.smoke]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_smoke_answers_are_correct(workload):
    records = []
    run.run_pass(smoke_queries(workload), run.executor(workload, run.load_program()),
                 records, workload != "cli")
    assert len(records) == len(smoke_queries(workload))
    assert run.check(workload, records) == [None] * len(records)


def test_every_fixed_query_has_a_stored_answer():
    expected = workloads.load_expected()
    for workload in workloads.WORKLOADS:
        for query in workloads.queries(workload, 0):
            if not query.seeded:
                assert workloads.expected_answer(expected, workload, query) is not None


def test_traced_counts_repeat():
    nilforms = run.load_program()
    run.RUNS_DIR.mkdir(exist_ok=True)
    query = next(q for q in workloads.CLI_FIXED if q.qid == "analyze_filiform_4")
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        answer, _ = run.executor("cli", nilforms, tracer)(query)
        assert answer["exit"] == 0
        metrics = tracer.metrics()
        counts.append({k: v for k, v in metrics.items() if not k.endswith("_s")})
        assert metrics["cli.self_s"] > 0
    assert counts[0] == counts[1]
    assert counts[0]["linalg.calls"] > 0
    assert counts[0]["cohomology.spaces_built"] <= counts[0]["cohomology.space_requests"]


def test_only_named_private_functions_are_traced():
    nilforms = run.load_program()
    run.RUNS_DIR.mkdir(exist_ok=True)
    names = set()
    for qid in ("analyze_filiform_4", "model_check"):
        query = next(q for q in workloads.CLI_FIXED if q.qid == qid)
        tracer = tracing.Tracer()
        run.executor("cli", nilforms, tracer)(query)
        names |= {(span[1], span[2]) for span in tracer.spans}
    assert ("cohomology", "_d_matrix") in names
    assert ("coordinate_model", "verify_realization") in names
    assert {name for _, name in names if name.startswith("_")} == {"_d_matrix"}


def test_seeded_draws_repeat_and_vary():
    for workload in ("betti", "lcs_search"):
        first = workloads.queries(workload, 11)
        assert first == workloads.queries(workload, 11)
        assert first != workloads.queries(workload, 12)
    assert workloads.queries("cli", 11) == workloads.queries("cli", 11)


def test_laws_catch_a_wrong_betti_profile():
    query = next(q for q in workloads.queries("betti", 0) if q.qid == "random_8")
    assert workloads.betti_laws(query, [1, 3, 7, 12, 14, 12, 7, 3, 1]) == []
    assert workloads.betti_laws(query, [1, 3, 7, 12, 15, 12, 7, 3, 1]) != []


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("runs", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    with pytest.raises((json.JSONDecodeError, IndexError)):
        json.loads(done.stdout.strip().splitlines()[-1])
