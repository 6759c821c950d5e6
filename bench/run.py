#!/usr/bin/env python3
"""The nilforms benchmark: one closed-loop client, one query at a time.

    python3 bench/run.py --workload {betti,lcs_search,cli} --seed N \\
        --seconds S --trace {0,1}

Run from anywhere; the program is imported from ``src/`` next to this
directory, never from an installed copy.  Human-readable lines go to stdout;
the last line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, measured without tracing.  With ``--trace 1`` the run
answers one untraced and one traced pass and reports the per-layer metrics
of the traced pass plus the tracing overhead.  Each run also writes a result
file (metrics, every query latency, provenance) and, when traced, the spans,
under ``bench/runs/``.  See ``bench/README.md`` for the workloads and the
metrics.
"""

from __future__ import annotations

import argparse
import atexit
import gc
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = BENCH_DIR / "runs"
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from gen import kernel  # noqa: E402

# A run answers max(MIN_PASSES, round(seconds / SECONDS_PER_PASS)) passes, so
# the amount of work depends on --seconds only, never on measured speed: both
# sides of a comparison answer the same queries the same number of times.
# SECONDS_PER_PASS is the median wall time of one pass on a 2-CPU Xeon with
# Python 3.11 (30, 20 and 50 passes over ten seeds).  At --seconds 15 a run
# answers 2, 2 and 8 passes, about 15, 24 and 16 s of queries: lcs_search
# runs over, because a median needs two passes.
SECONDS_PER_PASS = {"betti": 7.5, "lcs_search": 11.8, "cli": 2.0}
MIN_PASSES = 2
SETUP_PROBES = 9
SETUP_PROBE = ("import sys\nimport nilforms\n"
               "for text in sys.argv[1:]:\n    nilforms.parse_salamon(text)\n")
CHILD_TIMEOUT_S = 150

# The host's speed drifts by up to 1.8x over seconds to minutes, so wall
# times spread 10-40% between runs of the same code.  Each query and set-up
# probe is therefore also measured at reference speed: its time divided by
# the host's slowdown, the mean of reference timings taken before and after
# it, each over its usual time on the defining host (2-CPU Xeon, Python
# 3.11).  In-process queries use a fixed exact elimination by the benchmark's
# own code, also run every TICK_S inside the query by a timer signal whose
# time is taken off the query's.  Child processes (CLI calls, set-up probes)
# use an interpreter that runs nothing: the elimination, timed in the waiting
# parent, does not follow their speed.  The program never runs in either.
REFERENCE_KEYS = list(range(16))
REFERENCE_COLUMNS = [{r: Fraction(((r + 1) * (c + 3)) % 7 - 3, (r + c) % 4 + 1)
                      for r in REFERENCE_KEYS} for c in range(18)]
REFERENCE_S = 0.015
PROCESS_REFERENCE_S = 0.060
TICK_S = 0.5


@dataclass
class Record:
    query: workloads.Query
    latency: float
    slowdown: float  # host slowdown around the query (see REFERENCE_S)
    answer: object
    raw: object
    error: str | None


class HarnessError(Exception):
    """The benchmark cannot run here (no program, or a broken set-up)."""


def child_env():
    """Environment of every child interpreter: the program from ``src/``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def load_program():
    if not (SRC / "nilforms" / "__init__.py").is_file():
        raise HarnessError(f"no program to measure: {SRC / 'nilforms'} is missing")
    # compiled as an installed package is, whatever the caller's
    # PYTHONDONTWRITEBYTECODE says: no interpreter then pays for compiling,
    # not even the first in a fresh checkout.  In a child, before the import
    # below, so that compiling adds nothing to this process's memory peak.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC / "nilforms")],
                   check=True, timeout=CHILD_TIMEOUT_S)
    sys.path.insert(0, str(SRC))
    import nilforms

    if Path(nilforms.__file__).resolve().parent != (SRC / "nilforms").resolve():
        raise HarnessError(f"imported nilforms from {nilforms.__file__}, not {SRC}")
    return nilforms


def setup_probe(tuples):
    """(wall time, host slowdown) of one fresh interpreter importing nilforms
    and parsing ``tuples``: what a user waits for before the first query."""
    before = process_slowdown()
    start = time.perf_counter()
    done = subprocess.run([sys.executable, "-c", SETUP_PROBE, *tuples],
                          env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    elapsed = time.perf_counter() - start
    if done.returncode != 0:
        raise HarnessError(f"set-up probe failed: {done.stderr.strip()}")
    return elapsed, (before + process_slowdown()) / 2


class Spawner:
    """The small process that starts every CLI call (see ``spawner.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, "-S", str(BENCH_DIR / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.peak_kib = 0  # largest ru_maxrss of the calls so far

    def run(self, cmd):
        self.proc.stdin.write(json.dumps({"cmd": cmd, "cwd": str(ROOT), "env": child_env(),
                                          "timeout": CHILD_TIMEOUT_S}) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        self.peak_kib = reply.pop("peak_kib")
        return reply

    def close(self):
        self.proc.stdin.close()
        self.proc.wait(timeout=CHILD_TIMEOUT_S)
        self.proc.stdout.close()


_spawner = None


def spawner():
    """This process's Spawner, started on first use and stopped at exit."""
    global _spawner
    if _spawner is None:
        _spawner = Spawner()
        atexit.register(_spawner.close)
    return _spawner


def run_cli(argv, traced_state=None):
    cmd = [sys.executable, "-m", "nilforms", *argv]
    if traced_state is not None:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(traced_state), *argv]
    return spawner().run(cmd)


def executor(workload, nilforms, tracer=None):
    """Function answering one query: returns (answer, raw result)."""
    if workload == "betti":
        return lambda q: workloads.answer_betti(nilforms, q)
    if workload == "lcs_search":
        return lambda q: workloads.answer_lcs(nilforms, q)
    if tracer is None:
        return lambda q: (run_cli(q.args), None)

    def traced(q):
        state_path = RUNS_DIR / f"state-{os.getpid()}.json"
        try:
            answer = run_cli(q.args, state_path)
            with open(state_path, encoding="utf-8") as handle:
                tracer.merge(json.load(handle), q.qid)
        finally:
            state_path.unlink(missing_ok=True)
        return answer, None

    return traced


def compute_slowdown():
    """Time of the reference elimination over REFERENCE_S."""
    start = time.perf_counter()
    kernel(REFERENCE_COLUMNS, REFERENCE_KEYS)
    return (time.perf_counter() - start) / REFERENCE_S


def process_slowdown():
    """Time of an interpreter that runs nothing over PROCESS_REFERENCE_S."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=child_env(), cwd=ROOT,
                   capture_output=True, timeout=CHILD_TIMEOUT_S, check=True)
    return (time.perf_counter() - start) / PROCESS_REFERENCE_S


def run_pass(queries, execute, records, in_process, tracer=None):
    """Answer every query once, in order; returns the pass time, the sum of
    the query latencies.

    Each query starts after a full garbage collection, outside its timer, so
    it does not pay for collecting what earlier queries left behind.  The
    host slowdown is sampled between queries and, for in-process queries,
    every TICK_S inside them (see REFERENCE_S); a tick's time is taken off
    the query's latency and, with a tracer, off the spans open around it.
    With a tracer, each query runs under a root span of its own."""
    sample = compute_slowdown if in_process else process_slowdown
    tick = in_process
    ticks = []

    def on_tick(*_):
        start = time.perf_counter_ns()
        slowdown = compute_slowdown()
        end = time.perf_counter_ns()
        ticks.append((start / 1e9, slowdown, end / 1e9))
        if tracer is not None:
            tracer.paused_ns += end - start

    if tick:
        handler = signal.signal(signal.SIGALRM, on_tick)
    total = 0.0
    before = sample()
    try:
        for q in queries:
            gc.collect()
            ticks.clear()
            if tick:
                signal.setitimer(signal.ITIMER_REAL, TICK_S, TICK_S)
            t0 = time.perf_counter()
            try:
                if tracer is not None:
                    answer, raw = tracer.run_query(q.qid, execute, q)
                else:
                    answer, raw = execute(q)
                error = None
            except Exception as exc:  # a failing query is counted, not fatal
                answer, raw, error = None, None, f"{type(exc).__name__}: {exc}"
            if tick:
                signal.setitimer(signal.ITIMER_REAL, 0)
            latency = time.perf_counter() - t0 - sum(end - start for start, _, end in ticks)
            after = sample()
            slowdown = statistics.mean([before, *(s for _, s, _ in ticks), after])
            records.append(Record(q, latency, slowdown, answer, raw, error))
            total += latency
            before = after
    finally:
        if tick:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, handler)
    return total


def check(workload, records):
    """Failure reason per record (None when the answer is right)."""
    expected = workloads.load_expected()
    oracles = None
    law_failures = {}
    first_answer = {}
    reasons = []
    for rec in records:
        q = rec.query
        if rec.error is not None:
            reasons.append(rec.error)
            continue
        if not q.seeded:
            want = workloads.expected_answer(expected, workload, q)
            reasons.append(None if rec.answer == want else
                           "no stored answer" if want is None else "wrong answer")
            continue
        if q.qid not in law_failures:
            first_answer[q.qid] = rec.answer
            if workload == "betti":
                law_failures[q.qid] = workloads.betti_laws(q, rec.answer["betti"])
            else:
                try:
                    if oracles is None and rec.raw[1] is not None:
                        sys.path.insert(0, str(ROOT / "tests"))
                        import oracles
                    law_failures[q.qid] = workloads.lcs_laws(q, rec.answer, rec.raw,
                                                             oracles)
                except ImportError as exc:
                    law_failures[q.qid] = [f"cannot check the witness: {exc}"]
        if law_failures[q.qid]:
            reasons.append("; ".join(law_failures[q.qid]))
        elif rec.answer != first_answer[q.qid]:
            reasons.append("answer differs between passes")
        else:
            reasons.append(None)
    return reasons


def digest(records, per_pass):
    """Short hash of the first pass's answers, to show behaviour is unchanged."""
    first = [[r.query.qid, r.answer] for r in records[:per_pass]]
    blob = json.dumps(first, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def latencies_by_query(records, at_reference=False):
    """Latencies per query id; ``at_reference`` divides each by the host
    slowdown measured around it."""
    by_query = {}
    for rec in records:
        latency = rec.latency / rec.slowdown if at_reference else rec.latency
        by_query.setdefault(rec.query.qid, []).append(latency)
    return by_query


def tail(latencies):
    """(value, percentile, samples beyond): the highest percentile with at
    least ten samples beyond it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True)
            commit = done.stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "nilforms").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "seed": seed,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    nilforms = load_program()
    RUNS_DIR.mkdir(exist_ok=True)
    queries = workloads.queries(args.workload, args.seed)
    info = provenance(args.seed)
    is_cli = args.workload == "cli"
    if is_cli:
        spawner()  # started here, so that no query's time includes its start
    records = []
    printed = {}  # reported in the result file, not in the JSON line
    lines = [
        f"workload {args.workload}  seed {args.seed}  {len(queries)} queries per pass"
        "  (closed loop, one client)",
        f"provenance: python {info['python']}, nproc {info['nproc']}, "
        f"cpu {info['cpu_model']}, commit {info['git_commit'] or 'none'}, "
        f"source sha256 {info['source_sha256'][:16]}, seed {args.seed}",
    ]

    if args.trace:
        run_pass(queries, executor(args.workload, nilforms), records, not is_cli)
        tracer = tracing.Tracer()
        if not is_cli:
            tracing.install(tracer)
        run_pass(queries, executor(args.workload, nilforms, tracer), records,
                 not is_cli, None if is_cli else tracer)
        # both passes at reference speed, so that host drift between them
        # does not read as tracing cost
        untraced, traced = (sum(r.latency / r.slowdown for r in part)
                            for part in (records[:len(queries)], records[len(queries):]))
        metrics = tracer.metrics()
        metrics["trace.overhead_s"] = traced - untraced
        tracer.dump(RUNS_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl")
        units = {name: ("s" if name.endswith("_s") else
                        "ratio" if name.endswith("_ratio") else "count")
                 for name in metrics}
        lines.append(f"traced pass {traced:.4f} s, untraced pass {untraced:.4f} s "
                     f"at reference speed, tracing overhead {traced - untraced:.4f} s")
        lines += [f"{name:28s} {value} {units[name]}" for name, value in metrics.items()]
        passes = 2
    else:
        tuples = [] if is_cli else [q.args[0] for q in queries]
        passes = max(MIN_PASSES, round(args.seconds / SECONDS_PER_PASS[args.workload]))
        execute = executor(args.workload, nilforms)
        setup_probe(tuples)  # warm-up, unmeasured
        probes, pass_totals = [], []
        for _ in range(passes):
            # set-up probes are spread over the run, so that they sample the
            # host's speed at the same moments as the passes do
            probes += [setup_probe(tuples) for _ in range(-(-SETUP_PROBES // passes))]
            pass_totals.append(run_pass(queries, execute, records, not is_cli))
        peak_kib = (spawner().peak_kib if is_cli else
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
        peak_rss_mb = peak_kib / 1024
        latencies = [r.latency for r in records]
        tail_s, tail_pct, beyond = tail(latencies)
        q1, _, q3 = statistics.quantiles(pass_totals, n=4)
        # pass time: the median pass, each query at its median over the
        # passes, so that every pass counts for every query
        metrics = {
            "setup_s": statistics.median(wall / slowdown for wall, slowdown in probes),
            "pass_s": sum(statistics.median(v) for v in
                          latencies_by_query(records, at_reference=True).values()),
            "peak_rss_mb": peak_rss_mb,
        }
        units = {"setup_s": "s", "pass_s": "s", "peak_rss_mb": "MiB"}
        printed = {
            "setup_wall_s": statistics.median(wall for wall, _ in probes),
            "pass_wall_s": sum(statistics.median(v) for v in
                               latencies_by_query(records).values()),
            "host_slowdown": statistics.median(r.slowdown for r in records),
            "query_p50_s": statistics.median(latencies), "query_tail_s": tail_s,
            "query_tail_percentile": tail_pct, "pass_totals_s": pass_totals,
            "setup_probes": probes,
        }
        lines += [
            f"setup_s       {metrics['setup_s']:.4f} s at reference speed  "
            f"(median of {len(probes)} fresh interpreters; wall "
            f"{printed['setup_wall_s']:.4f} s)",
            f"pass_s        {metrics['pass_s']:.4f} s at reference speed  (median pass "
            f"of {passes}; wall {printed['pass_wall_s']:.4f} s; pass totals median "
            f"{statistics.median(pass_totals):.4f}, q1 {q1:.4f}, q3 {q3:.4f})",
            f"host slowdown {printed['host_slowdown']:.3f}  (reference time over "
            "its usual time, median over queries)",
            f"query_p50_s   {printed['query_p50_s']:.4f} s  ({len(latencies)} samples)",
            f"query_tail_s  {tail_s:.4f} s  (p{tail_pct:.1f}; {beyond} of "
            f"{len(latencies)} samples beyond)",
            f"peak_rss_mb   {peak_rss_mb:.1f} MiB"
            f"{'  (largest CLI call)' if is_cli else ''}",
        ]

    reasons = check(args.workload, records)
    failed = sum(1 for reason in reasons if reason is not None)
    lines.append(f"fail_ratio    {failed / len(records):.4f}  "
                 f"({failed} failed / {len(records)} attempted)")
    for rec, reason in zip(records, reasons):
        if reason is not None:
            lines.append(f"  FAILED {rec.query.qid}: {reason}")
    lines.append(f"output digest {digest(records, len(queries))}")

    result_file = RUNS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(result_file, "w", encoding="utf-8") as handle:
        json.dump({
            "workload": args.workload, "passes": passes, "provenance": info,
            "metrics": metrics, "printed": printed,
            "attempted": len(records), "failed": failed,
            "digest": digest(records, len(queries)),
            "query_args": {q.qid: list(q.args) for q in queries},
            "query_latency_s": latencies_by_query(records),
        }, handle, indent=1)
    lines.append(f"result file {result_file.relative_to(ROOT)}")

    for line in lines:
        print(line)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except HarnessError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
