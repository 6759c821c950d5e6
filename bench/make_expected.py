#!/usr/bin/env python3
"""Regenerate ``bench/expected.json``: the stored answer of every fixed query.

    python3 bench/make_expected.py

Answers each fixed query once with the program in ``src/``: the Betti tuple;
for lcs the status, candidates examined and formatted witness; for the CLI
the exit code, stdout and stderr.  Run it only when an output change is
intended, and say so in the change.

Every Betti tuple is recomputed by routes that share no code with the
program before anything is written; a disagreement stops the script:

* ``tests/oracles.betti_by_koszul`` (Koszul-formula differentials, sympy
  ranks) for dimension <= ORACLE_MAX_DIM; at dimension 8 it takes about
  three minutes per algebra, and it grows too fast to run at dimension 10;
* for every algebra, sympy ranks of the differential built by this
  directory's own tuple reader and Leibniz-rule code (``gen``).
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

import run
import workloads
from gen import differential, from_tuple

ORACLE_MAX_DIM = 8


def betti_by_sympy(text):
    import sympy

    dim, dx = from_tuple(text)
    ranks = []
    for k in range(dim):
        domain = list(itertools.combinations(range(1, dim + 1), k))
        codomain = list(itertools.combinations(range(1, dim + 1), k + 1))
        index = {mono: r for r, mono in enumerate(codomain)}
        matrix = sympy.zeros(len(codomain), len(domain))
        for c, mono in enumerate(domain):
            for out, coeff in differential({mono: 1}, dx).items():
                matrix[index[out], c] = coeff
        ranks.append(matrix.rank())
    ranks.append(0)
    sizes = [len(list(itertools.combinations(range(dim), k))) for k in range(dim + 1)]
    return tuple(sizes[k] - ranks[k] - (ranks[k - 1] if k else 0) for k in range(dim + 1))


def cross_check(query, betti):
    """Names of the routes that agree with ``betti``; raises on a mismatch."""
    routes = {"sympy ranks of an independent differential": betti_by_sympy}
    dim, _ = from_tuple(query.args[0])
    if dim <= ORACLE_MAX_DIM:
        sys.path.insert(0, str(run.ROOT / "tests"))
        import oracles

        nilforms = run.load_program()
        routes["tests/oracles.betti_by_koszul"] = (
            lambda text: oracles.betti_by_koszul(nilforms.parse_salamon(text)))
    for name, route in routes.items():
        other = list(route(query.args[0]))
        if other != betti:
            raise SystemExit(f"{query.qid}: program says {betti}, {name} says {other}")
        print(f"  {query.qid}: {name} agrees", flush=True)
    return sorted(routes)


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)

    nilforms = run.load_program()
    out = {}
    for workload, fixed in (("betti", workloads.BETTI_FIXED),
                            ("lcs_search", workloads.LCS_FIXED),
                            ("cli", workloads.CLI_FIXED)):
        execute = run.executor(workload, nilforms)
        out[workload] = {}
        for query in fixed:
            answer, _ = execute(query)
            entry = {"args": list(query.args), "answer": answer}
            if workload == "betti":
                entry["cross_checked_by"] = cross_check(query, answer["betti"])
            out[workload][query.qid] = entry
            print(f"{workload} {query.qid}: done", flush=True)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
