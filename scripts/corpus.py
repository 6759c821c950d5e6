#!/usr/bin/env python3
"""The output corpus: one sha256 per command line, so that "the output did
not change" is one command.

    python scripts/corpus.py --check
    python scripts/corpus.py --write

Runs every command line of ``ARGVS`` through ``nilforms.cli.main`` in this
process and hashes its exit code, stdout and stderr together with the argv.
``--check`` compares the digests with ``tests/golden/corpus.json``, prints
the argv and the new output of each command line whose digest changed (and
of each one the file does not list), and exits 1 if there is any; ``--write``
rewrites that file, and only that file, from the current outputs.

The argv list covers the catalog and the 34 six-dimensional nilpotent
algebras (Salamon's list) under ``analyze``, ``analyze --json``,
``search-lcs --height 2`` and ``cohomology``; ``search-symplectic``; four
algebras of dimension 0-3 under ``analyze``, ``search-symplectic``,
``search-lcs --height 2`` and ``cohomology``, refusals included, and the
point under ``cohomology --theta 0``; the three solvable 4-dimensional
algebras that are not nilpotent under ``analyze``, ``search-lcs --height 2``
and ``cohomology``; ``search-lcs --height 1`` and ``--height 3`` on
``(0,0,12,13)`` and ``(0,0,0,0,12,34)``, ``search-lcs --height 0`` on the
first and ``search-lcs --max-candidates 5`` on the second;
``search-lcs --height 2`` on ``(0,0,0,0,12,14+25)`` in a dense basis;
``search-lcs --height 3 --max-candidates 50`` on the solvable
``(0,-12,0,0,0,0)`` and ``search-lcs --height 8`` on ``(0,-12,0,0)``; the
batteries with and without ``--json``; Hermitian pairs read from matrix
files; a dozen seeded ``bench/gen.py`` draws, pinned as literal tuples; and
the error paths with their exit codes.  Matrix files are written to a
temporary directory; an argv names them as ``{tmp}/NAME`` and is hashed in
that spelling.
"""

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "golden" / "corpus.json"

CATALOG = ("filiform_0_0_12_13", "kodaira_thurston", "six_dim_example", "torus4")

# the nilpotent Lie algebras of dimension 6 over R, in ascending spelling
CENSUS = (
    "(0,0,0,0,0,0)", "(0,0,0,0,0,12)", "(0,0,0,0,0,12+34)",
    "(0,0,0,0,12,13)", "(0,0,0,0,13-24,14+23)", "(0,0,0,0,12,14+23)",
    "(0,0,0,0,12,34)", "(0,0,0,0,12,14+25)", "(0,0,0,0,12,15)",
    "(0,0,0,0,12,15+34)",
    "(0,0,0,12,13,23)", "(0,0,0,12,13,14)", "(0,0,0,12,13,24)",
    "(0,0,0,12,14,15)", "(0,0,0,12,13,14+23)", "(0,0,0,12,13,14+35)",
    "(0,0,0,12,13+14,24)", "(0,0,0,12,14,13-24)", "(0,0,0,12,14,15+23)",
    "(0,0,0,12,14,15+24)", "(0,0,0,12,14,15+23+24)", "(0,0,0,12,14,24)",
    "(0,0,0,12,13-24,14+23)", "(0,0,0,12,23,14+35)", "(0,0,0,12,23,14-35)",
    "(0,0,0,12,14-23,15+34)",
    "(0,0,12,13,23,14+25)", "(0,0,12,13,23,14-25)", "(0,0,12,13,23,14)",
    "(0,0,12,13,14,15)", "(0,0,12,13,14,23+15)", "(0,0,12,13,14,34-25)",
    "(0,0,12,13,14+23,34-25)", "(0,0,12,13,14+23,24+15)",
)

# one algebra of each dimension 0-3, where every search but the symplectic
# one on (0,0) is refused (exit 3)
SMALL = ("()", "(0)", "(0,0)", "(0,0,12)")

# the three solvable 4-dimensional algebras that are not nilpotent (the
# tests' NON_NILPOTENT_4D): the lcs search takes each candidate's
# d_theta-closed 2-forms off the kernel of d_theta on Lambda^2, and on the
# first two, which are not unimodular, the Betti profile takes every rank
# and the Lefschetz maps run on a cohomology without Poincare duality
NON_NILPOTENT = ("(0,-12,0,0)", "(0,-12,0,-34)", "(0,-12,13,0)")

# bench/gen.py's draw(seed, "w", dim, generators) for (seed, dim, generators)
# = (0|1|2|3, 6, 2|3|2|3), (0|1, 7, 3|2), (1|2|3|5, 8, 4|3|2|3), (0|1, 10, 4|5)
DRAWS = (
    "(0,0,-12,-12-13,12+2*14,-14-15)",
    "(0,0,0,-13+23,-14+2*23+24,-14+23+24)",
    "(0,0,-12,-13+23,14+23-24,-13+14-15-34)",
    "(0,0,0,12+13,-23+2*24+2*34,-12+2*23)",
    "(0,0,0,-2*12+13,13-2*24+34,-14+2*24-2*25+35,-13-4*24+2*34)",
    "(0,0,12,-13+23,12+13,-2*14-15+2*24,13+14-24)",
    "(0,0,0,0,24+34,14-45,12+45,-24+2*46)",
    "(0,0,0,-12+23,23+24,-24-25,2*13-24,2*14+24+27)",
    "(0,0,12,-13-23,13-23,-12-14+15,2*13+26+34-35,-13-14-24)",
    "(0,0,0,-12+23,2*13-23,12+4*14+2*25,2*14+2*15+35,-13-2*14-2*15)",
    "(0,0,0,0,-2*[1,2]+[2,3],-[2,3]+[2,5],[1,3]+2*[1,5]+[3,5],2*[2,3]-[3,4],"
    "2*[1,3]+2*[1,7]+[3,7],-[1,3]+4*[1,9]+2*[3,9])",
    "(0,0,0,0,0,-[2,4]+[3,5],-[2,3]+[3,5],[1,2]-[2,6]+[2,7],-[2,4]+2*[3,4],"
    "-[2,6]-2*[3,4]-[5,7])",
)

# (0,0,0,0,12,14+25) on the basis of the tests' fixed_matrix(10, 6)
# (``oracles.change_basis``), pinned as a literal tuple
CHANGED_BASIS = (
    "(10*12+20*13+19/2*14+20*15+7*23+8*24-15*25+26+19/2*34-44*35+2*36-61/2*45"
    "+46+2*56,4*12+8*13+4*14+8*15+4*23+4*24-4*25+4*34-16*35-12*45,4*12+8*13"
    "+15/4*14+8*15+5/2*23+3*24-13/2*25+1/2*26+15/4*34-18*35+36-49/4*45+1/2*46"
    "+56,0,-6*12-12*13-23/4*14-12*15-9/2*23-5*24+17/2*25-1/2*26-23/4*34+26*35"
    "-36+73/4*45-1/2*46-56,-19*12-38*13-37/2*14-38*15-16*23-17*24+24*25-26"
    "-37/2*34+80*35-2*36+115/2*45-46-2*56)"
)

MATRICES = {
    "euclidean.json": [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "skewed.json": [[2, 1, 0, 0], [1, 2, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "asymmetric.json": [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "indefinite.json": [[1, 0, 0, 0], [0, -1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]],
    "j12_34.json": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
    "j13_24.json": [[0, 0, -1, 0], [0, 0, 0, -1], [1, 0, 0, 0], [0, 1, 0, 0]],
    "j14_23.json": [[0, 0, 0, -1], [0, 0, -1, 0], [0, 1, 0, 0], [1, 0, 0, 0]],
    "not_square.json": [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1]],
    "not_complex.json": [[0, 1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]],
}


def _pair(metric, acs, *flags):
    return ("analyze", "kodaira_thurston", "--metric", "{tmp}/" + metric,
            "--acs", "{tmp}/" + acs, *flags)


ARGVS = (
    *((command, *flags, source)
      for source in CATALOG + CENSUS
      for command, *flags in (("analyze",), ("analyze", "--json"),
                              ("search-lcs", "--height", "2"), ("cohomology",))),
    *(("search-symplectic", source) for source in CATALOG + CENSUS),
    *((command, *flags, source)
      for source in SMALL
      for command, *flags in (("analyze",), ("search-symplectic",),
                              ("search-lcs", "--height", "2"), ("cohomology",))),
    *((command, *flags, source)
      for source in NON_NILPOTENT
      for command, *flags in (("analyze",), ("search-lcs", "--height", "2"),
                              ("cohomology",))),
    # the candidate counts at heights 1 and 3, where the lcs search stops at
    # its first genuine pair and where it counts its misses in closed form
    *(("search-lcs", "--height", height, source)
      for source in ("(0,0,12,13)", "(0,0,0,0,12,34)") for height in ("1", "3")),
    # height 0, where x2 is a Lee form yet theta = 0 is the only candidate, and
    # a capped miss, counted in closed form under the cap
    ("search-lcs", "--height", "0", "(0,0,12,13)"),
    ("search-lcs", "--max-candidates", "5", "(0,0,0,0,12,34)"),
    # dense constants, where the lcs search skips three closed covectors
    # whose Pfaffian Q_i is zero before the fourth gives a pair
    ("search-lcs", "--height", "2", CHANGED_BASIS),
    # not nilpotent, so every candidate is decided: capped, the search runs
    # its first 50
    ("search-lcs", "--height", "3", "--max-candidates", "50", "(0,-12,0,0,0,0)"),
    # uncapped, its 87^3 candidates would sweep past the size budget, but
    # the genuine pair comes at the third
    ("search-lcs", "--height", "8", "(0,-12,0,0)"),
    ("search-symplectic", "--json", "(0,0,12,13)"),
    ("search-lcs", "--json", "--max-candidates", "2", "(0,0,12,13)"),
    ("analyze", "--quiet", "(0,0,12,13)"),
    ("cohomology", "--theta", "x2", "(0,0,12,13)"),
    ("cohomology", "--json", "--theta", "x2", "(0,0,12,13)"),
    ("cohomology", "--theta", "0", "()"),
    ("verify-paper",), ("verify-paper", "--json"),
    ("model-check",), ("model-check", "--json"),
    _pair("euclidean.json", "j12_34.json"),
    _pair("euclidean.json", "j12_34.json", "--json"),
    _pair("euclidean.json", "j13_24.json"),
    _pair("euclidean.json", "j14_23.json", "--json"),
    _pair("skewed.json", "j12_34.json"),
    _pair("asymmetric.json", "j12_34.json"),
    _pair("indefinite.json", "j12_34.json"),
    _pair("euclidean.json", "not_square.json"),
    _pair("euclidean.json", "not_complex.json"),
    ("analyze", "kodaira_thurston", "--metric", "{tmp}/euclidean.json"),
    *((command, source) for source in DRAWS for command in ("analyze", "cohomology")),
    # exit 2: syntax
    ("analyze", "(0,0,12"),
    ("cohomology", "--theta", "x2+", "(0,0,12,13)"),
    # exit 3: structurally invalid input
    ("analyze", "(0,0,12,34)"),
    ("analyze", "(" + ",".join("0" * 30) + ")"),
    ("cohomology", "--theta", "x3", "(0,0,12,13)"),
    ("analyze", "no_such_algebra"),
    ("search-lcs", "--height", "-1", "torus4"),
)


def run(argv, tmp):
    """(exit code, stdout, stderr) of one command line, in this process."""
    from nilforms.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([arg.replace("{tmp}", tmp) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def digest(argv, code, out, err):
    record = json.dumps([list(argv), code, out, err], ensure_ascii=False)
    return hashlib.sha256(record.encode("utf-8")).hexdigest()


def outputs():
    """Each argv of ``ARGVS`` with its (exit code, stdout, stderr)."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, matrix in MATRICES.items():
            Path(tmp, name).write_text(json.dumps(matrix), encoding="utf-8")
        return [(argv, run(argv, tmp)) for argv in ARGVS]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--check", action="store_true",
                      help="compare the outputs with the corpus file")
    mode.add_argument("--write", action="store_true",
                      help="rewrite the corpus file from the outputs")
    args = parser.parse_args(argv)

    results = outputs()
    if args.write:
        entries = [{"argv": list(argv), "sha256": digest(argv, *result)}
                   for argv, result in results]
        CORPUS.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {len(entries)} digests to {CORPUS.relative_to(ROOT)}")
        return 0

    recorded = {tuple(entry["argv"]): entry["sha256"]
                for entry in json.loads(CORPUS.read_text(encoding="utf-8"))}
    changed = 0
    for argv, (code, out, err) in results:
        if recorded.pop(argv, None) != digest(argv, code, out, err):
            changed += 1
            print(f"changed: {' '.join(argv)}\nexit {code}\n--- stdout\n{out}--- stderr\n{err}")
    for argv in recorded:
        print(f"no longer run: {' '.join(argv)}")
    print(f"{len(results) - changed} of {len(results)} outputs as recorded, "
          f"{len(recorded)} recorded ones no longer run")
    return 1 if changed or recorded else 0

if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    sys.exit(main())
