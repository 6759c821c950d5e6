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
point under ``cohomology --theta 0``; the batteries with and without ``--json``; Hermitian pairs read from matrix
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
