"""Smoke runs of the scripts under ``scripts/``, as subprocesses.

Only their output is checked; the times they print are never asserted.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_linecov_maps_the_lines_one_test_file_reaches():
    out = run_script("linecov.py", "-q", "-p", "no:cacheprovider",
                     "tests/test_scalars_linalg.py")
    assert "passed" in out
    # the file never runs the package as a program
    assert "src/nilforms/__main__.py: 4 of 4 lines unreached: 1, 3, 5-6" in out
    assert re.search(r"^src/nilforms/scalars\.py: \d+ of \d+ lines unreached", out, re.M)
    assert re.search(r"^total: \d+ of \d+ executable lines unreached$", out, re.M)


def test_corpus_check_finds_every_output_as_recorded():
    out = run_script("corpus.py", "--check")
    assert re.search(r"^(\d+) of \1 outputs as recorded, 0 recorded ones no longer run$",
                     out, re.M)


def test_every_script_has_a_smoke_run():
    scripts = {path.name for path in (ROOT / "scripts").glob("*.py")}
    run = set(re.findall(r'run_script\("([^"]+)"', Path(__file__).read_text()))
    assert scripts <= run, f"scripts without a smoke run: {sorted(scripts - run)}"


def test_the_readme_names_exactly_the_scripts():
    scripts = {path.name for path in (ROOT / "scripts").glob("*.py")}
    named = set(re.findall(r"scripts/(\w+\.py)", (ROOT / "README.md").read_text()))
    assert named == scripts
