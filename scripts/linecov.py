#!/usr/bin/env python3
"""Line map of ``src/nilforms`` under a pytest run, on the stdlib alone.

    python scripts/linecov.py [pytest arguments ...]

Runs pytest in this process with the given arguments (for example
``-q tests/test_notation.py``, or ``-q`` for the whole suite) and traces
every line of ``src/nilforms`` it executes, from before the package is
first imported, so module-level lines count too.  It then prints, for each
module, the executable lines that never ran, and a total.  A line is
executable when one of the module's compiled code objects maps an
instruction to it.  Only this process is traced: the CLI subprocesses that
some tests start import the same ``src`` but add nothing to the map.  The
exit status is pytest's.

Tracing makes the suite about three times slower.
"""

import os
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
PACKAGE = SRC / "nilforms"


def executable_lines(path):
    """The line numbers that the compiled code of ``path`` maps to."""
    lines = set()
    pending = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while pending:
        code = pending.pop()
        # None and 0 (a module's entry instruction) name no source line
        lines.update(line for _, _, line in code.co_lines() if line)
        pending.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    return lines


def ranges(numbers):
    """``[1, 2, 3, 7]`` as ``"1-3, 7"``."""
    spans = []
    for n in sorted(numbers):
        if spans and spans[-1][1] == n - 1:
            spans[-1][1] = n
        else:
            spans.append([n, n])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in spans)


def main(argv):
    prefix = str(PACKAGE) + "/"
    reached = {}

    def local(frame, event, arg):
        reached[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        reached.setdefault(filename, set()).add(frame.f_lineno)
        return local

    # this process and the ones its tests start import the same package
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import pytest

    sys.settrace(global_)
    try:
        status = pytest.main(argv)
    finally:
        sys.settrace(None)

    total_unreached = total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = executable_lines(path)
        unreached = lines - reached.get(str(path), set())
        total += len(lines)
        total_unreached += len(unreached)
        shown = f": {ranges(unreached)}" if unreached else ""
        print(f"{path.relative_to(SRC.parent)}: {len(unreached)} of {len(lines)} "
              f"lines unreached{shown}")
    print(f"total: {total_unreached} of {total} executable lines unreached")
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
