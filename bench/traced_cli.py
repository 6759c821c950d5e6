"""One ``nilforms`` CLI call in a fresh interpreter, under the layer tracer.

    python3 bench/traced_cli.py STATE_FILE ARG...

Installs the wrappers of ``tracer.py``, calls ``nilforms.cli.main(ARGS)``,
writes the tracer's spans and counters to STATE_FILE as JSON and exits with
the CLI's exit code.  ``run.py --workload cli --trace 1`` starts one of these
per query.
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import tracer as tracing  # noqa: E402


def main():
    state_path, argv = sys.argv[1], sys.argv[2:]
    tracer = tracing.Tracer()
    tracing.install(tracer)
    import nilforms.cli

    code = tracer.run_query(None, nilforms.cli.main, argv)
    sys.stdout.flush()
    with open(state_path, "w", encoding="utf-8") as handle:
        json.dump(tracer.state(), handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
