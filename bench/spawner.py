"""Start the benchmark's CLI calls from a small interpreter.

    python3 -S bench/spawner.py

A child's ``ru_maxrss`` starts at the memory peak of the process that starts
it, so CLI calls started by ``run.py`` itself would report ``run.py``'s
peak, not their own.  This process stays small.  It reads one JSON line per
call from stdin (``cmd``, ``cwd``, ``env``, ``timeout``), runs the call and
writes one JSON line back: exit code (None on a timeout), stdout, stderr,
and the largest ``ru_maxrss`` in KiB of the calls so far.  It exits at the
end of its input.
"""

import json
import resource
import subprocess
import sys


def main():
    for line in sys.stdin:
        call = json.loads(line)
        try:
            done = subprocess.run(call["cmd"], cwd=call["cwd"], env=call["env"],
                                  capture_output=True, text=True,
                                  timeout=call["timeout"])
            reply = {"exit": done.returncode, "stdout": done.stdout,
                     "stderr": done.stderr}
        except subprocess.TimeoutExpired:
            reply = {"exit": None, "stdout": "", "stderr": "timed out"}
        reply["peak_kib"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
