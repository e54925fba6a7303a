"""Run one `creature-lab` command under the tracer.

    python3 bench/cli_child.py STATS_FILE ARGS...

Behaves like `python3 -m creaturelab.cli ARGS...` (same stdout and exit
code) and writes the command's per-layer numbers to STATS_FILE as JSON:
the import time of creaturelab.cli, the tracer's installation time, and
the traced summary of `main`.
"""

import json
import sys
import time

if __name__ == "__main__":
    start = time.perf_counter()
    import creaturelab.cli as cli

    imported = time.perf_counter()
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    installed = time.perf_counter()
    tracer.begin()
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracer.end()
        summary = tracer.summary()
        summary["import_s"] = imported - start
        summary["install_s"] = installed - imported
        with open(sys.argv[1], "w") as fh:
            json.dump(summary, fh)
    sys.stdout.flush()
    sys.exit(code)
