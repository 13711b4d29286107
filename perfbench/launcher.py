"""Start ``repro serve`` in this process, optionally with the layer wrappers installed.

    python3 -u perfbench/launcher.py TRACE_OUT serve CSV... --use-index --data-dir DIR

``TRACE_OUT`` is ``-`` for an untraced server.  Otherwise the wrappers of
``tracer.install`` are patched in before ``repro.cli.main`` runs, and on
SIGUSR1 the tracer's aggregates (plus the CPU time used since start) are
written to ``TRACE_OUT`` as JSON, so the harness can collect them before it
kills the server.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def main(argv) -> int:
    trace_out, cli_args = argv[0], argv[1:]
    if trace_out != "-":
        from tracer import Tracer, install, summary

        tracer = install(Tracer())
        cpu_start = time.process_time()

        def dump(signum, frame):
            data = summary(tracer)
            data["cpu_s"] = time.process_time() - cpu_start
            partial = trace_out + ".part"
            with open(partial, "w") as handle:
                json.dump(data, handle)
            os.replace(partial, trace_out)

        signal.signal(signal.SIGUSR1, dump)
    from repro.cli import main as cli_main

    return cli_main(cli_args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
