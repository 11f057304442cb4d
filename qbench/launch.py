"""Run one ``qmatroids`` command with the layer wrappers installed.

Usage: ``python launch.py <qmatroids cli arguments>``, with ``PYTHONPATH``
naming the program's ``src`` directory.  ``QBENCH_SPAWN`` holds the
``time.time()`` at which the parent started this process and
``QBENCH_TRACE_OUT`` the file that receives the layer totals as JSON.
The exit code and output are those of ``qmatroids.cli.main``.
"""

import json
import os
import sys
import time

import qmatroids.cli

START_S = time.time() - float(os.environ["QBENCH_SPAWN"])

import layers  # noqa: E402  (after the timed import of qmatroids)


def main() -> int:
    tracer = layers.Tracer()
    layers.install(tracer)
    tracer.add("cli.start_s", START_S)
    try:
        return qmatroids.cli.main(sys.argv[1:])
    finally:
        with open(os.environ["QBENCH_TRACE_OUT"], "w") as fh:
            json.dump(tracer.snapshot(), fh)


if __name__ == "__main__":
    sys.exit(main())
