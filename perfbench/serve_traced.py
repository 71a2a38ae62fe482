"""``repro serve`` with the span wrappers installed in the daemon.

``python3 perfbench/serve_traced.py SPANS.npz serve --state-dir ...``
installs the wrappers before the service is built, runs the CLI, and
writes the recorded spans when the daemon exits (SIGTERM drains it).
"""

from __future__ import annotations

import sys

import spans


def main(argv) -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    from repro.cli import main as cli_main

    try:
        return cli_main(argv[1:])
    finally:
        tracer.dump(argv[0])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
