"""``python -m cupcap.cli`` with tracing, for traced ``cli_certify`` steps.

Usage: ``python3 perfbench/traced_cli.py SPANS_OUT CLI_ARG...``.  Runs the
CLI's ``main`` inside a ``cli.main`` span with every traced function
wrapped, then writes the aggregated spans to SPANS_OUT as JSON and exits
with ``main``'s code.
"""

import json
import sys
from pathlib import Path

import cupcap.cli

from tracing import CLI_MAIN, Tracer


def run(out: str, argv: list[str]) -> int:
    tracer = Tracer()
    tracer.install()
    try:
        return tracer.span(CLI_MAIN, cupcap.cli.main, argv)
    finally:
        tracer.uninstall()
        Path(out).write_text(json.dumps(tracer.snapshot()))


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
