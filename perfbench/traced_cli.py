"""Run one ``mixprec`` command with layer spans recorded.

Usage: python perfbench/traced_cli.py SPANS.json COMMAND [ARGS...]

Behaves like ``python -m mixprec COMMAND [ARGS...]`` and additionally
writes the command's spans to SPANS.json.  run.py uses it for the traced
pass of the CLI workloads.
"""

import json
import sys

import tracing


def main(argv) -> int:
    spans_path, command = argv[0], argv[1:]
    import mixprec.cli

    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        return mixprec.cli.main(command)
    finally:
        uninstall()
        with open(spans_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.spans, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
